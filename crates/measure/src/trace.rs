//! Sampled power traces, energy integration, and structured event logs.

use edgebench_devices::faults::FaultEvent;
use std::fmt;

/// A time-ordered series of `(time_s, power_w)` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    samples: Vec<(f64, f64)>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        PowerTrace::default()
    }

    /// Creates a trace from samples.
    ///
    /// # Panics
    ///
    /// Panics if timestamps are not non-decreasing.
    #[cfg(test)]
    fn from_samples(samples: Vec<(f64, f64)>) -> Self {
        assert!(
            samples.windows(2).all(|w| w[0].0 <= w[1].0),
            "samples must be time-ordered"
        );
        PowerTrace { samples }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` precedes the last sample.
    pub(crate) fn push(&mut self, time_s: f64, power_w: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time_s >= last, "samples must be time-ordered");
        }
        self.samples.push((time_s, power_w));
    }

    /// Trace duration in seconds (0 for fewer than two samples).
    pub(crate) fn duration_s(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.0 - a.0,
            _ => 0.0,
        }
    }

    /// Trapezoidal energy integral in joules.
    pub(crate) fn energy_j(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0))
            .sum()
    }

    /// Mean power in watts (0 for an empty trace).
    pub(crate) fn mean_power_w(&self) -> f64 {
        let d = self.duration_s();
        if d > 0.0 {
            self.energy_j() / d
        } else if let Some(&(_, p)) = self.samples.first() {
            p
        } else {
            0.0
        }
    }
}

/// A time-ordered structured event log — the measurement-side view of a
/// fault-injection run (or any other labelled timeline). Entries carry a
/// stable textual label so logs from identically-seeded runs compare
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    entries: Vec<EventEntry>,
}

/// One `(time, frame, label)` entry of an [`EventLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry {
    /// Timestamp rendered with fixed precision (µs) for stable ordering
    /// and byte-identical serialization.
    pub time_us: u64,
    /// Frame index the event belongs to.
    pub frame: usize,
    /// Stable textual description (from the fault event's `Display`).
    pub label: String,
}

/// A resilience-layer event from the serving fleet simulator: hedges,
/// retries, circuit-breaker transitions and degradation-ladder steps.
/// Timestamps are integer nanoseconds off the simulator clock, so the
/// event stream is exact and replays byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    /// Simulator time, nanoseconds.
    pub time_ns: u64,
    /// Request index the event belongs to (for replica-scoped events,
    /// the replica's batch counter at the time of the transition).
    pub request: usize,
    /// What happened.
    pub kind: ServeEventKind,
}

/// The kinds of [`ServeEvent`]. `Display` strings are stable — they are
/// part of the byte-identical CSV contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEventKind {
    /// A hedge copy of a straggling request was dispatched `from` → `to`.
    Hedge {
        /// Replica the primary copy is queued or running on.
        from: usize,
        /// Replica the hedge copy was dispatched to.
        to: usize,
    },
    /// The hedge copy finished first; the primary was cancelled.
    HedgeWin {
        /// Replica whose copy won.
        replica: usize,
    },
    /// A lost request was re-dispatched under the retry budget.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Replica the retry was dispatched to.
        replica: usize,
    },
    /// The retry budget was exhausted; the request degraded to shed.
    RetryShed,
    /// A replica's circuit breaker tripped Closed → Open.
    BreakerOpen {
        /// Replica whose breaker tripped.
        replica: usize,
    },
    /// The cool-down elapsed; the breaker moved Open → HalfOpen.
    BreakerHalfOpen {
        /// Replica being probed.
        replica: usize,
    },
    /// Half-open probes succeeded; the breaker closed again.
    BreakerClose {
        /// Replica restored to service.
        replica: usize,
    },
    /// The dispatcher stepped a replica *down* its degradation ladder.
    LadderDown {
        /// Replica that degraded.
        replica: usize,
        /// Rung now being served (0 = native precision).
        rung: usize,
    },
    /// Queue pressure cleared; the replica stepped back *up* one rung.
    LadderUp {
        /// Replica that recovered fidelity.
        replica: usize,
        /// Rung now being served.
        rung: usize,
    },
    /// The autoscaler started warming up a standby replica.
    ScaleUp {
        /// Replica being activated.
        replica: usize,
    },
    /// The autoscaler parked an idle replica.
    ScaleDown {
        /// Replica taken out of rotation.
        replica: usize,
    },
}

impl fmt::Display for ServeEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeEventKind::Hedge { from, to } => write!(f, "hedge r{from}->r{to}"),
            ServeEventKind::HedgeWin { replica } => write!(f, "hedge-win r{replica}"),
            ServeEventKind::Retry { attempt, replica } => {
                write!(f, "retry#{attempt} r{replica}")
            }
            ServeEventKind::RetryShed => write!(f, "retry-shed"),
            ServeEventKind::BreakerOpen { replica } => write!(f, "breaker-open r{replica}"),
            ServeEventKind::BreakerHalfOpen { replica } => {
                write!(f, "breaker-halfopen r{replica}")
            }
            ServeEventKind::BreakerClose { replica } => write!(f, "breaker-close r{replica}"),
            ServeEventKind::LadderDown { replica, rung } => {
                write!(f, "ladder-down r{replica} rung{rung}")
            }
            ServeEventKind::LadderUp { replica, rung } => {
                write!(f, "ladder-up r{replica} rung{rung}")
            }
            ServeEventKind::ScaleUp { replica } => write!(f, "scale-up r{replica}"),
            ServeEventKind::ScaleDown { replica } => write!(f, "scale-down r{replica}"),
        }
    }
}

impl EventLog {
    /// Converts a serving-resilience event stream into a measurement log,
    /// stably sorted by microsecond timestamp (ties keep emission order,
    /// so e.g. a `hedge-win` never precedes its `hedge`).
    pub fn from_serve_events(events: &[ServeEvent]) -> Self {
        let mut entries: Vec<EventEntry> = events
            .iter()
            .map(|e| EventEntry {
                time_us: e.time_ns / 1_000,
                frame: e.request,
                label: e.kind.to_string(),
            })
            .collect();
        entries.sort_by_key(|e| e.time_us);
        EventLog { entries }
    }

    /// Converts a fault-injection event stream into a measurement log,
    /// stably sorted by time (ties keep injection order, preserving the
    /// injected → detected → retried → recovered lifecycle).
    pub fn from_fault_events(events: &[FaultEvent]) -> Self {
        let mut entries: Vec<EventEntry> = events
            .iter()
            .map(|e| EventEntry {
                time_us: (e.time_s * 1e6).round() as u64,
                frame: e.frame,
                label: e.kind.to_string(),
            })
            .collect();
        entries.sort_by_key(|e| e.time_us);
        EventLog { entries }
    }

    /// Builds a log from pre-labelled entries (any timeline source, e.g.
    /// the serving runtime's sentry transitions), stably sorted by
    /// microsecond timestamp so identically-seeded runs serialize
    /// byte-identically.
    pub fn from_entries(mut entries: Vec<EventEntry>) -> Self {
        entries.sort_by_key(|e| e.time_us);
        EventLog { entries }
    }

    /// The entries, time-ordered.
    #[cfg(test)]
    fn entries(&self) -> &[EventEntry] {
        &self.entries
    }

    /// Renders as three-column CSV (`time_s,frame,event`) with fixed
    /// six-decimal timestamps; identical logs serialize byte-identically.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,frame,event\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{:.6},{},{}\n",
                e.time_us as f64 / 1e6,
                e.frame,
                e.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_devices::faults::{FaultProfile, ResilientPipeline};
    use edgebench_devices::offload::Link;
    use edgebench_devices::Device;
    use edgebench_models::Model;

    #[test]
    fn constant_power_integrates_exactly() {
        let t = PowerTrace::from_samples((0..=10).map(|i| (i as f64, 2.5)).collect());
        assert!((t.energy_j() - 25.0).abs() < 1e-12);
        assert!((t.mean_power_w() - 2.5).abs() < 1e-12);
        assert_eq!(t.duration_s(), 10.0);
    }

    #[test]
    fn ramp_integrates_as_trapezoid() {
        let t = PowerTrace::from_samples(vec![(0.0, 0.0), (2.0, 4.0)]);
        assert!((t.energy_j() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_samples_panic() {
        let mut t = PowerTrace::new();
        t.push(1.0, 1.0);
        t.push(0.5, 1.0);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = PowerTrace::new();
        assert_eq!(t.energy_j(), 0.0);
        assert_eq!(t.mean_power_w(), 0.0);
    }

    fn lan() -> Link {
        Link {
            uplink_mbps: 90.0,
            downlink_mbps: 90.0,
            rtt_s: 0.002,
        }
    }

    #[test]
    fn event_log_csv_is_byte_identical_for_identical_seeds() {
        let g = Model::MobileNetV2.build();
        let profile = FaultProfile::lossy_network(42);
        let run = |_: ()| {
            let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, profile)
                .run(120)
                .unwrap();
            EventLog::from_fault_events(&rep.events).to_csv()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a, b);
        assert!(a.starts_with("time_s,frame,event\n"));
        assert!(a.lines().count() > 1, "lossy network should log events");
    }

    #[test]
    fn event_log_is_time_sorted_and_lifecycle_stable() {
        let g = Model::ResNet18.build();
        let profile = FaultProfile::none(7).with_kill_device(20, 1);
        let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, profile)
            .run(60)
            .unwrap();
        let log = EventLog::from_fault_events(&rep.events);
        let times: Vec<u64> = log.entries().iter().map(|e| e.time_us).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "entries must be time-ordered");
        // Injected precedes detected for the same fault despite the tie-prone
        // microsecond rounding (stable sort keeps lifecycle order).
        let csv = log.to_csv();
        let inj = csv.find("injected device-dropout").unwrap();
        let det = csv.find("detected device-dropout").unwrap();
        assert!(inj < det, "log:\n{csv}");
    }

    #[test]
    fn serve_events_render_with_stable_labels() {
        let events = [
            ServeEvent {
                time_ns: 1_500,
                request: 3,
                kind: ServeEventKind::Hedge { from: 0, to: 1 },
            },
            ServeEvent {
                time_ns: 2_000_000,
                request: 3,
                kind: ServeEventKind::HedgeWin { replica: 1 },
            },
            ServeEvent {
                time_ns: 3_000_000,
                request: 7,
                kind: ServeEventKind::Retry {
                    attempt: 2,
                    replica: 0,
                },
            },
            ServeEvent {
                time_ns: 4_000_000,
                request: 9,
                kind: ServeEventKind::LadderDown {
                    replica: 2,
                    rung: 1,
                },
            },
        ];
        let csv = EventLog::from_serve_events(&events).to_csv();
        assert_eq!(
            csv,
            "time_s,frame,event\n\
             0.000001,3,hedge r0->r1\n\
             0.002000,3,hedge-win r1\n\
             0.003000,7,retry#2 r0\n\
             0.004000,9,ladder-down r2 rung1\n"
        );
    }

    #[test]
    fn serve_event_ties_keep_emission_order() {
        // Sub-microsecond spacing rounds to the same time_us; the stable
        // sort must keep cause before effect in the rendered log.
        let events = [
            ServeEvent {
                time_ns: 100,
                request: 0,
                kind: ServeEventKind::BreakerOpen { replica: 1 },
            },
            ServeEvent {
                time_ns: 300,
                request: 0,
                kind: ServeEventKind::BreakerHalfOpen { replica: 1 },
            },
            ServeEvent {
                time_ns: 700,
                request: 0,
                kind: ServeEventKind::BreakerClose { replica: 1 },
            },
        ];
        let log = EventLog::from_serve_events(&events);
        let labels: Vec<&str> = log.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels,
            ["breaker-open r1", "breaker-halfopen r1", "breaker-close r1"]
        );
    }

    #[test]
    fn empty_event_log_renders_header_only() {
        let log = EventLog::from_fault_events(&[]);
        assert_eq!(log.to_csv(), "time_s,frame,event\n");
    }
}
