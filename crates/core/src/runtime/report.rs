//! The runtime pipeline report: ServeReport-compatible metric names plus
//! runtime-specific counters (drops, corrupted frames, sentry activity),
//! rendered as byte-stable CSV.

use edgebench_measure::stats::Samples;
use edgebench_measure::trace::{EventEntry, EventLog};

use super::stage::STAGE_NAMES;

/// A sentry / integrity event on the runtime timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// Virtual pipeline time, nanoseconds.
    pub t_ns: u64,
    /// Frame sequence number the event belongs to.
    pub seq: u64,
    /// What happened.
    pub kind: RuntimeEventKind,
}

/// Kinds of [`RuntimeEvent`]. `Display` strings are stable — they are part
/// of the byte-identical event-log contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeEventKind {
    /// Sentry escalated Standby → Alarmed on this frame.
    Escalate,
    /// Sentry stood down Alarmed → Standby after the cooldown.
    Standdown,
    /// A ground-truth hit was served by the standby rung only.
    MissedEscalation,
    /// A frame failed checksum verification at the named stage.
    Corrupted {
        /// Stage that detected the corruption.
        stage: &'static str,
    },
    /// An in-flight frame was lost when the named stage failed — the
    /// explicit at-most-once accounting of a crash/hang.
    Lost {
        /// Stage holding the frame when it failed.
        stage: &'static str,
    },
    /// The supervisor restarted the named stage (`seq` holds the attempt
    /// number, the timestamp the post-penalty resume instant).
    Restart {
        /// Stage that was restarted.
        stage: &'static str,
    },
}

impl RuntimeEventKind {
    /// Every kind the shared event log stores, at the index that is its
    /// code. `Ctl::events` sorts by `(t_ns, seq, code)`, so this order
    /// decides how same-instant events are listed.
    const BY_CODE: [RuntimeEventKind; 14] = {
        use RuntimeEventKind::*;
        let [capture, preprocess, inference, gateway] = STAGE_NAMES;
        [
            Escalate,
            Standdown,
            MissedEscalation,
            Corrupted { stage: preprocess },
            Corrupted { stage: inference },
            Corrupted { stage: gateway },
            Lost { stage: capture },
            Lost { stage: preprocess },
            Lost { stage: inference },
            Lost { stage: gateway },
            Restart { stage: capture },
            Restart { stage: preprocess },
            Restart { stage: inference },
            Restart { stage: gateway },
        ]
    };

    /// The code the shared event log stores for this kind.
    ///
    /// # Panics
    ///
    /// On a kind the stages never record: corruption caught at capture, or
    /// a stage name outside `STAGE_NAMES`.
    pub(crate) fn code(self) -> u32 {
        let code = Self::BY_CODE.iter().position(|k| *k == self);
        code.expect("a kind the stages record") as u32
    }

    /// The kind a stored code stands for (`None` for a code no stage writes).
    pub(crate) fn from_code(code: u32) -> Option<RuntimeEventKind> {
        Self::BY_CODE.get(code as usize).copied()
    }
}

impl std::fmt::Display for RuntimeEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeEventKind::Escalate => write!(f, "sentry-escalate"),
            RuntimeEventKind::Standdown => write!(f, "sentry-standdown"),
            RuntimeEventKind::MissedEscalation => write!(f, "sentry-missed"),
            RuntimeEventKind::Corrupted { stage } => write!(f, "corrupted@{stage}"),
            RuntimeEventKind::Lost { stage } => write!(f, "lost@{stage}"),
            RuntimeEventKind::Restart { stage } => write!(f, "restart@{stage}"),
        }
    }
}

/// Per-stage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`capture`, `preprocess`, `inference`, `gateway`).
    pub stage: &'static str,
    /// Frames the stage fully processed.
    pub processed: u64,
    /// Virtual busy time, seconds.
    pub busy_s: f64,
    /// Supervisor restarts of this stage.
    pub restarts: u64,
    /// Frames lost in-flight at this stage (crashes + budget exhaustion).
    pub lost: u64,
}

/// The full report of one runtime run, assembled from the shared control
/// block once every stage has exited — in either layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// `threads` (in-process replay) or `procs` (multi-process).
    pub mode: &'static str,
    /// Backpressure policy name.
    pub policy: &'static str,
    /// Whether sentry mode was enabled.
    pub sentry: bool,
    /// Frames offered by the trace.
    pub offered: u64,
    /// Frames that reached the gateway intact.
    pub completed: u64,
    /// Frames evicted by drop-oldest backpressure (all rings).
    pub dropped: u64,
    /// Frames discarded after failing checksum verification.
    pub corrupted: u64,
    /// Standby → Alarmed transitions.
    pub escalations: u64,
    /// Alarmed → Standby transitions.
    pub standdowns: u64,
    /// Ground-truth hits served by the standby rung only.
    pub missed_escalations: u64,
    /// Frames served by the standby rung alone.
    pub standby_frames: u64,
    /// Frames served by the full model (including escalation frames).
    pub full_frames: u64,
    /// Total inference energy, millijoules (per-rung table model).
    pub energy_mj: f64,
    /// Virtual end-to-end span of the run, seconds.
    pub span_s: f64,
    /// End-to-end frame latencies, milliseconds (virtual time).
    pub latencies_ms: Samples,
    /// Frames the gateway observed arriving out of sequence order.
    pub order_violations: u64,
    /// Whether self-healing supervision was enabled.
    pub supervised: bool,
    /// Supervisor restarts across all stages.
    pub restarts: u64,
    /// Frames lost in-flight across all stages (accounted as `lost@stage`
    /// events; part of the conservation invariant).
    pub lost: u64,
    /// Frame ids the gateway saw more than once — at-most-once delivery
    /// keeps this at zero even under chaos.
    pub duplicates: u64,
    /// Virtual recovery penalties (detection + backoff) per restart, ms.
    pub recovery_ms: Samples,
    /// Stages that ended degraded — replaced by a sink once their restart
    /// budget (0 without supervision) was spent — in pipeline order. Not
    /// part of the CSV; the CLI prints it on stderr.
    pub degraded: Vec<String>,
    /// Per-stage accounting, pipeline order.
    pub stages: Vec<StageReport>,
    /// Sentry / integrity event timeline.
    pub events: Vec<RuntimeEvent>,
    /// XOR-fold of output checksums when real execution ran (0 otherwise).
    pub output_digest: u64,
}

impl RuntimeReport {
    /// Mean energy per completed frame, millijoules.
    pub fn energy_per_frame_mj(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.energy_mj / self.completed as f64
        }
    }

    /// Completed frames per second of virtual span.
    pub(crate) fn goodput_qps(&self) -> f64 {
        if self.span_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.span_s
        }
    }

    /// The sentry/integrity timeline as a measurement [`EventLog`]
    /// (`time_s,frame,event` CSV — same shape as the serve event log).
    pub fn event_log(&self) -> EventLog {
        EventLog::from_entries(
            self.events
                .iter()
                .map(|e| EventEntry {
                    time_us: e.t_ns / 1_000,
                    frame: e.seq as usize,
                    label: e.kind.to_string(),
                })
                .collect(),
        )
    }

    /// Renders the report as `metric,value` CSV with fixed precision —
    /// byte-identical for identical runs, and using the same metric names
    /// as [`crate::serve::ServeReport::to_csv`] for the shared latency /
    /// goodput / energy rows so the sim-vs-real comparison is column-wise.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        let p = |s: &Samples, q: f64| -> f64 {
            if s.is_empty() {
                0.0
            } else {
                s.percentile(q)
            }
        };
        out.push_str(&format!("mode,{}\n", self.mode));
        out.push_str(&format!("policy,{}\n", self.policy));
        out.push_str(&format!("sentry,{}\n", u8::from(self.sentry)));
        out.push_str(&format!("offered,{}\n", self.offered));
        out.push_str(&format!("completed,{}\n", self.completed));
        out.push_str(&format!("dropped,{}\n", self.dropped));
        out.push_str(&format!("corrupted,{}\n", self.corrupted));
        out.push_str(&format!("escalations,{}\n", self.escalations));
        out.push_str(&format!("standdowns,{}\n", self.standdowns));
        out.push_str(&format!("missed_escalations,{}\n", self.missed_escalations));
        out.push_str(&format!("standby_frames,{}\n", self.standby_frames));
        out.push_str(&format!("full_frames,{}\n", self.full_frames));
        out.push_str(&format!("p50_ms,{:.3}\n", p(&self.latencies_ms, 50.0)));
        out.push_str(&format!("p95_ms,{:.3}\n", p(&self.latencies_ms, 95.0)));
        out.push_str(&format!("p99_ms,{:.3}\n", p(&self.latencies_ms, 99.0)));
        out.push_str(&format!("mean_ms,{:.3}\n", self.latencies_ms.mean()));
        out.push_str(&format!("goodput_qps,{:.3}\n", self.goodput_qps()));
        out.push_str(&format!("energy_mj,{:.3}\n", self.energy_mj));
        out.push_str(&format!(
            "energy_per_req_mj,{:.3}\n",
            self.energy_per_frame_mj()
        ));
        out.push_str(&format!("span_s,{:.3}\n", self.span_s));
        out.push_str(&format!("order_violations,{}\n", self.order_violations));
        out.push_str(&format!("output_digest,{:016x}\n", self.output_digest));
        out.push_str(&format!("supervised,{}\n", u8::from(self.supervised)));
        out.push_str(&format!("restarts,{}\n", self.restarts));
        out.push_str(&format!("lost,{}\n", self.lost));
        out.push_str(&format!("duplicates,{}\n", self.duplicates));
        out.push_str(&format!(
            "recovery_p50_ms,{:.3}\n",
            p(&self.recovery_ms, 50.0)
        ));
        out.push_str(&format!(
            "recovery_p95_ms,{:.3}\n",
            p(&self.recovery_ms, 95.0)
        ));
        out.push_str("\nstage,processed,busy_s,restarts,lost\n");
        for s in &self.stages {
            out.push_str(&format!(
                "{},{},{:.6},{},{}\n",
                s.stage, s.processed, s.busy_s, s.restarts, s.lost
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RuntimeReport {
        RuntimeReport {
            mode: "threads",
            policy: "block",
            sentry: true,
            offered: 10,
            completed: 9,
            dropped: 1,
            corrupted: 0,
            escalations: 2,
            standdowns: 1,
            missed_escalations: 0,
            standby_frames: 5,
            full_frames: 4,
            energy_mj: 90.0,
            span_s: 3.0,
            latencies_ms: Samples::from_unsorted(vec![1.0, 2.0, 3.0]),
            order_violations: 0,
            supervised: true,
            restarts: 2,
            lost: 1,
            duplicates: 0,
            recovery_ms: Samples::from_unsorted(vec![25.0, 45.0]),
            degraded: vec![],
            stages: vec![StageReport {
                stage: "capture",
                processed: 10,
                busy_s: 0.5,
                restarts: 2,
                lost: 1,
            }],
            events: vec![
                RuntimeEvent {
                    t_ns: 2_000_000,
                    seq: 3,
                    kind: RuntimeEventKind::Escalate,
                },
                RuntimeEvent {
                    t_ns: 1_000_000,
                    seq: 1,
                    kind: RuntimeEventKind::Corrupted {
                        stage: "preprocess",
                    },
                },
                RuntimeEvent {
                    t_ns: 3_000_000,
                    seq: 5,
                    kind: RuntimeEventKind::Lost { stage: "inference" },
                },
                RuntimeEvent {
                    t_ns: 4_000_000,
                    seq: 1,
                    kind: RuntimeEventKind::Restart { stage: "inference" },
                },
            ],
            output_digest: 0xdead_beef,
        }
    }

    #[test]
    fn csv_is_byte_stable_and_named_like_serve() {
        let r = sample_report();
        let csv = r.to_csv();
        assert_eq!(csv, r.clone().to_csv());
        for needle in [
            "p50_ms,",
            "p95_ms,",
            "p99_ms,",
            "goodput_qps,3.000",
            "energy_per_req_mj,10.000",
            "corrupted,0",
            "output_digest,00000000deadbeef",
            "supervised,1",
            "restarts,2",
            "lost,1",
            "duplicates,0",
            "recovery_p50_ms,",
            "recovery_p95_ms,",
            "stage,processed,busy_s,restarts,lost",
            "capture,10,0.500000,2,1",
        ] {
            assert!(csv.contains(needle), "missing {needle} in:\n{csv}");
        }
    }

    #[test]
    fn event_log_sorts_by_time() {
        let log = sample_report().event_log();
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,frame,event");
        assert_eq!(lines[1], "0.001000,1,corrupted@preprocess");
        assert_eq!(lines[2], "0.002000,3,sentry-escalate");
        assert_eq!(lines[3], "0.003000,5,lost@inference");
        assert_eq!(lines[4], "0.004000,1,restart@inference");
    }

    #[test]
    fn event_codes_round_trip_and_keep_their_numbers() {
        for (code, kind) in RuntimeEventKind::BY_CODE.iter().enumerate() {
            assert_eq!(kind.code(), code as u32);
            assert_eq!(RuntimeEventKind::from_code(code as u32), Some(*kind));
        }
        assert_eq!(RuntimeEventKind::from_code(14), None);
        // The numbers the event log has always stored: renumbering would
        // reorder same-instant events.
        assert_eq!(RuntimeEventKind::MissedEscalation.code(), 2);
        assert_eq!(RuntimeEventKind::Corrupted { stage: "gateway" }.code(), 5);
        assert_eq!(RuntimeEventKind::Lost { stage: "capture" }.code(), 6);
        assert_eq!(RuntimeEventKind::Restart { stage: "gateway" }.code(), 13);
    }

    #[test]
    fn ratios_handle_empty_runs() {
        let mut r = sample_report();
        r.completed = 0;
        r.span_s = 0.0;
        r.latencies_ms = Samples::from_unsorted(vec![]);
        assert_eq!(r.energy_per_frame_mj(), 0.0);
        assert_eq!(r.goodput_qps(), 0.0);
        assert!(r.to_csv().contains("p50_ms,0.000"));
    }
}
