//! Serving-run results: fleet-level SLO/goodput/energy metrics, the
//! resilience counters (hedges, retries, breaker transitions, ladder
//! steps), a per-replica breakdown, and the replayable event log — all
//! with fixed-precision CSV rendering so identically-seeded runs
//! serialize byte-identically.

use super::RoutePolicy;
use crate::report::Report;
use edgebench_measure::{EventLog, Samples, ServeEvent};

/// Per-replica outcome of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Stable replica label (`device/framework`).
    pub label: String,
    /// Whether the replica was still alive at the end of the run.
    pub alive: bool,
    /// Whether the replica died mid-run (fault or thermal shutdown).
    pub died: bool,
    /// Whether thermal throttling ever engaged.
    pub throttled: bool,
    /// Requests this replica completed.
    pub completed: usize,
    /// Batches this replica served.
    pub batches: u64,
    /// Active energy spent serving, millijoules.
    pub energy_mj: f64,
    /// Total time spent serving batches, seconds.
    pub busy_s: f64,
    /// Degradation-ladder rung at the end of the run (0 = native
    /// precision; always 0 when the ladder is off).
    pub rung: usize,
    /// Final circuit-breaker state (`closed`/`open`/`half-open`, or `-`
    /// when breakers are disabled).
    pub breaker: &'static str,
}

impl ReplicaReport {
    /// Mean served batch size (0 when no batch fired).
    pub(crate) fn mean_batch(&self) -> f64 {
        if self.batches > 0 {
            self.completed as f64 / self.batches as f64
        } else {
            0.0
        }
    }

    /// Stable status string: `ok`, `throttled`, or `DEAD`.
    pub(crate) fn status(&self) -> &'static str {
        if self.died {
            "DEAD"
        } else if self.throttled {
            "throttled"
        } else {
            "ok"
        }
    }
}

/// Result of one fleet serving simulation ([`super::Fleet::serve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Routing policy the run used.
    pub policy: RoutePolicy,
    /// The latency objective, milliseconds.
    pub slo_ms: f64,
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests lost (no alive replica to serve them, or a lost batch
    /// with no retry policy configured).
    pub failed: usize,
    /// Completed requests that met the SLO.
    pub within_slo: usize,
    /// Hedge duplicates dispatched.
    pub hedges: usize,
    /// Requests won by their hedge copy.
    pub hedge_wins: usize,
    /// Retry attempts dispatched (each spent one budget token).
    pub retries: usize,
    /// Requests shed because the retry budget or attempt cap ran out —
    /// counted separately from admission [`shed`](Self::shed).
    pub retry_shed: usize,
    /// Batch results discarded because the integrity guards caught a
    /// corruption (one count per affected request copy).
    pub sdc_detected: usize,
    /// Free re-dispatches issued after a detected corruption (no retry
    /// token spent).
    pub sdc_retries: usize,
    /// Completed requests whose served answer was silently corrupted
    /// (only possible with guards off; a subset of
    /// [`completed`](Self::completed)).
    pub corrupted_served: usize,
    /// Requests whose detected-corruption retry was corrupted again — a
    /// typed terminal outcome, counted separately from
    /// [`failed`](Self::failed).
    pub corrupted_failed: usize,
    /// Circuit-breaker Closed→Open transitions across the fleet.
    pub breaker_trips: u64,
    /// Circuit-breaker HalfOpen→Closed recoveries across the fleet.
    pub breaker_recoveries: u64,
    /// Degradation-ladder step-downs across the fleet.
    pub ladder_down: u64,
    /// Degradation-ladder step-ups (recoveries) across the fleet.
    pub ladder_up: u64,
    /// Autoscaler scale-up actions (standby replicas activated).
    pub scale_ups: u64,
    /// Autoscaler scale-down actions (replicas parked).
    pub scale_downs: u64,
    /// Operational carbon across the fleet, milligrams CO₂ (0 unless a
    /// [`super::CarbonProfile`] is attached).
    pub carbon_mg: f64,
    /// Completions per ladder rung (index 0 = native precision).
    pub served_per_rung: Vec<usize>,
    /// Mean accuracy-proxy fidelity over completed requests (1.0 when
    /// everything ran at native precision; 0 when nothing completed).
    pub mean_fidelity: f64,
    /// Makespan of the run, seconds (last processed event).
    pub span_s: f64,
    /// Total active energy across the fleet, millijoules.
    pub energy_mj: f64,
    /// Time-averaged number of admitted requests in the system (Little's
    /// law: equals throughput × mean sojourn in steady state).
    pub mean_in_system: f64,
    /// Largest per-replica queue depth observed.
    pub max_queue_len: usize,
    /// Completed-request latencies, milliseconds (sorted).
    pub(crate) latencies_ms: Samples,
    /// Per-replica breakdown, in fleet order.
    pub replicas: Vec<ReplicaReport>,
    /// Resilience event stream, in emission order (empty when the
    /// resilience layer is off).
    pub events: Vec<ServeEvent>,
}

impl ServeReport {
    /// The `p`-th percentile of completed-request latency, milliseconds
    /// (0 when nothing completed).
    pub(crate) fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.percentile(p)
        }
    }

    /// Median latency, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 95th-percentile latency, milliseconds.
    pub(crate) fn p95_ms(&self) -> f64 {
        self.percentile_ms(95.0)
    }

    /// Tail latency, milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// Mean latency, milliseconds (0 when nothing completed).
    pub fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.latencies_ms.mean()
        }
    }

    /// Within-SLO completions per second.
    pub fn goodput_qps(&self) -> f64 {
        if self.span_s > 0.0 {
            self.within_slo as f64 / self.span_s
        } else {
            0.0
        }
    }

    /// Completions per second, SLO or not.
    pub fn throughput_qps(&self) -> f64 {
        if self.span_s > 0.0 {
            self.completed as f64 / self.span_s
        } else {
            0.0
        }
    }

    /// Fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.offered > 0 {
            self.shed as f64 / self.offered as f64
        } else {
            0.0
        }
    }

    /// Fraction of offered requests that were hedged.
    pub fn hedge_rate(&self) -> f64 {
        if self.offered > 0 {
            self.hedges as f64 / self.offered as f64
        } else {
            0.0
        }
    }

    /// Fraction of completed requests served at each ladder rung, in
    /// rung order (all mass at rung 0 when the ladder is off).
    pub(crate) fn rung_shares(&self) -> Vec<f64> {
        if self.completed == 0 {
            return vec![0.0; self.served_per_rung.len()];
        }
        self.served_per_rung
            .iter()
            .map(|&n| n as f64 / self.completed as f64)
            .collect()
    }

    /// Mean active energy per completed request, millijoules (0 when
    /// nothing completed).
    pub(crate) fn energy_per_request_mj(&self) -> f64 {
        if self.completed > 0 {
            self.energy_mj / self.completed as f64
        } else {
            0.0
        }
    }

    /// Mean operational carbon per completed request, milligrams CO₂ (0
    /// when nothing completed or no carbon profile was attached).
    pub(crate) fn carbon_per_request_mg(&self) -> f64 {
        if self.completed > 0 {
            self.carbon_mg / self.completed as f64
        } else {
            0.0
        }
    }

    /// Renders the resilience event stream as a stable CSV event log
    /// (header only when no events fired).
    pub fn events_csv(&self) -> String {
        EventLog::from_serve_events(&self.events).to_csv()
    }

    /// Fleet-level metrics as a two-column `metric,value` [`Report`].
    pub fn to_report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(title, ["metric", "value"]);
        for (metric, value) in self.summary_rows() {
            r.push_row([metric, value]);
        }
        r
    }

    /// Per-replica breakdown as a [`Report`] table.
    pub fn replica_report(&self, title: impl Into<String>) -> Report {
        let mut r = Report::new(
            title,
            [
                "replica",
                "status",
                "completed",
                "batches",
                "mean_batch",
                "busy_s",
                "energy_mj",
                "rung",
                "breaker",
            ],
        );
        for rep in &self.replicas {
            r.push_row([
                rep.label.clone(),
                rep.status().to_string(),
                rep.completed.to_string(),
                rep.batches.to_string(),
                format!("{:.2}", rep.mean_batch()),
                format!("{:.3}", rep.busy_s),
                format!("{:.3}", rep.energy_mj),
                rep.rung.to_string(),
                rep.breaker.to_string(),
            ]);
        }
        r
    }

    /// Renders the whole run as CSV: the metric section, a blank line,
    /// then the per-replica section. Fixed-precision numbers — two runs
    /// with identical inputs serialize byte-identically.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (metric, value) in self.summary_rows() {
            out.push_str(&format!("{metric},{value}\n"));
        }
        out.push('\n');
        out.push_str("replica,status,completed,batches,mean_batch,busy_s,energy_mj,rung,breaker\n");
        for rep in &self.replicas {
            out.push_str(&format!(
                "{},{},{},{},{:.2},{:.3},{:.3},{},{}\n",
                rep.label,
                rep.status(),
                rep.completed,
                rep.batches,
                rep.mean_batch(),
                rep.busy_s,
                rep.energy_mj,
                rep.rung,
                rep.breaker
            ));
        }
        out
    }

    /// The fleet-level metric rows, in stable order.
    fn summary_rows(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = vec![
            ("policy".into(), self.policy.name().to_string()),
            ("slo_ms".into(), format!("{:.3}", self.slo_ms)),
            ("offered".into(), self.offered.to_string()),
            ("completed".into(), self.completed.to_string()),
            ("shed".into(), self.shed.to_string()),
            ("failed".into(), self.failed.to_string()),
            ("within_slo".into(), self.within_slo.to_string()),
            ("shed_rate".into(), format!("{:.4}", self.shed_rate())),
            ("p50_ms".into(), format!("{:.3}", self.p50_ms())),
            ("p95_ms".into(), format!("{:.3}", self.p95_ms())),
            ("p99_ms".into(), format!("{:.3}", self.p99_ms())),
            ("mean_ms".into(), format!("{:.3}", self.mean_ms())),
            ("goodput_qps".into(), format!("{:.3}", self.goodput_qps())),
            (
                "throughput_qps".into(),
                format!("{:.3}", self.throughput_qps()),
            ),
            (
                "energy_per_req_mj".into(),
                format!("{:.3}", self.energy_per_request_mj()),
            ),
            ("carbon_mg".into(), format!("{:.3}", self.carbon_mg)),
            (
                "carbon_per_req_mg".into(),
                format!("{:.4}", self.carbon_per_request_mg()),
            ),
            (
                "mean_in_system".into(),
                format!("{:.3}", self.mean_in_system),
            ),
            ("max_queue_len".into(), self.max_queue_len.to_string()),
            ("span_s".into(), format!("{:.3}", self.span_s)),
            ("hedges".into(), self.hedges.to_string()),
            ("hedge_wins".into(), self.hedge_wins.to_string()),
            ("hedge_rate".into(), format!("{:.4}", self.hedge_rate())),
            ("retries".into(), self.retries.to_string()),
            ("retry_shed".into(), self.retry_shed.to_string()),
            ("sdc_detected".into(), self.sdc_detected.to_string()),
            ("sdc_retries".into(), self.sdc_retries.to_string()),
            ("corrupted_served".into(), self.corrupted_served.to_string()),
            ("corrupted_failed".into(), self.corrupted_failed.to_string()),
            ("breaker_trips".into(), self.breaker_trips.to_string()),
            (
                "breaker_recoveries".into(),
                self.breaker_recoveries.to_string(),
            ),
            ("ladder_down".into(), self.ladder_down.to_string()),
            ("ladder_up".into(), self.ladder_up.to_string()),
            ("scale_ups".into(), self.scale_ups.to_string()),
            ("scale_downs".into(), self.scale_downs.to_string()),
            ("mean_fidelity".into(), format!("{:.4}", self.mean_fidelity)),
        ];
        for (i, share) in self.rung_shares().iter().enumerate() {
            rows.push((format!("served_rung{i}"), format!("{share:.4}")));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ServeReport {
        ServeReport {
            policy: RoutePolicy::RoundRobin,
            slo_ms: 100.0,
            offered: 0,
            completed: 0,
            shed: 0,
            failed: 0,
            within_slo: 0,
            hedges: 0,
            hedge_wins: 0,
            retries: 0,
            retry_shed: 0,
            sdc_detected: 0,
            sdc_retries: 0,
            corrupted_served: 0,
            corrupted_failed: 0,
            breaker_trips: 0,
            breaker_recoveries: 0,
            ladder_down: 0,
            ladder_up: 0,
            scale_ups: 0,
            scale_downs: 0,
            carbon_mg: 0.0,
            served_per_rung: vec![0],
            mean_fidelity: 0.0,
            span_s: 0.0,
            energy_mj: 0.0,
            mean_in_system: 0.0,
            max_queue_len: 0,
            latencies_ms: Samples::from_unsorted(Vec::new()),
            replicas: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn empty_run_reports_zeroes_not_panics() {
        let r = empty_report();
        assert_eq!(r.p99_ms(), 0.0);
        assert_eq!(r.mean_ms(), 0.0);
        assert_eq!(r.goodput_qps(), 0.0);
        assert_eq!(r.shed_rate(), 0.0);
        assert_eq!(r.hedge_rate(), 0.0);
        assert_eq!(r.energy_per_request_mj(), 0.0);
        assert_eq!(r.carbon_per_request_mg(), 0.0);
        assert_eq!(r.rung_shares(), vec![0.0]);
        assert!(r.to_csv().starts_with("metric,value\n"));
        assert_eq!(r.events_csv(), "time_s,frame,event\n");
    }

    #[test]
    fn replica_status_strings_are_stable() {
        let mut rep = ReplicaReport {
            label: "jetson-nano/tensorrt".to_string(),
            alive: true,
            died: false,
            throttled: false,
            completed: 10,
            batches: 4,
            energy_mj: 1.0,
            busy_s: 0.5,
            rung: 0,
            breaker: "-",
        };
        assert_eq!(rep.status(), "ok");
        assert!((rep.mean_batch() - 2.5).abs() < 1e-12);
        rep.throttled = true;
        assert_eq!(rep.status(), "throttled");
        rep.died = true;
        assert_eq!(rep.status(), "DEAD");
    }

    #[test]
    fn csv_has_both_sections() {
        let mut r = empty_report();
        r.replicas.push(ReplicaReport {
            label: "rpi3/tflite".to_string(),
            alive: true,
            died: false,
            throttled: false,
            completed: 0,
            batches: 0,
            energy_mj: 0.0,
            busy_s: 0.0,
            rung: 1,
            breaker: "closed",
        });
        let csv = r.to_csv();
        assert!(csv.contains("\n\nreplica,status,"), "{csv}");
        assert!(
            csv.contains("rpi3/tflite,ok,0,0,0.00,0.000,0.000,1,closed\n"),
            "{csv}"
        );
    }

    #[test]
    fn summary_includes_resilience_rows() {
        let mut r = empty_report();
        r.offered = 100;
        r.completed = 80;
        r.within_slo = 60;
        r.hedges = 10;
        r.served_per_rung = vec![60, 20];
        let csv = r.to_csv();
        assert!(csv.contains("hedge_rate,0.1000\n"), "{csv}");
        assert!(csv.contains("served_rung0,0.7500\n"), "{csv}");
        assert!(csv.contains("served_rung1,0.2500\n"), "{csv}");
    }
}
