//! Extension experiment: goodput under chaos — supervision vs fail-stop.
//!
//! A fixed [`ChaosPlan`] injects kills, hangs, a panic, and payload
//! corruptions into the VGG-S-32/Nano zero-copy pipeline at scheduled
//! `(stage, frame)` coordinates. The supervised arm restarts every failed
//! stage deterministically (reattach to the live rings, resume from the
//! last committed seq, account the in-flight frame as an explicit
//! `lost@stage` event); the fail-stop arm runs the same campaign with a
//! zero restart budget, so each first failure permanently degrades its
//! stage to a drain-and-account sink.
//!
//! Both arms replay the identical seeded trace, so the table isolates the
//! supervisor: goodput over the campaign window, availability, recovery
//! latency percentiles, and the at-most-once ledger (zero duplicated
//! seqs, every loss an explicit event). The supervised arm runs twice and
//! the report notes whether the two CSVs are byte-identical — chaos is
//! virtual-clock-driven, so they must be.

use super::Experiment;
use crate::report::Report;
use crate::runtime::{self, RuntimeConfig, RuntimeReport, SuperviseConfig};
use crate::serve::{TraceFile, Traffic};
use edgebench_devices::faults::ChaosPlan;
use edgebench_devices::Device;
use edgebench_models::Model;

/// `ext-chaos` — chaos campaign on the zero-copy pipeline.
pub(crate) struct ExtChaos;

/// Trace seed: both arms replay identical arrivals.
const SEED: u64 = 83;

/// Frames in the campaign.
const FRAMES: usize = 240;

/// Offered rate; 240 frames at 60 fps give a 4 s campaign window.
const RATE_HZ: f64 = 60.0;

/// The paper's edge pipeline pair: VGG-S-32 on the Jetson Nano.
const MODEL: Model = Model::VggS32;
const DEVICE: Device = Device::JetsonNano;

/// Restart budget per stage for the supervised arm.
const BUDGET: u32 = 3;

/// The injected campaign: five kills/hangs, one panic, two payload
/// corruptions, spread so no stage exceeds the restart budget.
const CAMPAIGN: &str = "kill@0:30,kill@1:60,corrupt@2:90,hang@2:100,kill@3:140,\
                        corrupt@3:160,hang@1:180,panic@2:205";

fn campaign() -> ChaosPlan {
    ChaosPlan::parse(CAMPAIGN).expect("curated campaign spec is well-formed")
}

fn arm_config(budget: u32) -> RuntimeConfig {
    RuntimeConfig::new(MODEL, DEVICE)
        .with_seed(SEED)
        .with_ring_capacity(16)
        .with_supervise(
            SuperviseConfig::default()
                .with_restart_budget(budget)
                .with_heartbeat_ms(80),
        )
        .with_chaos(campaign())
}

fn run_arm(budget: u32) -> RuntimeReport {
    let trace = TraceFile::generate(&Traffic::poisson(RATE_HZ, SEED), FRAMES, 0.0, SEED)
        .expect("non-empty trace");
    runtime::run_replay(&arm_config(budget), &trace).expect("chaos replay")
}

/// Completed frames per second of the *offered* campaign window, so a
/// stage that dies early cannot inflate its rate by shrinking its span.
fn goodput_over_window(r: &RuntimeReport) -> f64 {
    r.completed as f64 / (FRAMES as f64 / RATE_HZ)
}

fn recovery_cell(r: &RuntimeReport, p: f64) -> String {
    if r.recovery_ms.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", r.recovery_ms.percentile(p))
    }
}

impl Experiment for ExtChaos {
    fn id(&self) -> &'static str {
        "ext-chaos"
    }

    fn title(&self) -> &'static str {
        "Extension: chaos campaign — supervised restart vs fail-stop on the zero-copy pipeline"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "arm",
                "offered",
                "completed",
                "lost",
                "corrupted",
                "restarts",
                "duplicates",
                "degraded_stages",
                "goodput_qps",
                "availability_pct",
                "recovery_p50_ms",
                "recovery_p95_ms",
            ],
        );
        let supervised = run_arm(BUDGET);
        let rerun = run_arm(BUDGET);
        let failstop = run_arm(0);
        for (arm, rep) in [("supervised", &supervised), ("fail-stop", &failstop)] {
            r.push_row([
                arm.to_string(),
                rep.offered.to_string(),
                rep.completed.to_string(),
                rep.lost.to_string(),
                rep.corrupted.to_string(),
                rep.restarts.to_string(),
                rep.duplicates.to_string(),
                rep.degraded.len().to_string(),
                format!("{:.2}", goodput_over_window(rep)),
                format!("{:.1}", rep.completed as f64 / rep.offered as f64 * 100.0),
                recovery_cell(rep, 50.0),
                recovery_cell(rep, 95.0),
            ]);
        }
        let plan = campaign();
        r.push_note(format!(
            "campaign `{CAMPAIGN}`: {} stage failures ({} hangs) + {} corruptions; \
             supervised arm restarts {} times within a budget of {BUDGET}/stage and \
             degrades {} stages; fail-stop degrades {}",
            plan.failure_count(),
            plan.events()
                .iter()
                .filter(|e| e.kind == edgebench_devices::faults::ChaosKind::Hang)
                .count(),
            plan.len() - plan.failure_count(),
            supervised.restarts,
            supervised.degraded.len(),
            failstop.degraded.len(),
        ));
        r.push_note(format!(
            "at-most-once: {} duplicated seqs at the gateway; every loss is an explicit \
             lost@stage event and completed+dropped+corrupted+lost == offered in both arms",
            supervised.duplicates + failstop.duplicates,
        ));
        r.push_note(format!(
            "byte-identical across reruns: {}",
            supervised.to_csv() == rerun.to_csv(),
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervision_beats_failstop_with_no_duplicates() {
        let report = ExtChaos.run();
        let sup_good = report.cell_f64("supervised", "goodput_qps").unwrap();
        let fs_good = report.cell_f64("fail-stop", "goodput_qps").unwrap();
        assert!(
            sup_good > fs_good,
            "supervised goodput {sup_good} must beat fail-stop {fs_good}"
        );
        for arm in ["supervised", "fail-stop"] {
            assert_eq!(report.cell_f64(arm, "duplicates"), Some(0.0), "{arm}");
        }
        // Every stage recovered within budget: nothing degraded, and the
        // restart count covers every scheduled stage failure.
        assert_eq!(report.cell_f64("supervised", "degraded_stages"), Some(0.0));
        let restarts = report.cell_f64("supervised", "restarts").unwrap();
        assert_eq!(restarts as usize, campaign().failure_count());
        assert!(report.notes()[2].contains("true"), "{}", report.notes()[2]);
    }

    #[test]
    fn both_arms_conserve_every_offered_frame() {
        for budget in [BUDGET, 0] {
            let rep = run_arm(budget);
            assert_eq!(
                rep.completed + rep.dropped + rep.corrupted + rep.lost,
                rep.offered,
                "budget {budget}: conservation must hold under chaos"
            );
        }
    }
}
