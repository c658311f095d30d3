//! Extension experiment: graceful degradation of collaborative edge
//! inference under deterministic fault injection.
//!
//! The paper's field scenarios (drones over a disaster area, §I) and its
//! related-work line on model distribution (§VIII, Musical Chair / MoDNN)
//! meet here: a MobileNetV2 pipeline over four Raspberry Pi 3Bs serves a
//! sustained frame stream while devices drop out at increasing rates. Two
//! recovery policies are compared at every rate — Musical-Chair-style
//! repartitioning onto the survivors versus fail-stop — yielding the
//! throughput-vs-failure-rate and recovery-latency curves.

use super::Experiment;
use crate::report::Report;
use edgebench_devices::faults::{FaultProfile, ResilientPipeline, RetryPolicy};
use edgebench_devices::offload::Link;
use edgebench_devices::Device;
use edgebench_models::Model;

/// `ext-resilience` — throughput vs failure rate and recovery latency,
/// with and without repartitioning.
pub(crate) struct ExtResilience;

/// The collaborative-Pi LAN used throughout the distributed experiments.
fn lan() -> Link {
    Link {
        uplink_mbps: 90.0,
        downlink_mbps: 90.0,
        rtt_s: 0.002,
    }
}

/// Per-frame device-dropout rates swept by the experiment.
const DROPOUT_RATES: [f64; 5] = [0.0, 0.0005, 0.001, 0.002, 0.005];

/// Frames per scenario; long enough that every non-zero rate usually
/// loses at least one device.
const FRAMES: usize = 300;

/// Base seed; each arm reuses it so the two policies face the *same*
/// fault sequence and differ only in how they recover.
const SEED: u64 = 42;

impl Experiment for ExtResilience {
    fn id(&self) -> &'static str {
        "ext-resilience"
    }

    fn title(&self) -> &'static str {
        "Extension: resilience — throughput vs failure rate, MobileNetV2 on 4x RPi3 (repartition vs fail-stop)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "scenario",
                "dropout",
                "policy",
                "frames_ok",
                "fps",
                "completion_pct",
                "lost",
                "reparts",
                "mean_recovery_ms",
            ],
        );
        let g = Model::MobileNetV2.build();
        for rate in DROPOUT_RATES {
            for (policy_name, policy) in [
                ("repartition", RetryPolicy::default()),
                ("fail-stop", RetryPolicy::default().without_repartition()),
            ] {
                let profile = FaultProfile::none(SEED).with_device_dropout(rate);
                let rep = ResilientPipeline::new(&g, Device::RaspberryPi3, lan(), 4, profile)
                    .with_policy(policy)
                    .run(FRAMES)
                    .expect("f32 on the Pi partitions");
                r.push_row([
                    format!("drop={rate}/{policy_name}"),
                    format!("{rate}"),
                    policy_name.to_string(),
                    rep.frames_completed.to_string(),
                    format!("{:.2}", rep.throughput_fps()),
                    format!("{:.1}", rep.completion_rate() * 100.0),
                    rep.devices_lost.to_string(),
                    rep.repartitions.to_string(),
                    format!("{:.1}", rep.mean_recovery_s() * 1e3),
                ]);
            }
        }
        r.push_note("both policies face identical fault sequences (same seed); they differ only in recovery");
        r.push_note("repartitioning trades a one-off weight-reload stall for sustained degraded throughput; fail-stop forfeits the rest of the mission");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_policy_cross_product() {
        let r = ExtResilience.run();
        assert_eq!(r.rows().len(), DROPOUT_RATES.len() * 2);
        // Scenario labels are unique.
        let mut labels: Vec<&String> = r.rows().iter().map(|row| &row[0]).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn repartitioning_dominates_fail_stop_once_devices_die() {
        let r = ExtResilience.run();
        // Row pairs share a fault sequence; wherever fail-stop lost a
        // device, the repartition arm must have completed at least as many
        // frames, and strictly more in at least one scenario.
        let mut strictly_better = false;
        for pair in r.rows().chunks(2) {
            let (repart, failstop) = (&pair[0], &pair[1]);
            let ok_r: usize = repart[3].parse().unwrap();
            let ok_f: usize = failstop[3].parse().unwrap();
            assert!(ok_r >= ok_f, "repartition {ok_r} vs fail-stop {ok_f}");
            strictly_better |= ok_r > ok_f;
        }
        assert!(
            strictly_better,
            "no scenario lost a device; raise rates or frames"
        );
    }

    #[test]
    fn zero_rate_arms_are_clean_and_identical() {
        let r = ExtResilience.run();
        let repart = &r.rows()[0];
        let failstop = &r.rows()[1];
        assert_eq!(repart[3], FRAMES.to_string());
        assert_eq!(failstop[3], FRAMES.to_string());
        assert_eq!(repart[4], failstop[4], "fps must match with no faults");
        assert_eq!(repart[7], "0");
    }
}
