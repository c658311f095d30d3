//! Extension experiment: request-level resilience under degraded service.
//!
//! The paper characterizes devices in isolation; a deployed fleet also
//! faces stragglers, lost work, and flash crowds. This experiment drives
//! one heterogeneous MobileNetV2 fleet (RPi3 + Nano + TX2) through a
//! bursty trace with seeded stragglers and request loss, switching the
//! resilience mechanisms on cumulatively — `none`, `+hedge`, `+retry`,
//! `full` (breakers and the precision-degradation ladder) — and compares
//! tail latency, goodput, shed/failed mass, and the accuracy-proxy cost
//! of serving on cheaper rungs.

use super::Experiment;
use crate::report::Report;
use crate::serve::{
    BreakerConfig, Fleet, ReplicaSpec, RetryBudgetConfig, RoutePolicy, ServeConfig, ServeReport,
    Traffic,
};
use edgebench_devices::Device;
use edgebench_models::Model;

/// `ext-degradation` — resilience-arm comparison on a degraded fleet.
pub(crate) struct ExtDegradation;

/// p99 latency objective, milliseconds.
const SLO_MS: f64 = 150.0;

/// Requests per arm.
const REQUESTS: usize = 3000;

/// Base rate of the bursty trace, requests per second.
const RATE_HZ: f64 = 60.0;

fn fleet() -> Fleet {
    let rpi = ReplicaSpec::best_for(Model::MobileNetV2, Device::RaspberryPi3)
        .expect("rpi serves mobilenet");
    let nano = ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano)
        .expect("nano serves mobilenet");
    let tx2 =
        ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonTx2).expect("tx2 serves mobilenet");
    Fleet::new([rpi, nano, tx2]).expect("all replicas deploy")
}

/// Shared degraded environment: LEL routing, batching, 5 % stragglers at
/// 6×, 2 % lost batches, flash-crowd traffic.
fn base_cfg() -> ServeConfig {
    ServeConfig::new(SLO_MS)
        .with_policy(RoutePolicy::LeastExpectedLatency)
        .with_batch_max(4)
        .with_straggler(0.05, 6.0)
        .with_loss(0.02)
}

/// The cumulative resilience arms, as `(label, config)`.
fn arms() -> Vec<(&'static str, ServeConfig)> {
    vec![
        ("none", base_cfg()),
        ("+hedge", base_cfg().with_hedge_ms(2.0)),
        (
            "+retry",
            base_cfg()
                .with_hedge_ms(2.0)
                .with_retry_budget(RetryBudgetConfig::default()),
        ),
        (
            "full",
            base_cfg()
                .with_hedge_ms(2.0)
                .with_retry_budget(RetryBudgetConfig::default())
                .with_breaker(BreakerConfig::default())
                .with_ladder(true),
        ),
    ]
}

fn run_arm(fleet: &Fleet, cfg: &ServeConfig) -> ServeReport {
    let traffic = Traffic::from_flag("burst", RATE_HZ, 11).expect("burst is a known trace");
    fleet
        .serve(&traffic, REQUESTS, cfg)
        .expect("positive rate, non-empty fleet")
}

impl Experiment for ExtDegradation {
    fn id(&self) -> &'static str {
        "ext-degradation"
    }

    fn title(&self) -> &'static str {
        "Extension: degradation — hedging, retries, breakers and the precision ladder under stragglers + loss"
    }

    fn run(&self) -> Report {
        let fleet = fleet();
        let mut r = Report::new(
            self.title(),
            [
                "arm",
                "p99_ms",
                "goodput_qps",
                "within_slo",
                "shed",
                "failed",
                "retry_shed",
                "hedges",
                "hedge_wins",
                "retries",
                "breaker_trips",
                "degraded_share",
                "mean_fidelity",
            ],
        );
        for (label, cfg) in arms() {
            let rep = run_arm(&fleet, &cfg);
            let degraded_share: f64 = rep.rung_shares().iter().skip(1).sum();
            r.push_row([
                label.to_string(),
                format!("{:.1}", rep.p99_ms()),
                format!("{:.1}", rep.goodput_qps()),
                rep.within_slo.to_string(),
                rep.shed.to_string(),
                rep.failed.to_string(),
                rep.retry_shed.to_string(),
                rep.hedges.to_string(),
                rep.hedge_wins.to_string(),
                rep.retries.to_string(),
                rep.breaker_trips.to_string(),
                format!("{degraded_share:.4}"),
                format!("{:.4}", rep.mean_fidelity),
            ]);
        }
        r.push_note(
            "environment: rpi3+nano+tx2, burst traffic (4x crowds), 5% stragglers at 6x, 2% lost batches, 150 ms SLO",
        );
        r.push_note(
            "arms are cumulative: +hedge adds 2 ms hedging, +retry adds the token-bucket budget, full adds breakers and the fp32->fp16->int8 ladder",
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(r: &Report, name: &str) -> usize {
        r.columns().iter().position(|c| c == name).expect("column")
    }

    #[test]
    fn covers_all_four_arms() {
        let r = ExtDegradation.run();
        let arms: Vec<&str> = r.rows().iter().map(|row| row[0].as_str()).collect();
        assert_eq!(arms, ["none", "+hedge", "+retry", "full"]);
    }

    #[test]
    fn retries_recover_mass_lost_without_them() {
        let r = ExtDegradation.run();
        let failed = col(&r, "failed");
        let none: usize = r.rows()[0][failed].parse().unwrap();
        let retry: usize = r.rows()[2][failed].parse().unwrap();
        assert!(none > 0, "loss must fail requests without retries");
        assert!(retry < none, "retries {retry} vs none {none}");
    }

    #[test]
    fn full_arm_actually_exercises_the_ladder_accounting() {
        let r = ExtDegradation.run();
        let fid = col(&r, "mean_fidelity");
        for row in r.rows() {
            let f: f64 = row[fid].parse().unwrap();
            assert!(f > 0.9 && f <= 1.0, "{}: fidelity {f}", row[0]);
        }
    }
}
