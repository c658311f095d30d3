//! Extension experiment: fleet serving — what the paper's single-device
//! latencies imply for a deployed inference service.
//!
//! The paper characterizes one device at a time; a deployment spreads
//! replicas behind a router and faces open-loop traffic with an SLO.
//! This experiment drives two MobileNetV2 fleets — a homogeneous
//! 3× Jetson Nano rack and a heterogeneous RPi3 + Nano + TX2 mix — with
//! Poisson traffic across offered rates, comparing dynamic batching
//! (off/on) and routing (round-robin vs least-expected-latency) by the
//! largest rate each configuration sustains under a 100 ms p99 SLO.

use super::Experiment;
use crate::report::Report;
use crate::serve::{Fleet, ReplicaSpec, RoutePolicy, ServeConfig};
use edgebench_devices::Device;
use edgebench_models::Model;

/// `ext-serving` — max sustainable QPS per fleet × routing × batching arm.
pub(crate) struct ExtServing;

/// p99 latency objective, milliseconds.
const SLO_MS: f64 = 100.0;

/// Offered Poisson rates probed per arm, requests per second.
const RATES: [f64; 8] = [25.0, 50.0, 100.0, 150.0, 250.0, 400.0, 700.0, 1000.0];

/// Requests per probe.
const REQUESTS: usize = 800;

/// The two fleets under test, as `(label, specs)`.
fn fleets() -> Vec<(&'static str, Vec<ReplicaSpec>)> {
    let nano = ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano)
        .expect("nano serves mobilenet");
    let rpi = ReplicaSpec::best_for(Model::MobileNetV2, Device::RaspberryPi3)
        .expect("rpi serves mobilenet");
    let tx2 =
        ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonTx2).expect("tx2 serves mobilenet");
    vec![
        ("3x-nano", vec![nano; 3]),
        ("rpi3+nano+tx2", vec![rpi, nano, tx2]),
    ]
}

impl Experiment for ExtServing {
    fn id(&self) -> &'static str {
        "ext-serving"
    }

    fn title(&self) -> &'static str {
        "Extension: serving — max sustainable QPS under a 100 ms p99 SLO (batching x routing x fleet)"
    }

    fn run(&self) -> Report {
        let mut r = Report::new(
            self.title(),
            [
                "fleet",
                "policy",
                "batch_max",
                "max_qps",
                "p99_ms",
                "goodput_qps",
                "shed_rate",
            ],
        );
        for (label, specs) in fleets() {
            let fleet = Fleet::new(specs).expect("all replicas deploy");
            for policy in [RoutePolicy::RoundRobin, RoutePolicy::LeastExpectedLatency] {
                for batch_max in [1usize, 8] {
                    let cfg = ServeConfig::new(SLO_MS)
                        .with_policy(policy)
                        .with_batch_max(batch_max);
                    let scan = fleet
                        .qps_scan(&RATES, REQUESTS, &cfg, 1)
                        .expect("positive rates");
                    // Report the best sustainable probe (or the lowest rate's
                    // numbers when nothing sustains).
                    let best = scan
                        .probes
                        .iter()
                        .rev()
                        .find(|p| p.sustainable)
                        .unwrap_or(&scan.probes[0]);
                    r.push_row([
                        label.to_string(),
                        policy.name().to_string(),
                        batch_max.to_string(),
                        scan.max_sustainable_qps()
                            .map(|q| format!("{q:.0}"))
                            .unwrap_or_else(|| "-".to_string()),
                        format!("{:.1}", best.p99_ms),
                        format!("{:.1}", best.goodput_qps),
                        format!("{:.4}", best.shed_rate),
                    ]);
                }
            }
        }
        r.push_note(
            "sustainable = p99 within SLO, <=1% shed, nothing lost; rates probed: 25..1000 QPS",
        );
        r.push_note("dynamic batching amortizes per-inference time; least-expected-latency keeps the RPi3 from dragging the heterogeneous fleet's tail");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_qps(rows: &[Vec<String>], fleet: &str, policy: &str, batch: &str) -> f64 {
        rows.iter()
            .find(|row| row[0] == fleet && row[1] == policy && row[2] == batch)
            .map(|row| row[3].parse().unwrap_or(0.0))
            .expect("arm present")
    }

    #[test]
    fn covers_the_full_arm_cross_product() {
        let r = ExtServing.run();
        assert_eq!(r.rows().len(), 2 * 2 * 2);
    }

    #[test]
    fn batching_raises_sustainable_qps_on_the_nano_rack() {
        let r = ExtServing.run();
        let b1 = max_qps(r.rows(), "3x-nano", "least-expected-latency", "1");
        let b8 = max_qps(r.rows(), "3x-nano", "least-expected-latency", "8");
        assert!(b8 > b1, "batch-8 {b8} QPS vs batch-1 {b1} QPS");
    }

    #[test]
    fn heterogeneity_aware_routing_beats_round_robin() {
        let r = ExtServing.run();
        let rr = max_qps(r.rows(), "rpi3+nano+tx2", "round-robin", "8");
        let lel = max_qps(r.rows(), "rpi3+nano+tx2", "least-expected-latency", "8");
        assert!(lel > rr, "lel {lel} QPS vs round-robin {rr} QPS");
    }
}
