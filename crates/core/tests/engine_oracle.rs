//! The calendar queue every run uses vs the binary-heap reference.
//!
//! The two queues share the entire simulation body and differ only in
//! how pending events are stored and how the arrival trace is merged,
//! so every run must be *byte-identical* across them: the summary CSV,
//! the replica CSV, and the full replayable event log. The calendar side
//! runs through the production entry points, the heap side through
//! `Fleet::serve_arrivals_on::<HeapQueue>` on the same arrivals. The
//! properties here sweep traffic shapes, fault mixes, and fleet
//! compositions; the named tests pin oracle identity under the full
//! resilience stack, FIFO tie-break determinism on simultaneous
//! arrivals, and worker-count invariance of the qps scan and the geo
//! tier.

use edgebench::serve::engine::HeapQueue;
use edgebench::serve::geo::{default_regions, run_geo, GeoConfig};
use edgebench::serve::{
    AutoscaleConfig, BreakerConfig, Fleet, ReplicaSpec, RetryBudgetConfig, ServeConfig,
    ServeReport, Traffic,
};
use edgebench_devices::Device;
use edgebench_models::Model;
use proptest::prelude::*;

/// Requests per property case: long enough to exercise batching,
/// hedging, and retries; short enough to keep the sweep fast.
const N: usize = 1500;

fn fleet(devices: &[Device]) -> Fleet {
    let specs: Vec<_> = devices
        .iter()
        .map(|&d| ReplicaSpec::best_for(Model::MobileNetV2, d).expect("mobilenet deploys"))
        .collect();
    Fleet::new(specs).unwrap()
}

fn hetero_fleet() -> Fleet {
    fleet(&[Device::RaspberryPi3, Device::JetsonNano, Device::JetsonTx2])
}

/// Runs the identical workload on both queues and asserts the reports
/// and event logs agree byte for byte.
fn assert_oracle_identity(fleet: &Fleet, traffic: &Traffic, n: usize, cfg: &ServeConfig) {
    let cal = fleet.serve(traffic, n, cfg).expect("calendar run");
    let arrive_s = traffic.timestamps(n).expect("valid traffic");
    assert_same_run(&cal, &heap_run(fleet, &arrive_s, cfg));
}

fn heap_run(fleet: &Fleet, arrive_s: &[f64], cfg: &ServeConfig) -> ServeReport {
    fleet
        .serve_arrivals_on::<HeapQueue>(arrive_s, cfg)
        .expect("heap run")
}

/// The summary and replica CSV (`to_csv` renders both) and the event log
/// of a calendar run equal the heap reference's.
fn assert_same_run(cal: &ServeReport, heap: &ServeReport) {
    assert_eq!(
        cal.to_csv(),
        heap.to_csv(),
        "summary and replica CSV must be queue-invariant"
    );
    assert_eq!(
        cal.events_csv(),
        heap.events_csv(),
        "event log must be queue-invariant"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any traffic shape, fault mix, and seed produces byte-identical
    /// runs on both queues. `faults` is a bit mask: stragglers +
    /// breakers, hedging, replica dropout.
    #[test]
    fn engines_agree_across_traffic_and_faults(
        draw in (0usize..4, 40usize..400, 0usize..1000, 0usize..8, 1usize..8)
    ) {
        let (kind, rate, seed, faults, batch_max) = draw;
        let (rate_hz, seed) = (rate as f64, seed as u64);
        let flag = ["steady", "poisson", "diurnal", "burst"][kind];
        let traffic = Traffic::from_flag(flag, rate_hz, seed).expect("known kind");
        let mut cfg = ServeConfig::new(100.0)
            .with_seed(seed)
            .with_batch_max(batch_max)
            .with_retry_budget(RetryBudgetConfig::default());
        if faults & 1 != 0 {
            cfg = cfg.with_straggler(0.05, 6.0).with_breaker(BreakerConfig::default());
        }
        if faults & 2 != 0 {
            cfg = cfg.with_hedge_ms(2.0);
        }
        if faults & 4 != 0 {
            cfg = cfg.with_replica_dropout(0.005);
        }
        assert_oracle_identity(&hetero_fleet(), &traffic, N, &cfg);
    }

    /// The qps scan is byte-identical across worker counts: probes
    /// derive their own seeds, so fan-out only changes wall-clock time.
    #[test]
    fn qps_scan_is_jobs_invariant(seed in 0usize..100) {
        let fleet = hetero_fleet();
        let rates = [30.0, 90.0, 180.0, 360.0];
        let cfg = ServeConfig::new(100.0).with_seed(seed as u64);
        let serial = fleet.qps_scan(&rates, 400, &cfg, 1).expect("scan");
        let fanned = fleet.qps_scan(&rates, 400, &cfg, 8).expect("scan");
        prop_assert_eq!(
            serial.to_report("scan").to_csv(),
            fanned.to_report("scan").to_csv(),
            "jobs must not change qps-scan output"
        );
    }
}

/// The full resilience stack — stragglers, loss, hedging, retries,
/// breakers, the precision ladder, SDC injection, and autoscaling —
/// replays byte-identically on both queues.
#[test]
fn oracle_identity_holds_under_the_full_resilience_stack() {
    let traffic = Traffic::from_flag("diurnal", 220.0, 99).unwrap();
    let cfg = ServeConfig::new(80.0)
        .with_seed(99)
        .with_batch_max(4)
        .with_replica_dropout(0.004)
        .with_straggler(0.06, 5.0)
        .with_loss(0.02)
        .with_hedge_ms(1.5)
        .with_retry_budget(RetryBudgetConfig::default())
        .with_breaker(BreakerConfig::default())
        .with_ladder(true)
        .with_sdc(0.002)
        .with_autoscale(AutoscaleConfig::default());
    assert_oracle_identity(&hetero_fleet(), &traffic, 4000, &cfg);
}

/// Simultaneous arrivals (a zero-jitter steady trace faster than the
/// clock's resolution can separate) drain in FIFO order on both
/// queues: the reports and the event log, which records per-request
/// ordering, are identical and stable across reruns.
#[test]
fn simultaneous_arrivals_tie_break_fifo_deterministically() {
    let fleet = fleet(&[Device::JetsonNano, Device::JetsonNano]);
    // 1 MHz steady traffic: thousands of requests land on identical
    // nanosecond timestamps, so ordering is pure (time, seq) tie-break.
    let arrive_s: Vec<f64> = (0..2000).map(|i| (i / 4) as f64 * 1e-9).collect();
    let cfg = ServeConfig::new(100.0).with_admission(false);
    let cal = fleet
        .serve_arrivals(&arrive_s, &cfg)
        .expect("tie-break run");
    assert_same_run(&cal, &heap_run(&fleet, &arrive_s, &cfg));
    let rerun = fleet
        .serve_arrivals(&arrive_s, &cfg)
        .expect("tie-break rerun");
    assert_eq!(
        cal.events_csv(),
        rerun.events_csv(),
        "tie-break order must be stable"
    );
}

/// The geo tier fans regions over the worker pool; any `--jobs` value
/// must produce byte-identical combined reports.
#[test]
fn geo_tier_is_jobs_invariant() {
    let cfg = GeoConfig {
        peak_hz: 120.0,
        ..GeoConfig::new(100.0)
    };
    let regions = default_regions(cfg.period_s);
    let serial = run_geo(&cfg, &regions, 800, 1).expect("geo");
    let fanned = run_geo(&cfg, &regions, 800, 8).expect("geo");
    assert_eq!(
        serial.to_report("geo").to_csv(),
        fanned.to_report("geo").to_csv(),
        "jobs must not change geo output"
    );
}
