//! Integration tests for the zero-copy runtime pipeline (thread loopback).
//!
//! These cover the ISSUE acceptance criteria that do not need child
//! processes: full drain in order with clean shm teardown, byte-identical
//! replay reports at a fixed seed, sentry-mode energy savings with no
//! missed escalations, and deterministic IPC corruption detection.

use edgebench::runtime::{self, DropPolicy, ExecMode, RuntimeConfig, RuntimeError, SentryConfig};
use edgebench::serve::{ServeConfig, TraceFile, Traffic};
use edgebench_devices::Device;
use edgebench_models::Model;

fn small_cfg() -> RuntimeConfig {
    RuntimeConfig::new(Model::CifarNet, Device::JetsonNano)
}

fn trace(n: usize, rate_hz: f64, hit_rate: f64, seed: u64) -> TraceFile {
    TraceFile::generate(&Traffic::poisson(rate_hz, seed), n, hit_rate, seed).unwrap()
}

#[test]
fn loopback_smoke_drains_in_order_and_cleans_up() {
    let shm = std::env::temp_dir().join(format!("ebrt-smoke-{}", std::process::id()));
    let cfg = small_cfg().with_shm_dir(shm.clone());
    let t = trace(40, 200.0, 0.0, 7);

    let report = runtime::run_replay(&cfg, &t).unwrap();
    assert_eq!(report.offered, 40);
    assert_eq!(
        report.completed, 40,
        "every frame must drain to the gateway"
    );
    assert_eq!(
        report.order_violations, 0,
        "frames must arrive in seq order"
    );
    assert_eq!(report.dropped, 0);
    assert_eq!(report.corrupted, 0);
    assert!(report.latencies_ms.len() == 40);
    assert!(report.span_s > 0.0);

    // Clean shutdown leaves no shared files behind.
    let leftovers: Vec<_> = std::fs::read_dir(&shm)
        .map(|d| d.filter_map(Result::ok).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "leaked shm files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&shm);
}

#[test]
fn replay_report_is_byte_identical_across_runs() {
    let cfg = small_cfg().with_seed(99).with_ipc_flip_rate(2e-6);
    let t = trace(120, 400.0, 0.2, 99);
    let a = runtime::run_replay(&cfg, &t).unwrap().to_csv();
    let b = runtime::run_replay(&cfg, &t).unwrap().to_csv();
    assert_eq!(a, b, "replay must be byte-identical at a fixed seed");
}

#[test]
fn block_policy_never_drops_even_at_tiny_capacity() {
    let cfg = small_cfg().with_ring_capacity(2);
    let t = trace(64, 1000.0, 0.0, 3);
    let report = runtime::run_replay(&cfg, &t).unwrap();
    assert_eq!(report.completed, 64);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.order_violations, 0);
}

#[test]
fn drop_oldest_accounts_every_frame_exactly_once() {
    let cfg = small_cfg()
        .with_ring_capacity(2)
        .with_policy(DropPolicy::DropOldest);
    let t = trace(200, 5000.0, 0.0, 5);
    let report = runtime::run_replay(&cfg, &t).unwrap();
    assert_eq!(report.offered, 200);
    assert_eq!(
        report.completed + report.dropped,
        200,
        "every offered frame either completes or is evicted exactly once"
    );
    assert_eq!(report.order_violations, 0);
}

#[test]
fn sentry_cuts_energy_per_frame_with_no_missed_escalations() {
    // VGG-S-32 on Jetson Nano has a two-rung ladder (f16 full, i8 standby)
    // whose standby rung costs ~76% of the full-rung energy — the
    // sentry-capable deployment with a visible saving.
    let base = RuntimeConfig::new(Model::VggS32, Device::JetsonNano).with_seed(11);
    let t = trace(150, 60.0, 0.05, 11); // sparse hits

    let plain = runtime::run_replay(&base.clone(), &t).unwrap();
    let sentry = runtime::run_replay(&base.with_sentry(SentryConfig::default()), &t).unwrap();

    assert_eq!(sentry.completed, plain.completed);
    assert_eq!(sentry.missed_escalations, 0, "recall 1.0 must never miss");
    assert!(
        sentry.escalations > 0,
        "sparse hits must trigger escalations"
    );
    assert!(sentry.standby_frames > 0);
    assert!(
        sentry.energy_per_frame_mj() < plain.energy_per_frame_mj(),
        "sentry {} mJ/frame must beat always-full {} mJ/frame",
        sentry.energy_per_frame_mj(),
        plain.energy_per_frame_mj()
    );

    // The event log records each escalation (and no misses).
    let log = sentry.event_log().to_csv();
    let escalate_lines = log
        .lines()
        .filter(|l| l.contains("sentry-escalate"))
        .count();
    assert_eq!(escalate_lines as u64, sentry.escalations);
    assert!(!log.contains("sentry-missed"));
}

#[test]
fn imperfect_recall_logs_missed_escalations() {
    let cfg = RuntimeConfig::new(Model::VggS32, Device::JetsonNano)
        .with_seed(21)
        .with_sentry(SentryConfig {
            cooldown: 4,
            standby_recall: 0.0,
        });
    let t = trace(60, 60.0, 0.3, 21);
    let report = runtime::run_replay(&cfg, &t).unwrap();
    assert!(report.missed_escalations > 0);
    assert_eq!(report.escalations, 0);
    assert!(report.event_log().to_csv().contains("sentry-missed"));
}

#[test]
fn ipc_corruption_is_detected_counted_and_deterministic() {
    // ~98k payload bits per CifarNet frame: a 1e-4 per-bit rate corrupts
    // essentially every frame; checksums must catch all of it.
    let cfg = small_cfg().with_seed(17).with_ipc_flip_rate(1e-4);
    let t = trace(50, 300.0, 0.0, 17);
    let a = runtime::run_replay(&cfg, &t).unwrap();
    assert!(a.corrupted > 0, "flips must be detected by frame checksums");
    assert_eq!(
        a.completed + a.corrupted,
        50,
        "corrupted frames are dropped, never served"
    );
    assert!(a
        .events
        .iter()
        .any(|e| e.kind.to_string().starts_with("corrupted@")));
    let b = runtime::run_replay(&cfg, &t).unwrap();
    assert_eq!(a.corrupted, b.corrupted);
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn real_execution_produces_stable_nonzero_digest() {
    let cfg = small_cfg().with_seed(31).with_exec(runtime::ExecMode::Real);
    let t = trace(6, 100.0, 0.0, 31);
    let a = runtime::run_replay(&cfg, &t).unwrap();
    let b = runtime::run_replay(&cfg, &t).unwrap();
    assert_ne!(
        a.output_digest, 0,
        "real execution must fold output checksums"
    );
    assert_eq!(a.output_digest, b.output_digest);
}

#[test]
fn runtime_latency_tracks_sim_prediction() {
    // Same seeded arrivals through the event-driven simulator and the real
    // pipeline (zero capture/preprocess overhead for comparability).
    let model = Model::MobileNetV2;
    let device = Device::JetsonNano;
    let t = trace(200, 80.0, 0.0, 43);

    let spec = edgebench::serve::ReplicaSpec::best_for(model, device).unwrap();
    let fleet = edgebench::serve::Fleet::new([spec]).unwrap();
    let sim_cfg = ServeConfig::new(10_000.0).with_batch_max(1).with_seed(43);
    let sim = fleet.serve_arrivals(&t.arrivals_s(), &sim_cfg).unwrap();

    let rt_cfg = RuntimeConfig::new(model, device)
        .with_seed(43)
        .with_stage_costs(0, 0)
        .with_ring_capacity(64);
    let real = runtime::run_replay(&rt_cfg, &t).unwrap();

    assert_eq!(real.completed as usize, t.points.len());
    let sim_p50 = sim.p50_ms();
    let real_p50 = real.latencies_ms.percentile(50.0);
    let ratio = real_p50 / sim_p50;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "runtime p50 {real_p50:.3} ms should track sim p50 {sim_p50:.3} ms"
    );
}

#[test]
fn config_validation_rejects_bad_settings() {
    let t = trace(4, 100.0, 0.0, 1);
    let bad_cap = small_cfg().with_ring_capacity(3);
    assert!(runtime::run_replay(&bad_cap, &t).is_err());
    let bad_rate = small_cfg().with_ipc_flip_rate(1.5);
    assert!(runtime::run_replay(&bad_rate, &t).is_err());
    // CifarNet/JetsonNano has a single-rung ladder: sentry is impossible.
    let bad_sentry = small_cfg().with_sentry(SentryConfig::default());
    assert!(runtime::run_replay(&bad_sentry, &t).is_err());
    // C3D's 5-dim clip does not fit a frame header's 4 dims: real execution
    // is a config error, modelled execution still runs.
    let c3d = RuntimeConfig::new(Model::C3d, Device::JetsonNano);
    let real = c3d.clone().with_exec(ExecMode::Real);
    assert!(matches!(
        runtime::run_replay(&real, &t),
        Err(RuntimeError::Config { .. })
    ));
    assert!(runtime::run_replay(&c3d, &t).is_ok());
}
