//! Chaos-campaign properties for the supervised runtime.
//!
//! Any deterministic [`ChaosPlan`] — generated or curated — must leave the
//! pipeline's accounting intact: no frame seq is ever observed twice at
//! the gateway (at-most-once), every offered frame ends up in exactly one
//! of completed / dropped / corrupted / lost (conservation), and the full
//! report is byte-identical across reruns and across the thread vs
//! process layouts. The named tests pin recovery within the restart
//! budget, and one failure policy: a run without supervision is a
//! supervised run at budget 0, so its failures degrade a stage instead of
//! wedging the run, and replay one report in both layouts.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use edgebench::runtime::{self, RuntimeConfig, RuntimeReport, SuperviseConfig};
use edgebench::serve::{TraceFile, Traffic};
use edgebench_devices::faults::{ChaosKind, ChaosPlan};
use edgebench_devices::Device;
use edgebench_models::Model;
use proptest::prelude::*;

/// Frames per property case: long enough for every stage to see traffic,
/// short enough to keep hang-detection wall time per case small.
const FRAMES: usize = 100;

fn base_cfg(seed: u64) -> RuntimeConfig {
    RuntimeConfig::new(Model::CifarNet, Device::JetsonNano)
        .with_seed(seed)
        .with_ring_capacity(8)
}

fn supervised(seed: u64, plan: ChaosPlan) -> RuntimeConfig {
    // A deep budget: generated plans can concentrate failures on one stage.
    base_cfg(seed)
        .with_supervise(
            SuperviseConfig::default()
                .with_restart_budget(16)
                .with_heartbeat_ms(30),
        )
        .with_chaos(plan)
}

fn trace(seed: u64) -> TraceFile {
    TraceFile::generate(&Traffic::poisson(200.0, seed), FRAMES, 0.05, seed).expect("trace")
}

fn assert_conserved(r: &RuntimeReport) {
    assert_eq!(
        r.completed + r.dropped + r.corrupted + r.lost,
        r.offered,
        "conservation: completed {} + dropped {} + corrupted {} + lost {} != offered {}",
        r.completed,
        r.dropped,
        r.corrupted,
        r.lost,
        r.offered
    );
    assert_eq!(r.duplicates, 0, "gateway observed a duplicated frame seq");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any generated campaign conserves frames, never duplicates a seq,
    /// and replays byte-identically.
    #[test]
    fn chaos_campaigns_conserve_and_replay_identically(draw in (0usize..1_000_000, 1usize..9)) {
        let (seed, n_events) = draw;
        let seed = seed as u64;
        let plan = ChaosPlan::generate(seed, n_events, FRAMES as u64);
        let cfg = supervised(seed, plan);
        let t = trace(seed);
        let a = runtime::run_replay(&cfg, &t).expect("supervised replay");
        assert_conserved(&a);
        prop_assert!(a.lost <= plan_failures(&cfg), "more losses than failures");
        let b = runtime::run_replay(&cfg, &t).expect("rerun");
        prop_assert_eq!(a.to_csv(), b.to_csv(), "rerun must be byte-identical");
        prop_assert_eq!(
            a.event_log().to_csv(),
            b.event_log().to_csv(),
            "event logs must be byte-identical"
        );
    }
}

/// Failures scheduled by the config's plan (kill/hang/panic, not corrupt).
fn plan_failures(cfg: &RuntimeConfig) -> u64 {
    cfg.chaos.as_ref().map_or(0, |p| p.failure_count() as u64)
}

fn cli_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_edgebench-cli"))
}

fn shm_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ebrt-chaos-{tag}-{}", std::process::id()))
}

fn strip_mode(csv: &str) -> String {
    csv.lines()
        .filter(|l| !l.starts_with("mode,"))
        .collect::<Vec<_>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same campaign through four OS processes produces the identical
    /// report (modulo the mode row) and event log as the thread loopback.
    #[test]
    fn procs_and_threads_agree_under_chaos(case in 0usize..1_000) {
        let seed = 7_000 + case as u64;
        let plan = ChaosPlan::generate(seed, 5, FRAMES as u64);
        let shm = shm_dir(&format!("pvt-{case}"));
        let cfg = supervised(seed, plan).with_shm_dir(shm.clone());
        let t = trace(seed);

        let threads = runtime::run_replay(&cfg, &t).expect("thread replay");
        let procs = runtime::run_processes(&cfg, &t, cli_bin()).expect("procs run");
        let _ = std::fs::remove_dir_all(&shm);

        prop_assert_eq!(
            strip_mode(&threads.to_csv()),
            strip_mode(&procs.to_csv()),
            "chaos accounting must not depend on the process layout"
        );
        prop_assert_eq!(
            threads.event_log().to_csv(),
            procs.event_log().to_csv(),
            "chaos event logs must not depend on the process layout"
        );
    }
}

/// ISSUE acceptance: a curated campaign with kills, hangs, a panic, and a
/// corruption recovers every stage within its restart budget — nothing
/// degrades, every failure is one restart, every loss one event.
#[test]
fn supervised_pipeline_recovers_within_restart_budget() {
    let plan = ChaosPlan::parse("kill@0:10,hang@1:30,kill@2:50,corrupt@2:60,panic@3:70,hang@2:85")
        .unwrap();
    let failures = plan.failure_count() as u64;
    let budget = 3u32;
    let cfg = base_cfg(11)
        .with_supervise(
            SuperviseConfig::default()
                .with_restart_budget(budget)
                .with_heartbeat_ms(30),
        )
        .with_chaos(plan);
    let t = trace(11);
    let r = runtime::run_replay(&cfg, &t).unwrap();

    assert!(r.supervised);
    assert!(r.degraded.is_empty(), "degraded stages: {:?}", r.degraded);
    assert_eq!(r.restarts, failures, "one restart per scheduled failure");
    for s in &r.stages {
        assert!(
            s.restarts <= u64::from(budget),
            "{} exceeded its restart budget: {}",
            s.stage,
            s.restarts
        );
    }
    // Each failure lost at most the one in-flight frame, and each loss is
    // an explicit lost@stage event.
    assert!(r.lost <= failures, "lost {} > failures {failures}", r.lost);
    let lost_events = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, runtime::RuntimeEventKind::Lost { .. }))
        .count() as u64;
    assert_eq!(lost_events, r.lost, "every loss must be an explicit event");
    let restart_events = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, runtime::RuntimeEventKind::Restart { .. }))
        .count() as u64;
    assert_eq!(restart_events, r.restarts);
    assert!(!r.recovery_ms.is_empty(), "recovery latencies recorded");
    assert_conserved(&r);
}

/// Budget exhaustion escalates to drain-and-degrade: with a zero budget the
/// first failure permanently degrades the stage, yet accounting stays
/// complete and the run still terminates with a report.
#[test]
fn budget_exhaustion_degrades_and_still_conserves() {
    let plan = ChaosPlan::parse("kill@1:20").unwrap();
    let cfg = base_cfg(13)
        .with_supervise(SuperviseConfig::default().with_restart_budget(0))
        .with_chaos(plan);
    let r = runtime::run_replay(&cfg, &trace(13)).unwrap();
    assert!(
        r.degraded.iter().any(|s| s == "preprocess"),
        "degraded: {:?}",
        r.degraded
    );
    assert_eq!(r.restarts, 0);
    assert!(r.lost > 0, "the dead stage's frames are accounted as lost");
    assert_conserved(&r);
}

/// Without supervision a chaos kill (a stand-in for any stage panic) must
/// degrade the run — the stage replaced by a sink, its frames accounted as
/// lost — not abort the whole process or wedge the remaining stages.
#[test]
fn unsupervised_kill_degrades_instead_of_aborting() {
    let plan = ChaosPlan::parse("kill@2:15").unwrap();
    assert_eq!(plan.kind_at(2, 15), Some(ChaosKind::Kill));
    let cfg = base_cfg(17).with_chaos(plan);
    let r = runtime::run_replay(&cfg, &trace(17)).unwrap();
    assert!(
        r.degraded.iter().any(|s| s == "inference"),
        "degraded: {:?}",
        r.degraded
    );
    assert!(!r.supervised);
    assert!(r.completed < r.offered);
    assert_conserved(&r);
}

/// A hang needs no supervision configured: the budget-0 supervisor's stall
/// detector puts the stage down and a sink drains the rest, with the same
/// report in both layouts.
#[test]
fn unsupervised_hang_degrades_and_conserves() {
    let shm = shm_dir("unsup-hang");
    let cfg = base_cfg(23)
        .with_chaos(ChaosPlan::parse("hang@2:10").unwrap())
        .with_shm_dir(shm.clone());
    let t = trace(23);

    let threads = runtime::run_replay(&cfg, &t).expect("thread replay");
    let procs = runtime::run_processes(&cfg, &t, cli_bin()).expect("procs run");
    let _ = std::fs::remove_dir_all(&shm);

    for r in [&threads, &procs] {
        assert_eq!(r.degraded, ["inference"], "mode {}", r.mode);
        assert_eq!(r.restarts, 0);
        assert_conserved(r);
    }
    assert_eq!(strip_mode(&threads.to_csv()), strip_mode(&procs.to_csv()));
}

/// The unsupervised `kill@1:15` command replays one report, run after run
/// and in both layouts: the killed stage's sink drains every later frame.
#[test]
fn unsupervised_kill_replays_one_report_in_both_layouts() {
    let run = |layout: &[&str]| {
        let o = Command::new(cli_bin())
            .args(["runtime", "--model", "cifarnet", "--device", "jetson-nano"])
            .args(["--frames", "60", "--rate", "60", "--chaos", "kill@1:15"])
            .args(layout)
            .output()
            .expect("run edgebench-cli");
        assert!(
            o.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        strip_mode(&String::from_utf8(o.stdout).expect("utf-8 report"))
    };
    let reports: BTreeSet<String> = (0..3).flat_map(|_| [run(&[]), run(&["--procs"])]).collect();
    assert_eq!(reports.len(), 1, "distinct reports: {reports:#?}");
    let report = reports.first().expect("one report");
    for row in ["offered,60", "completed,15", "lost,45", "supervised,0"] {
        assert!(report.lines().any(|l| l == row), "no {row} in {report}");
    }
}

/// Without supervision a killed stage is the only degraded one, in either
/// layout: a survivor that stopped because the stop flag was raised ended
/// cleanly, and a killed gateway is a degraded stage, not a lost report.
#[test]
fn unsupervised_kill_degrades_the_same_stage_in_both_layouts() {
    let t = trace(19);
    for (stage, name) in ["capture", "preprocess", "inference", "gateway"]
        .into_iter()
        .enumerate()
    {
        let shm = shm_dir(&format!("unsup-kill-{stage}"));
        let cfg = base_cfg(19)
            .with_chaos(ChaosPlan::parse(&format!("kill@{stage}:15")).unwrap())
            .with_shm_dir(shm.clone());

        let threads = runtime::run_replay(&cfg, &t).expect("thread replay");
        let procs = runtime::run_processes(&cfg, &t, cli_bin()).expect("procs run");
        let _ = std::fs::remove_dir_all(&shm);

        assert_eq!(threads.degraded, [name], "threads, kill@{stage}:15");
        assert_eq!(procs.degraded, [name], "procs, kill@{stage}:15");
    }
}
