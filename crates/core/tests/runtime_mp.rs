//! Multi-process runtime tests: each pipeline stage runs as its own OS
//! process (children of the real `edgebench-cli` binary) over mmap ring
//! buffers, driven by [`edgebench::runtime::run_processes`].
//!
//! Covers what needs real processes: the procs report matches the thread
//! loopback byte-for-byte (modulo the mode row), a SIGTERMed stage is a
//! failed stage — restarted within budget, replaced by a sink at budget 0
//! — and no shm files survive.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use edgebench::runtime::{self, ExecMode, RuntimeConfig, SentryConfig, StageKill, SuperviseConfig};
use edgebench::serve::{TraceFile, Traffic};
use edgebench_devices::Device;
use edgebench_models::Model;

fn cli_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_edgebench-cli"))
}

fn shm_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ebrt-mp-{tag}-{}", std::process::id()))
}

fn assert_no_leftovers(dir: &Path) {
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "leaked shm files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(dir);
}

fn strip_mode(csv: &str) -> String {
    csv.lines()
        .filter(|l| !l.starts_with("mode,"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn procs_report_matches_thread_loopback() {
    let shm = shm_dir("match");
    let cfg = RuntimeConfig::new(Model::CifarNet, Device::JetsonNano)
        .with_seed(13)
        .with_ipc_flip_rate(5e-6)
        .with_shm_dir(shm.clone());
    let t = TraceFile::generate(&Traffic::poisson(250.0, 13), 80, 0.1, 13).unwrap();

    let threads = runtime::run_replay(&cfg, &t).unwrap().to_csv();
    let procs = runtime::run_processes(&cfg, &t, cli_bin())
        .unwrap()
        .to_csv();

    assert!(threads.contains("mode,threads"));
    assert!(procs.contains("mode,procs"));
    assert_eq!(
        strip_mode(&threads),
        strip_mode(&procs),
        "virtual-time accounting must not depend on the process layout"
    );
    assert_no_leftovers(&shm);
}

#[test]
fn procs_sentry_run_reports_events() {
    let shm = shm_dir("sentry");
    let cfg = RuntimeConfig::new(Model::VggS32, Device::JetsonNano)
        .with_seed(29)
        .with_sentry(SentryConfig::default())
        .with_shm_dir(shm.clone());
    let t = TraceFile::generate(&Traffic::poisson(60.0, 29), 60, 0.08, 29).unwrap();

    let out = runtime::run_processes(&cfg, &t, cli_bin()).unwrap();
    assert!(out.degraded.is_empty(), "degraded: {:?}", out.degraded);
    assert!(out.to_csv().contains("sentry,1"));
    assert!(out.event_log().to_csv().contains("sentry-escalate"));
    assert!(!out.event_log().to_csv().contains("sentry-missed"));
    assert_no_leftovers(&shm);
}

#[test]
fn sigterm_of_middle_stage_degrades_gracefully() {
    let shm = shm_dir("sigterm");
    // Paced at 150 fps so the run is long enough (~2 s) to kill mid-flight.
    let cfg = RuntimeConfig::new(Model::CifarNet, Device::JetsonNano)
        .with_seed(37)
        .with_pace(true)
        .with_shm_dir(shm.clone());
    let t = TraceFile::generate(&Traffic::poisson(150.0, 37), 300, 0.0, 37).unwrap();

    let out = runtime::run_processes_with_kill(
        &cfg,
        &t,
        cli_bin(),
        Some(StageKill {
            stage: "preprocess",
            after_processed: 30,
        }),
    )
    .unwrap();

    assert_eq!(
        out.degraded,
        ["preprocess"],
        "the killed stage, and only it, must be reported degraded"
    );
    // The pipeline served a prefix and then drained: a report was still
    // written, some frames completed, but not the whole trace.
    let completed: u64 = out
        .to_csv()
        .lines()
        .find_map(|l| l.strip_prefix("completed,"))
        .expect("report has a completed row")
        .parse()
        .unwrap();
    assert!(completed >= 30, "drained prefix missing: {completed}");
    assert!(completed < 300, "SIGTERM had no effect: {completed}");
    // No orphaned shm segments after the degraded shutdown.
    assert_no_leftovers(&shm);
}

#[test]
fn sigterm_of_supervised_stage_restarts_and_conserves() {
    let shm = shm_dir("sigterm-sup");
    // The same paced run as above, now with a restart budget: the SIGTERMed
    // stage restarts over its still-open rings, and the run finishes.
    let cfg = RuntimeConfig::new(Model::CifarNet, Device::JetsonNano)
        .with_seed(37)
        .with_pace(true)
        .with_supervise(SuperviseConfig::default().with_restart_budget(3))
        .with_shm_dir(shm.clone());
    let t = TraceFile::generate(&Traffic::poisson(150.0, 37), 300, 0.0, 37).unwrap();

    let start = Instant::now();
    let out = runtime::run_processes_with_kill(
        &cfg,
        &t,
        cli_bin(),
        Some(StageKill {
            stage: "preprocess",
            after_processed: 30,
        }),
    )
    .unwrap();
    let elapsed = start.elapsed();

    assert!(
        elapsed < Duration::from_secs(20),
        "the restarted stage wedged the run for {elapsed:?}"
    );
    assert!(out.degraded.is_empty(), "degraded: {:?}", out.degraded);
    assert_eq!(out.restarts, 1, "one SIGTERM, one restart");
    assert_eq!(out.stages[1].restarts, 1, "the restart is preprocess's");
    assert_eq!(out.offered, 300);
    assert_eq!(
        out.completed + out.dropped + out.corrupted + out.lost,
        out.offered,
        "conservation"
    );
    assert_eq!(out.duplicates, 0);
    assert_no_leftovers(&shm);
}

#[test]
fn supervised_real_exec_is_not_mistaken_for_a_hang() {
    let shm = shm_dir("real-exec");
    // A MobileNet-v2 f16 frame outlasts the stall window by about 3x, and
    // its slowest node stays about 5x inside it: ~1.6 s and ~0.10 s (a
    // 1x1 convolution) against 500 ms unoptimized, ~0.17 s and ~0.011 s (a
    // convolution or an activation, binary16 rounding included) against
    // 60 ms optimized. The inference stage beats once per executed node,
    // so its child is never killed as hung.
    let heartbeat_ms = if cfg!(debug_assertions) { 500 } else { 60 };
    let cfg = RuntimeConfig::new(Model::MobileNetV2, Device::JetsonNano)
        .with_exec(ExecMode::Real)
        .with_supervise(SuperviseConfig::default().with_heartbeat_ms(heartbeat_ms))
        .with_shm_dir(shm.clone());
    let t = TraceFile::generate(&Traffic::poisson(60.0, 3), 3, 0.1, 3).unwrap();

    let threads = runtime::run_replay(&cfg, &t).unwrap();
    let procs = runtime::run_processes(&cfg, &t, cli_bin()).unwrap();

    assert_eq!(procs.restarts, 0, "a live frame was killed as a hang");
    assert_eq!(procs.completed, 3);
    assert_eq!(
        strip_mode(&threads.to_csv()),
        strip_mode(&procs.to_csv()),
        "real execution must not depend on the process layout"
    );
    assert_no_leftovers(&shm);
}

#[test]
fn procs_out_flag_writes_the_report() {
    let dir = shm_dir("cli-out");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |layout: &[&str], out: &Path| {
        let o = Command::new(cli_bin())
            .args(["runtime", "--model", "cifarnet", "--device", "jetson-nano"])
            .args(["--frames", "40", "--seed", "5", "--out"])
            .arg(out)
            .args(layout)
            .output()
            .expect("run edgebench-cli");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(o.status.success(), "stderr: {stderr}");
        assert!(o.stdout.is_empty(), "--out must keep the report off stdout");
        std::fs::read_to_string(out).expect("--out wrote the report")
    };
    let threads = run(&[], &dir.join("threads.csv"));
    let procs = run(&["--procs"], &dir.join("procs.csv"));
    let _ = std::fs::remove_dir_all(&dir);

    assert!(procs.contains("mode,procs"), "{procs}");
    assert_eq!(threads.replace("mode,threads", "mode,procs"), procs);
}
