//! Zero-copy multi-process serving runtime.
//!
//! A pipeline of four stages — **capture → preprocess → inference →
//! gateway** — connected by memory-mapped SPSC ring buffers
//! ([`ring::RingBuffer`]) carrying fixed-layout frame headers and raw `f32`
//! payloads: zero serialization on the frame path. Each stage can run as a
//! thread (replay/loopback mode) or as its own OS process (the CLI spawns
//! `edgebench-cli runtime --stage <name>` children over the same shared
//! files).
//!
//! ## Virtual-time replay
//!
//! The runtime exercises *real* IPC mechanics (mmap rings, futex wakeups,
//! checksums, backpressure) while accounting time *virtually*: every stage
//! advances a deterministic clock `t_out = max(stage_clock, t_in) + svc_ns`,
//! with service times taken from the same per-rung tables `serve::sim` uses.
//! Ring-full backpressure is folded in through the per-slot free-time stamps
//! (see [`ring`]): a blocking producer cannot stamp a frame earlier than the
//! virtual instant the consumer vacated the slot it reuses. The result is a
//! replay report that is byte-identical across runs at a fixed seed — and
//! directly comparable against the discrete-event simulator's prediction on
//! the same trace (`ext-runtime-vs-sim`).

pub mod report;
pub mod ring;
pub mod sentry;
pub mod shm;
mod stage;
pub mod supervise;

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};

use edgebench_devices::faults::ChaosPlan;
use edgebench_devices::Device;
use edgebench_measure::stats::Samples;
use edgebench_models::Model;

use crate::serve::{Fleet, ReplicaSpec, TraceFile};
use ring::RingBuffer;
use shm::SharedMap;
use stage::{CloseOnDrop, Ctl, Pipeline, DETECTION_ELEMS, STAGE_NAMES};

pub(crate) use report::{RuntimeEvent, StageReport};
pub use report::{RuntimeEventKind, RuntimeReport};
pub use ring::DropPolicy;
pub use sentry::SentryConfig;
pub use supervise::SuperviseConfig;

/// Errors surfaced by the runtime subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Invalid runtime configuration.
    Config {
        /// What was wrong.
        reason: String,
    },
    /// A shared-memory mapping failed.
    Shm {
        /// Backing file path.
        path: String,
        /// What went wrong.
        reason: String,
    },
    /// No deployable configuration for the model/device pair.
    NoDeployment {
        /// Model name.
        model: String,
        /// Device name.
        device: String,
    },
    /// A pipeline stage failed or exited abnormally.
    Stage {
        /// Stage name.
        stage: String,
        /// What went wrong.
        reason: String,
    },
    /// Trace generation failed.
    Trace {
        /// What went wrong.
        reason: String,
    },
    /// Filesystem error while managing the run directory.
    Io {
        /// What went wrong.
        reason: String,
    },
}

impl RuntimeError {
    pub(crate) fn config(reason: &str) -> RuntimeError {
        RuntimeError::Config {
            reason: reason.to_string(),
        }
    }

    pub(crate) fn shm(path: &Path, reason: &str) -> RuntimeError {
        RuntimeError::Shm {
            path: path.display().to_string(),
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config { reason } => write!(f, "runtime config: {reason}"),
            RuntimeError::Shm { path, reason } => write!(f, "shared memory {path}: {reason}"),
            RuntimeError::NoDeployment { model, device } => {
                write!(f, "no deployable configuration for {model} on {device}")
            }
            RuntimeError::Stage { stage, reason } => write!(f, "stage {stage}: {reason}"),
            RuntimeError::Trace { reason } => write!(f, "trace: {reason}"),
            RuntimeError::Io { reason } => write!(f, "io: {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// How real the inference stage's compute is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Charge per-rung service/energy tables only (fast, default).
    Model,
    /// Additionally run the real `PreparedExecutor` hot path per frame and
    /// fold output checksums into the report digest.
    Real,
}

/// Configuration for a runtime pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Model served by the inference stage.
    pub model: Model,
    /// Device whose measured ladder provides service/energy tables.
    pub device: Device,
    /// Slots per ring (power of two).
    pub ring_capacity: usize,
    /// Backpressure policy on full rings.
    pub policy: DropPolicy,
    /// Sentry mode; `None` serves every frame with the full model.
    pub sentry: Option<SentryConfig>,
    /// Master seed for payloads, faults, and sentry recall draws.
    pub seed: u64,
    /// Virtual capture cost per payload element, ns.
    pub capture_ns_per_elem: u64,
    /// Virtual preprocess cost per payload element, ns.
    pub preprocess_ns_per_elem: u64,
    /// Per-bit flip probability on the IPC links (0 disables).
    pub ipc_flip_rate: f64,
    /// Whether inference really executes the model.
    pub exec: ExecMode,
    /// Pace capture in wall-clock time (live mode) instead of free-running.
    pub pace: bool,
    /// Base directory for shared files (default `/dev/shm` or tmp).
    pub shm_dir: Option<PathBuf>,
    /// Self-healing supervision. `None` runs under the same supervisor at
    /// restart budget 0 (fail-stop: a failed stage is replaced by a sink
    /// at once); the report's `supervised` row echoes whether it was set.
    pub supervise: Option<SuperviseConfig>,
    /// Deterministic chaos schedule injected into the stages.
    pub chaos: Option<ChaosPlan>,
}

impl RuntimeConfig {
    /// Defaults: capacity 8, block policy, no sentry, seed 42, modelled
    /// execution, small per-element stage costs.
    pub fn new(model: Model, device: Device) -> RuntimeConfig {
        RuntimeConfig {
            model,
            device,
            ring_capacity: 8,
            policy: DropPolicy::Block,
            sentry: None,
            seed: 42,
            capture_ns_per_elem: 2,
            preprocess_ns_per_elem: 4,
            ipc_flip_rate: 0.0,
            exec: ExecMode::Model,
            pace: false,
            shm_dir: None,
            supervise: None,
            chaos: None,
        }
    }

    /// Sets the ring capacity (power of two).
    pub fn with_ring_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the backpressure policy.
    pub fn with_policy(mut self, policy: DropPolicy) -> RuntimeConfig {
        self.policy = policy;
        self
    }

    /// Enables sentry mode.
    pub fn with_sentry(mut self, sentry: SentryConfig) -> RuntimeConfig {
        self.sentry = Some(sentry);
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> RuntimeConfig {
        self.seed = seed;
        self
    }

    /// Sets the virtual per-element capture and preprocess costs (ns).
    pub fn with_stage_costs(mut self, capture: u64, preprocess: u64) -> RuntimeConfig {
        self.capture_ns_per_elem = capture;
        self.preprocess_ns_per_elem = preprocess;
        self
    }

    /// Sets the IPC link flip rate.
    pub fn with_ipc_flip_rate(mut self, rate: f64) -> RuntimeConfig {
        self.ipc_flip_rate = rate;
        self
    }

    /// Sets the execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> RuntimeConfig {
        self.exec = exec;
        self
    }

    /// Enables wall-clock pacing of the capture stage.
    pub fn with_pace(mut self, pace: bool) -> RuntimeConfig {
        self.pace = pace;
        self
    }

    /// Overrides the shared-file base directory.
    pub fn with_shm_dir(mut self, dir: PathBuf) -> RuntimeConfig {
        self.shm_dir = Some(dir);
        self
    }

    /// Enables self-healing supervision (crash/hang detection plus
    /// deterministic stage restarts).
    pub fn with_supervise(mut self, sup: SuperviseConfig) -> RuntimeConfig {
        self.supervise = Some(sup);
        self
    }

    /// Injects a deterministic chaos schedule into the stages.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> RuntimeConfig {
        self.chaos = Some(plan);
        self
    }

    /// The supervision every run executes under: `supervise`, or the
    /// default knobs at restart budget 0 when it is `None`.
    pub(crate) fn supervision(&self) -> SuperviseConfig {
        self.supervise
            .unwrap_or_else(|| SuperviseConfig::default().with_restart_budget(0))
    }

    /// Validates static invariants.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] on a zero or non-power-of-two ring
    /// capacity, an out-of-range probability or supervision knob, or real
    /// execution of a model whose input has more than the four dims a
    /// frame header carries.
    pub(crate) fn validate(&self) -> Result<(), RuntimeError> {
        if self.ring_capacity == 0 || !self.ring_capacity.is_power_of_two() {
            return Err(RuntimeError::config(
                "ring capacity must be a non-zero power of two",
            ));
        }
        if !(0.0..=1.0).contains(&self.ipc_flip_rate) {
            return Err(RuntimeError::config("flip rate must be in [0, 1]"));
        }
        if let Some(s) = &self.sentry {
            if s.cooldown == 0 {
                return Err(RuntimeError::config("sentry cooldown must be positive"));
            }
            if !(0.0..=1.0).contains(&s.standby_recall) {
                return Err(RuntimeError::config("standby recall must be in [0, 1]"));
            }
        }
        let sup = self.supervision();
        if sup.heartbeat_ms < 10 {
            return Err(RuntimeError::config("heartbeat window must be >= 10 ms"));
        }
        if sup.restart_budget > 64 {
            return Err(RuntimeError::config("restart budget must be <= 64"));
        }
        if sup.backoff_factor < 1.0 {
            return Err(RuntimeError::config("backoff factor must be >= 1"));
        }
        if !(0.0..1.0).contains(&sup.jitter_frac) {
            return Err(RuntimeError::config("jitter fraction must be in [0, 1)"));
        }
        if self.exec == ExecMode::Real && self.model.input_shape().dims().len() > 4 {
            return Err(RuntimeError::config(
                "real execution needs a model input of rank <= 4 (frame headers carry 4 dims)",
            ));
        }
        Ok(())
    }
}

/// Service/energy cost of one ladder rung at batch 1.
#[derive(Debug, Clone)]
pub(crate) struct RungCost {
    pub dtype: &'static str,
    pub svc_ns: u64,
    pub energy_mj: f64,
}

/// Per-stage cost tables derived from the serving fleet's ladder model —
/// the same numbers `serve::sim` predicts with, which is what makes the
/// sim-vs-real comparison apples-to-apples.
#[derive(Debug, Clone)]
pub(crate) struct StageCosts {
    pub elems: usize,
    pub dims: [u32; 4],
    pub full: RungCost,
    pub standby: Option<RungCost>,
}

impl StageCosts {
    pub(crate) fn build(cfg: &RuntimeConfig) -> Result<StageCosts, RuntimeError> {
        let spec = ReplicaSpec::best_for(cfg.model, cfg.device).ok_or_else(|| {
            RuntimeError::NoDeployment {
                model: cfg.model.name().to_string(),
                device: cfg.device.name().to_string(),
            }
        })?;
        let fleet = Fleet::new([spec]).map_err(|e| RuntimeError::Config {
            reason: format!("fleet model: {e}"),
        })?;
        let replica = &fleet.replicas[0];
        let rung_cost = |r: &crate::serve::RungModel| RungCost {
            dtype: r.dtype,
            svc_ns: r.svc_ns[0],
            energy_mj: r.energy_mj[0],
        };
        let full = rung_cost(&replica.rungs[0]);
        let standby = (replica.rungs.len() > 1)
            .then(|| rung_cost(replica.rungs.last().expect("len checked")));
        if cfg.sentry.is_some() && standby.is_none() {
            return Err(RuntimeError::config(
                "sentry mode needs a precision ladder with at least two rungs",
            ));
        }
        let shape = cfg.model.input_shape();
        let mut dims = [1u32; 4];
        for (d, s) in dims.iter_mut().zip(shape.dims()) {
            *d = *s as u32;
        }
        let elems: usize = shape.dims().iter().product();
        Ok(StageCosts {
            elems,
            dims,
            full,
            standby,
        })
    }
}

/// Removes the run directory (shared ring/ctl/trace files) on drop, so no
/// shm segment survives the run — even on panic.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Shared-file names inside a run directory.
const RING_FILES: [&str; 3] = ["ring-capture", "ring-preprocess", "ring-inference"];
const CTL_FILE: &str = "ctl";
const TRACE_FILE: &str = "trace.bin";

fn make_run_dir(cfg: &RuntimeConfig) -> Result<(PathBuf, DirGuard), RuntimeError> {
    let base = cfg.shm_dir.clone().unwrap_or_else(shm::shm_base_dir);
    let dir = base.join(format!(
        "ebrt-{}-{}-{}",
        std::process::id(),
        cfg.seed,
        RUN_COUNTER.fetch_add(1, Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| RuntimeError::Io {
        reason: format!("create {}: {e}", dir.display()),
    })?;
    let guard = DirGuard(dir.clone());
    Ok((dir, guard))
}

pub(crate) struct RunObjects {
    rings: [RingBuffer; 3],
    ctl: Ctl,
}

fn create_objects(
    dir: &Path,
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    n_frames: usize,
) -> Result<RunObjects, RuntimeError> {
    let elems = [costs.elems, costs.elems, DETECTION_ELEMS];
    let mut rings = Vec::with_capacity(3);
    for (name, elems) in RING_FILES.iter().zip(elems) {
        let path = dir.join(name);
        let map = SharedMap::create(&path, RingBuffer::required_bytes(cfg.ring_capacity, elems))?;
        rings.push(RingBuffer::create(map, cfg.ring_capacity, elems)?);
    }
    // Latency ledger: one slot per frame id. Event region: worst case a few
    // events per frame plus restart/lost traffic bounded by the budget.
    let budget = cfg.supervision().restart_budget as usize;
    let ctl = Ctl::create(
        &dir.join(CTL_FILE),
        n_frames,
        RECOVERY_LOG_CAP,
        n_frames * 6 + 64 + 4 * budget,
    )?;
    let rings: [RingBuffer; 3] = rings.try_into().expect("three rings");
    Ok(RunObjects { rings, ctl })
}

/// Capacity of the shared recovery log — comfortably above the maximum
/// 4 stages × 64-restart budget.
const RECOVERY_LOG_CAP: usize = 260;

fn attach_objects(dir: &Path) -> Result<RunObjects, RuntimeError> {
    let mut rings = Vec::with_capacity(3);
    for name in RING_FILES {
        rings.push(RingBuffer::attach(SharedMap::open(&dir.join(name))?)?);
    }
    let ctl = Ctl::attach(&dir.join(CTL_FILE))?;
    let rings: [RingBuffer; 3] = rings.try_into().expect("three rings");
    Ok(RunObjects { rings, ctl })
}

/// Builds the report from the control block and rings. Both layouts call
/// it once every stage has exited, with the stages that ended degraded.
fn assemble_report(
    mode: &'static str,
    cfg: &RuntimeConfig,
    objs: &RunObjects,
    degraded: [bool; 4],
) -> RuntimeReport {
    let (ctl, rings) = (&objs.ctl, &objs.rings);
    // Fold any leftover in-flight frames (a stage that died after the rest
    // of the pipeline finished) as lost, so the conservation invariant
    // holds at assembly time.
    for s in 0..4 {
        ctl.lose_inflight(s);
    }
    let events = ctl
        .events()
        .into_iter()
        .filter_map(|(t_ns, seq, code)| {
            let kind = RuntimeEventKind::from_code(code)?;
            Some(RuntimeEvent { t_ns, seq, kind })
        })
        .collect();
    let stages = STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| StageReport {
            stage: name,
            processed: ctl.processed[i].load(Acquire),
            busy_s: ctl.busy_ns[i].load(Acquire) as f64 / 1e9,
            restarts: ctl.restarts[i].load(Acquire),
            lost: ctl.lost[i].load(Acquire),
        })
        .collect();
    let recovery_ms = Samples::from_unsorted(
        ctl.recoveries()
            .iter()
            .map(|&(_, _, penalty_ns)| penalty_ns as f64 / 1e6)
            .collect(),
    );
    RuntimeReport {
        mode,
        policy: cfg.policy.name(),
        sentry: cfg.sentry.is_some(),
        offered: ctl.offered.load(Acquire),
        completed: ctl.completed.load(Acquire),
        dropped: rings.iter().map(|r| r.dropped()).sum(),
        corrupted: ctl.corrupted.iter().map(|w| w.load(Acquire)).sum(),
        escalations: ctl.escalations.load(Acquire),
        standdowns: ctl.standdowns.load(Acquire),
        missed_escalations: ctl.missed_escalations.load(Acquire),
        standby_frames: ctl.standby_frames.load(Acquire),
        full_frames: ctl.full_frames.load(Acquire),
        energy_mj: ctl.energy_mj(),
        span_s: ctl.span_ns.load(Acquire) as f64 / 1e9,
        latencies_ms: Samples::from_unsorted(ctl.ledger_latencies_ms()),
        order_violations: ctl.order_violations.load(Acquire),
        supervised: cfg.supervise.is_some(),
        restarts: ctl.restarts.iter().map(|w| w.load(Acquire)).sum(),
        lost: ctl.lost.iter().map(|w| w.load(Acquire)).sum(),
        duplicates: ctl.duplicates.load(Acquire),
        recovery_ms,
        degraded: STAGE_NAMES
            .iter()
            .zip(degraded)
            .filter(|&(_, d)| d)
            .map(|(name, _)| name.to_string())
            .collect(),
        stages,
        events,
        output_digest: ctl.digest.load(Acquire),
    }
}

/// Run the full pipeline as four threads in this process over real shared
/// rings — the loopback/replay mode. Deterministic: the report is a pure
/// function of `(cfg, trace)`.
///
/// Every stage runs under the restart supervisor plus a heartbeat monitor,
/// at [`RuntimeConfig::supervise`]'s budget or at budget 0 when it is
/// `None`: a stage panic, chaos kill or hang is restarted within budget
/// and then replaced by a sink, never left to abort or wedge the run.
///
/// # Errors
///
/// [`RuntimeError`] on invalid configuration, no deployable ladder, or
/// shared memory failure.
pub fn run_replay(cfg: &RuntimeConfig, trace: &TraceFile) -> Result<RuntimeReport, RuntimeError> {
    cfg.validate()?;
    let costs = StageCosts::build(cfg)?;
    let (dir, _guard) = make_run_dir(cfg)?;
    let objs = create_objects(&dir, cfg, &costs, trace.points.len())?;
    stage::clear_local_stop();

    let sup = &cfg.supervision();
    let (ctl, rings) = (&objs.ctl, &objs.rings);
    let pipe = &Pipeline {
        cfg,
        costs: &costs,
        ctl,
        rings,
        trace,
        proc_mode: false,
    };
    let monitor_stop = &AtomicBool::new(false);
    let degraded = std::thread::scope(|s| {
        let stages = [0, 1, 2, 3].map(|i| {
            s.spawn(move || {
                // The guard wraps the restart loop, so a restarted body
                // reattaches to a still-open ring.
                let _close = rings.get(i).map(|ring| CloseOnDrop { ring, ctl });
                pipe.with_stage(i, |body, sink| {
                    supervise::supervise_thread_stage(sup, cfg.seed, ctl, i, body, sink)
                })
            })
        });
        let monitor = s.spawn(move || supervise::run_hang_monitor(ctl, sup, monitor_stop));
        // A panic that escapes a stage degrades it instead of aborting.
        let degraded = stages.map(|h| h.join().unwrap_or(true));
        monitor_stop.store(true, Release);
        monitor.thread().unpark();
        let _ = monitor.join();
        degraded
    });
    Ok(assemble_report("threads", cfg, &objs, degraded))
}

/// Spawn each stage as its own OS process (children of `bin`, the
/// `edgebench-cli` binary) over shared ring files, supervise them, and
/// assemble the report from the control block once every child has
/// exited — the same report [`run_replay`] returns, with mode `procs`.
/// One process loop supervises every run, at [`RuntimeConfig::supervise`]'s
/// budget or at budget 0 when it is `None`: a child that dies, hangs or is
/// SIGTERMed is restarted within budget, then replaced by a sink child.
///
/// # Errors
///
/// [`RuntimeError`] on setup failure or when a child cannot be spawned. A
/// stage that ends degraded, the gateway included, is listed in
/// [`RuntimeReport::degraded`] instead.
pub fn run_processes(
    cfg: &RuntimeConfig,
    trace: &TraceFile,
    bin: &Path,
) -> Result<RuntimeReport, RuntimeError> {
    run_processes_with_kill(cfg, trace, bin, None)
}

/// Fault-injection hook for [`run_processes_with_kill`]: SIGTERM one stage
/// once it has processed a given number of frames.
#[derive(Debug, Clone, Copy)]
pub struct StageKill {
    /// Stage name (`capture`, `preprocess`, `inference`, `gateway`).
    pub stage: &'static str,
    /// Send the signal once the stage's processed counter reaches this.
    pub after_processed: u64,
}

/// Spawn one `runtime --stage <name>` child over the shared files in
/// `dir`; `sink` spawns the drain-and-account body used after a stage's
/// restart budget is exhausted.
pub(crate) fn spawn_stage_child(
    bin: &Path,
    dir: &Path,
    cfg: &RuntimeConfig,
    stage: usize,
    sink: bool,
) -> Result<std::process::Child, RuntimeError> {
    let name = STAGE_NAMES[stage];
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("runtime")
        .arg("--stage")
        .arg(name)
        .arg("--dir")
        .arg(dir)
        .args(child_flags(cfg));
    if sink {
        cmd.arg("--sink");
    }
    cmd.stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| RuntimeError::Stage {
            stage: name.to_string(),
            reason: format!("spawn: {e}"),
        })
}

/// [`run_processes`] with an optional mid-run SIGTERM of one stage. The
/// victim drains out via its signal handler and exits without finishing,
/// so the supervisor treats it as a failed stage: restarted within budget,
/// replaced by a sink at budget 0.
///
/// # Errors
///
/// Same as [`run_processes`].
pub fn run_processes_with_kill(
    cfg: &RuntimeConfig,
    trace: &TraceFile,
    bin: &Path,
    kill_plan: Option<StageKill>,
) -> Result<RuntimeReport, RuntimeError> {
    cfg.validate()?;
    let costs = StageCosts::build(cfg)?;
    let (dir, _guard) = make_run_dir(cfg)?;
    let objs = create_objects(&dir, cfg, &costs, trace.points.len())?;
    trace
        .write_to(&dir.join(TRACE_FILE))
        .map_err(|e| RuntimeError::Trace {
            reason: e.to_string(),
        })?;
    let degraded = supervise::run_supervised_processes(cfg, bin, &dir, &objs, kill_plan)?;
    Ok(assemble_report("procs", cfg, &objs, degraded))
}

/// The flags a child needs to rebuild the stage bodies' view of `cfg`.
/// Supervision is the parent's job, so its knobs are not passed on.
fn child_flags(cfg: &RuntimeConfig) -> Vec<String> {
    let mut flags = vec![
        "--model".to_string(),
        cfg.model.name().to_string(),
        "--device".to_string(),
        cfg.device.name().to_string(),
        "--ring-capacity".to_string(),
        cfg.ring_capacity.to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--capture-ns".to_string(),
        cfg.capture_ns_per_elem.to_string(),
        "--preprocess-ns".to_string(),
        cfg.preprocess_ns_per_elem.to_string(),
        "--flip-rate".to_string(),
        cfg.ipc_flip_rate.to_string(),
    ];
    if cfg.policy == DropPolicy::DropOldest {
        flags.push("--drop-oldest".to_string());
    }
    if let Some(s) = &cfg.sentry {
        flags.push("--sentry".to_string());
        flags.push("--sentry-cooldown".to_string());
        flags.push(s.cooldown.to_string());
        flags.push("--sentry-recall".to_string());
        flags.push(s.standby_recall.to_string());
    }
    if cfg.exec == ExecMode::Real {
        flags.push("--exec".to_string());
        flags.push("real".to_string());
    }
    if cfg.pace {
        flags.push("--pace".to_string());
    }
    if let Some(plan) = &cfg.chaos {
        if !plan.is_empty() {
            flags.push("--chaos".to_string());
            flags.push(plan.to_spec());
        }
    }
    flags
}

extern "C" {
    fn signal(signum: std::ffi::c_int, handler: extern "C" fn(std::ffi::c_int)) -> usize;
}

extern "C" fn on_sigterm(_sig: std::ffi::c_int) {
    stage::raise_local_stop();
}

/// Entry point for an `edgebench-cli runtime --stage <name>` child process:
/// attach the shared objects under `dir`, install a SIGTERM handler that
/// drains gracefully, and run the named stage (or, with `sink`, its
/// drain-and-account body for a budget-exhausted stage). The stage
/// accounts everything in the shared control block, from which the parent
/// assembles the report. A child never closes its output ring: the parent
/// closes it once it reaps the stage as finished for good, so a
/// replacement can always reattach.
///
/// # Errors
///
/// [`RuntimeError`] on unknown stage name, attach failure, or a typed
/// stage failure (e.g. executor build/run rejection).
pub fn run_stage(
    name: &str,
    dir: &Path,
    cfg: &RuntimeConfig,
    sink: bool,
) -> Result<(), RuntimeError> {
    let s = STAGE_NAMES
        .iter()
        .position(|n| *n == name)
        .ok_or_else(|| RuntimeError::Stage {
            stage: name.to_string(),
            reason: "unknown stage (expected capture|preprocess|inference|gateway)".to_string(),
        })?;
    unsafe {
        signal(shm::SIGTERM, on_sigterm);
    }
    let costs = StageCosts::build(cfg)?;
    let objs = attach_objects(dir)?;
    let trace = TraceFile::read_from(&dir.join(TRACE_FILE)).map_err(|e| RuntimeError::Trace {
        reason: e.to_string(),
    })?;
    let pipe = Pipeline {
        cfg,
        costs: &costs,
        ctl: &objs.ctl,
        rings: &objs.rings,
        trace: &trace,
        proc_mode: true,
    };
    pipe.with_stage(s, |body, drain| {
        supervise::finish_child(name, if sink { drain() } else { body() })
    })
}
