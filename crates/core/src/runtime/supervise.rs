//! Self-healing supervision for the serving runtime.
//!
//! The supervisor closes the loop from fault *injection* to fault
//! *recovery*: it watches every stage — `waitpid` in process mode, panic
//! capture in thread mode — plus the per-stage heartbeat counters in the
//! shared control block (which catch *hangs*, not just deaths), and on
//! failure restarts the stage deterministically:
//!
//! 1. The replacement reattaches to the existing shared rings. Ring tails
//!    are the committed consumer positions, so it resumes exactly after
//!    the last frame the dead instance fully accounted.
//! 2. The one frame that may have been in flight (marked in the control
//!    block before any of its effects land) is accounted as an explicit
//!    `lost@stage` event — at-most-once: a frame is served once or lost
//!    once, never duplicated. The gateway's CAS ledger proves it.
//! 3. A *virtual* recovery penalty — detection latency plus bounded
//!    exponential backoff with seeded jitter (the resilient-executor
//!    backoff idiom) — is added to the stage's persisted clock, so
//!    recovery cost shows up in the virtual-time report identically
//!    across reruns and across thread vs process layouts.
//! 4. A per-stage restart budget bounds the loop. Exhaustion escalates to
//!    the drain-and-degrade path: the stage is replaced by a *sink* that
//!    keeps draining its input, accounting every frame as lost, so the
//!    conservation invariant (`completed + dropped + corrupted + lost ==
//!    offered`) holds even for a permanently dead stage.
//!
//! Budget 0 is fail-stop: the first failure permanently degrades the
//! stage. It is also the default: a run without supervision configured
//! executes under this same supervisor at budget 0, so every failure takes
//! one deterministic path.

use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::process::ExitStatus;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::time::{Duration, Instant};

use edgebench_devices::faults::rng::FaultRng;

use super::shm::{send_signal, SIGKILL, SIGTERM};
use super::stage::{Ctl, StageExit, CHAOS_KILL_EXIT, STAGE_NAMES};
use super::{RunObjects, RuntimeConfig, RuntimeError, RuntimeEventKind, StageKill};

/// Stream tag for restart-backoff jitter draws.
const TAG_SUP: u64 = 0x7375_7076; // "supv"

/// Wall-clock poll interval of the supervision loops.
const POLL: Duration = Duration::from_millis(5);

/// Wall-clock grace for a freshly spawned child to produce its first
/// heartbeat (binary startup + shm attach) before stall detection arms.
const SPAWN_GRACE: Duration = Duration::from_secs(5);

/// Supervision knobs. Defaults reuse the resilient-executor backoff idiom
/// (20 ms base, ×2 growth, ±20 % seeded jitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperviseConfig {
    /// Restarts allowed per stage before it is degraded to a sink.
    /// 0 = fail-stop (first failure permanently degrades the stage).
    pub restart_budget: u32,
    /// Heartbeat stall window: a stage whose beat counter does not move
    /// for this long (wall clock) is declared hung.
    pub heartbeat_ms: u64,
    /// Virtual time to notice a crash (exit/panic), ns.
    pub kill_detect_ns: u64,
    /// First virtual backoff interval before a restart, ns.
    pub backoff_base_ns: u64,
    /// Multiplier between successive backoffs.
    pub backoff_factor: f64,
    /// Seeded uniform jitter applied to each backoff, ±fraction.
    pub jitter_frac: f64,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            restart_budget: 3,
            heartbeat_ms: 500,
            kill_detect_ns: 5_000_000,
            backoff_base_ns: 20_000_000,
            backoff_factor: 2.0,
            jitter_frac: 0.2,
        }
    }
}

impl SuperviseConfig {
    /// Returns the config with the given per-stage restart budget.
    pub fn with_restart_budget(mut self, budget: u32) -> SuperviseConfig {
        self.restart_budget = budget;
        self
    }

    /// Returns the config with the given heartbeat stall window (ms).
    pub fn with_heartbeat_ms(mut self, ms: u64) -> SuperviseConfig {
        self.heartbeat_ms = ms;
        self
    }

    /// Virtual recovery penalty for restart `attempt` (1-based) of `stage`:
    /// detection latency plus jittered exponential backoff. Pure in
    /// `(seed, stage, attempt)`, which is what keeps supervised reports
    /// byte-identical across layouts.
    pub(crate) fn penalty_ns(&self, seed: u64, stage: usize, attempt: u32, kind: CrashKind) -> u64 {
        let detect = match kind {
            CrashKind::Crash => self.kill_detect_ns,
            CrashKind::Hang => self.heartbeat_ms.saturating_mul(1_000_000),
        };
        let nominal = self.backoff_base_ns as f64
            * self.backoff_factor.powi(attempt.saturating_sub(1) as i32);
        let jitter = FaultRng::for_stream(seed, &[TAG_SUP, stage as u64, attempt as u64])
            .jitter(self.jitter_frac);
        detect + (nominal * jitter) as u64
    }
}

/// How a stage failure was detected — the two differ in detection latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashKind {
    /// The stage died (process exit, thread panic, typed stage error).
    Crash,
    /// The stage stopped heartbeating and was put down by the supervisor.
    Hang,
}

/// Account one restart: the in-flight frame (if any) becomes a
/// `lost@stage` event at the pre-failure clock, the virtual recovery
/// penalty advances the stage clock, and a `restart@stage` event lands at
/// the post-penalty instant. The caller then relaunches the stage body.
pub(crate) fn on_restart(
    ctl: &Ctl,
    sup: &SuperviseConfig,
    seed: u64,
    stage: usize,
    attempt: u32,
    kind: CrashKind,
) {
    ctl.lose_inflight(stage);
    let penalty = sup.penalty_ns(seed, stage, attempt, kind);
    let t1 = ctl.clock_ns[stage].load(Acquire) + penalty;
    ctl.clock_ns[stage].store(t1, Release);
    let restart = RuntimeEventKind::Restart {
        stage: STAGE_NAMES[stage],
    };
    ctl.push_event(t1, u64::from(attempt), restart);
    ctl.restarts[stage].fetch_add(1, AcqRel);
    ctl.recov_push(stage, attempt, penalty);
}

/// Account a budget-exhausted stage: the in-flight frame is lost, no
/// penalty is charged (the stage is not coming back), and the caller
/// degrades the stage to its sink body.
pub(crate) fn give_up(ctl: &Ctl, stage: usize) {
    ctl.lose_inflight(stage);
}

// ---------------------------------------------------------------------------
// Thread mode
// ---------------------------------------------------------------------------

/// Supervise one stage body in thread mode: run it under `catch_unwind`,
/// classify the exit, restart within the budget, and degrade to the sink
/// on exhaustion. The caller holds the ring's close-guard *around* this
/// call, so a restarted body reattaches to a still-open ring. Returns
/// `true` when the stage ended degraded.
pub(crate) fn supervise_thread_stage(
    sup: &SuperviseConfig,
    seed: u64,
    ctl: &Ctl,
    stage: usize,
    body: &dyn Fn() -> StageExit,
    sink: &dyn Fn() -> StageExit,
) -> bool {
    let mut attempt = 0u32;
    loop {
        let kind = match std::panic::catch_unwind(AssertUnwindSafe(body)) {
            Ok(StageExit::Done) | Ok(StageExit::Stopped) => return false,
            Ok(StageExit::Hung) => CrashKind::Hang,
            Ok(StageExit::Killed) | Ok(StageExit::Failed(_)) | Err(_) => CrashKind::Crash,
        };
        attempt += 1;
        if attempt <= sup.restart_budget {
            on_restart(ctl, sup, seed, stage, attempt, kind);
        } else {
            give_up(ctl, stage);
            let _ = sink();
            return true;
        }
    }
}

/// Thread-mode hang monitor: watches the four heartbeat counters and bumps
/// a stage's restart-request generation when its counter stalls for the
/// configured window — which releases a body parked in a chaos hang so the
/// wrapper can classify and restart it. Bumps to live stages are inert.
/// Parks between polls; the caller unparks it after raising `stop`.
pub(crate) fn run_hang_monitor(ctl: &Ctl, sup: &SuperviseConfig, stop: &AtomicBool) {
    let window = Duration::from_millis(sup.heartbeat_ms);
    let beat = |s: usize| ctl.heartbeat[s].load(Acquire);
    let mut last: [(u64, Instant); 4] = std::array::from_fn(|s| (beat(s), Instant::now()));
    while !stop.load(Acquire) {
        std::thread::park_timeout(POLL);
        for (s, seen) in last.iter_mut().enumerate() {
            if ctl.done[s].load(Acquire) == 1 {
                continue;
            }
            let hb = beat(s);
            if hb != seen.0 {
                *seen = (hb, Instant::now());
            } else if seen.1.elapsed() >= window {
                ctl.restart_req[s].fetch_add(1, AcqRel);
                *seen = (hb, Instant::now());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Process mode
// ---------------------------------------------------------------------------

struct ProcState {
    child: std::process::Child,
    attempt: u32,
    is_sink: bool,
    finished: bool,
    degraded: bool,
    /// SIGKILL sent by the stall detector — classifies the next exit as a
    /// hang rather than a crash.
    hang_killed: bool,
    last_beat: (u64, Instant),
    seen_beat: bool,
}

impl ProcState {
    fn reset_watch(&mut self, ctl: &Ctl, stage: usize) {
        self.last_beat = (ctl.heartbeat[stage].load(Acquire), Instant::now());
        self.seen_beat = false;
    }
}

/// Process-mode supervisor: spawn the four stage children, then watch them
/// via `try_wait` (deaths) and the shared heartbeat counters (hangs). A
/// failed stage is restarted — same command line, reattaching to the same
/// shm files — within its budget, then degraded to a `--sink` child. A
/// stage's output ring is closed only once its child is reaped as finished
/// for good. `kill` SIGTERMs one stage on cue (a test hook). Returns which
/// stages ended degraded, in pipeline order.
pub(crate) fn run_supervised_processes(
    cfg: &RuntimeConfig,
    bin: &Path,
    dir: &Path,
    objs: &RunObjects,
    kill: Option<StageKill>,
) -> Result<[bool; 4], RuntimeError> {
    let (sup, ctl) = (&cfg.supervision(), &objs.ctl);
    let mut kill = kill.and_then(|k| {
        let victim = STAGE_NAMES.iter().position(|n| *n == k.stage)?;
        Some((victim, k.after_processed))
    });
    let spawn = |stage: usize, sink: bool| super::spawn_stage_child(bin, dir, cfg, stage, sink);
    let mut states = Vec::with_capacity(4);
    for stage in 0..4 {
        let mut st = ProcState {
            child: spawn(stage, false)?,
            attempt: 0,
            is_sink: false,
            finished: false,
            degraded: false,
            hang_killed: false,
            last_beat: (0, Instant::now()),
            seen_beat: false,
        };
        st.reset_watch(ctl, stage);
        states.push(st);
    }

    let window = Duration::from_millis(sup.heartbeat_ms);
    let hard_deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Some((victim, after)) = kill {
            if ctl.processed[victim].load(Acquire) >= after {
                send_signal(states[victim].child.id(), SIGTERM);
                kill = None;
            }
        }
        let mut all_done = true;
        for (stage, st) in states.iter_mut().enumerate() {
            if st.finished {
                continue;
            }
            all_done = false;
            match st.child.try_wait() {
                Ok(Some(status)) => {
                    if exited_clean(ctl, stage, status, st.is_sink) {
                        st.finished = true;
                        if let Some(ring) = objs.rings.get(stage) {
                            ring.close();
                        }
                        continue;
                    }
                    let kind = if st.hang_killed {
                        CrashKind::Hang
                    } else {
                        CrashKind::Crash
                    };
                    st.hang_killed = false;
                    st.attempt += 1;
                    if st.attempt <= sup.restart_budget && !st.is_sink {
                        on_restart(ctl, sup, cfg.seed, stage, st.attempt, kind);
                        st.child = spawn(stage, false)?;
                    } else {
                        give_up(ctl, stage);
                        st.degraded = true;
                        st.is_sink = true;
                        st.child = spawn(stage, true)?;
                    }
                    st.reset_watch(ctl, stage);
                }
                Ok(None) => {
                    // Alive: check the heartbeat for a stall. A blocked
                    // stage still beats every bounded-wait slice, so a
                    // flat counter over the window means a real hang.
                    let hb = ctl.heartbeat[stage].load(Acquire);
                    if hb != st.last_beat.0 {
                        st.last_beat = (hb, Instant::now());
                        st.seen_beat = true;
                    } else {
                        let limit = if st.seen_beat { window } else { SPAWN_GRACE };
                        let done = ctl.done[stage].load(Acquire) == 1;
                        if !done && st.last_beat.1.elapsed() >= limit {
                            st.hang_killed = true;
                            send_signal(st.child.id(), SIGKILL);
                            st.last_beat = (hb, Instant::now());
                        }
                    }
                }
                Err(_) => {
                    st.finished = true;
                }
            }
        }
        if all_done {
            break;
        }
        if Instant::now() > hard_deadline {
            ctl.stop.store(1, Release);
            for st in states.iter_mut() {
                if !st.finished {
                    let _ = st.child.kill();
                    let _ = st.child.wait();
                    st.degraded = true;
                }
            }
            break;
        }
        std::thread::sleep(POLL);
    }

    Ok(std::array::from_fn(|stage| states[stage].degraded))
}

/// Whether a child's exit finishes its stage for good: it succeeded after
/// draining its input, or as a sink. Any other exit — a crash, a hang
/// kill, a typed failure, a SIGTERM — is a failure the one process loop
/// restarts within budget.
pub(crate) fn exited_clean(ctl: &Ctl, stage: usize, status: ExitStatus, sink: bool) -> bool {
    status.success() && (ctl.done[stage].load(Acquire) == 1 || sink)
}

/// Translate a child stage body's exit into the process exit protocol:
/// chaos kills die abruptly with [`CHAOS_KILL_EXIT`], typed failures become
/// a nonzero exit the supervisor classifies as a crash.
pub(crate) fn finish_child(stage: &str, exit: StageExit) -> Result<(), RuntimeError> {
    match exit {
        StageExit::Done | StageExit::Stopped => Ok(()),
        StageExit::Killed | StageExit::Hung => std::process::exit(CHAOS_KILL_EXIT),
        StageExit::Failed(reason) => Err(RuntimeError::Stage {
            stage: stage.to_string(),
            reason,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_grows_geometrically_with_bounded_jitter() {
        let sup = SuperviseConfig::default();
        for attempt in 1..=4u32 {
            let p = sup.penalty_ns(7, 1, attempt, CrashKind::Crash);
            let nominal = 20_000_000.0 * 2f64.powi(attempt as i32 - 1);
            let backoff = (p - sup.kill_detect_ns) as f64;
            assert!(backoff >= nominal * 0.8 - 1.0 && backoff <= nominal * 1.2 + 1.0);
        }
        // Pure in (seed, stage, attempt).
        assert_eq!(
            sup.penalty_ns(7, 2, 3, CrashKind::Crash),
            sup.penalty_ns(7, 2, 3, CrashKind::Crash)
        );
        assert_ne!(
            sup.penalty_ns(7, 2, 3, CrashKind::Crash),
            sup.penalty_ns(8, 2, 3, CrashKind::Crash)
        );
        // Hang detection is charged at the heartbeat window.
        let hang = sup.penalty_ns(7, 1, 1, CrashKind::Hang);
        let crash = sup.penalty_ns(7, 1, 1, CrashKind::Crash);
        assert_eq!(
            hang - sup.heartbeat_ms * 1_000_000,
            crash - sup.kill_detect_ns
        );
    }

    #[test]
    fn restart_accounting_loses_inflight_once_and_logs_recovery() {
        let path = std::env::temp_dir().join(format!("ebsup-acct-{}", std::process::id()));
        let ctl = Ctl::create(&path, 16, 8, 16).unwrap();
        ctl.map().unlink();
        let sup = SuperviseConfig::default();

        let word = |w: &std::sync::atomic::AtomicU64| w.load(Acquire);
        ctl.clock_ns[1].store(1_000, Release);
        ctl.set_inflight(1, Some(42));
        on_restart(&ctl, &sup, 9, 1, 1, CrashKind::Crash);
        assert_eq!(word(&ctl.lost[1]), 1);
        assert_eq!(ctl.inflight(1), None);
        assert_eq!(word(&ctl.restarts[1]), 1);
        assert!(word(&ctl.clock_ns[1]) > 1_000 + sup.kill_detect_ns);
        let events = ctl.events();
        let lost = RuntimeEventKind::Lost {
            stage: "preprocess",
        };
        let restart = RuntimeEventKind::Restart {
            stage: "preprocess",
        };
        assert!(events.contains(&(1_000, 42, lost.code())));
        assert!(events
            .iter()
            .any(|&(_, a, c)| c == restart.code() && a == 1));
        assert_eq!(ctl.recoveries().len(), 1);

        // A second restart with nothing in flight loses nothing more.
        on_restart(&ctl, &sup, 9, 1, 2, CrashKind::Hang);
        assert_eq!(word(&ctl.lost[1]), 1);
        assert_eq!(word(&ctl.restarts[1]), 2);

        // Budget exhaustion accounts the in-flight frame without a penalty.
        ctl.set_inflight(2, Some(7));
        let before = word(&ctl.clock_ns[2]);
        give_up(&ctl, 2);
        assert_eq!(word(&ctl.lost[2]), 1);
        assert_eq!(word(&ctl.clock_ns[2]), before);
        assert_eq!(word(&ctl.restarts[2]), 0);
    }
}
