//! The four pipeline stages and the shared control block.
//!
//! Each stage is a plain function over attached shared-memory objects, so
//! the same code runs as a thread inside `run_replay` or as the body of an
//! `edgebench-cli runtime --stage <name>` child process. Stages advance
//! deterministic *virtual* clocks (`t_out = max(stage_clock, t_in) +
//! svc_ns`) while exercising the real IPC mechanics — mmap rings, futex
//! waits, checksums, backpressure — which is what makes the replay report
//! byte-identical across runs and across thread/process layouts.
//!
//! ## Restartability
//!
//! Every piece of state a stage needs to resume after a crash lives in the
//! shared control block, not in stage locals: the per-stage virtual clock,
//! capture's next trace index, the sentry state machine, inference's
//! energy/digest accumulators, and the gateway's per-frame latency ledger.
//! A stage body therefore *loads* its state from [`Ctl`] on entry and
//! persists it as each frame completes; the supervisor can kill and
//! relaunch the body at any frame boundary and the pipeline continues
//! exactly where it left off. The per-stage `inflight` word marks the one
//! frame that may be lost in the gap — popped from the input ring (whose
//! tail is the committed consumer position) but not yet forwarded — which
//! is what gives the pipeline its at-most-once delivery guarantee.

use std::path::Path;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::time::{Duration, Instant};

use edgebench_devices::faults::chaos::ChaosKind;
use edgebench_devices::faults::ipc::{LinkFaults, LINK_CAPTURE, LINK_PREPROCESS};
use edgebench_devices::faults::rng::FaultRng;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{Executor, Precision, PreparedExecutor, Tensor};

use super::ring::{
    DropPolicy, FrameBuf, FrameMeta, Pop, Reserve, RingBuffer, SlotGuard, FLAG_ESCALATED, FLAG_HIT,
    FLAG_STANDBY, RETRY_SLICE,
};
use super::sentry::Sentry;
use super::shm::{mapped, Mapped, SharedMap};
use super::{ExecMode, RuntimeConfig, RuntimeError, RuntimeEventKind, StageCosts};
use crate::serve::TraceFile;

/// Stream tag for deterministic frame payload synthesis.
const TAG_PAYLOAD: u64 = 0x7061_796c; // "payl"

/// Stream tag for chaos payload-corruption flips.
const TAG_CHAOS_FLIP: u64 = 0x6366_6c70; // "cflp"

/// Payload elements on the inference → gateway ring (detection summary).
pub(crate) const DETECTION_ELEMS: usize = 8;

/// Stage indices into the control block's per-stage counters.
pub(crate) const STAGE_NAMES: [&str; 4] = ["capture", "preprocess", "inference", "gateway"];

/// Exit code a child process uses for a chaos-injected kill, so the
/// supervisor can tell scripted deaths from real ones in logs (both are
/// classified and restarted identically).
pub(crate) const CHAOS_KILL_EXIT: i32 = 86;

/// Process-local stop flag, set by the SIGTERM handler installed in
/// `run_stage`. Always false in thread mode.
static LOCAL_STOP: AtomicBool = AtomicBool::new(false);

/// Raise the process-local stop flag (SIGTERM handler body).
pub(crate) fn raise_local_stop() {
    LOCAL_STOP.store(true, Release);
}

/// Reset the local stop flag (tests that reuse the process).
pub(crate) fn clear_local_stop() {
    LOCAL_STOP.store(false, Release);
}

/// How a stage body finished. The supervisor (thread-mode wrapper or the
/// process-mode parent) maps this onto restart / degrade decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StageExit {
    /// Input fully drained (or whole trace pushed); `done` flag set.
    Done,
    /// Interrupted by the shared stop flag or SIGTERM; partial. A child
    /// that exits this way without `done` is a failed stage.
    Stopped,
    /// A typed stage failure (e.g. the prepared executor rejected a
    /// frame). The supervisor treats it as a crash.
    Failed(String),
    /// A chaos kill fired with a frame in flight.
    Killed,
    /// A chaos hang was released by a supervisor restart request
    /// (thread mode only; in process mode a hung stage is SIGKILLed).
    Hung,
}

// ---------------------------------------------------------------------------
// Control block
// ---------------------------------------------------------------------------

const CTL_MAGIC: u32 = 0x4542_4354; // "EBCT"
const CTL_VERSION: u32 = 3;

mapped! {
    impl Mapped;

    /// The control block's header: the stop flag, the counters, the
    /// per-stage words (indexed in [`STAGE_NAMES`] order) and the persisted
    /// stage state. The latency ledger, the recovery log and the event log
    /// follow it, in that order, sized by the three caps.
    pub(crate) struct CtlHeader {
        magic: AtomicU32,
        version: AtomicU32,
        /// Raised (1) to stop every stage: see [`Ctl::stop_requested`].
        pub(crate) stop: AtomicU32,
        /// The persisted sentry state machine: its mode and quiet frames.
        pub(crate) sentry_mode: AtomicU32,
        pub(crate) sentry_quiet: AtomicU32,
        /// 1 once the stage finished naturally (input fully drained, or for
        /// capture: whole trace pushed). A stage interrupted by stop or
        /// SIGTERM never sets it — the supervisor uses that to detect a
        /// degraded pipeline.
        pub(crate) done: [AtomicU32; 4],
        /// Restart-request generation (thread mode): the monitor bumps it to
        /// release a hung stage body; `chaos_hang` parks until the value
        /// moves past what it saw on entry.
        pub(crate) restart_req: [AtomicU32; 4],
        ledger_cap: AtomicU64,
        recov_cap: AtomicU64,
        events_cap: AtomicU64,
        /// Records ever pushed to the recovery and event logs; those past a
        /// log's cap are dropped.
        recov_len: AtomicU64,
        events_len: AtomicU64,
        /// Frames capture has offered so far.
        pub(crate) offered: AtomicU64,
        /// Frames the gateway accounted as served.
        pub(crate) completed: AtomicU64,
        /// Frame ids the gateway saw twice (the ledger CAS failed).
        pub(crate) duplicates: AtomicU64,
        /// Frames the gateway saw at or below the last id it saw.
        pub(crate) order_violations: AtomicU64,
        /// Corrupted frames caught by preprocess, inference and gateway.
        pub(crate) corrupted: [AtomicU64; 3],
        pub(crate) escalations: AtomicU64,
        pub(crate) standdowns: AtomicU64,
        pub(crate) missed_escalations: AtomicU64,
        /// Frames served by the standby rung alone, and by the full model.
        pub(crate) standby_frames: AtomicU64,
        pub(crate) full_frames: AtomicU64,
        /// Inference energy in mJ, as `f64` bits: see [`Ctl::add_energy_mj`].
        energy_mj_bits: AtomicU64,
        /// XOR of the output checksums: restart-safe, being order-independent
        /// and incremental.
        pub(crate) digest: AtomicU64,
        /// The latest stage time of a served frame: the run's virtual span.
        pub(crate) span_ns: AtomicU64,
        /// Next trace index the capture stage will attempt — persisted before
        /// the attempt, so a restarted capture never re-emits a frame.
        pub(crate) cap_next_idx: AtomicU64,
        /// Last frame id the gateway observed, plus 1 (0 before the first):
        /// see [`Ctl::gw_last_id`].
        gw_last_plus1: AtomicU64,
        pub(crate) busy_ns: [AtomicU64; 4],
        pub(crate) processed: [AtomicU64; 4],
        /// Liveness counter, bumped at least once per loop iteration
        /// (bounded-wait retries included), so a flat counter over a stall
        /// window means the stage is hung, not blocked.
        pub(crate) heartbeat: [AtomicU64; 4],
        /// Persisted virtual clock: a restarted stage resumes from here,
        /// after the supervisor adds its virtual recovery penalty.
        pub(crate) clock_ns: [AtomicU64; 4],
        /// In-flight frame id plus 1 (0 when none): see [`Ctl::inflight`].
        inflight_plus1: [AtomicU64; 4],
        pub(crate) restarts: [AtomicU64; 4],
        pub(crate) lost: [AtomicU64; 4],
    }

    /// One recovery: which stage, which attempt, and the virtual penalty
    /// charged (detection + backoff).
    struct RecoveryRecord {
        stage: AtomicU32,
        attempt: AtomicU32,
        penalty_ns: AtomicU64,
    }

    /// One runtime event: its virtual time, frame (or attempt) and
    /// [`RuntimeEventKind::code`].
    struct EventRecord {
        t_ns: AtomicU64,
        seq: AtomicU64,
        code: AtomicU32,
    }
}

/// The shared control block: a [`CtlHeader`] (which `Ctl` derefs to), then
/// the gateway's per-frame latency ledger (one `AtomicU64` per frame id), a
/// bounded log of [`RecoveryRecord`]s and a bounded log of
/// [`EventRecord`]s. One per run directory, mapped by every stage.
///
/// [`Ctl::attach`] checks the magic and the version, and that the regions
/// the header's caps describe fit in the file, sizing them with checked
/// arithmetic. Every access then goes through [`SharedMap::view`], the one
/// checked cast.
pub(crate) struct Ctl {
    map: SharedMap,
    /// `(offset, len)` of the ledger, the recovery log and the event log.
    regions: [(usize, usize); 3],
}

impl std::fmt::Debug for Ctl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctl")
            .field("path", &self.map.path())
            .finish()
    }
}

impl std::ops::Deref for Ctl {
    type Target = CtlHeader;

    fn deref(&self) -> &CtlHeader {
        let header = self.map.view(0, 1);
        &header.expect("create and attach checked the header")[0]
    }
}

impl Ctl {
    /// The regions that follow the header for the given ledger, recovery
    /// and event caps, as `(offset, len)`, and the block's size in bytes;
    /// `None` when a size overflows.
    fn layout(caps: [usize; 3]) -> Option<([(usize, usize); 3], usize)> {
        let sizes = [
            size_of::<AtomicU64>(),
            size_of::<RecoveryRecord>(),
            size_of::<EventRecord>(),
        ];
        let mut end = size_of::<CtlHeader>();
        let mut regions = [(0, 0); 3];
        for ((region, cap), size) in regions.iter_mut().zip(caps).zip(sizes) {
            *region = (end, cap);
            end = end.checked_add(cap.checked_mul(size)?)?;
        }
        Some((regions, end))
    }

    pub(crate) fn create(
        path: &Path,
        ledger_cap: usize,
        recov_cap: usize,
        events_cap: usize,
    ) -> Result<Ctl, RuntimeError> {
        let caps = [ledger_cap, recov_cap, events_cap];
        let (regions, len) =
            Self::layout(caps).ok_or_else(|| RuntimeError::shm(path, "control block too large"))?;
        let ctl = Ctl {
            map: SharedMap::create(path, len)?,
            regions,
        };
        // The Release store of the magic publishes the caps and the version
        // to `attach`'s Acquire load.
        for (word, cap) in [&ctl.ledger_cap, &ctl.recov_cap, &ctl.events_cap]
            .into_iter()
            .zip(caps)
        {
            word.store(cap as u64, Relaxed);
        }
        ctl.version.store(CTL_VERSION, Relaxed);
        ctl.magic.store(CTL_MAGIC, Release);
        Ok(ctl)
    }

    /// Maps the control block at `path`, checking its magic and version and
    /// that the regions its caps describe fit in the file.
    pub(crate) fn attach(path: &Path) -> Result<Ctl, RuntimeError> {
        let map = SharedMap::open(path)?;
        let Some([h]) = map.view::<CtlHeader>(0, 1) else {
            return Err(RuntimeError::shm(path, "control block too small"));
        };
        if h.magic.load(Acquire) != CTL_MAGIC {
            return Err(RuntimeError::shm(path, "bad control-block magic"));
        }
        if h.version.load(Relaxed) != CTL_VERSION {
            return Err(RuntimeError::shm(path, "control-block version mismatch"));
        }
        let caps = [&h.ledger_cap, &h.recov_cap, &h.events_cap]
            .map(|cap| usize::try_from(cap.load(Relaxed)).unwrap_or(usize::MAX));
        match Self::layout(caps) {
            Some((regions, len)) if len <= map.len() => Ok(Ctl { map, regions }),
            _ => Err(RuntimeError::shm(path, "control block truncated")),
        }
    }

    fn region<T: Mapped>(&self, which: usize) -> &[T] {
        let (offset, len) = self.regions[which];
        let region = self.map.view(offset, len);
        region.expect("create and attach checked the regions")
    }

    fn ledger(&self) -> &[AtomicU64] {
        self.region(0)
    }

    fn recovery_log(&self) -> &[RecoveryRecord] {
        self.region(1)
    }

    fn event_log(&self) -> &[EventRecord] {
        self.region(2)
    }

    #[cfg(test)]
    pub(crate) fn map(&self) -> &SharedMap {
        &self.map
    }

    /// Whether a stop was requested, in the control block or by this
    /// process's SIGTERM handler.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop.load(Acquire) == 1 || LOCAL_STOP.load(Acquire)
    }

    /// Accumulate inference energy. Single-writer (the inference stage),
    /// but CAS-add so the value survives a restart mid-run.
    pub(crate) fn add_energy_mj(&self, mj: f64) {
        if mj == 0.0 {
            return;
        }
        let word = &self.energy_mj_bits;
        let mut cur = word.load(Acquire);
        loop {
            let next = (f64::from_bits(cur) + mj).to_bits();
            match word.compare_exchange_weak(cur, next, AcqRel, Acquire) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn energy_mj(&self) -> f64 {
        f64::from_bits(self.energy_mj_bits.load(Acquire))
    }

    /// Marks `frame_id` in flight at `stage` while the stage holds a popped
    /// (or about-to-be-captured) frame it has not yet fully accounted;
    /// `None` clears it. A crash with a frame marked loses exactly that
    /// frame.
    pub(crate) fn set_inflight(&self, stage: usize, frame_id: Option<u64>) {
        self.inflight_plus1[stage].store(frame_id.map_or(0, |fid| fid + 1), Release);
    }

    pub(crate) fn inflight(&self, stage: usize) -> Option<u64> {
        self.inflight_plus1[stage].load(Acquire).checked_sub(1)
    }

    /// The frame in flight at `stage`, if any, is lost at the stage's
    /// clock: one more lost frame, a `lost@stage` event, a cleared slot.
    pub(crate) fn lose_inflight(&self, stage: usize) {
        if let Some(fid) = self.inflight(stage) {
            self.lost[stage].fetch_add(1, AcqRel);
            let lost = RuntimeEventKind::Lost {
                stage: STAGE_NAMES[stage],
            };
            self.push_event(self.clock_ns[stage].load(Acquire), fid, lost);
            self.set_inflight(stage, None);
        }
    }

    /// Last frame id the gateway observed (`None` before the first frame).
    pub(crate) fn gw_last_id(&self) -> Option<u64> {
        self.gw_last_plus1.load(Acquire).checked_sub(1)
    }

    pub(crate) fn set_gw_last_id(&self, fid: u64) {
        self.gw_last_plus1.store(fid + 1, Release);
    }

    /// Record one recovery: which stage, which attempt, and the virtual
    /// penalty charged (detection + backoff).
    pub(crate) fn recov_push(&self, stage: usize, attempt: u32, penalty_ns: u64) {
        let idx = self.recov_len.fetch_add(1, AcqRel) as usize;
        let Some(rec) = self.recovery_log().get(idx) else {
            return; // bounded region; overflow dropped, not UB
        };
        // Relaxed: the log is read once every stage has exited, and the
        // join or the reaping of the writer orders these stores first.
        rec.stage.store(stage as u32, Relaxed);
        rec.attempt.store(attempt, Relaxed);
        rec.penalty_ns.store(penalty_ns, Relaxed);
    }

    /// Decode the recovery log: `(stage, attempt, penalty_ns)` triples.
    pub(crate) fn recoveries(&self) -> Vec<(u32, u32, u64)> {
        let n = self.recov_len.load(Acquire) as usize;
        let log = self.recovery_log().iter().take(n);
        let mut out: Vec<_> = log
            .map(|r| {
                let stage = r.stage.load(Relaxed);
                (stage, r.attempt.load(Relaxed), r.penalty_ns.load(Relaxed))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Record frame `fid` as served with the given end-to-end latency.
    /// Returns false when the slot was already taken — a duplicate
    /// delivery, which at-most-once accounting must keep at zero.
    pub(crate) fn ledger_set(&self, fid: u64, latency_ns: u64) -> bool {
        self.ledger().get(fid as usize).is_some_and(|slot| {
            slot.compare_exchange(0, latency_ns + 1, AcqRel, Acquire)
                .is_ok()
        })
    }

    /// Served-frame latencies in ms, ordered by frame id.
    pub(crate) fn ledger_latencies_ms(&self) -> Vec<f64> {
        self.ledger()
            .iter()
            .filter_map(|slot| {
                let ns = slot.load(Acquire).checked_sub(1)?;
                Some(ns as f64 / 1e6)
            })
            .collect()
    }

    pub(crate) fn push_event(&self, t_ns: u64, seq: u64, kind: RuntimeEventKind) {
        let idx = self.events_len.fetch_add(1, AcqRel) as usize;
        let Some(ev) = self.event_log().get(idx) else {
            return; // bounded region; overflow is dropped, not UB
        };
        // Relaxed, as in `recov_push`.
        ev.t_ns.store(t_ns, Relaxed);
        ev.seq.store(seq, Relaxed);
        ev.code.store(kind.code(), Relaxed);
    }

    /// Decode the event log: `(t_ns, seq, code)` triples, sorted for a
    /// deterministic order regardless of cross-stage write interleaving.
    pub(crate) fn events(&self) -> Vec<(u64, u64, u32)> {
        let n = self.events_len.load(Acquire) as usize;
        let log = self.event_log().iter().take(n);
        let mut out: Vec<_> = log
            .map(|e| {
                (
                    e.t_ns.load(Relaxed),
                    e.seq.load(Relaxed),
                    e.code.load(Relaxed),
                )
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// Closes a ring when dropped — even on panic, so a dead stage never leaves
/// its downstream partner waiting forever. On panic it also raises the
/// shared stop flag to unwind the rest of the pipeline. The thread layout
/// holds it around a stage's restart loop; a child process holds none, and
/// its parent closes the ring once it reaps the stage as finished.
pub(crate) struct CloseOnDrop<'a> {
    pub ring: &'a RingBuffer,
    pub ctl: &'a Ctl,
}

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ctl.stop.store(1, Release);
        }
        self.ring.close();
    }
}

// ---------------------------------------------------------------------------
// Chaos hooks
// ---------------------------------------------------------------------------

/// Fire any kill / hang / panic event scheduled for `(stage, fid)`. Runs at
/// a fixed point in the stage loop — after the frame is marked in-flight,
/// before any of its effects are accounted — so the loss accounting is
/// identical in thread and process mode.
fn chaos_trigger(
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    stage: usize,
    fid: u64,
    proc_mode: bool,
) -> Option<StageExit> {
    let kind = cfg.chaos.as_ref()?.kind_at(stage as u8, fid)?;
    match kind {
        ChaosKind::Kill => Some(StageExit::Killed),
        ChaosKind::Panic => {
            if proc_mode {
                // A child dies abruptly, as a real crash would.
                std::process::abort();
            }
            panic!("chaos: injected panic at {}:{fid}", STAGE_NAMES[stage]);
        }
        ChaosKind::Hang => Some(chaos_hang(ctl, stage, proc_mode)),
        ChaosKind::Corrupt => None, // applied at the pop site
    }
}

/// Park without heartbeating until the supervisor notices. In process mode
/// the stall ends with a SIGKILL; in thread mode the monitor bumps the
/// stage's restart-request generation and the body returns.
fn chaos_hang(ctl: &Ctl, stage: usize, proc_mode: bool) -> StageExit {
    let gen = ctl.restart_req[stage].load(Acquire);
    loop {
        std::thread::sleep(Duration::from_millis(2));
        if !proc_mode && ctl.restart_req[stage].load(Acquire) != gen {
            return StageExit::Hung;
        }
    }
}

/// Deterministically flip payload bits for a scheduled corrupt event, ahead
/// of the stage's integrity check (which must catch it).
fn chaos_corrupt_if_scheduled(cfg: &RuntimeConfig, stage: usize, buf: &mut FrameBuf) {
    let Some(plan) = cfg.chaos.as_ref() else {
        return;
    };
    let fid = buf.meta.frame_id;
    if plan.kind_at(stage as u8, fid) != Some(ChaosKind::Corrupt) {
        return;
    }
    let payload = buf.payload_mut();
    if payload.is_empty() {
        return;
    }
    let mut rng = FaultRng::for_stream(cfg.seed, &[TAG_CHAOS_FLIP, stage as u64, fid]);
    for _ in 0..3 {
        let idx = (rng.next_u64() as usize) % payload.len();
        let bit = (rng.next_u64() % 32) as u32;
        payload[idx] = f32::from_bits(payload[idx].to_bits() ^ (1 << bit));
    }
}

// ---------------------------------------------------------------------------
// Stage bodies
// ---------------------------------------------------------------------------

fn deadline() -> Instant {
    Instant::now() + RETRY_SLICE
}

/// Reserve a slot on `out`, beating `stage`'s heartbeat while the ring
/// stays full. Returns the slot and, under [`DropPolicy::Block`], the
/// virtual time its consumer freed it (0 when there is none to wait for);
/// `None` once a stop is requested.
fn reserve<'r>(
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    stage: usize,
    out: &'r RingBuffer,
) -> Option<(SlotGuard<'r>, u64)> {
    loop {
        match out.reserve(cfg.policy, deadline()) {
            Reserve::Slot(slot) => {
                let freed = match cfg.policy {
                    DropPolicy::Block => slot.freed_stamp_ns().unwrap_or(0),
                    DropPolicy::DropOldest => 0,
                };
                return Some((slot, freed));
            }
            Reserve::TimedOut => {
                ctl.heartbeat[stage].fetch_add(1, Relaxed);
                if ctl.stop_requested() {
                    return None;
                }
            }
        }
    }
}

/// Capture: turn trace points into frames — deterministic synthetic pixels,
/// checksum, ground-truth hit flag — and push them onto the capture ring.
/// Resumes from the persisted next trace index after a restart.
pub(crate) fn run_capture(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    trace: &TraceFile,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 0;
    let faults = LinkFaults::new(cfg.seed, cfg.ipc_flip_rate);
    let svc = costs.elems as u64 * cfg.capture_ns_per_elem;
    let mut clock = ctl.clock_ns[STAGE].load(Acquire);
    let start_idx = ctl.cap_next_idx.load(Acquire) as usize;
    let wall_t0 = Instant::now();
    let pace_base = trace.points.get(start_idx).map_or(0, |p| p.t_ns);

    for (idx, pt) in trace.points.iter().enumerate().skip(start_idx) {
        ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
        if ctl.stop_requested() {
            return StageExit::Stopped;
        }
        if cfg.pace {
            let target = wall_t0 + Duration::from_nanos(pt.t_ns - pace_base);
            loop {
                let now = Instant::now();
                if now >= target {
                    break;
                }
                ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(5)));
            }
        }
        let fid = idx as u64;
        // Progress is persisted *before* the frame is attempted: a crash
        // from here to commit loses exactly this frame, never repeats it.
        ctl.cap_next_idx.store(fid + 1, Release);
        ctl.offered.store(fid + 1, Release);
        ctl.set_inflight(STAGE, Some(fid));
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        let Some((mut slot, freed)) = reserve(cfg, ctl, STAGE, out) else {
            return StageExit::Stopped;
        };
        // Virtual timing: the frame is ready at its trace arrival; a blocked
        // producer additionally cannot write before the slot it reuses was
        // vacated (virtual backpressure).
        let start = clock.max(pt.t_ns).max(freed);
        let done = start + svc;
        clock = done;

        let payload = slot.payload_mut();
        let mut rng = FaultRng::for_stream(cfg.seed, &[TAG_PAYLOAD, fid]);
        for v in payload[..costs.elems].iter_mut() {
            *v = rng.next_f64() as f32;
        }
        let sum = checksum_f32(&payload[..costs.elems]);
        // Inject IPC faults *after* the checksum: corruption-in-transit the
        // consumer's integrity check must catch.
        faults.corrupt_frame(LINK_CAPTURE, fid, &mut payload[..costs.elems]);
        slot.commit(&FrameMeta {
            frame_id: fid,
            t_arrival_ns: pt.t_ns,
            t_stage_ns: done,
            dims: costs.dims,
            dtype: 0,
            flags: u32::from(pt.hit) * FLAG_HIT,
            payload_len: costs.elems as u32,
            checksum: sum,
        });
        ctl.busy_ns[STAGE].fetch_add(svc, AcqRel);
        ctl.processed[STAGE].fetch_add(1, AcqRel);
        ctl.set_inflight(STAGE, None);
        ctl.clock_ns[STAGE].store(clock, Release);
    }
    ctl.done[STAGE].store(1, Release);
    StageExit::Done
}

/// Preprocess: verify integrity, normalize pixels to `[-1, 1]`, re-checksum
/// and forward. Corrupted frames are counted and dropped, never served.
pub(crate) fn run_preprocess(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    input: &RingBuffer,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 1;
    let faults = LinkFaults::new(cfg.seed, cfg.ipc_flip_rate);
    let svc = costs.elems as u64 * cfg.preprocess_ns_per_elem;
    let mut clock = ctl.clock_ns[STAGE].load(Acquire);
    let mut buf = FrameBuf::for_ring(input);

    loop {
        ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, Some(fid));
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        let start = clock.max(buf.meta.t_stage_ns);
        if !buf.checksum_ok() {
            ctl.corrupted[0].fetch_add(1, AcqRel);
            let stage = STAGE_NAMES[STAGE];
            ctl.push_event(start, fid, RuntimeEventKind::Corrupted { stage });
            ctl.set_inflight(STAGE, None);
            continue;
        }
        let done = start + svc;
        clock = done;

        let Some((mut slot, freed)) = reserve(cfg, ctl, STAGE, out) else {
            return StageExit::Stopped;
        };
        let t_out = done.max(freed);
        let n = buf.meta.payload_len as usize;
        let payload = slot.payload_mut();
        for (dst, src) in payload[..n].iter_mut().zip(buf.payload()) {
            *dst = src * 2.0 - 1.0;
        }
        let sum = checksum_f32(&payload[..n]);
        faults.corrupt_frame(LINK_PREPROCESS, fid, &mut payload[..n]);
        slot.commit(&FrameMeta {
            t_stage_ns: t_out,
            payload_len: n as u32,
            checksum: sum,
            ..buf.meta
        });
        ctl.busy_ns[STAGE].fetch_add(svc, AcqRel);
        ctl.processed[STAGE].fetch_add(1, AcqRel);
        ctl.set_inflight(STAGE, None);
        ctl.clock_ns[STAGE].store(clock, Release);
    }
    ctl.done[STAGE].store(1, Release);
    StageExit::Done
}

fn precision_of(dtype: &str) -> Precision {
    match dtype {
        "f16" => Precision::F16,
        "i8" | "int8" => Precision::Int8,
        _ => Precision::F32,
    }
}

struct RungExec<'g> {
    prepared: PreparedExecutor<'g>,
    out: Tensor,
}

impl<'g> RungExec<'g> {
    fn build(
        graph: &'g edgebench_graph::Graph,
        dtype: &str,
        seed: u64,
    ) -> Result<RungExec<'g>, RuntimeError> {
        let prepared = Executor::new(graph)
            .with_seed(seed)
            .with_precision(precision_of(dtype))
            .prepare()
            .map_err(|e| RuntimeError::Stage {
                stage: "inference".to_string(),
                reason: format!("executor build ({dtype}): {e}"),
            })?;
        let out = Tensor::zeros([0]);
        Ok(RungExec { prepared, out })
    }

    /// Run the prepared executor on one frame, read in its slot, into the
    /// rung's `out`, beating the inference heartbeat once per executed
    /// node: a frame that takes longer than the stall window is still live,
    /// not hung. A rejected frame is a typed stage error — it feeds the
    /// degraded-stage report, never a panic.
    fn run(&mut self, ctl: &Ctl, dims: [u32; 4], payload: &[f32]) -> Result<u64, RuntimeError> {
        let dims = dims.map(|d| (d as usize).max(1));
        self.prepared
            .run_into(&dims, payload, &mut self.out, &mut |_, _| {
                ctl.heartbeat[2].fetch_add(1, Relaxed);
                Ok(())
            })
            .map_err(|e| RuntimeError::Stage {
                stage: "inference".to_string(),
                reason: format!("executor rejected frame: {e}"),
            })?;
        Ok(checksum_f32(self.out.data()))
    }
}

/// Inference: sentry-scheduled rung execution with per-rung service time and
/// energy from the fleet's ladder tables; optionally runs the real
/// `PreparedExecutor` hot path on every served frame. Sentry state, energy,
/// and the output digest are persisted per frame so a restart resumes the
/// state machine exactly.
pub(crate) fn run_inference(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    input: &RingBuffer,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 2;
    let graph;
    let mut full_exec = None;
    let mut standby_exec = None;
    if cfg.exec == ExecMode::Real {
        graph = cfg.model.build();
        match RungExec::build(&graph, costs.full.dtype, cfg.seed) {
            Ok(e) => full_exec = Some(e),
            Err(e) => return StageExit::Failed(e.to_string()),
        }
        if let (Some(sb), true) = (&costs.standby, cfg.sentry.is_some()) {
            match RungExec::build(&graph, sb.dtype, cfg.seed) {
                Ok(e) => standby_exec = Some(e),
                Err(e) => return StageExit::Failed(e.to_string()),
            }
        }
    }

    let sentry_state = (
        ctl.sentry_mode.load(Acquire),
        ctl.sentry_quiet.load(Acquire),
    );
    let mut sentry = cfg
        .sentry
        .map(|sc| Sentry::resume(sc, cfg.seed, sentry_state));
    let mut clock = ctl.clock_ns[STAGE].load(Acquire);
    let mut buf = FrameBuf::for_ring(input);

    loop {
        ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, Some(fid));
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        let start = clock.max(buf.meta.t_stage_ns);
        if !buf.checksum_ok() {
            ctl.corrupted[1].fetch_add(1, AcqRel);
            let stage = STAGE_NAMES[STAGE];
            ctl.push_event(start, fid, RuntimeEventKind::Corrupted { stage });
            ctl.set_inflight(STAGE, None);
            continue;
        }
        let hit = buf.meta.flags & FLAG_HIT != 0;
        let (run_standby, run_full, escalated, stood_down, missed) = match sentry.as_mut() {
            Some(s) => {
                let p = s.plan(fid, hit);
                (
                    p.run_standby,
                    p.run_full,
                    p.escalated,
                    p.stood_down,
                    p.missed,
                )
            }
            None => (false, true, false, false, false),
        };

        let mut svc = 0u64;
        if run_standby {
            let sb = costs
                .standby
                .as_ref()
                .expect("sentry requires a standby rung");
            svc += sb.svc_ns;
            ctl.add_energy_mj(sb.energy_mj);
            if let Some(e) = &mut standby_exec {
                let digest = match e.run(ctl, buf.meta.dims, buf.payload()) {
                    Ok(d) => d,
                    Err(err) => return StageExit::Failed(err.to_string()),
                };
                ctl.digest.fetch_xor(digest, AcqRel);
            }
        }
        if run_full {
            svc += costs.full.svc_ns;
            ctl.add_energy_mj(costs.full.energy_mj);
            if let Some(e) = &mut full_exec {
                let digest = match e.run(ctl, buf.meta.dims, buf.payload()) {
                    Ok(d) => d,
                    Err(err) => return StageExit::Failed(err.to_string()),
                };
                ctl.digest.fetch_xor(digest, AcqRel);
            }
        }
        let done = start + svc;
        clock = done;

        if run_full {
            ctl.full_frames.fetch_add(1, AcqRel);
        } else if run_standby {
            ctl.standby_frames.fetch_add(1, AcqRel);
        }
        for (happened, count, kind) in [
            (escalated, &ctl.escalations, RuntimeEventKind::Escalate),
            (stood_down, &ctl.standdowns, RuntimeEventKind::Standdown),
            (
                missed,
                &ctl.missed_escalations,
                RuntimeEventKind::MissedEscalation,
            ),
        ] {
            if happened {
                count.fetch_add(1, AcqRel);
                ctl.push_event(done, fid, kind);
            }
        }

        let Some((mut slot, freed)) = reserve(cfg, ctl, STAGE, out) else {
            return StageExit::Stopped;
        };
        let t_out = done.max(freed);
        let payload = slot.payload_mut();
        payload[..DETECTION_ELEMS].fill(0.0);
        payload[0] = f32::from(u8::from(hit && run_full));
        payload[1] = f32::from(u8::from(run_standby && !run_full));
        payload[2] = f32::from(u8::from(escalated));
        let sum = checksum_f32(&payload[..DETECTION_ELEMS]);
        let mut flags = buf.meta.flags;
        if escalated {
            flags |= FLAG_ESCALATED;
        }
        if run_standby && !run_full {
            flags |= FLAG_STANDBY;
        }
        slot.commit(&FrameMeta {
            t_stage_ns: t_out,
            dims: [DETECTION_ELEMS as u32, 1, 1, 1],
            flags,
            payload_len: DETECTION_ELEMS as u32,
            checksum: sum,
            ..buf.meta
        });
        ctl.busy_ns[STAGE].fetch_add(svc, AcqRel);
        ctl.processed[STAGE].fetch_add(1, AcqRel);
        ctl.set_inflight(STAGE, None);
        if let Some(s) = sentry.as_ref() {
            let (mode, quiet) = s.state();
            ctl.sentry_mode.store(mode, Release);
            ctl.sentry_quiet.store(quiet, Release);
        }
        ctl.clock_ns[STAGE].store(clock, Release);
    }
    ctl.done[STAGE].store(1, Release);
    StageExit::Done
}

/// Gateway: drain the detection ring, verify integrity one last time, and
/// account end-to-end virtual latency per frame in the shared ledger. The
/// ledger's compare-and-swap insert is what proves at-most-once delivery:
/// a frame id arriving twice trips the duplicates counter.
pub(crate) fn run_gateway(
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    input: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 3;
    let mut buf = FrameBuf::for_ring(input);
    let mut clock = ctl.clock_ns[STAGE].load(Acquire);

    loop {
        ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() && input.is_closed() {
                    // Closed and nothing new within a slice: give up.
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, Some(fid));
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        clock = clock.max(buf.meta.t_stage_ns);
        if ctl.gw_last_id().is_some_and(|prev| fid <= prev) {
            ctl.order_violations.fetch_add(1, AcqRel);
        }
        ctl.set_gw_last_id(fid);
        if !buf.checksum_ok() {
            ctl.corrupted[2].fetch_add(1, AcqRel);
            let stage = STAGE_NAMES[STAGE];
            ctl.push_event(
                buf.meta.t_stage_ns,
                fid,
                RuntimeEventKind::Corrupted { stage },
            );
            ctl.set_inflight(STAGE, None);
            ctl.clock_ns[STAGE].store(clock, Release);
            continue;
        }
        if ctl.ledger_set(fid, buf.meta.t_stage_ns - buf.meta.t_arrival_ns) {
            ctl.completed.fetch_add(1, AcqRel);
            ctl.span_ns.fetch_max(buf.meta.t_stage_ns, AcqRel);
            ctl.processed[STAGE].fetch_add(1, AcqRel);
        } else {
            ctl.duplicates.fetch_add(1, AcqRel);
        }
        ctl.set_inflight(STAGE, None);
        ctl.clock_ns[STAGE].store(clock, Release);
    }
    ctl.done[STAGE].store(1, Release);
    StageExit::Done
}

// ---------------------------------------------------------------------------
// Sink bodies (restart budget exhausted)
// ---------------------------------------------------------------------------

/// Capture sink: the capture stage is permanently down. Account every
/// remaining trace point as offered-and-lost so conservation still holds,
/// then let the wrapper close the ring and the survivors drain.
pub(crate) fn run_capture_sink(ctl: &Ctl, trace: &TraceFile) -> StageExit {
    const STAGE: usize = 0;
    let start_idx = ctl.cap_next_idx.load(Acquire) as usize;
    let lost = RuntimeEventKind::Lost {
        stage: STAGE_NAMES[STAGE],
    };
    for (idx, pt) in trace.points.iter().enumerate().skip(start_idx) {
        ctl.heartbeat[STAGE].fetch_add(1, Relaxed);
        let fid = idx as u64;
        ctl.cap_next_idx.store(fid + 1, Release);
        ctl.offered.store(fid + 1, Release);
        ctl.lost[STAGE].fetch_add(1, AcqRel);
        ctl.push_event(pt.t_ns, fid, lost);
    }
    StageExit::Stopped
}

/// Consumer sink: the stage is permanently down but keeps draining its
/// input ring deterministically, accounting every frame as lost at this
/// stage — the drain-and-degrade path with exact bookkeeping.
pub(crate) fn run_consumer_sink(stage: usize, ctl: &Ctl, input: &RingBuffer) -> StageExit {
    let mut buf = FrameBuf::for_ring(input);
    let lost = RuntimeEventKind::Lost {
        stage: STAGE_NAMES[stage],
    };
    loop {
        ctl.heartbeat[stage].fetch_add(1, Relaxed);
        match input.pop_into(&mut buf, deadline(), |b| b.meta.t_stage_ns) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() && input.is_closed() {
                    break;
                }
                continue;
            }
            Pop::Popped => {
                ctl.lost[stage].fetch_add(1, AcqRel);
                ctl.push_event(buf.meta.t_stage_ns, buf.meta.frame_id, lost);
            }
        }
    }
    StageExit::Stopped
}

// ---------------------------------------------------------------------------
// Stage table
// ---------------------------------------------------------------------------

/// One run's shared objects, seen from the stages. Threads and child
/// processes both reach a stage through [`Pipeline::with_stage`].
pub(crate) struct Pipeline<'a> {
    pub cfg: &'a RuntimeConfig,
    pub costs: &'a StageCosts,
    pub ctl: &'a Ctl,
    pub rings: &'a [RingBuffer; 3],
    pub trace: &'a TraceFile,
    /// The stages run as child processes: chaos deaths skip unwinding.
    pub proc_mode: bool,
}

impl Pipeline<'_> {
    /// Runs `f` with stage `s`'s body and its sink — the drain-and-account
    /// body that replaces a stage whose restart budget is spent. `f`
    /// decides how the stage runs: under the thread supervisor, or as a
    /// child's exit.
    pub(crate) fn with_stage<R>(
        &self,
        s: usize,
        f: impl FnOnce(&dyn Fn() -> StageExit, &dyn Fn() -> StageExit) -> R,
    ) -> R {
        let Pipeline {
            cfg,
            costs,
            ctl,
            rings,
            trace,
            proc_mode,
        } = *self;
        let body = || match s {
            0 => run_capture(cfg, costs, ctl, trace, &rings[0], proc_mode),
            1 => run_preprocess(cfg, costs, ctl, &rings[0], &rings[1], proc_mode),
            2 => run_inference(cfg, costs, ctl, &rings[1], &rings[2], proc_mode),
            _ => run_gateway(cfg, ctl, &rings[2], proc_mode),
        };
        let sink = || match s {
            0 => run_capture_sink(ctl, trace),
            _ => run_consumer_sink(s, ctl, &rings[s - 1]),
        };
        f(&body, &sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ebctl-{tag}-{}", std::process::id()))
    }

    #[test]
    fn ctl_roundtrips_counters_and_events() {
        let path = temp_path("test");
        let ctl = Ctl::create(&path, 16, 8, 8).unwrap();
        ctl.offered.store(10, Release);
        ctl.corrupted[1].fetch_add(1, AcqRel);
        ctl.escalations.fetch_add(2, AcqRel);
        ctl.full_frames.fetch_add(4, AcqRel);
        ctl.add_energy_mj(12.5);
        ctl.add_energy_mj(0.25);
        ctl.busy_ns[2].fetch_add(777, AcqRel);
        let corrupted = RuntimeEventKind::Corrupted {
            stage: "preprocess",
        };
        ctl.push_event(5, 1, RuntimeEventKind::Escalate);
        ctl.push_event(3, 0, corrupted);
        ctl.done[2].store(1, Release);

        let other = Ctl::attach(&path).unwrap();
        assert_eq!(other.offered.load(Acquire), 10);
        assert_eq!(other.corrupted[1].load(Acquire), 1);
        assert_eq!(other.escalations.load(Acquire), 2);
        assert_eq!(other.full_frames.load(Acquire), 4);
        assert_eq!(other.energy_mj(), 12.75);
        assert_eq!(other.busy_ns[2].load(Acquire), 777);
        assert_eq!(other.done.each_ref().map(|d| d.load(Acquire)), [0, 0, 1, 0]);
        assert_eq!(
            other.events(),
            vec![
                (3, 0, corrupted.code()),
                (5, 1, RuntimeEventKind::Escalate.code())
            ]
        );
        assert!(!other.stop_requested());
        ctl.stop.store(1, Release);
        assert!(other.stop_requested());

        ctl.map().unlink();
        assert!(!path.exists());
    }

    #[test]
    fn ctl_event_region_is_bounded() {
        let ctl = Ctl::create(&temp_path("bound"), 4, 2, 2).unwrap();
        ctl.map().unlink();
        for i in 0..5 {
            ctl.push_event(i, i, RuntimeEventKind::MissedEscalation);
        }
        assert_eq!(ctl.events().len(), 2);
        for i in 0..5 {
            ctl.recov_push(1, i, 100);
        }
        assert_eq!(ctl.recoveries().len(), 2);
    }

    #[test]
    fn ctl_supervision_state_roundtrips() {
        let ctl = Ctl::create(&temp_path("sup"), 8, 4, 4).unwrap();
        ctl.map().unlink();

        assert_eq!(ctl.inflight(1), None);
        ctl.set_inflight(1, Some(0));
        assert_eq!(ctl.inflight(1), Some(0));
        ctl.set_inflight(1, Some(42));
        assert_eq!(ctl.inflight(1), Some(42));
        ctl.set_inflight(1, None);
        assert_eq!(ctl.inflight(1), None);

        assert_eq!(ctl.gw_last_id(), None);
        ctl.set_gw_last_id(0);
        assert_eq!(ctl.gw_last_id(), Some(0));

        ctl.span_ns.fetch_max(50, AcqRel);
        ctl.span_ns.fetch_max(20, AcqRel);
        assert_eq!(ctl.span_ns.load(Acquire), 50);

        ctl.recov_push(1, 1, 25_000);
        ctl.recov_push(0, 1, 5_000);
        assert_eq!(ctl.recoveries(), vec![(0, 1, 5_000), (1, 1, 25_000)]);
    }

    #[test]
    fn ctl_ledger_detects_duplicates_and_orders_latencies() {
        let ctl = Ctl::create(&temp_path("ledger"), 4, 2, 2).unwrap();
        ctl.map().unlink();

        assert!(ctl.ledger_set(2, 3_000_000));
        assert!(ctl.ledger_set(0, 1_000_000));
        assert!(!ctl.ledger_set(2, 9_000_000), "second insert is a dup");
        assert!(!ctl.ledger_set(99, 1), "out-of-range fids are rejected");
        assert_eq!(ctl.ledger_latencies_ms(), vec![1.0, 3.0]);
    }

    /// Every header `Ctl::attach` cannot map is a typed `Shm` error, never
    /// a panic or an out-of-bounds region.
    #[test]
    fn ctl_attach_rejects_malformed_headers() {
        let expect_err = |path: &Path, what: &str, want: &str| match Ctl::attach(path) {
            Err(RuntimeError::Shm { reason, .. }) => assert_eq!(reason, want, "{what}"),
            other => panic!("{what}: expected a Shm error, got {other:?}"),
        };
        let short = temp_path("short");
        drop(SharedMap::create(&short, 16).unwrap());
        expect_err(&short, "shorter than the header", "control block too small");
        std::fs::remove_file(&short).unwrap();

        let path = temp_path("malformed");
        let ctl = Ctl::create(&path, 16, 8, 8).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(ctl.map().len() as u64 - 1).unwrap();
        expect_err(&path, "regions cut short", "control block truncated");
        file.set_len(ctl.map().len() as u64).unwrap();

        for (what, cap) in [
            ("ledger cap overflows", &ctl.ledger_cap),
            ("recovery cap overflows", &ctl.recov_cap),
            ("event cap overflows", &ctl.events_cap),
        ] {
            let good = cap.swap(1 << 61, Relaxed);
            expect_err(&path, what, "control block truncated");
            cap.store(good, Relaxed);
        }
        ctl.version.store(CTL_VERSION - 1, Relaxed);
        expect_err(&path, "wrong version", "control-block version mismatch");
        ctl.version.store(CTL_VERSION, Relaxed);
        ctl.magic.store(!CTL_MAGIC, Relaxed);
        expect_err(&path, "bad magic", "bad control-block magic");
        ctl.magic.store(CTL_MAGIC, Release);
        assert!(Ctl::attach(&path).is_ok(), "the repaired header attaches");
        ctl.map().unlink();
    }

    /// A frame whose payload does not fill its dims (the slot read cuts
    /// the length to what the ring holds, and in the process layout
    /// another process writes the slot) is a typed stage error, as
    /// permuted dims are — never a panic.
    #[test]
    fn a_frame_shorter_than_its_dims_is_a_typed_stage_error() {
        let graph = edgebench_models::Model::VggS32.build();
        let mut rung = RungExec::build(&graph, "f32", 1).unwrap();
        let ctl = Ctl::create(&temp_path("short-frame"), 4, 2, 2).unwrap();
        ctl.map().unlink();
        let frame = vec![0.25; 3 * 32 * 32];
        for (dims, len) in [([1, 3, 32, 32], 100), ([1, 32, 32, 3], frame.len())] {
            match rung.run(&ctl, dims, &frame[..len]) {
                Err(RuntimeError::Stage { stage, reason }) => {
                    assert_eq!(stage, "inference");
                    assert!(
                        reason.starts_with("executor rejected frame: input shape mismatch"),
                        "{reason}"
                    );
                }
                other => panic!("dims {dims:?}, {len} values: {other:?}"),
            }
        }
        let good = rung.run(&ctl, [1, 3, 32, 32], &frame).unwrap();
        assert_eq!(rung.run(&ctl, [1, 3, 32, 32], &frame).unwrap(), good);
    }

    #[test]
    fn precision_mapping_covers_ladder_dtypes() {
        assert_eq!(precision_of("f32"), Precision::F32);
        assert_eq!(precision_of("f16"), Precision::F16);
        assert_eq!(precision_of("i8"), Precision::Int8);
        assert_eq!(precision_of("int8"), Precision::Int8);
        assert_eq!(precision_of("anything"), Precision::F32);
    }
}
