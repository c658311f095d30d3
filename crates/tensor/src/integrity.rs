//! Silent-data-corruption (SDC) defense: weight checksums, activation
//! range guards, and in-place recovery.
//!
//! Edge devices at thermal/power limits suffer DRAM bit flips that
//! silently corrupt resident model weights and in-flight activations —
//! and a wrong answer is worse than a slow one. This module layers a
//! defense on top of [`PreparedExecutor`]:
//!
//! * **Checksums** — [`Executor::prepare`](crate::Executor::prepare)
//!   records a lane-parallel FNV-style checksum of every node's cached
//!   parameter bits;
//!   [`GuardedExecutor`] re-verifies them on a configurable cadence and
//!   repairs mismatched nodes in place by re-materializing just that
//!   node's parameters from the pristine weight store (weights are a pure
//!   function of seed and node name, so repair restores the exact
//!   original bits — including pruning and precision lowering).
//! * **Activation guards** — a clean calibration pass records each node's
//!   output min/max envelope; at inference time any non-finite value is
//!   fatal immediately, and values escaping the slack-widened envelope
//!   trip the guard. On a trip the executor scrubs the weights and
//!   retries the inference once; a second trip surfaces as the typed
//!   [`ExecError::Corrupted`] outcome instead of serving a wrong answer.
//!
//! Everything here is deterministic: checksums are pure functions of the
//! parameter bits, envelopes are pure functions of the calibration
//! inputs, and because executor outputs are byte-identical across thread
//! counts and kernel tiers, guard verdicts are too. Recovery work is
//! reported in deterministic units (counts and bytes), never wall-clock.

use crate::{ExecError, PreparedExecutor, Tensor};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Lane-parallel FNV-style digest over the bit patterns of `words`,
/// mixed with the slice length so reshufflings between parts cannot
/// collide.
///
/// Eight independent xor-multiply chains each consume a pair of `f32`
/// bit patterns per step, then fold into one digest. Every step xors
/// data into the state and multiplies by an odd constant — both
/// injective on `u64` — so a *single* flipped bit anywhere in `words`
/// is guaranteed (not just probabilistically likely) to change the
/// digest. The lanes exist purely for speed: dependent 64-bit
/// multiplies cap a one-chain hash at a few hundred MB/s, while eight
/// interleaved chains keep the multiplier saturated and run at memory
/// bandwidth, cheap enough to re-verify every model weight before every
/// inference.
pub fn checksum_f32(words: &[f32]) -> u64 {
    fold_f32(FNV_OFFSET, words)
}

/// Chains [`checksum_f32`] across several slices (a node's weights, bias
/// and batch-norm parts) into one digest.
pub(crate) fn checksum_parts<'a>(parts: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    parts.into_iter().fold(FNV_OFFSET, fold_f32)
}

const HASH_LANES: usize = 8;

fn fold_f32(h: u64, words: &[f32]) -> u64 {
    // Diverge the lanes from the incoming chain state so the digest
    // still depends on part order when chained by `checksum_parts`.
    let mut lanes = [h; HASH_LANES];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = (*lane ^ (i as u64 + 1)).wrapping_mul(FNV_PRIME);
    }
    let pairs = words.len() / 2;
    let rounds = pairs / HASH_LANES;
    // SAFETY: `rounds * HASH_LANES` u64 reads cover exactly
    // `rounds * HASH_LANES * 2 <= words.len()` f32 words, all in bounds;
    // `read_unaligned` has no alignment requirement. The digest is a
    // function of the raw bytes (native byte order), which is all the
    // in-process verify-against-baseline contract needs.
    unsafe {
        let mut p = words.as_ptr().cast::<u64>();
        for _ in 0..rounds {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = (*lane ^ p.add(i).read_unaligned()).wrapping_mul(FNV_PRIME);
            }
            p = p.add(HASH_LANES);
        }
    }
    let mut out = h;
    for lane in lanes {
        out = (out ^ lane).wrapping_mul(FNV_PRIME);
    }
    for w in &words[rounds * HASH_LANES * 2..] {
        out = (out ^ w.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
    (out ^ words.len() as u64).wrapping_mul(FNV_PRIME)
}

/// A node's clean activation range, recorded during calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Envelope {
    /// Smallest value seen in clean runs.
    pub lo: f32,
    /// Largest value seen in clean runs.
    pub hi: f32,
}

impl Envelope {
    /// The envelope widened by `slack` times its span on each side (with
    /// a small absolute floor so degenerate constant activations still
    /// get a tolerance band).
    pub(crate) fn widened(self, slack: f32) -> Envelope {
        let span = (self.hi - self.lo).max(1e-3);
        Envelope {
            lo: self.lo - slack * span,
            hi: self.hi + slack * span,
        }
    }

    fn absorb(&mut self, lo: f32, hi: f32) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }
}

/// Fraction of each calibrated envelope's span added as tolerance on both
/// sides before a value counts as out-of-range.
const ENVELOPE_SLACK: f32 = 0.5;

/// Detection knobs of the [`GuardedExecutor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Verify weight checksums (and repair mismatches) every `cadence`
    /// inferences; `1` scrubs before every run, `0` never scrubs.
    pub cadence: u64,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            // Cadence 4 amortizes the scrub's full-weight memory sweep
            // below the <3% overhead budget (the batch-8 CifarNet bench
            // tracks it); cadence 1 buys scrub-before-every-run coverage
            // for roughly one extra percent. The envelope guards run
            // every inference regardless and are effectively free.
            cadence: 4,
        }
    }
}

impl GuardConfig {
    /// Returns the config with the given scrub cadence.
    pub fn with_cadence(mut self, cadence: u64) -> GuardConfig {
        self.cadence = cadence;
        self
    }
}

/// Which activation guard tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardTrip {
    /// A NaN or infinity appeared in a node output (always fatal).
    NonFinite,
    /// A finite value escaped the node's slack-widened clean envelope.
    OutOfEnvelope,
}

impl fmt::Display for GuardTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardTrip::NonFinite => write!(f, "non-finite"),
            GuardTrip::OutOfEnvelope => write!(f, "out-of-envelope"),
        }
    }
}

/// Deterministic counters of everything the defense layer did. All units
/// are counts or bytes — never wall-clock — so reports stay byte-stable
/// across machines and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStats {
    /// Inferences attempted through the guarded path.
    pub inferences: u64,
    /// Checksum verification sweeps performed.
    pub scrubs: u64,
    /// Nodes found with parameters differing from the baseline.
    pub checksum_mismatches: u64,
    /// Nodes repaired in place by re-materialization.
    pub repairs: u64,
    /// Total parameter bytes rewritten by repairs (the deterministic
    /// recovery-cost metric).
    pub repaired_bytes: u64,
    /// Activation-guard trips (non-finite or out-of-envelope).
    pub guard_trips: u64,
    /// Tripped inferences retried after a forced scrub.
    pub retries: u64,
    /// Retries whose re-run came back clean.
    pub recovered: u64,
    /// Inferences reported as [`ExecError::Corrupted`] to the caller.
    pub corrupted_outputs: u64,
}

/// One step of the defense layer's lifecycle, for byte-stable logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityEventKind {
    /// A node's parameter checksum no longer matched the baseline.
    ChecksumMismatch,
    /// The node's parameters were re-materialized in place.
    Repaired {
        /// Parameter bytes rewritten.
        bytes: usize,
    },
    /// An activation guard tripped on the node's output.
    GuardTrip {
        /// Which guard tripped.
        trip: GuardTrip,
    },
    /// The inference was retried after a forced scrub.
    Retried,
    /// The retry came back clean.
    Recovered,
    /// The retry tripped again; the inference was reported corrupted.
    CorruptedOutput,
}

/// One timestep-free entry of the integrity event log: what happened, at
/// which node, during which inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityEvent {
    /// 1-based guarded-inference counter when the event fired.
    pub inference: u64,
    /// Graph node index the event concerns.
    pub node: usize,
    /// What happened.
    pub kind: IntegrityEventKind,
}

impl fmt::Display for IntegrityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[i{:>6} n{:>3}] ", self.inference, self.node)?;
        match self.kind {
            IntegrityEventKind::ChecksumMismatch => write!(f, "checksum-mismatch"),
            IntegrityEventKind::Repaired { bytes } => write!(f, "repaired bytes={bytes}"),
            IntegrityEventKind::GuardTrip { trip } => write!(f, "guard-trip {trip}"),
            IntegrityEventKind::Retried => write!(f, "retried"),
            IntegrityEventKind::Recovered => write!(f, "recovered"),
            IntegrityEventKind::CorruptedOutput => write!(f, "corrupted-output"),
        }
    }
}

/// A [`PreparedExecutor`] wrapped in the SDC defense layer: cadence-based
/// weight scrubbing, per-node activation guards, and retry-once recovery.
///
/// Build one from a prepared executor, [`calibrate`](Self::calibrate) it
/// on a few clean inputs (optional — NaN/Inf guards work uncalibrated),
/// then call [`run`](Self::run) per inference, into an output tensor the
/// caller keeps.
#[derive(Debug)]
pub struct GuardedExecutor<'g> {
    inner: PreparedExecutor<'g>,
    cfg: GuardConfig,
    envelopes: Vec<Option<Envelope>>,
    stats: GuardStats,
    events: Vec<IntegrityEvent>,
}

impl<'g> GuardedExecutor<'g> {
    /// Wraps `inner` with the given guard configuration.
    pub fn new(inner: PreparedExecutor<'g>, cfg: GuardConfig) -> GuardedExecutor<'g> {
        let n = inner.node_count();
        GuardedExecutor {
            inner,
            cfg,
            envelopes: vec![None; n],
            stats: GuardStats::default(),
            events: Vec::new(),
        }
    }

    /// Records each node's clean activation min/max over `inputs`,
    /// replacing any previous calibration. Inputs must be known-clean:
    /// the envelope *is* the definition of normal.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::run`].
    pub fn calibrate<'t>(
        &mut self,
        inputs: impl IntoIterator<Item = &'t Tensor>,
    ) -> Result<(), ExecError> {
        let mut envelopes: Vec<Option<Envelope>> = vec![None; self.inner.node_count()];
        for input in inputs {
            self.inner.run_observed(input, &mut |idx, t| {
                let (lo, hi, _) = scan(t.data());
                match &mut envelopes[idx] {
                    Some(env) => env.absorb(lo, hi),
                    slot => *slot = Some(Envelope { lo, hi }),
                }
                Ok(())
            })?;
        }
        self.envelopes = envelopes;
        Ok(())
    }

    /// Runs one guarded inference on `input` into `out`, reusing `out`'s
    /// buffer as [`PreparedExecutor::run_into`] does: scrub on cadence,
    /// execute with activation guards, and if a guard trips, scrub and
    /// retry once.
    ///
    /// `inject(attempt, node, output)` sees every node output before the
    /// guards do: the hook fault campaigns flip activation bits through (a
    /// caller that injects nothing passes `&mut |_, _, _| {}`). `attempt`
    /// is `0` for the first pass and `1` for the retry, so a transient
    /// injector can key its draws on it; a persistent fault that ignores
    /// `attempt` re-corrupts the retry and surfaces as
    /// [`ExecError::Corrupted`].
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::run_into`], plus [`ExecError::Corrupted`]
    /// when the retry tripped a guard too; `out` then holds no answer.
    pub fn run(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        inject: &mut dyn FnMut(u32, usize, &mut Tensor),
    ) -> Result<(), ExecError> {
        if self.cfg.cadence > 0 && self.stats.inferences.is_multiple_of(self.cfg.cadence) {
            self.scrub()?;
        }
        self.stats.inferences += 1;
        match self.attempt(input, out, 0, inject) {
            Err(ExecError::Corrupted { .. }) => {}
            clean_or_failed => return clean_or_failed,
        }
        // Weight corruption may be what pushed the activations out of
        // range: repair before the one retry.
        self.scrub()?;
        self.stats.retries += 1;
        self.push_event(0, IntegrityEventKind::Retried);
        let retried = self.attempt(input, out, 1, inject);
        match retried {
            Ok(()) => {
                self.stats.recovered += 1;
                self.push_event(0, IntegrityEventKind::Recovered);
            }
            Err(ExecError::Corrupted { .. }) => {
                self.stats.corrupted_outputs += 1;
                self.push_event(0, IntegrityEventKind::CorruptedOutput);
            }
            Err(_) => {}
        }
        retried
    }

    /// A checksum sweep, repairing every mismatched node in place.
    ///
    /// # Errors
    ///
    /// Same as [`PreparedExecutor::repair_node`].
    fn scrub(&mut self) -> Result<(), ExecError> {
        self.stats.scrubs += 1;
        for idx in self.inner.verify_params() {
            self.stats.checksum_mismatches += 1;
            self.push_event(idx, IntegrityEventKind::ChecksumMismatch);
            let bytes = self.inner.repair_node(idx)?;
            self.stats.repairs += 1;
            self.stats.repaired_bytes += bytes as u64;
            self.push_event(idx, IntegrityEventKind::Repaired { bytes });
        }
        Ok(())
    }

    fn attempt(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        attempt: u32,
        inject: &mut dyn FnMut(u32, usize, &mut Tensor),
    ) -> Result<(), ExecError> {
        let inner = &self.inner;
        let envelopes = &self.envelopes;
        let mut tripped: Option<(usize, GuardTrip)> = None;
        let res = inner.run_into(input.shape().dims(), input.data(), out, &mut |idx, t| {
            inject(attempt, idx, t);
            if let Some(trip) = check_node(envelopes, idx, t) {
                tripped = Some((idx, trip));
                return Err(ExecError::Corrupted {
                    node: inner.node_name(idx).to_string(),
                    reason: trip.to_string(),
                });
            }
            Ok(())
        });
        if let Some((idx, trip)) = tripped {
            self.stats.guard_trips += 1;
            self.push_event(idx, IntegrityEventKind::GuardTrip { trip });
        }
        res.map(|_| ())
    }

    fn push_event(&mut self, node: usize, kind: IntegrityEventKind) {
        self.events.push(IntegrityEvent {
            inference: self.stats.inferences,
            node,
            kind,
        });
    }

    /// The deterministic defense counters accumulated so far.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// The integrity event log accumulated so far, in firing order.
    pub fn events(&self) -> &[IntegrityEvent] {
        &self.events
    }

    /// The wrapped prepared executor (e.g. for injecting weight faults
    /// through [`PreparedExecutor::corrupt_param_bit`]).
    pub fn inner_mut(&mut self) -> &mut PreparedExecutor<'g> {
        &mut self.inner
    }
}

const SCAN_LANES: usize = 8;
const EXP_MASK: u32 = 0x7f80_0000;

/// One pass over `data`: min, max, and whether any value is non-finite.
///
/// The guards sweep every node output of every inference, so this runs
/// on the widest vector path the host offers (AVX2 where detected, a
/// lane-parallel portable loop otherwise). Both paths return identical
/// verdicts: the non-finite flag is an exact integer exponent-mask test,
/// and when it is clear every value is finite, where vector and scalar
/// min/max agree exactly (no rounding, no NaN ambiguity).
fn scan(data: &[f32]) -> (f32, f32, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::simd_available() {
            // SAFETY: AVX2 presence was just runtime-checked.
            return unsafe { scan_avx2(data) };
        }
    }
    scan_portable(data)
}

/// Portable fallback: lane-wise compare-selects instead of `f32::min`'s
/// NaN bookkeeping, and an exponent-mask accumulator instead of an
/// early `is_finite` return (NaN compares false against everything, so
/// a NaN never displaces a lane accumulator — the mask is what catches
/// it).
fn scan_portable(data: &[f32]) -> (f32, f32, bool) {
    let mut lo = [f32::INFINITY; SCAN_LANES];
    let mut hi = [f32::NEG_INFINITY; SCAN_LANES];
    let mut bad = [0u32; SCAN_LANES];
    let mut chunks = data.chunks_exact(SCAN_LANES);
    for chunk in &mut chunks {
        for i in 0..SCAN_LANES {
            let v = chunk[i];
            bad[i] |= u32::from(v.to_bits() & EXP_MASK == EXP_MASK);
            lo[i] = if v < lo[i] { v } else { lo[i] };
            hi[i] = if v > hi[i] { v } else { hi[i] };
        }
    }
    let (mut lo, mut hi) = (lo.iter().copied().fold(f32::INFINITY, f32::min), {
        hi.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    });
    let mut nonfinite = bad.iter().any(|&b| b != 0);
    for &v in chunks.remainder() {
        nonfinite |= v.to_bits() & EXP_MASK == EXP_MASK;
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi, nonfinite)
}

/// AVX2 scan: 8-lane min/max plus an integer all-ones-exponent test per
/// load. `vminps`/`vmaxps` NaN semantics (a NaN operand can displace an
/// accumulator lane) don't matter here: any NaN also sets the non-finite
/// mask, and a set mask means lo/hi are never consulted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(data: &[f32]) -> (f32, f32, bool) {
    use core::arch::x86_64::*;
    let mut lo8 = _mm256_set1_ps(f32::INFINITY);
    let mut hi8 = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut bad8 = _mm256_setzero_si256();
    let exp = _mm256_set1_epi32(EXP_MASK as i32);
    let n = data.len();
    let mut i = 0;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(data.as_ptr().add(i));
        lo8 = _mm256_min_ps(lo8, v);
        hi8 = _mm256_max_ps(hi8, v);
        let m = _mm256_and_si256(_mm256_castps_si256(v), exp);
        bad8 = _mm256_or_si256(bad8, _mm256_cmpeq_epi32(m, exp));
        i += 8;
    }
    let mut lo_l = [0.0f32; 8];
    let mut hi_l = [0.0f32; 8];
    _mm256_storeu_ps(lo_l.as_mut_ptr(), lo8);
    _mm256_storeu_ps(hi_l.as_mut_ptr(), hi8);
    let mut lo = lo_l.iter().copied().fold(f32::INFINITY, f32::min);
    let mut hi = hi_l.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut nonfinite = _mm256_movemask_epi8(bad8) != 0;
    for &v in &data[i..] {
        nonfinite |= v.to_bits() & EXP_MASK == EXP_MASK;
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi, nonfinite)
}

fn check_node(envelopes: &[Option<Envelope>], idx: usize, t: &Tensor) -> Option<GuardTrip> {
    let (lo, hi, nonfinite) = scan(t.data());
    if nonfinite {
        return Some(GuardTrip::NonFinite);
    }
    if let Some(env) = envelopes.get(idx).copied().flatten() {
        let w = env.widened(ENVELOPE_SLACK);
        if lo < w.lo || hi > w.hi {
            return Some(GuardTrip::OutOfEnvelope);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use edgebench_graph::{ActivationKind, Graph, GraphBuilder};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let r = b.activation(c, ActivationKind::Relu).unwrap();
        let f = b.flatten(r).unwrap();
        let d = b.dense(f, 10).unwrap();
        let s = b.softmax(d).unwrap();
        b.build(s).unwrap()
    }

    #[test]
    fn checksum_is_sensitive_to_every_bit() {
        let data = vec![0.5f32, -1.25, 3.0];
        let base = checksum_f32(&data);
        for elem in 0..data.len() {
            for bit in 0..32u8 {
                let mut flipped = data.clone();
                flipped[elem] = f32::from_bits(flipped[elem].to_bits() ^ (1 << bit));
                assert_ne!(checksum_f32(&flipped), base, "elem {elem} bit {bit}");
            }
        }
    }

    #[test]
    fn checksum_distinguishes_part_boundaries() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32];
        let c = [1.0f32];
        let d = [2.0f32, 3.0];
        assert_ne!(
            checksum_parts([&a[..], &b[..]]),
            checksum_parts([&c[..], &d[..]])
        );
    }

    #[test]
    fn flip_then_verify_then_repair_round_trips() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let mut prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let clean = prepared.run(&x).unwrap();
        assert!(prepared.verify_params().is_empty());

        // Find a parameterized node and flip one weight bit.
        let node = (0..prepared.node_count())
            .find(|&i| prepared.param_elems(i) > 0)
            .unwrap();
        assert!(prepared.corrupt_param_bit(node, 0, 30));
        assert_eq!(prepared.verify_params(), vec![node]);

        let bytes = prepared.repair_node(node).unwrap();
        assert!(bytes > 0);
        assert!(prepared.verify_params().is_empty());
        assert_eq!(prepared.run(&x).unwrap(), clean);
    }

    /// A guarded run that injects nothing.
    fn run(guarded: &mut GuardedExecutor<'_>, x: &Tensor) -> Result<Tensor, ExecError> {
        let mut out = Tensor::zeros([0]);
        guarded.run(x, &mut out, &mut |_, _, _| {})?;
        Ok(out)
    }

    #[test]
    fn guarded_run_matches_unguarded_when_clean() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let clean = Executor::new(&g).with_seed(5).run(&x).unwrap();
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default().with_cadence(1));
        guarded.calibrate([&x]).unwrap();
        for _ in 0..3 {
            assert_eq!(run(&mut guarded, &x).unwrap(), clean);
        }
        let s = guarded.stats();
        assert_eq!(s.inferences, 3);
        assert_eq!(s.guard_trips, 0);
        assert_eq!(s.checksum_mismatches, 0);
        assert!(s.scrubs >= 3, "cadence 1 scrubs before every run");
    }

    #[test]
    fn weight_flip_is_repaired_on_cadence_and_output_stays_clean() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default().with_cadence(1));
        guarded.calibrate([&x]).unwrap();
        let clean = run(&mut guarded, &x).unwrap();

        let inner = guarded.inner_mut();
        let node = (0..inner.node_count())
            .find(|&i| inner.param_elems(i) > 0)
            .unwrap();
        assert!(inner.corrupt_param_bit(node, 1, 27));
        // Cadence-1 scrub repairs the flip before the next run executes.
        assert_eq!(run(&mut guarded, &x).unwrap(), clean);
        let s = guarded.stats();
        assert_eq!(s.checksum_mismatches, 1);
        assert_eq!(s.repairs, 1);
        assert!(s.repaired_bytes > 0);
        assert_eq!(s.corrupted_outputs, 0);
    }

    #[test]
    fn transient_nan_injection_trips_guard_and_recovers_via_retry() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default());
        guarded.calibrate([&x]).unwrap();
        let clean = run(&mut guarded, &x).unwrap();

        // Transient: corrupt only attempt 0; the retry runs clean.
        let mut out = Tensor::zeros([0]);
        guarded
            .run(&x, &mut out, &mut |attempt, idx, t| {
                if attempt == 0 && idx == 2 {
                    t.data_mut()[0] = f32::NAN;
                }
            })
            .unwrap();
        assert_eq!(out, clean);
        let s = guarded.stats();
        assert_eq!(s.guard_trips, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.corrupted_outputs, 0);
    }

    #[test]
    fn persistent_corruption_is_reported_as_typed_outcome() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default());
        guarded.calibrate([&x]).unwrap();

        // Persistent (stuck-at) fault: corrupts every attempt.
        let err = guarded
            .run(&x, &mut Tensor::zeros([0]), &mut |_, idx, t| {
                if idx == 2 {
                    t.data_mut()[0] = f32::INFINITY;
                }
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Corrupted { .. }));
        let s = guarded.stats();
        assert_eq!(s.guard_trips, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 0);
        assert_eq!(s.corrupted_outputs, 1);
    }

    #[test]
    fn out_of_envelope_values_trip_calibrated_guards() {
        let g = tiny_graph();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let prepared = Executor::new(&g).with_seed(5).prepare().unwrap();
        let mut guarded = GuardedExecutor::new(prepared, GuardConfig::default());
        guarded.calibrate([&x]).unwrap();

        // The value is injected on both attempts, so the retry trips too.
        let err = guarded
            .run(&x, &mut Tensor::zeros([0]), &mut |_, idx, t| {
                if idx == 1 {
                    // Far outside any conv output's clean range, but finite.
                    t.data_mut()[0] = 1e20;
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Corrupted { ref reason, .. } if reason == "out-of-envelope"
        ));
        assert_eq!(guarded.stats().guard_trips, 2);
        assert_eq!(guarded.stats().retries, 1);
    }

    #[test]
    fn events_render_stably() {
        let e = IntegrityEvent {
            inference: 4,
            node: 2,
            kind: IntegrityEventKind::Repaired { bytes: 512 },
        };
        assert_eq!(e.to_string(), "[i     4 n  2] repaired bytes=512");
        let t = IntegrityEvent {
            inference: 12,
            node: 0,
            kind: IntegrityEventKind::GuardTrip {
                trip: GuardTrip::NonFinite,
            },
        };
        assert_eq!(t.to_string(), "[i    12 n  0] guard-trip non-finite");
    }
}
