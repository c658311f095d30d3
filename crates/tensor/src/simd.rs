//! Runtime-dispatched register micro-kernels for the packed GEMM.
//!
//! Three implementations of the same contract, selected once per executor
//! (never per call site) behind [`resolve`]:
//!
//! * **`Avx2`** — explicit AVX2/FMA intrinsics, `#[target_feature]`-gated
//!   and reached only after `is_x86_feature_detected!` confirms the host
//!   supports it. Two 8-lane `ymm` accumulators per row, rows processed in
//!   bands of four so the working set (8 accumulators + 2 B vectors + 1
//!   broadcast) stays inside the 16 architectural `ymm` registers.
//! * **`Wide`** — a portable-SIMD-style shim (`F32x8`): fixed 8-lane
//!   `[f32; 8]` arithmetic the autovectorizer lowers to whatever the
//!   target ISA offers. Compiles on every architecture; the non-x86 and
//!   no-AVX2 SIMD path.
//! * **`Scalar`** — the original PR-5 scalar loop, kept verbatim as the
//!   ground-truth fallback and the `--kernel scalar` A/B baseline.
//!
//! The small-batch dense path has a *stream* kernel: one full-depth
//! prepacked B panel against at most `MR` input rows read in place, FMAs
//! issued for the valid rows only. The AVX-512 tier runs it from
//! registers; every other tier shares one portable loop.
//!
//! # Bitwise equivalence
//!
//! All three kernels perform, per output element, the **same sequence of
//! fused multiply-adds in strictly ascending `k`**. Vectorization spreads
//! *independent output elements* across lanes — it never reassociates a
//! reduction — and both `_mm256_fmadd_ps` and `f32::mul_add` are IEEE-754
//! fused operations with a single rounding. The three kernels are
//! therefore bit-identical on every input, which the unit tests here and
//! the workspace `numerical_equivalence` suite assert on raw panels and
//! whole models respectively.

/// Micro-kernel tile rows (register-blocked rows of `C`).
pub const MR: usize = 8;
/// Micro-kernel tile columns (register-blocked columns of `C`).
pub const NR: usize = 16;

/// User-facing kernel request, e.g. the CLI's `--kernel` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Pick the fastest kernel the host supports (AVX2 where detected,
    /// the portable wide shim otherwise).
    #[default]
    Auto,
    /// Force the scalar reference kernel.
    Scalar,
    /// Force a SIMD kernel: AVX2 when the host has it, else the portable
    /// wide shim (still lane-parallel after autovectorization).
    Simd,
}

impl KernelKind {
    /// Parses a CLI-style kernel name.
    pub fn from_name(s: &str) -> Option<KernelKind> {
        match s {
            "auto" => Some(KernelKind::Auto),
            "scalar" => Some(KernelKind::Scalar),
            "simd" => Some(KernelKind::Simd),
            _ => None,
        }
    }
}

/// A concrete, runtime-resolved micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Microkernel {
    /// Scalar `f32::mul_add` loops.
    Scalar,
    /// Portable 8-lane shim (`F32x8`).
    Wide,
    /// AVX2/FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
    /// AVX-512F intrinsics: the whole `NR`-wide tile row is one `zmm`
    /// accumulator and the A broadcast folds into the FMA as an
    /// embedded-broadcast operand (x86-64 only, runtime-detected).
    Avx512,
}

impl Microkernel {
    /// Short display name, printed by the CLI so A/B runs are labelled.
    pub fn name(self) -> &'static str {
        match self {
            Microkernel::Scalar => "scalar",
            Microkernel::Wide => "simd-wide",
            Microkernel::Avx2 => "avx2+fma",
            Microkernel::Avx512 => "avx512f",
        }
    }
}

/// Whether the host CPU offers an explicit vector path (AVX2/FMA at
/// minimum; [`resolve`] upgrades to AVX-512F where present).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the host CPU offers the AVX-512F path.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves a [`KernelKind`] request against the host, once per executor.
/// `Auto` and `Simd` both pick the widest detected vector path (AVX-512F,
/// then AVX2/FMA, then the portable wide shim) — the scalar kernel runs
/// only when explicitly forced (or via [`Microkernel::Scalar`] directly).
pub fn resolve(kind: KernelKind) -> Microkernel {
    match kind {
        KernelKind::Scalar => Microkernel::Scalar,
        KernelKind::Auto | KernelKind::Simd => {
            if avx512_available() {
                Microkernel::Avx512
            } else if simd_available() {
                Microkernel::Avx2
            } else {
                Microkernel::Wide
            }
        }
    }
}

/// Portable 8-lane f32 vector: the shim the [`Microkernel::Wide`] kernel
/// is written against. Plain arrays + `f32::mul_add`, so semantics are
/// exactly the scalar kernel's; the layout merely hands the
/// autovectorizer eight independent lanes per operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F32x8([f32; 8]);

impl F32x8 {
    /// Broadcasts one value to all lanes.
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> F32x8 {
        F32x8([v; 8])
    }

    /// Loads eight consecutive values.
    ///
    /// # Panics
    ///
    /// Panics if `s` has fewer than eight elements.
    #[inline(always)]
    pub(crate) fn load(s: &[f32]) -> F32x8 {
        F32x8(s[..8].try_into().expect("8 lanes"))
    }

    /// Stores the lanes into `out[..8]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than eight elements.
    #[inline(always)]
    pub(crate) fn store(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self.0);
    }

    /// Lane-wise fused multiply-add: `a * b + self`, one rounding per
    /// lane — the vector twin of `f32::mul_add`.
    #[inline(always)]
    pub(crate) fn fma(self, a: F32x8, b: F32x8) -> F32x8 {
        let mut out = [0.0f32; 8];
        for ((o, &x), (&y, &acc)) in out.iter_mut().zip(&a.0).zip(b.0.iter().zip(&self.0)) {
            *o = x.mul_add(y, acc);
        }
        F32x8(out)
    }
}

/// Runs the resolved micro-kernel over one packed `MR×kc` A micro-panel
/// and one packed `kc×NR` B panel, continuing the accumulation already in
/// `acc` (zeros for the first `KC` block, the reloaded `C` tile after).
///
/// The reduction order per element is strictly ascending `k` in every
/// implementation.
#[inline]
pub(crate) fn run(kernel: Microkernel, apan: &[f32], bpan: &[f32], kc: usize, acc: &mut Acc) {
    debug_assert!(apan.len() >= kc * MR && bpan.len() >= kc * NR);
    match kernel {
        Microkernel::Scalar => microkernel_scalar(apan, bpan, kc, acc),
        Microkernel::Wide => microkernel_wide(apan, bpan, kc, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields `Avx2`/`Avx512` after runtime
        // detection of the matching features; callers never construct them
        // on unsupported hosts (tests guard construction with the
        // `*_available` checks).
        Microkernel::Avx2 => unsafe { microkernel_avx2(apan, bpan, kc, acc) },
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx512 => unsafe { microkernel_avx512(apan, bpan, kc, acc) },
        #[cfg(not(target_arch = "x86_64"))]
        Microkernel::Avx2 | Microkernel::Avx512 => microkernel_wide(apan, bpan, kc, acc),
    }
}

/// The `MR×NR` accumulator tile the micro-kernels update in place.
pub(crate) type Acc = [[f32; NR]; MR];

/// Streams one full-depth `k×NR` B panel against the first `m ≤ MR` rows
/// of a row-major A (row `i`, depth `kk` at `a[i·lda + kk]`), continuing
/// the accumulation in `acc`'s first `m` rows — the small-batch path of
/// a dense layer whose weights were packed at prepare time.
///
/// A is read in place (a batch-1 activation is one short sequential
/// stream), only the `m` valid rows issue FMAs, and the panel is walked
/// once front to back, so a weight-bound layer reads its weights at
/// memory speed. Per element the reduction is the same ascending-`k`
/// fused multiply-add chain as [`run`]'s, so the two paths agree bit for
/// bit.
#[inline]
pub(crate) fn stream(
    kernel: Microkernel,
    (a, lda): (&[f32], usize),
    m: usize,
    bpan: &[f32],
    k: usize,
    acc: &mut Acc,
) {
    assert!(m <= MR && bpan.len() >= k * NR, "stream panel shape");
    assert!(m == 0 || a.len() >= (m - 1) * lda + k, "stream A shape");
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `run` — the variant implies runtime-detected
        // features, and the asserts above bound every pointer read.
        Microkernel::Avx512 => unsafe { stream_avx512((a, lda), m, bpan, k, acc) },
        // The scalar loop's inner statement runs over the NR independent
        // lanes of one tile row, so it autovectorizes to the build's
        // vector width; one portable stream kernel serves the other tiers.
        _ => stream_scalar((a, lda), m, bpan, k, acc),
    }
}

fn stream_scalar((a, lda): (&[f32], usize), m: usize, bpan: &[f32], k: usize, acc: &mut Acc) {
    for (kk, bv) in bpan.chunks_exact(NR).take(k).enumerate() {
        for (i, row) in acc.iter_mut().enumerate().take(m) {
            let ai = a[i * lda + kk];
            for (slot, &bj) in row.iter_mut().zip(bv) {
                *slot = ai.mul_add(bj, *slot);
            }
        }
    }
}

/// AVX-512 stream: one `zmm` accumulator per valid row, held in
/// registers across the whole panel depth — one B load per `k` step and
/// `m` embedded-broadcast FMAs. The portable loop keeps its rows in `acc`
/// and reaches about 70% of this kernel's weight bandwidth at batch 1 on
/// AlexNet fc6 (see DESIGN.md).
///
/// # Safety
///
/// The host must support AVX-512F; [`stream`] bounds the reads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn stream_avx512(
    (a, lda): (&[f32], usize),
    m: usize,
    bpan: &[f32],
    k: usize,
    acc: &mut Acc,
) {
    let (ap, bp) = (a.as_ptr(), bpan.as_ptr());
    match m {
        0 => {}
        1 => stream_avx512_rows::<1>(ap, lda, bp, k, acc),
        2 => stream_avx512_rows::<2>(ap, lda, bp, k, acc),
        3 => stream_avx512_rows::<3>(ap, lda, bp, k, acc),
        4 => stream_avx512_rows::<4>(ap, lda, bp, k, acc),
        5 => stream_avx512_rows::<5>(ap, lda, bp, k, acc),
        6 => stream_avx512_rows::<6>(ap, lda, bp, k, acc),
        7 => stream_avx512_rows::<7>(ap, lda, bp, k, acc),
        _ => stream_avx512_rows::<MR>(ap, lda, bp, k, acc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn stream_avx512_rows<const R: usize>(
    ap: *const f32,
    lda: usize,
    bp: *const f32,
    k: usize,
    acc: &mut Acc,
) {
    use core::arch::x86_64::*;
    let mut c = [_mm512_setzero_ps(); R];
    for (row, acc) in c.iter_mut().zip(acc.iter()) {
        *row = _mm512_loadu_ps(acc.as_ptr());
    }
    for kk in 0..k {
        let b = _mm512_loadu_ps(bp.add(kk * NR));
        for (i, row) in c.iter_mut().enumerate() {
            *row = _mm512_fmadd_ps(_mm512_set1_ps(*ap.add(i * lda + kk)), b, *row);
        }
    }
    for (row, acc) in c.iter().zip(acc.iter_mut()) {
        _mm512_storeu_ps(acc.as_mut_ptr(), *row);
    }
}

/// The PR-5 scalar kernel, verbatim: ground truth for the SIMD paths.
fn microkernel_scalar(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut Acc) {
    for (av, bv) in apan.chunks_exact(MR).zip(bpan.chunks_exact(NR)).take(kc) {
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = av[i];
            for (slot, &bj) in row.iter_mut().zip(bv) {
                *slot = ai.mul_add(bj, *slot);
            }
        }
    }
}

/// The portable wide-shim kernel: identical arithmetic to the scalar
/// kernel, expressed as 8-lane [`F32x8`] operations over independent
/// output columns.
fn microkernel_wide(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut Acc) {
    let mut lanes = [[F32x8::splat(0.0); 2]; MR];
    for (l, row) in lanes.iter_mut().zip(acc.iter()) {
        l[0] = F32x8::load(&row[..8]);
        l[1] = F32x8::load(&row[8..]);
    }
    for (av, bv) in apan.chunks_exact(MR).zip(bpan.chunks_exact(NR)).take(kc) {
        let b0 = F32x8::load(&bv[..8]);
        let b1 = F32x8::load(&bv[8..]);
        for (i, l) in lanes.iter_mut().enumerate() {
            let a = F32x8::splat(av[i]);
            l[0] = l[0].fma(a, b0);
            l[1] = l[1].fma(a, b1);
        }
    }
    for (l, row) in lanes.iter().zip(acc.iter_mut()) {
        l[0].store(&mut row[..8]);
        l[1].store(&mut row[8..]);
    }
}

/// The explicit AVX2/FMA kernel. Rows run in two bands of four so the
/// eight accumulators, two B vectors and one broadcast stay in registers.
///
/// # Safety
///
/// The host must support AVX2 and FMA (checked by [`resolve`] /
/// [`simd_available`] before this variant is ever constructed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut Acc) {
    use core::arch::x86_64::*;
    debug_assert!(apan.len() >= kc * MR && bpan.len() >= kc * NR);
    let ap = apan.as_ptr();
    let bp = bpan.as_ptr();
    for band in 0..2 {
        let r0 = band * 4;
        let mut c: [[__m256; 2]; 4] = [[_mm256_setzero_ps(); 2]; 4];
        for (i, row) in c.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(acc[r0 + i].as_ptr());
            row[1] = _mm256_loadu_ps(acc[r0 + i].as_ptr().add(8));
        }
        // Four k-steps per iteration: eight independent accumulator chains
        // per band is marginal for the ~4-cycle FMA latency at two FMAs per
        // cycle, and the loop-carried pointer/branch overhead competes with
        // the loads for front-end slots — a deeper unroll amortizes both.
        // The accumulation *order* per element is unchanged: step `4i+j`
        // still retires into the chain before step `4i+j+1`.
        let quads = kc / 4;
        for kq in 0..quads {
            let bq = bp.add(kq * 4 * NR);
            let aq = ap.add(kq * 4 * MR + r0);
            for step in 0..4 {
                let b0 = _mm256_loadu_ps(bq.add(step * NR));
                let b1 = _mm256_loadu_ps(bq.add(step * NR + 8));
                let arow = aq.add(step * MR);
                for (i, row) in c.iter_mut().enumerate() {
                    let a = _mm256_broadcast_ss(&*arow.add(i));
                    row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                    row[1] = _mm256_fmadd_ps(a, b1, row[1]);
                }
            }
        }
        for kk in quads * 4..kc {
            let b0 = _mm256_loadu_ps(bp.add(kk * NR));
            let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
            let arow = ap.add(kk * MR + r0);
            for (i, row) in c.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*arow.add(i));
                row[0] = _mm256_fmadd_ps(a, b0, row[0]);
                row[1] = _mm256_fmadd_ps(a, b1, row[1]);
            }
        }
        for (i, row) in c.iter().enumerate() {
            _mm256_storeu_ps(acc[r0 + i].as_mut_ptr(), row[0]);
            _mm256_storeu_ps(acc[r0 + i].as_mut_ptr().add(8), row[1]);
        }
    }
}

/// The AVX-512F kernel: each of the `MR` tile rows is exactly one 16-lane
/// `zmm` accumulator, so the full 8×16 tile lives in eight registers, B
/// costs one load per `k` step, and the A broadcasts fold into the FMAs as
/// embedded-broadcast operands — the lowest front-end pressure of the
/// kernel family.
///
/// # Safety
///
/// The host must support AVX-512F (checked by [`resolve`] /
/// [`avx512_available`] before this variant is ever constructed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(apan: &[f32], bpan: &[f32], kc: usize, acc: &mut Acc) {
    use core::arch::x86_64::*;
    debug_assert!(apan.len() >= kc * MR && bpan.len() >= kc * NR);
    let ap = apan.as_ptr();
    let bp = bpan.as_ptr();
    let mut c: [__m512; MR] = [_mm512_setzero_ps(); MR];
    for (i, row) in c.iter_mut().enumerate() {
        *row = _mm512_loadu_ps(acc[i].as_ptr());
    }
    // Two k-steps per iteration: eight accumulator chains cover the FMA
    // latency-throughput product exactly, and the unroll halves the
    // loop-carried overhead. Order per element is still ascending k.
    let pairs = kc / 2;
    for kp in 0..pairs {
        let kk = kp * 2;
        let b0 = _mm512_loadu_ps(bp.add(kk * NR));
        let b1 = _mm512_loadu_ps(bp.add((kk + 1) * NR));
        let arow = ap.add(kk * MR);
        for (i, row) in c.iter_mut().enumerate() {
            let a0 = _mm512_set1_ps(*arow.add(i));
            *row = _mm512_fmadd_ps(a0, b0, *row);
            let a1 = _mm512_set1_ps(*arow.add(MR + i));
            *row = _mm512_fmadd_ps(a1, b1, *row);
        }
    }
    if kc % 2 == 1 {
        let kk = kc - 1;
        let b0 = _mm512_loadu_ps(bp.add(kk * NR));
        let arow = ap.add(kk * MR);
        for (i, row) in c.iter_mut().enumerate() {
            let a0 = _mm512_set1_ps(*arow.add(i));
            *row = _mm512_fmadd_ps(a0, b0, *row);
        }
    }
    for (i, row) in c.iter().enumerate() {
        _mm512_storeu_ps(acc[i].as_mut_ptr(), *row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Random packed panels (including non-trivial accumulator seeds) for
    /// a given depth.
    fn panels(kc: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Acc) {
        let a = Tensor::random([kc * MR], seed);
        let b = Tensor::random([kc * NR], seed ^ 0x5a5a);
        let init = Tensor::random([MR * NR], seed ^ 0xfeed);
        let mut acc = [[0.0f32; NR]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&init.data()[i * NR..(i + 1) * NR]);
        }
        (a.data().to_vec(), b.data().to_vec(), acc)
    }

    #[test]
    fn wide_kernel_is_bitwise_identical_to_scalar() {
        for kc in [1usize, 2, 7, 64, 255] {
            let (a, b, acc0) = panels(kc, kc as u64);
            let (mut s, mut w) = (acc0, acc0);
            microkernel_scalar(&a, &b, kc, &mut s);
            microkernel_wide(&a, &b, kc, &mut w);
            assert_eq!(s, w, "kc={kc}");
        }
    }

    #[test]
    fn vector_kernels_are_bitwise_identical_to_scalar_when_available() {
        let mut kernels = Vec::new();
        if simd_available() {
            kernels.push(Microkernel::Avx2);
        }
        if avx512_available() {
            kernels.push(Microkernel::Avx512);
        }
        for kernel in kernels {
            for kc in [1usize, 3, 17, 128, 300] {
                let (a, b, acc0) = panels(kc, 1000 + kc as u64);
                let (mut s, mut v) = (acc0, acc0);
                microkernel_scalar(&a, &b, kc, &mut s);
                run(kernel, &a, &b, kc, &mut v);
                assert_eq!(s, v, "{kernel:?} kc={kc}");
            }
        }
    }

    #[test]
    fn stream_is_bitwise_identical_to_the_micro_kernel_for_every_row_count() {
        // The stream path reads A rows in place and FMAs only the valid
        // rows; the micro-kernel reads an MR-row packed panel. Every row
        // count, ragged depths and a row stride wider than the depth must
        // give identical bits.
        let mut kernels = vec![Microkernel::Scalar, Microkernel::Wide];
        if simd_available() {
            kernels.push(Microkernel::Avx2);
        }
        if avx512_available() {
            kernels.push(Microkernel::Avx512);
        }
        for k in [1usize, 3, 17, 513, 1100] {
            let lda = k + 5;
            for m in 0..=MR {
                let a = Tensor::random([MR * lda], 7 * k as u64 + m as u64);
                let (_, b, acc0) = panels(k, 31 + k as u64);
                let mut apan = vec![0.0f32; k * MR];
                for i in 0..m {
                    for kk in 0..k {
                        apan[kk * MR + i] = a.data()[i * lda + kk];
                    }
                }
                let mut want = acc0;
                microkernel_scalar(&apan, &b, k, &mut want);
                for &kernel in &kernels {
                    let mut got = acc0;
                    stream(kernel, (a.data(), lda), m, &b, k, &mut got);
                    assert_eq!(got[..m], want[..m], "{kernel:?} m={m} k={k}");
                    assert_eq!(got[m..], acc0[m..], "{kernel:?} m={m} k={k}: rows past m");
                }
            }
        }
    }

    #[test]
    fn resolve_honours_the_request() {
        assert_eq!(resolve(KernelKind::Scalar), Microkernel::Scalar);
        let auto = resolve(KernelKind::Auto);
        assert_ne!(auto, Microkernel::Scalar, "Auto must pick a SIMD path");
        assert_eq!(auto, resolve(KernelKind::Simd));
        if avx512_available() {
            assert_eq!(auto, Microkernel::Avx512);
        } else if simd_available() {
            assert_eq!(auto, Microkernel::Avx2);
        } else {
            assert_eq!(auto, Microkernel::Wide);
        }
    }

    #[test]
    fn kernel_kind_parses_cli_names() {
        assert_eq!(KernelKind::from_name("auto"), Some(KernelKind::Auto));
        assert_eq!(KernelKind::from_name("scalar"), Some(KernelKind::Scalar));
        assert_eq!(KernelKind::from_name("simd"), Some(KernelKind::Simd));
        assert_eq!(KernelKind::from_name("gpu"), None);
    }

    #[test]
    fn kernel_continuation_matches_single_pass() {
        // Splitting k into two blocks with an exact store/reload of the
        // accumulator tile must reproduce the single-pass bits — the
        // property KC blocking relies on.
        let kc = 96;
        let (a, b, acc0) = panels(kc, 77);
        let mut once = acc0;
        microkernel_scalar(&a, &b, kc, &mut once);
        let mut kernels = vec![Microkernel::Scalar, Microkernel::Wide];
        if simd_available() {
            kernels.push(Microkernel::Avx2);
        }
        if avx512_available() {
            kernels.push(Microkernel::Avx512);
        }
        for kernel in kernels {
            let mut split = acc0;
            run(kernel, &a, &b, 40, &mut split);
            // Round-trip through memory, as the blocked driver does.
            let spill = split;
            let mut resumed = spill;
            run(kernel, &a[40 * MR..], &b[40 * NR..], kc - 40, &mut resumed);
            assert_eq!(once, resumed, "{kernel:?}");
        }
    }
}
