//! Runtime-dispatched SIMD kernels: the packed GEMM's register
//! micro-kernel, its small-batch stream kernel, depthwise convolution and
//! the precision lowering (f16 rounding and int8 fake quantization).
//!
//! One [`Microkernel`] tier is resolved per executor (never per call site)
//! behind [`resolve`], and every kernel here runs on it:
//!
//! * **`Avx512`** — AVX-512F intrinsics, reached only after
//!   `is_x86_feature_detected!` confirms the host supports them. The GEMM
//!   tile row is one 16-lane `zmm` accumulator; the stream kernel holds
//!   its rows in registers; depthwise holds 16 output columns per `zmm`;
//!   the lowering passes take 16 elements per `zmm`, with a masked tail.
//! * **`Avx2`** — AVX2/FMA intrinsics for the GEMM micro-kernel: two
//!   8-lane `ymm` accumulators per row, rows in bands of four so the
//!   working set stays inside the 16 architectural `ymm` registers. The
//!   int8 lowering takes 8 elements per `ymm`, and so does the f16
//!   rounding where F16C is detected too.
//! * **`Wide`** — a portable-SIMD-style shim (`F32x8`): fixed 8-lane
//!   `[f32; 8]` arithmetic the autovectorizer lowers to whatever the
//!   target ISA offers. Compiles on every architecture.
//! * **`Scalar`** — the reference loops, kept verbatim as the ground
//!   truth and the `--kernel scalar` A/B baseline.
//!
//! Below AVX-512, the stream kernel and depthwise each share one portable
//! loop across `Avx2`, `Wide` and non-x86 builds; the lowering passes run
//! the scalar reference on `Wide` and non-x86 builds.
//!
//! # Bitwise equivalence
//!
//! Every tier performs, per output element, the same sequence of rounded
//! operations as the reference; vectorization spreads *independent output
//! elements* across lanes and never reassociates a reduction. The GEMM
//! kernels issue fused multiply-adds in strictly ascending `k` —
//! `_mm256/_mm512_fmadd_ps` and `f32::mul_add` round once alike. Depthwise
//! repeats `kernels::depthwise_conv2d_into`'s unfused `acc += x * w` per
//! in-range tap in ascending `(ky, kx)`, and the AVX-512 tier skips an
//! out-of-range tap with masked loads and a masked add instead of adding a
//! zero-padded term. The lowering passes work element by element, so
//! there is no order to keep: each lane repeats the reference's rounding
//! exactly, with NaNs, infinities and subnormals included (see
//! [`round_f16`] and [`fake_quantize`]). The tiers are therefore
//! bit-identical on every input, which the unit tests here and the
//! workspace `numerical_equivalence` suite assert on raw kernels and whole
//! models respectively.

use crate::quant::{self, QuantParams};
use crate::{f16, kernels, Tensor};
use edgebench_graph::TensorShape;

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
    /// The scalar reference loops.
    Scalar,
    /// Portable 8-lane shim (`F32x8`); depthwise runs the portable loop.
    Wide,
    /// AVX2/FMA intrinsics (x86-64 only, runtime-detected); depthwise runs
    /// the portable loop.
    Avx2,
    /// AVX-512F intrinsics: the whole `NR`-wide tile row is one `zmm`
    /// accumulator and the A broadcast folds into the FMA as an
    /// embedded-broadcast operand; depthwise holds 16 output columns per
    /// `zmm` (x86-64 only, runtime-detected).
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

/// Depthwise 2-D convolution on `kernel`'s tier: the executor's path for
/// `Op::DepthwiseConv2d`, alone and inside `FusedConvBnAct`. Arguments and
/// panics are those of [`kernels::depthwise_conv2d_into`], which is the
/// `Scalar` tier; `masks` is a reusable buffer for the AVX-512 tier's
/// column masks.
///
/// Every tier repeats the reference's arithmetic per output element: start
/// from the bias (`+0.0` without one), then add each in-range tap in
/// ascending `(ky, kx)` as a rounded `x * w` followed by a rounded add —
/// no FMA, since the reference's `acc += x * w` is not contracted.
/// Out-of-range taps are skipped, never zero-padded: a weight flipped to
/// ±Inf or NaN would turn a padded `0 · w` into NaN where the reference
/// stays finite.
#[allow(clippy::too_many_arguments)]
pub(crate) fn depthwise(
    kernel: Microkernel,
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
    multiplier: usize,
    out: &mut Tensor,
    masks: &mut Vec<TapMask>,
) {
    if kernel == Microkernel::Scalar {
        kernels::depthwise_conv2d_into(x, weight, bias, stride, padding, multiplier, out);
        return;
    }
    let g = DwGeom::new(x, weight, stride, padding, multiplier);
    let planes = g.n * g.in_c * multiplier;
    assert_eq!(out.len(), planes * g.oh * g.ow, "depthwise output mismatch");
    let (x, w, out) = (x.data(), weight.data(), out.data_mut());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant implies runtime-detected AVX-512F (as in
        // `run`). `DwGeom::plane` bounds-checks each plane's input and
        // weights, the kernel addresses only in-range rows of them, and
        // the masks just built for `g` keep every load inside its row; a
        // store covers only its block's live output columns.
        Microkernel::Avx512 if stride.1 <= 2 => unsafe {
            g.fill_masks(masks);
            if stride.1 == 1 {
                depthwise_avx512::<1>(&g, x, w, bias, out, masks)
            } else {
                depthwise_avx512::<2>(&g, x, w, bias, out, masks)
            }
        },
        _ => depthwise_portable(&g, x, w, bias, out),
    }
}

/// The geometry of one depthwise call, shared by every tier.
#[derive(Debug, Clone, Copy)]
struct DwGeom {
    n: usize,
    in_c: usize,
    multiplier: usize,
    ih: usize,
    iw: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: (usize, usize),
    padding: (usize, usize),
}

impl DwGeom {
    fn new(
        x: &Tensor,
        weight: &Tensor,
        stride: (usize, usize),
        padding: (usize, usize),
        multiplier: usize,
    ) -> DwGeom {
        let d = x.shape().dims();
        assert_eq!(d.len(), 4, "expected rank-4 tensor, got {}", x.shape());
        let wd = weight.shape().dims();
        let (ih, iw, kh, kw) = (d[2], d[3], wd[2], wd[3]);
        let extent = TensorShape::conv_out_extent;
        DwGeom {
            n: d[0],
            in_c: d[1],
            multiplier,
            ih,
            iw,
            kh,
            kw,
            oh: extent(ih, kh, stride.0, padding.0).expect("kernel fits"),
            ow: extent(iw, kw, stride.1, padding.1).expect("kernel fits"),
            stride,
            padding,
        }
    }

    /// Input plane, weights and bias of output plane `plane` (`b·out_c + oc`).
    fn plane<'a>(
        &self,
        plane: usize,
        x: &'a [f32],
        w: &'a [f32],
        bias: Option<&[f32]>,
    ) -> (&'a [f32], &'a [f32], f32) {
        let out_c = self.in_c * self.multiplier;
        let (b, oc) = (plane / out_c, plane % out_c);
        let (hw, taps) = (self.ih * self.iw, self.kh * self.kw);
        let xp = (b * self.in_c + oc / self.multiplier) * hw;
        let b0 = bias.map_or(0.0, |bv| bv[oc]);
        (&x[xp..xp + hw], &w[oc * taps..(oc + 1) * taps], b0)
    }

    /// The in-range kernel rows of output row `oy`; kernel row `ky` reads
    /// input row `oy·sh + ky − ph`.
    fn rows(&self, oy: usize) -> std::ops::Range<usize> {
        let (top, ph) = (oy * self.stride.0, self.padding.0);
        let hi = (self.ih + ph).saturating_sub(top).min(self.kh);
        let lo = ph.saturating_sub(top).min(hi);
        lo..hi
    }

    /// Output columns whose `kw` taps all fall inside the input row.
    fn inner_cols(&self) -> std::ops::Range<usize> {
        let (sw, pw) = (self.stride.1, self.padding.1);
        let lo = pw.div_ceil(sw).min(self.ow);
        let hi = match (self.iw + pw).checked_sub(self.kw) {
            Some(last) => (last / sw + 1).min(self.ow),
            None => 0,
        };
        lo..hi.max(lo)
    }

    /// Rebuilds `masks` as the AVX-512 tier's per-call table: one
    /// [`TapMask`] per 16-column output block and kernel column, so no
    /// channel plane recomputes them.
    fn fill_masks(&self, masks: &mut Vec<TapMask>) {
        let (sw, pw) = (self.stride.1, self.padding.1);
        // Bit `i` set where input column `first + i` lies inside the row.
        let in_row = |first: isize, lanes: usize| -> u32 {
            (0..lanes).fold(0, |m, i| {
                let c = first + i as isize;
                m | (u32::from(c >= 0 && c < self.iw as isize) << i)
            })
        };
        masks.clear();
        for ox0 in (0..self.ow).step_by(16) {
            let live = (self.ow - ox0).min(16);
            for kx in 0..self.kw {
                let first = (ox0 * sw + kx) as isize - pw as isize;
                let lanes = in_row(first, 16 * sw);
                masks.push(TapMask {
                    add: (0..live).fold(0, |m, j| m | (((lanes >> (j * sw)) & 1) as u16) << j),
                    lo: lanes as u16,
                    hi: (lanes >> 16) as u16,
                });
            }
        }
    }
}

/// The AVX-512 depthwise tier's masks for one output block and kernel
/// column: the lanes whose tap is in range (`add`), and the in-row lanes
/// of the 16 (`lo`) and, at stride 2, the next 16 (`hi`) input columns the
/// block's loads read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TapMask {
    add: u16,
    lo: u16,
    hi: u16,
}

/// The portable depthwise tier, shared by `Wide`, `Avx2`, every non-x86
/// build and strides above 2. Each output row is a branch-free interior,
/// accumulated tap by tap across its columns (the loop the compiler
/// vectorizes), plus scalar border columns that skip out-of-range taps.
fn depthwise_portable(g: &DwGeom, x: &[f32], w: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
    let (sw, pw, kw) = (g.stride.1, g.padding.1, g.kw);
    let inner = g.inner_cols();
    for (plane, oplane) in out.chunks_exact_mut(g.oh * g.ow).enumerate() {
        let (xp, wp, b0) = g.plane(plane, x, w, bias);
        for (oy, orow) in oplane.chunks_exact_mut(g.ow).enumerate() {
            let kys = g.rows(oy);
            let xrow = |ky: usize| {
                let iy = oy * g.stride.0 + ky - g.padding.0;
                &xp[iy * g.iw..(iy + 1) * g.iw]
            };
            for ox in (0..inner.start).chain(inner.end..g.ow) {
                let mut acc = b0;
                for ky in kys.clone() {
                    let (xr, wr) = (xrow(ky), &wp[ky * kw..(ky + 1) * kw]);
                    for (kx, &wv) in wr.iter().enumerate() {
                        let ix = ox * sw + kx;
                        if ix >= pw && ix - pw < g.iw {
                            acc += xr[ix - pw] * wv;
                        }
                    }
                }
                orow[ox] = acc;
            }
            if inner.is_empty() {
                continue;
            }
            let o = &mut orow[inner.clone()];
            o.fill(b0);
            for ky in kys {
                let (xr, wr) = (xrow(ky), &wp[ky * kw..(ky + 1) * kw]);
                for (kx, &wv) in wr.iter().enumerate() {
                    let xs = &xr[inner.start * sw - pw + kx..];
                    // `step_by` keeps the loop scalar: at stride 1 the plain
                    // zip ran a 144×56×56 layer about 4× faster.
                    if sw == 1 {
                        for (a, &v) in o.iter_mut().zip(xs) {
                            *a += v * wv;
                        }
                    } else {
                        for (a, &v) in o.iter_mut().zip(xs.iter().step_by(sw)) {
                            *a += v * wv;
                        }
                    }
                }
            }
        }
    }
}

/// The AVX-512 depthwise tier at column stride `S` (1 or 2): 16 output
/// columns per `zmm`, every tap a masked load, a multiply by the broadcast
/// weight and a masked add, so a lane whose tap is out of range keeps its
/// accumulator untouched.
///
/// # Safety
///
/// The host must support AVX-512F, `S` must be `g.stride.1`, the slices
/// must hold `g`'s planes, and `masks` must come from [`DwGeom::fill_masks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn depthwise_avx512<const S: usize>(
    g: &DwGeom,
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    masks: &[TapMask],
) {
    use core::arch::x86_64::*;
    // Lane j of a stride-2 block reads element 2j of its two loads.
    let evens = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    let pw = g.padding.1 as isize;
    for (plane, oplane) in out.chunks_exact_mut(g.oh * g.ow).enumerate() {
        let (xp, wp, b0) = g.plane(plane, x, w, bias);
        let b0 = _mm512_set1_ps(b0);
        for (oy, orow) in oplane.chunks_exact_mut(g.ow).enumerate() {
            let top = (oy * g.stride.0) as isize - g.padding.0 as isize;
            let kys = g.rows(oy);
            for (blk, taps) in masks.chunks_exact(g.kw).enumerate() {
                let ox0 = blk * 16;
                let mut acc = b0;
                for ky in kys.clone() {
                    let xr = xp.as_ptr().offset((top + ky as isize) * g.iw as isize);
                    let wr = wp.as_ptr().add(ky * g.kw);
                    for (kx, t) in taps.iter().enumerate() {
                        // May point before or past the row: only the
                        // in-row lanes of `t` are read.
                        let p = xr.wrapping_offset((ox0 * S + kx) as isize - pw);
                        let v = if S == 1 {
                            _mm512_maskz_loadu_ps(t.lo, p)
                        } else {
                            let lo = _mm512_maskz_loadu_ps(t.lo, p);
                            let hi = _mm512_maskz_loadu_ps(t.hi, p.wrapping_add(16));
                            _mm512_permutex2var_ps(lo, evens, hi)
                        };
                        let prod = _mm512_mul_ps(v, _mm512_set1_ps(*wr.add(kx)));
                        acc = _mm512_mask_add_ps(acc, t.add, acc, prod);
                    }
                }
                let live = (g.ow - ox0).min(16);
                _mm512_mask_storeu_ps(orow.as_mut_ptr().add(ox0), ((1u32 << live) - 1) as u16, acc);
            }
        }
    }
}

/// Rounds every element of `xs` through binary16 in place on `kernel`'s
/// tier: the executor's f16 lowering of weights and node outputs. The
/// software conversion of [`f16::round_f16`] is the `Scalar` tier; `Wide`,
/// non-x86 builds and a tier the host lacks (`Avx2` without F16C, say) run
/// it too.
///
/// The vector tiers convert with `vcvtps2ph` at round-to-nearest-even and
/// back with `vcvtph2ps`, which is exact. The hardware keeps the top bits
/// of a NaN's payload and the reference does not, so a NaN lane becomes
/// `sign | 0x7fc0_0000`, the quiet NaN [`f16::round_f16`] returns. Every
/// other input, subnormals and overflow to ±Inf included, converts to the
/// reference's bits.
pub fn round_f16(kernel: Microkernel, xs: &mut [f32]) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F is detected here (this function is public, so
        // the variant alone proves nothing); the kernel reads and writes
        // only `xs`.
        Microkernel::Avx512 if avx512_available() => unsafe { round_f16_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx2 if simd_available() && std::arch::is_x86_feature_detected!("f16c") => {
            // SAFETY: AVX2 and F16C are detected here; the kernel reads
            // and writes only `xs`.
            unsafe { round_f16_f16c(xs) }
        }
        _ => f16::round_slice_f16(xs),
    }
}

/// The int8 grid of `xs`'s observed range, found on `kernel`'s tier; the
/// first pass of [`fake_quantize`]. `Scalar`, `Wide`, non-x86 builds and a
/// tier the host lacks run the reference loop.
///
/// The vector tiers keep a lane-wise minimum and maximum. `vminps` and
/// `vmaxps` return their second operand when either is NaN, so with the
/// accumulator second a NaN element leaves it as it was, as `f32::min` and
/// `f32::max` skip NaN. A lane may keep `-0.0` where the reference keeps
/// `0.0`, or the reverse; [`QuantParams::from_range`] widens every range
/// to contain zero, so the grid is the same.
pub fn quant_params(kernel: Microkernel, xs: &[f32]) -> QuantParams {
    let (min, max) = match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F is detected here (as in `round_f16`); the
        // kernel reads only `xs`.
        Microkernel::Avx512 if avx512_available() => unsafe { range_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 is detected here; the kernel reads only `xs`.
        Microkernel::Avx2 if simd_available() => unsafe { range_avx2(xs) },
        _ => return QuantParams::observe_slice(xs),
    };
    QuantParams::from_observed(min, max)
}

/// Rounds every element of `xs` through its own int8 grid in place on
/// `kernel`'s tier and returns the grid: the executor's int8 lowering of
/// weights and node outputs. The loop of [`QuantParams::quantize`] and
/// [`QuantParams::dequantize`] is the `Scalar` tier; `Wide`, non-x86
/// builds and a tier the host lacks run it too.
///
/// The vector tiers find the grid with [`quant_params`], then repeat
/// [`QuantParams::quantize`] and [`QuantParams::dequantize`] per lane: the
/// same divide by the scale; `f32::round`'s half-away-from-zero as a
/// truncation plus one step away from zero where the dropped fraction
/// (exact) is at least 0.5; the zero-point add and the clamp to
/// `[-128, 127]` in float, which equal the reference's saturating integer
/// ones; NaN to the zero point, as the saturating cast sends it to 0; and
/// the same `(q − zero_point) · scale`.
pub fn fake_quantize(kernel: Microkernel, xs: &mut [f32]) -> QuantParams {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx512 if avx512_available() => {
            let p = quant_params(kernel, xs);
            // SAFETY: AVX-512F is detected here (as in `round_f16`); the
            // kernel reads and writes only `xs`.
            unsafe { fake_quant_avx512(xs, p) };
            p
        }
        #[cfg(target_arch = "x86_64")]
        Microkernel::Avx2 if simd_available() => {
            let p = quant_params(kernel, xs);
            // SAFETY: AVX2 is detected here; the kernel reads and writes
            // only `xs`.
            unsafe { fake_quant_avx2(xs, p) };
            p
        }
        _ => quant::fake_quantize_slice(xs),
    }
}

/// The AVX-512 mask of the first `live` lanes, all 16 from 16 on.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_mask(live: usize) -> u16 {
    if live >= 16 {
        u16::MAX
    } else {
        (1u16 << live) - 1
    }
}

/// [`round_f16`] on AVX-512F, 16 lanes per step and a masked tail.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn round_f16_avx512(xs: &mut [f32]) {
    use core::arch::x86_64::*;
    let (sign, quiet) = (_mm512_set1_epi32(i32::MIN), _mm512_set1_epi32(0x7fc0_0000));
    let (p, n) = (xs.as_mut_ptr(), xs.len());
    for i in (0..n).step_by(16) {
        let m = lane_mask(n - i);
        let x = _mm512_maskz_loadu_ps(m, p.add(i));
        let h = _mm512_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(x);
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        let canon = _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(x), sign), quiet);
        let r = _mm512_mask_blend_ps(nan, _mm512_cvtph_ps(h), _mm512_castsi512_ps(canon));
        _mm512_mask_storeu_ps(p.add(i), m, r);
    }
}

/// [`round_f16`] on AVX2 with F16C, 8 lanes per step; the tail of fewer
/// than 8 runs the reference.
///
/// # Safety
///
/// The host must support AVX2 and F16C.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "f16c")]
unsafe fn round_f16_f16c(xs: &mut [f32]) {
    use core::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let quiet = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc0_0000));
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let x = _mm256_loadu_ps(c.as_ptr());
        let r = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
        let canon = _mm256_or_ps(_mm256_and_ps(x, sign), quiet);
        _mm256_storeu_ps(c.as_mut_ptr(), _mm256_blendv_ps(r, canon, nan));
    }
    f16::round_slice_f16(chunks.into_remainder());
}

/// [`quant_params`]'s range pass on AVX-512F: the smallest and largest
/// non-NaN element, `(+Inf, -Inf)` when there is none.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn range_avx512(xs: &[f32]) -> (f32, f32) {
    use core::arch::x86_64::*;
    let mut lo = _mm512_set1_ps(f32::INFINITY);
    let mut hi = _mm512_set1_ps(f32::NEG_INFINITY);
    let (p, n) = (xs.as_ptr(), xs.len());
    for i in (0..n).step_by(16) {
        let m = lane_mask(n - i);
        let x = _mm512_maskz_loadu_ps(m, p.add(i));
        lo = _mm512_mask_min_ps(lo, m, x, lo);
        hi = _mm512_mask_max_ps(hi, m, x, hi);
    }
    (_mm512_reduce_min_ps(lo), _mm512_reduce_max_ps(hi))
}

/// [`quant_params`]'s range pass on AVX2; the lanes and the tail of
/// fewer than 8 fold in with `f32::min` and `f32::max`.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn range_avx2(xs: &[f32]) -> (f32, f32) {
    use core::arch::x86_64::*;
    let mut lo = _mm256_set1_ps(f32::INFINITY);
    let mut hi = _mm256_set1_ps(f32::NEG_INFINITY);
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        let x = _mm256_loadu_ps(c.as_ptr());
        lo = _mm256_min_ps(x, lo);
        hi = _mm256_max_ps(x, hi);
    }
    let (mut los, mut his) = ([0.0f32; 8], [0.0f32; 8]);
    _mm256_storeu_ps(los.as_mut_ptr(), lo);
    _mm256_storeu_ps(his.as_mut_ptr(), hi);
    let min = los.iter().chain(tail).fold(f32::INFINITY, |m, &v| m.min(v));
    let max = his
        .iter()
        .chain(tail)
        .fold(-f32::INFINITY, |m, &v| m.max(v));
    (min, max)
}

/// [`fake_quantize`]'s rounding pass on AVX-512F, 16 lanes per step and a
/// masked tail.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fake_quant_avx512(xs: &mut [f32], q: QuantParams) {
    use core::arch::x86_64::*;
    let scale = _mm512_set1_ps(q.scale());
    let zp = _mm512_set1_ps(q.zero_point() as f32);
    let (lo, hi) = (_mm512_set1_ps(-128.0), _mm512_set1_ps(127.0));
    let half = _mm512_set1_ps(0.5);
    let (sign, one) = (_mm512_set1_epi32(i32::MIN), _mm512_set1_epi32(0x3f80_0000));
    let (p, n) = (xs.as_mut_ptr(), xs.len());
    for i in (0..n).step_by(16) {
        let m = lane_mask(n - i);
        let x = _mm512_maskz_loadu_ps(m, p.add(i));
        let y = _mm512_div_ps(x, scale);
        // `f32::round`: truncate, then step ±1 away from zero where the
        // dropped fraction, which `y − t` holds exactly, is at least 0.5.
        let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(y);
        let away = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_abs_ps(_mm512_sub_ps(y, t)), half);
        let step = _mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(y), sign), one);
        let r = _mm512_mask_add_ps(t, away, t, _mm512_castsi512_ps(step));
        // Saturate in float, and send NaN where the reference's cast
        // sends it: to the zero point.
        let code = _mm512_min_ps(_mm512_max_ps(_mm512_add_ps(r, zp), lo), hi);
        let code = _mm512_mask_mov_ps(code, _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), zp);
        _mm512_mask_storeu_ps(p.add(i), m, _mm512_mul_ps(_mm512_sub_ps(code, zp), scale));
    }
}

/// [`fake_quantize`]'s rounding pass on AVX2, 8 lanes per step; the tail
/// of fewer than 8 runs the reference.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fake_quant_avx2(xs: &mut [f32], q: QuantParams) {
    use core::arch::x86_64::*;
    let scale = _mm256_set1_ps(q.scale());
    let zp = _mm256_set1_ps(q.zero_point() as f32);
    let (lo, hi) = (_mm256_set1_ps(-128.0), _mm256_set1_ps(127.0));
    let half = _mm256_set1_ps(0.5);
    let (sign, one) = (_mm256_set1_ps(-0.0), _mm256_set1_ps(1.0));
    let mut chunks = xs.chunks_exact_mut(8);
    for c in &mut chunks {
        let x = _mm256_loadu_ps(c.as_ptr());
        let y = _mm256_div_ps(x, scale);
        // As on AVX-512. Where no step is due `t` gains `+0.0`, which can
        // only turn `-0.0` into `0.0`: the zero-point add does that too.
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(y);
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, _mm256_sub_ps(y, t)), half);
        let step = _mm256_and_ps(away, _mm256_or_ps(_mm256_and_ps(y, sign), one));
        let r = _mm256_add_ps(t, step);
        let code = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(r, zp), lo), hi);
        let code = _mm256_blendv_ps(code, zp, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
        let out = _mm256_mul_ps(_mm256_sub_ps(code, zp), scale);
        _mm256_storeu_ps(c.as_mut_ptr(), out);
    }
    for v in chunks.into_remainder() {
        *v = q.fake_quant(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn depthwise_tiers_are_bitwise_identical_to_the_reference() {
        // `Wide` runs the portable loop on every host, so it is covered on
        // AVX-512 hosts too. Widths 1–65 give planes narrower than one
        // vector, exact multiples of 16 and ragged tails. One plane in two
        // carries a +Inf, −Inf or NaN weight at a corner tap: where that
        // tap falls outside the input the reference skips it and stays
        // finite, so a tier that zero-pads (0 · Inf = NaN) fails here.
        let mut tiers = vec![Microkernel::Wide];
        if avx512_available() {
            tiers.push(Microkernel::Avx512);
        }
        let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut masks = Vec::new();
        let mut case = 0usize;
        for iw in 1..=65usize {
            let ih = 3 + iw % 5;
            for k in [1usize, 3, 5] {
                for pad in (0..=k / 2).filter(|p| iw + 2 * p >= k && ih + 2 * p >= k) {
                    for stride in [1usize, 2] {
                        for mult in [1usize, 2] {
                            for with_bias in [false, true] {
                                case += 1;
                                let out_c = 2 * mult;
                                let x = Tensor::random([2, 2, ih, iw], case as u64);
                                let mut w = Tensor::random([out_c, 1, k, k], !(case as u64));
                                for oc in (1..out_c).step_by(2) {
                                    let corner =
                                        [0, k - 1, k * (k - 1), k * k - 1][(case + oc) % 4];
                                    w.data_mut()[oc * k * k + corner] = poison[(case + oc) % 3];
                                }
                                let b = Tensor::random([out_c], 7 * case as u64);
                                let bias = with_bias.then(|| b.data());
                                let (st, pd) = ((stride, stride), (pad, pad));
                                let oh = (ih + 2 * pad - k) / stride + 1;
                                let ow = (iw + 2 * pad - k) / stride + 1;
                                let mut want = Tensor::zeros([2, out_c, oh, ow]);
                                kernels::depthwise_conv2d_into(
                                    &x, &w, bias, st, pd, mult, &mut want,
                                );
                                for &tier in &tiers {
                                    let mut got = Tensor::random([2, out_c, oh, ow], 3);
                                    depthwise(
                                        tier, &x, &w, bias, st, pd, mult, &mut got, &mut masks,
                                    );
                                    assert_eq!(
                                        bits(&got),
                                        bits(&want),
                                        "{tier:?} iw={iw} ih={ih} k={k} pad={pad} stride={stride} \
                                         mult={mult} bias={with_bias}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(case > 2800, "grid ran only {case} cases");
    }

    /// Every lowering tier the host can run. `Wide` runs the reference
    /// loops, so it is there on every host.
    fn lowering_tiers() -> Vec<Microkernel> {
        let mut tiers = vec![Microkernel::Wide];
        if simd_available() {
            tiers.push(Microkernel::Avx2);
        }
        if avx512_available() {
            tiers.push(Microkernel::Avx512);
        }
        tiers
    }

    #[test]
    fn lowering_tiers_are_bitwise_identical_to_the_reference() {
        // Lengths 0–70 give every tail length of the 8- and 16-lane tiers
        // behind zero to four full vectors. Each length runs six slices:
        // random bit patterns mixed with the values below; those values
        // alone; finite values on a grid with exact half-step ties; finite
        // values plus one NaN; a huge negative value next to ±Inf (the
        // [0, 1] fallback grid, where an unsaturated zero-point add
        // overflows); and NaNs alone.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let p2 = |e: i32| 2f32.powi(e);
        let nans = [
            0x7fc0_0000u32,
            0x7f80_0001,
            0xffc1_2345,
            0x7fbf_ffff,
            0xffff_ffff,
        ]
        .map(f32::from_bits);
        let mut specials = nans.to_vec();
        specials.extend([f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]);
        // f32 subnormals: the smallest, the largest, and one between.
        specials.extend([0x1u32, 0x8000_0001, 0x007f_ffff, 0x8040_0000].map(f32::from_bits));
        // binary16's subnormal range: its smallest normal, its smallest
        // subnormal, the tie half-way to zero, just above that tie, and
        // ties between adjacent subnormals (even and odd).
        specials.extend([p2(-14), -p2(-24), p2(-25), -1.5 * p2(-25), 2.5 * p2(-24)]);
        specials.extend([3.5 * p2(-24), -1.0e-6, 3.3e-7]);
        // binary16's largest finite value, the last value that rounds to it,
        // the tie that rounds to infinity, and far beyond.
        specials.extend([
            65504.0,
            -65519.996,
            65520.0,
            1.0e5,
            -3.0e9,
            f32::MAX,
            f32::MIN,
        ]);
        // Ordinary values, and binary16 ties at 1.0 (to even, down and up).
        specials.extend([1.0, -0.1, 1.0 + p2(-11), 1.0 + 3.0 * p2(-11), 1.0e-3]);

        // Both grids span 255/8, so their scale is exactly 1/8 (zero points
        // 0 and -96): (k + 0.5)/8 divides by it to an exact half.
        let grids = [(-16.0f32, 15.875f32), (-4.0, 27.875)];
        for (lo, hi) in grids {
            assert_eq!(QuantParams::from_range(lo, hi).scale(), 0.125);
        }

        let mut rng = StdRng::seed_from_u64(25);
        let mut cases = 0usize;
        for len in 0..=70usize {
            let mut slices: Vec<(&str, Vec<f32>)> = Vec::new();
            let pick = |rng: &mut StdRng, pool: &[f32]| pool[rng.gen_range(0..pool.len())];
            slices.push((
                "random bits and specials",
                (0..len)
                    .map(|_| match rng.gen_range(0..3usize) {
                        0 => f32::from_bits(rng.gen::<u64>() as u32),
                        1 => pick(&mut rng, &specials),
                        _ => rng.gen_range(-4.0f32..4.0),
                    })
                    .collect(),
            ));
            slices.push((
                "specials",
                (0..len).map(|_| pick(&mut rng, &specials)).collect(),
            ));
            let (lo, hi) = grids[len % 2];
            let ties = (0..len).map(|i| match i {
                0 => lo,
                1 => hi,
                _ => lo + (rng.gen_range(0..((hi - lo) * 8.0) as usize) as f32 + 0.5) / 8.0,
            });
            slices.push(("int8 ties", ties.collect()));
            let mut finite: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0f32..5.0)).collect();
            if len > 0 {
                finite[rng.gen_range(0..len)] = pick(&mut rng, &nans);
            }
            slices.push(("finite and one NaN", finite));
            let huge = [
                f32::NEG_INFINITY,
                -1.0e7,
                f32::INFINITY,
                -3.0e9,
                0.25,
                f32::NAN,
            ];
            slices.push((
                "huge and infinite",
                (0..len).map(|i| huge[i % huge.len()]).collect(),
            ));
            slices.push(("all NaN", (0..len).map(|_| pick(&mut rng, &nans)).collect()));

            for (family, xs) in &slices {
                let mut want16 = xs.clone();
                f16::round_slice_f16(&mut want16);
                let mut want8 = xs.clone();
                let want_q = quant::fake_quantize_slice(&mut want8);
                for tier in lowering_tiers() {
                    cases += 1;
                    let what = format!("{tier:?} {family} len={len}");
                    let mut got = xs.clone();
                    round_f16(tier, &mut got);
                    assert_eq!(bits(&got), bits(&want16), "f16 {what}: {xs:?}");
                    assert_eq!(quant_params(tier, xs), want_q, "int8 range {what}: {xs:?}");
                    let mut got = xs.clone();
                    assert_eq!(fake_quantize(tier, &mut got), want_q, "int8 grid {what}");
                    assert_eq!(bits(&got), bits(&want8), "int8 {what}: {xs:?}");
                }
            }
        }
        assert!(cases >= 71 * 6, "ran only {cases} cases");
    }

    #[test]
    #[ignore = "every f32 bit pattern; scripts/verify.sh runs it in release"]
    fn f16_tiers_match_the_reference_on_every_f32_pattern() {
        let tiers = lowering_tiers();
        std::thread::scope(|s| {
            for half in 0..2u32 {
                let tiers = &tiers;
                s.spawn(move || {
                    let mut x = vec![0.0f32; 1 << 16];
                    let mut got = x.clone();
                    for block in (half << 15)..((half + 1) << 15) {
                        for (i, v) in x.iter_mut().enumerate() {
                            *v = f32::from_bits(block << 16 | i as u32);
                        }
                        let mut want = x.clone();
                        f16::round_slice_f16(&mut want);
                        for &tier in tiers {
                            got.copy_from_slice(&x);
                            round_f16(tier, &mut got);
                            let bad = want.iter().zip(&got).position(|(a, b)| a.to_bits() != b.to_bits());
                            if let Some(i) = bad {
                                panic!(
                                    "{tier:?}: {:#010x} rounds to {:#010x}, the reference to {:#010x}",
                                    x[i].to_bits(),
                                    got[i].to_bits(),
                                    want[i].to_bits()
                                );
                            }
                        }
                    }
                });
            }
        });
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
