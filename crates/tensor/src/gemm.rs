//! Panel-packed, cache-blocked GEMM and the im2col convolution lowering —
//! the production-style CPU hot path every framework the paper studies
//! builds on (Caffe popularized im2col + GEMM; TF/PyTorch CPU backends
//! still ship packed-panel kernels of exactly this shape).
//!
//! # Structure
//!
//! `C[m×n] = A[m×k] · B[k×n]` runs as the classic three-level blocked loop
//! (see [`crate::blocking`] for how MC/KC/NC are autotuned to the host
//! caches, once per process):
//!
//! ```text
//! for jc in 0..n step NC          # B block stays L3-resident
//!   for pc in 0..k step KC        # B[pc.., jc..] as NR panels
//!     for ic in 0..m step MC      # parallel; A[ic.., pc..] as MR panels
//!       micro-kernel over every MR×NR tile   (see crate::simd)
//! ```
//!
//! * **B** is read as k-major column panels of `NR`, so the micro-kernel
//!   streams it with unit stride. Ragged right edges are zero-padded.
//! * **A** is read as micro-panels of `MR` interleaved rows, again
//!   k-major. Ragged bottom edges are zero-padded.
//!
//! An activation operand (the im2col matrix, a dense layer's input) is
//! packed into that layout per block on every call. A weight operand is
//! packed once, when the executor is prepared, into a [`PackedPanels`]
//! buffer of *full-depth* panels: conv weights `[out_c × in_c·kh·kw]` as
//! `MR`-row A panels, dense weights `[units × features]` as `NR`-column B
//! panels (their transpose, never materialized). Any `KC`, `MC` or `NC`
//! slice of a full-depth panel set is a contiguous sub-range of it, so
//! every blocking, kernel tier and thread count reads the same panels.
//! Dense layers with at most `MR` rows (batch ≤ 8) skip the blocked loop:
//! each B panel is streamed once over its whole depth against the input
//! rows, with the panels split across the intra-op workers
//! ([`crate::simd`]'s stream kernel).
//!
//! The register micro-kernel ([`crate::simd`]: runtime-dispatched
//! AVX2/FMA, portable 8-lane shim, or scalar) accumulates an `MR×NR` tile
//! of `C`, walking the `KC` block in ascending `k`, and stores only the
//! valid region.
//!
//! # Determinism
//!
//! For every output element the reduction order is **strictly ascending
//! `k`**, regardless of tiling, kernel choice, thread count or whether an
//! operand was packed per call or at prepare time: packing permutes memory
//! layout, never the accumulation sequence; zero-padded rows and columns
//! only feed tile lanes that are never stored; between `KC` blocks the
//! accumulator tile round-trips through `C` — an exact f32 store/reload —
//! so the fused-multiply-add chain continues bit for bit; and SIMD lanes
//! hold *independent output elements*, never partial sums of one
//! reduction. Parallelism splits `C` into disjoint row panels (or, on the
//! stream path, disjoint column panels), each computed independently, so
//! results are byte-identical for 1..N threads and for every kernel
//! (asserted by tests and by `scripts/verify.sh`).

use crate::blocking::{cache_info, Blocking};
use crate::pool;
use crate::simd::{self, KernelKind, Microkernel, MR, NR};
use crate::Tensor;
use edgebench_graph::{ActivationKind, TensorShape};
use std::collections::TryReserveError;

/// Row-panel height of the zero-skipping sparse path (a pure work-split
/// constant — the sparse kernel does no packing, so cache blocking does
/// not apply).
const SPARSE_MC: usize = 64;

/// How a convolution should be realized at a given shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvAlgo {
    /// Nested-loop direct convolution (tiny or grouped layers).
    Direct,
    /// im2col + packed GEMM (everything else).
    Im2colGemm,
}

/// Benchmarked crossover for [`select_conv_algo`]: layers at or below this
/// many multiply-accumulates run the direct kernel; larger ones take
/// im2col + GEMM. The `select/*` entries in `BENCH_kernels.json` bracket
/// the boundary: at ~0.05 MMAC (8×8² → 8, k3) direct and GEMM are within
/// ~2× of each other with direct ahead, while by 14.5 MMAC
/// (32×28² → 64, k3) GEMM is ~30× faster — the packing and im2col setup
/// cost stops amortizing around 64 KMAC.
pub(crate) const DIRECT_CONV_MAX_MACS: usize = 1 << 16;

/// Per-shape convolution algorithm selection, used by the executor.
/// `out_elems` is the output tensor's element count, `fan_in` the MACs per
/// output element (`in_c/groups · kh · kw`).
pub(crate) fn select_conv_algo(out_elems: usize, fan_in: usize, groups: usize) -> ConvAlgo {
    if groups != 1 {
        // No grouped im2col lowering — grouped/depthwise layers are small
        // per-group GEMMs where packing overhead dominates anyway.
        return ConvAlgo::Direct;
    }
    if out_elems.saturating_mul(fan_in) > DIRECT_CONV_MAX_MACS {
        ConvAlgo::Im2colGemm
    } else {
        ConvAlgo::Direct
    }
}

/// Dense layers below this many multiply-accumulates run a direct dot
/// product over their natural weights: packing would cost more than the
/// micro-kernel saves.
pub(crate) const DIRECT_DENSE_MAX_MACS: usize = 1 << 15;

/// Whether an `[n×features]·[features×units]` dense layer runs on the
/// packed GEMM (`true`) or the direct loop, used by the executor to decide
/// which weights to pack at prepare time.
pub(crate) fn dense_uses_gemm(n: usize, features: usize, units: usize) -> bool {
    n.saturating_mul(features).saturating_mul(units) >= DIRECT_DENSE_MAX_MACS
}

/// A GEMM operand packed once, at full depth, into the micro-panels the
/// kernel streams.
///
/// The `rows` rows of a row-major `[rows×k]` matrix are interleaved
/// `width` at a time: row `r` at depth `kk` lives at
/// `(r / width · k + kk) · width + r % width`, and the last panel is
/// zero-padded to `width` rows. Conv weights are packed with
/// `width = MR` (the A operand), dense weights with `width = NR` (the B
/// operand `Wᵀ`). The executor builds these once, in
/// [`crate::Executor::prepare`], straight from the weight generator
/// ([`PackedPanels::try_generate`]), so no natural-layout copy is kept.
///
/// The SDC layer addresses weights *logically* — the natural row-major
/// index `r·k + kk`, padding excluded — and maps each index to its
/// buffer slot; checksums cover the whole buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedPanels {
    data: Vec<f32>,
    rows: usize,
    k: usize,
    width: usize,
}

impl PackedPanels {
    /// Packs a row-major `[rows×k]` matrix into `width`-row panels in this
    /// buffer, reusing its allocation (the natural-layout entry points'
    /// per-call packing).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != rows·k` or `width` is neither `MR` nor `NR`.
    fn repack(&mut self, src: &[f32], rows: usize, k: usize, width: usize) {
        assert_eq!(src.len(), rows * k, "packed source length mismatch");
        assert!(width == MR || width == NR, "panel width {width}");
        self.data.clear();
        self.data.reserve_exact(rows.div_ceil(width) * width * k);
        for r0 in (0..rows).step_by(width) {
            let h = (rows - r0).min(width);
            push_panel(src, k, (r0, h), (0, k), width, &mut self.data);
        }
        (self.rows, self.k, self.width) = (rows, k, width);
    }

    /// Generates a `[rows×k]` matrix straight into panel order. `fill` is
    /// called once per panel, in row order, with a scratch slice of that
    /// panel's rows (at most `width · k` values) to overwrite in natural
    /// row-major order; each is then interleaved into place. A generator
    /// that writes sequential values therefore yields exactly the panels
    /// of its natural-order output, with no natural-layout copy of the
    /// whole matrix and no extra pass over it.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error when the panel buffer (or the
    /// one-panel scratch) cannot be reserved.
    ///
    /// # Panics
    ///
    /// Panics if `width` is neither `MR` nor `NR`.
    pub fn try_generate(
        rows: usize,
        k: usize,
        width: usize,
        mut fill: impl FnMut(&mut [f32]),
    ) -> Result<PackedPanels, TryReserveError> {
        assert!(width == MR || width == NR, "panel width {width}");
        let mut data = Vec::new();
        data.try_reserve_exact(rows.div_ceil(width).saturating_mul(width * k))?;
        advise_huge_pages(data.as_ptr(), data.capacity());
        let mut scratch = Vec::new();
        scratch.try_reserve_exact(rows.min(width) * k)?;
        for r0 in (0..rows).step_by(width) {
            let h = (rows - r0).min(width);
            scratch.resize(h * k, 0.0);
            fill(&mut scratch);
            push_panel(&scratch, k, (0, h), (0, k), width, &mut data);
        }
        Ok(PackedPanels {
            data,
            rows,
            k,
            width,
        })
    }

    /// The packed buffer, padding included.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable packed buffer (fault injection writes through
    /// [`PackedPanels::physical`]).
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of logical (non-padding) elements, `rows · k`.
    pub(crate) fn logical_len(&self) -> usize {
        self.rows * self.k
    }

    /// Buffer slot of logical element `e` (`r·k + kk` in the natural
    /// row-major matrix). A bijection from `0..logical_len()` onto the
    /// non-padding slots.
    ///
    /// # Panics
    ///
    /// Panics if `e >= logical_len()`.
    pub(crate) fn physical(&self, e: usize) -> usize {
        assert!(e < self.logical_len(), "logical index {e} out of range");
        let (r, kk) = (e / self.k, e % self.k);
        (r / self.width * self.k + kk) * self.width + r % self.width
    }

    /// Panels `first..` sliced to depths `pc..pc+kcb`: panel `i` of the
    /// view starts `i · stride` floats in.
    fn view(&self, first: usize, pc: usize) -> PanelView<'_> {
        PanelView {
            data: &self.data[(first * self.k + pc) * self.width..],
            stride: self.k * self.width,
        }
    }
}

/// Asks Linux to back a large, about-to-be-written buffer (`capacity`
/// floats at `ptr`) with transparent huge pages. Generating a model's
/// weights otherwise takes one page fault per 4 KiB — on a virtualized
/// host a third of the cost of writing them — and streaming them takes a
/// TLB miss per 4 KiB. The advice is only a hint: it moves and changes no
/// data, and where it is declined (huge pages off, other systems) nothing
/// changes.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(ptr: *const f32, capacity: usize) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    const PAGE: usize = 4096;
    const HUGE_PAGE: usize = 2 << 20;
    let start = ptr as usize;
    let end = start + capacity * std::mem::size_of::<f32>();
    let (lo, hi) = (start.next_multiple_of(PAGE), end / PAGE * PAGE);
    if hi >= lo + HUGE_PAGE {
        // SAFETY: `[lo, hi)` is page-aligned and lies inside the caller's
        // live allocation; MADV_HUGEPAGE changes only how the kernel backs
        // those pages, never their contents or validity, and a failure is
        // harmless, so the return value is ignored.
        unsafe {
            madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_ptr: *const f32, _capacity: usize) {}

/// Reusable packing / im2col buffers plus the resolved kernel and blocking
/// for the GEMM path.
///
/// Owned by the executor's arena (one per [`crate::PreparedExecutor`]) so
/// steady-state inference re-uses the same allocations; standalone calls
/// create a transient one. The kernel is resolved from [`KernelKind`]
/// once, when the scratch is created or [`GemmScratch::set_kernel`] is
/// called — never per GEMM call.
#[derive(Debug)]
pub struct GemmScratch {
    /// Packed B block: up to `⌈NC/NR⌉` panels of `KC·NR` floats.
    pack_b: Vec<f32>,
    /// Per-worker packed-A buffers (one per intra-op worker).
    pack_a: Vec<Vec<f32>>,
    /// im2col matrix for the convolution lowering.
    im2col: Vec<f32>,
    /// Weights the natural-layout entry points pack before calling the
    /// prepacked path.
    weights: PackedPanels,
    /// The resolved micro-kernel implementation.
    kernel: Microkernel,
    /// Fixed blocking override; `None` autotunes per shape from the
    /// detected cache hierarchy.
    blocking: Option<Blocking>,
}

impl Default for GemmScratch {
    fn default() -> Self {
        GemmScratch {
            pack_b: Vec::new(),
            pack_a: Vec::new(),
            im2col: Vec::new(),
            weights: PackedPanels::default(),
            kernel: simd::resolve(KernelKind::Auto),
            blocking: None,
        }
    }
}

impl GemmScratch {
    /// Re-resolves the micro-kernel from a [`KernelKind`] request.
    pub fn set_kernel(&mut self, kind: KernelKind) {
        self.kernel = simd::resolve(kind);
    }

    /// The resolved micro-kernel tier, which the executor's depthwise
    /// path runs on too.
    pub(crate) fn kernel(&self) -> Microkernel {
        self.kernel
    }

    /// Grows the B-block and im2col buffers to what a convolution lowered
    /// to an `[m×k]·[k×n]` GEMM over an im2col matrix of `im2col_len`
    /// floats needs, so later runs allocate nothing. Called from
    /// `Executor::prepare`. The conv's A operand is its prepacked (or, for
    /// pruned stores, natural and unpacked) weights, so no A scratch is
    /// reserved. On allocation failure returns the element count of the
    /// buffer that could not be grown.
    pub(crate) fn reserve(
        &mut self,
        dims: (usize, usize, usize),
        im2col_len: usize,
    ) -> Result<(), usize> {
        let (_, k, n) = dims;
        let blk = self
            .blocking
            .unwrap_or_else(|| Blocking::choose_prepacked_a(dims, &cache_info()));
        let need_b = blk.nc.min(n).max(1).div_ceil(NR) * blk.kc.min(k).max(1) * NR;
        grow(&mut self.pack_b, need_b)?;
        grow(&mut self.im2col, im2col_len)
    }
}

/// Grows `buf` to at least `len` elements, fallibly (`Err(len)`).
fn grow(buf: &mut Vec<f32>, len: usize) -> Result<(), usize> {
    if buf.len() < len {
        buf.try_reserve_exact(len - buf.len()).map_err(|_| len)?;
        buf.resize(len, 0.0);
    }
    Ok(())
}

/// A GEMM operand as the driver sees it.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    /// Row-major (`[m×k]` for A, `[k×n]` for B), packed per block on
    /// every call.
    RowMajor(&'a [f32]),
    /// Full-depth panels packed once (`MR` wide for A, `NR` for B).
    Packed(&'a PackedPanels),
}

/// A run of `kcb`-deep micro-panels, panel `i` starting `i · stride`
/// floats into `data`.
#[derive(Debug, Clone, Copy)]
struct PanelView<'a> {
    data: &'a [f32],
    stride: usize,
}

impl<'a> PanelView<'a> {
    /// Panel `i`, `len` floats long.
    fn panel(&self, i: usize, len: usize) -> &'a [f32] {
        &self.data[i * self.stride..i * self.stride + len]
    }
}

/// Packs the `[pc..pc+kcb, jc..jc+ncb]` block of the row-major `B[k×n]`
/// into k-major `NR`-column panels, zero-padding the ragged edge, and
/// returns the packed length. Every element of the returned prefix is
/// written, so recycled buffers can never leak stale values into the
/// kernel (callers slice to exactly this length).
fn pack_b_block(
    b: &[f32],
    (k, n): (usize, usize),
    (pc, kcb): (usize, usize),
    (jc, ncb): (usize, usize),
    out: &mut Vec<f32>,
) -> usize {
    debug_assert_eq!(b.len(), k * n);
    let panels = ncb.div_ceil(NR);
    let need = panels * kcb * NR;
    if out.len() < need {
        out.resize(need, 0.0);
    }
    for jp in 0..panels {
        let j0 = jc + jp * NR;
        let width = (ncb - jp * NR).min(NR);
        let panel = &mut out[jp * kcb * NR..(jp + 1) * kcb * NR];
        for kk in 0..kcb {
            let srow = &b[(pc + kk) * n + j0..(pc + kk) * n + j0 + width];
            let dst = &mut panel[kk * NR..kk * NR + NR];
            dst[..width].copy_from_slice(srow);
            dst[width..].fill(0.0);
        }
    }
    need
}

/// The row-interleaving packer: appends rows `row0..row0+rows` (at most
/// `width`) × depths `pc..pc+kcb` of the row-major `[_×k]` matrix `src`
/// to `out` as one k-major micro-panel of `width` interleaved rows,
/// zero-padding the missing rows. Activation A operands go through it per
/// call (`width = MR`); weights go through it once, at prepare time —
/// conv weights as A panels (`MR`), dense weights `[units×features]` as
/// the panels of their transpose, the B operand (`NR`).
///
/// The transpose runs in `TILE`-deep blocks, so every source row is read
/// and the destination written sequentially.
fn push_panel(
    src: &[f32],
    k: usize,
    rows: (usize, usize),
    depths: (usize, usize),
    width: usize,
    out: &mut Vec<f32>,
) {
    match width {
        MR => push_panel_of::<MR>(src, k, rows, depths, out),
        NR => push_panel_of::<NR>(src, k, rows, depths, out),
        _ => unreachable!("panel width {width} is neither MR nor NR"),
    }
}

/// [`push_panel`] at a compile-time width `W`.
fn push_panel_of<const W: usize>(
    src: &[f32],
    k: usize,
    (row0, rows): (usize, usize),
    (pc, kcb): (usize, usize),
    out: &mut Vec<f32>,
) {
    const TILE: usize = 16;
    debug_assert!(rows <= W);
    for k0 in (pc..pc + kcb).step_by(TILE) {
        let depth = (pc + kcb - k0).min(TILE);
        let mut block = [[0.0f32; W]; TILE];
        for r in 0..rows {
            let s = &src[(row0 + r) * k + k0..][..depth];
            for (line, &v) in block.iter_mut().zip(s) {
                line[r] = v;
            }
        }
        out.extend_from_slice(block[..depth].as_flattened());
    }
}

/// Packs the `[row0..row0+rows, pc..pc+kcb]` block of `A[m×k]` into
/// k-major micro-panels of `MR` interleaved rows (zero-padding the ragged
/// edge) in `out`, replacing its contents.
fn pack_a_block(
    a: &[f32],
    k: usize,
    (row0, rows): (usize, usize),
    (pc, kcb): (usize, usize),
    out: &mut Vec<f32>,
) {
    out.clear();
    for r0 in (row0..row0 + rows).step_by(MR) {
        let h = (row0 + rows - r0).min(MR);
        push_panel(a, k, (r0, h), (pc, kcb), MR, out);
    }
}

/// The micro-kernel sweep over one row-panel of A × one block of B
/// panels: every `MR×NR` tile of `C` is loaded (after the first `KC`
/// block), accumulated over `kcb` ascending-`k` steps, and stored back —
/// only the valid region touches memory.
#[allow(clippy::too_many_arguments)]
fn gemm_panel(
    kernel: Microkernel,
    pa: PanelView<'_>,
    pb: PanelView<'_>,
    rows: usize,
    kcb: usize,
    (col0, ncols): (usize, usize),
    ldc: usize,
    first: bool,
    cpanel: &mut [f32],
) {
    for mb in 0..rows.div_ceil(MR) {
        let apan = pa.panel(mb, kcb * MR);
        let mr = (rows - mb * MR).min(MR);
        for jp in 0..ncols.div_ceil(NR) {
            let bpan = pb.panel(jp, kcb * NR);
            let j0 = col0 + jp * NR;
            let nr = (ncols - jp * NR).min(NR);
            let mut acc: simd::Acc = [[0.0; NR]; MR];
            if !first {
                for (i, row) in acc.iter_mut().enumerate().take(mr) {
                    let crow = (mb * MR + i) * ldc + j0;
                    row[..nr].copy_from_slice(&cpanel[crow..crow + nr]);
                }
            }
            simd::run(kernel, apan, bpan, kcb, &mut acc);
            for (i, row) in acc.iter().enumerate().take(mr) {
                let crow = (mb * MR + i) * ldc + j0;
                cpanel[crow..crow + nr].copy_from_slice(&row[..nr]);
            }
        }
    }
}

/// The blocked GEMM driver: NC/KC loops outside, parallel MC row panels
/// inside, packing each per-call operand block exactly once per reuse
/// scope and slicing prepacked operands in place. A prepacked B with at
/// most `MR` rows of A takes the stream path instead.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: Operand<'_>,
    b: Operand<'_>,
    (m, k, n): (usize, usize, usize),
    c: &mut [f32],
    threads: usize,
    kernel: Microkernel,
    blocking: Option<Blocking>,
    pb_buf: &mut Vec<f32>,
    pa_bufs: &mut Vec<Vec<f32>>,
) {
    match a {
        Operand::RowMajor(a) => assert_eq!(a.len(), m * k, "A length mismatch"),
        Operand::Packed(p) => assert_eq!((p.rows, p.k, p.width), (m, k, MR), "A panel shape"),
    }
    match b {
        Operand::RowMajor(b) => assert_eq!(b.len(), k * n, "B length mismatch"),
        Operand::Packed(p) => assert_eq!((p.rows, p.k, p.width), (n, k, NR), "B panel shape"),
    }
    assert_eq!(c.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if let (Operand::RowMajor(x), Operand::Packed(w)) = (a, b) {
        if m <= MR {
            stream_packed_b(kernel, x, w, (m, k, n), c, threads);
            return;
        }
    }
    let blk = blocking.unwrap_or_else(|| match a {
        Operand::Packed(_) => Blocking::choose_prepacked_a((m, k, n), &cache_info()),
        Operand::RowMajor(_) => Blocking::auto((m, k, n)),
    });
    // Prepacked panels are sliced at panel boundaries, so NC and MC are
    // whole numbers of panels (output bytes never depend on either).
    let (kc, nc) = (blk.kc.max(1), blk.nc.max(NR).next_multiple_of(NR));
    // The MC panel is also the parallel work unit: shrink it when the
    // worker pool would otherwise sit idle.
    let workers_avail = pool::effective_threads(threads);
    let mc = if workers_avail > 1 {
        blk.mc.min(m.div_ceil(workers_avail).next_multiple_of(MR))
    } else {
        blk.mc
    }
    .max(MR)
    .next_multiple_of(MR);
    for jc in (0..n).step_by(nc) {
        let ncb = (n - jc).min(nc);
        for (pci, pc) in (0..k).step_by(kc).enumerate() {
            let kcb = (k - pc).min(kc);
            let pb = match b {
                Operand::RowMajor(b) => {
                    let need = pack_b_block(b, (k, n), (pc, kcb), (jc, ncb), pb_buf);
                    PanelView {
                        data: &pb_buf[..need],
                        stride: kcb * NR,
                    }
                }
                Operand::Packed(w) => w.view(jc / NR, pc),
            };
            let first = pci == 0;
            let row_panels = m.div_ceil(mc);
            let workers = workers_avail.min(row_panels).max(1);
            if pa_bufs.len() < workers {
                pa_bufs.resize(workers, Vec::new());
            }
            let tasks: Vec<(usize, &mut [f32])> = c.chunks_mut(mc * n).enumerate().collect();
            pool::run_tasks(tasks, &mut pa_bufs[..workers], |pa, (pi, cpanel)| {
                let row0 = pi * mc;
                let rows = (m - row0).min(mc);
                let pa = match a {
                    Operand::RowMajor(a) => {
                        pack_a_block(a, k, (row0, rows), (pc, kcb), pa);
                        PanelView {
                            data: pa,
                            stride: kcb * MR,
                        }
                    }
                    Operand::Packed(w) => w.view(row0 / MR, pc),
                };
                gemm_panel(kernel, pa, pb, rows, kcb, (jc, ncb), n, first, cpanel);
            });
        }
    }
}

/// The small-batch path: `m ≤ MR` rows of the row-major `x` against
/// full-depth prepacked B panels. Each panel is walked once over its whole
/// depth by [`simd::stream`] (FMAs for the valid rows only), and the
/// panels are split into one contiguous run per intra-op worker, so a
/// batch-1 dense layer streams its weights on every worker it is given.
fn stream_packed_b(
    kernel: Microkernel,
    x: &[f32],
    w: &PackedPanels,
    (m, k, n): (usize, usize, usize),
    c: &mut [f32],
    threads: usize,
) {
    let panels = n.div_ceil(NR);
    let per = panels.div_ceil(pool::effective_threads(threads).min(panels));
    let span = per * NR;
    // One task per run of panels, holding that run's columns of every row.
    let mut tasks: Vec<(usize, Vec<&mut [f32]>)> = (0..panels.div_ceil(per))
        .map(|t| (t * per, Vec::with_capacity(m)))
        .collect();
    for row in c.chunks_mut(n) {
        for (task, cols) in tasks.iter_mut().zip(row.chunks_mut(span)) {
            task.1.push(cols);
        }
    }
    let mut workers = vec![(); tasks.len()];
    pool::run_tasks(tasks, &mut workers, |_, (p0, mut rows)| {
        let ncols = rows[0].len();
        for (jp, j0) in (0..ncols).step_by(NR).enumerate() {
            let nr = (ncols - j0).min(NR);
            let mut acc: simd::Acc = [[0.0; NR]; MR];
            let bpan = w.view(p0 + jp, 0).panel(0, k * NR);
            simd::stream(kernel, (x, k), m, bpan, k, &mut acc);
            for (row, a) in rows.iter_mut().zip(&acc) {
                row[j0..j0 + nr].copy_from_slice(&a[..nr]);
            }
        }
    });
}

/// Packed GEMM into a caller-provided buffer: `c[m×n] = a[m×k] · b[k×n]`.
///
/// Every element of `c` is overwritten. `threads` is the intra-op worker
/// count (`0` = machine parallelism); work splits over independent
/// row panels of `c`, so output is byte-identical at any count, for any
/// kernel and any blocking.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`/`k`/`n`.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    dims: (usize, usize, usize),
    c: &mut [f32],
    threads: usize,
    scratch: &mut GemmScratch,
) {
    gemm_blocked(
        Operand::RowMajor(a),
        Operand::RowMajor(b),
        dims,
        c,
        threads,
        scratch.kernel,
        scratch.blocking,
        &mut scratch.pack_b,
        &mut scratch.pack_a,
    );
}
/// Sparsity-aware GEMM into a caller-provided buffer: identical contract to
/// [`matmul_into`] but skips zero elements of `a` (the weight operand).
///
/// Selected by the executor when the `WeightStore` is pruned; skipping a
/// `0.0 · x` term removes an exact `±0.0` addend, so for finite data the
/// result is byte-identical to the dense path (see tests) — only the work
/// drops with sparsity.
pub(crate) fn matmul_sparse_into(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let row_panels = m.div_ceil(SPARSE_MC).max(1);
    let workers = pool::effective_threads(threads).min(row_panels).max(1);
    // Workers carry no packing state on the sparse path; `Vec<()>` never
    // touches the heap.
    let mut slots = vec![(); workers];
    let tasks: Vec<(usize, &mut [f32])> = c.chunks_mut(SPARSE_MC * n).enumerate().collect();
    pool::run_tasks(tasks, &mut slots, |(), (pi, cpanel)| {
        let row0 = pi * SPARSE_MC;
        let rows = (m - row0).min(SPARSE_MC);
        for i in 0..rows {
            let crow = &mut cpanel[i * n..(i + 1) * n];
            crow.fill(0.0);
            let arow = (row0 + i) * k;
            // Ascending k over the non-zeros: the same per-element
            // reduction order as the dense kernel, minus exact-zero terms.
            for kk in 0..k {
                let av = a[arow + kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..kk * n + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv = av.mul_add(bv, *cv);
                }
            }
        }
    });
}

/// Packed matrix multiply: `C[m×n] = A[m×k] · B[k×n]`, single-threaded,
/// auto-dispatched kernel.
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_threaded(a, b, 1)
}

/// [`matmul`] with an explicit intra-op worker count (`0` = machine
/// parallelism). Byte-identical to the single-threaded result.
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub fn matmul_threaded(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, kb, "matmul inner dims differ: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    let mut scratch = GemmScratch::default();
    matmul_into(
        a.data(),
        b.data(),
        (m, k, n),
        c.data_mut(),
        threads,
        &mut scratch,
    );
    c
}

/// Unpacked triple-loop reference GEMM (ascending `k`), kept as the ground
/// truth the packed kernels are tested against and as the bench baseline
/// for the packing speedup.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, kb, "matmul inner dims differ: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    let (ad, bd) = (a.data(), b.data());
    let cd = c.data_mut();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = ad[i * k + kk].mul_add(bd[kk * n + j], acc);
            }
            cd[i * n + j] = acc;
        }
    }
    c
}

/// Post-GEMM epilogue fused into the convolution path: optional bias,
/// optional folded batch-norm, then activation — one pass over the output
/// instead of three kernel invocations. Element-wise throughout, applied in
/// the same order as the standalone kernels, so results are bit-identical
/// to the unfused sequence.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-output-channel bias added first (as `conv2d`'s bias term).
    pub bias: Option<&'a [f32]>,
    /// Folded batch-norm `(gamma, beta)` applied second.
    pub bn: Option<(&'a [f32], &'a [f32])>,
    /// Activation applied last. `Linear` is free.
    pub act: ActivationKind,
}

impl Default for Epilogue<'_> {
    fn default() -> Self {
        Epilogue {
            bias: None,
            bn: None,
            act: ActivationKind::Linear,
        }
    }
}

impl Epilogue<'_> {
    /// Applies the epilogue to one `[out_c, hw]` output slab in place.
    pub(crate) fn apply(&self, slab: &mut [f32], out_c: usize, hw: usize) {
        if self.bias.is_none() && self.bn.is_none() && self.act == ActivationKind::Linear {
            return;
        }
        for oc in 0..out_c {
            let row = &mut slab[oc * hw..(oc + 1) * hw];
            if let Some(bv) = self.bias {
                let b0 = bv[oc];
                for v in row.iter_mut() {
                    *v += b0;
                }
            }
            if let Some((gamma, beta)) = self.bn {
                let (g, s) = (gamma[oc], beta[oc]);
                for v in row.iter_mut() {
                    *v = g * *v + s;
                }
            }
            if self.act != ActivationKind::Linear {
                for v in row.iter_mut() {
                    *v = crate::kernels::apply_activation(*v, self.act);
                }
            }
        }
    }
}

/// Unfolds an `NCHW` input into the im2col matrix `[in_c·kh·kw, oh·ow]`
/// for batch element `b`, writing **every** element of `out` (padded
/// positions get an explicit `0.0`, so recycled buffers are safe).
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    x: &Tensor,
    b: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let (in_c, ih, iw) = (x.shape().channels(), x.shape().height(), x.shape().width());
    let (kh, kw) = kernel;
    let cols = oh * ow;
    let xd = x.data();
    for c in 0..in_c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (c * kh + ky) * kw + kx;
                for oy in 0..oh {
                    let mrow = row * cols + oy * ow;
                    let iy = oy * stride.0 + ky;
                    if iy < padding.0 || iy - padding.0 >= ih {
                        out[mrow..mrow + ow].fill(0.0);
                        continue;
                    }
                    let xrow = ((b * in_c + c) * ih + (iy - padding.0)) * iw;
                    for ox in 0..ow {
                        let ix = ox * stride.1 + kx;
                        out[mrow + ox] = if ix < padding.1 || ix - padding.1 >= iw {
                            0.0
                        } else {
                            xd[xrow + (ix - padding.1)]
                        };
                    }
                }
            }
        }
    }
}

/// A convolution's weights as the im2col lowering consumes them.
#[derive(Debug, Clone, Copy)]
enum ConvWeights<'a> {
    /// Natural `[out_c × in_c·kh·kw]` weights of a pruned store, run on
    /// the zero-skipping GEMM.
    Sparse(&'a [f32]),
    /// `MR`-row full-depth A panels.
    Packed(&'a PackedPanels),
}

/// The im2col lowering shared by every conv entry point: per batch
/// element, unfold the input, multiply by the weights, and apply the
/// fused epilogue in one sweep over the output slab.
#[allow(clippy::too_many_arguments)]
fn conv_lowered(
    x: &Tensor,
    weights: ConvWeights<'_>,
    (out_c, kdim): (usize, usize),
    (kh, kw): (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    epilogue: &Epilogue<'_>,
    threads: usize,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    let (n, ih, iw) = {
        let d = x.shape().dims();
        (d[0], d[2], d[3])
    };
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    let cols = oh * ow;
    assert_eq!(out.len(), n * out_c * cols, "output shape mismatch");
    assert_eq!(
        kdim,
        x.shape().channels() * kh * kw,
        "weight in-channel mismatch"
    );

    let GemmScratch {
        pack_b,
        pack_a,
        im2col,
        kernel,
        blocking,
        ..
    } = scratch;
    if im2col.len() < kdim * cols {
        im2col.resize(kdim * cols, 0.0);
    }
    for b in 0..n {
        let im = &mut im2col[..kdim * cols];
        im2col_into(x, b, (kh, kw), stride, padding, oh, ow, im);
        let base = b * out_c * cols;
        let slab = &mut out.data_mut()[base..base + out_c * cols];
        match weights {
            ConvWeights::Sparse(w) => matmul_sparse_into(w, im, (out_c, kdim, cols), slab, threads),
            ConvWeights::Packed(w) => gemm_blocked(
                Operand::Packed(w),
                Operand::RowMajor(im),
                (out_c, kdim, cols),
                slab,
                threads,
                *kernel,
                *blocking,
                pack_b,
                pack_a,
            ),
        }
        epilogue.apply(slab, out_c, cols);
    }
}

/// im2col + packed GEMM convolution into a caller-provided output tensor,
/// with the bias/batch-norm/activation epilogue fused into a single pass.
///
/// `weight` is in its natural `[out_c, in_c, kh, kw]` layout: it is
/// packed into `scratch` and handed to [`conv2d_packed_into`]. When
/// `sparse` is set the natural weights run on the zero-skipping GEMM
/// instead (byte-identical results, less work on pruned weights).
/// `out` must already have the `[n, out_c, oh, ow]` shape; every element
/// is overwritten.
///
/// # Panics
///
/// Panics if `out` does not have `n · out_c · oh · ow` elements or the
/// kernel does not fit the padded input.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_gemm_into(
    x: &Tensor,
    weight: &Tensor,
    stride: (usize, usize),
    padding: (usize, usize),
    epilogue: &Epilogue<'_>,
    sparse: bool,
    threads: usize,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    let wd = weight.shape().dims();
    let (out_c, kdim, kernel) = (wd[0], wd[1] * wd[2] * wd[3], (wd[2], wd[3]));
    if sparse {
        let w = ConvWeights::Sparse(weight.data());
        conv_lowered(
            x,
            w,
            (out_c, kdim),
            kernel,
            stride,
            padding,
            epilogue,
            threads,
            out,
            scratch,
        );
        return;
    }
    let mut packed = std::mem::take(&mut scratch.weights);
    packed.repack(weight.data(), out_c, kdim, MR);
    conv2d_packed_into(
        x, &packed, kernel, stride, padding, epilogue, threads, out, scratch,
    );
    scratch.weights = packed;
}

/// [`conv2d_gemm_into`] over weights already packed into `MR`-row A
/// panels of the `[out_c × in_c·kh·kw]` weight matrix — the executor's
/// path, with the packing done once at prepare time. `kernel` is
/// `(kh, kw)`.
///
/// # Panics
///
/// Panics on inconsistent shapes, or if `weight` is not `MR` wide.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_packed_into(
    x: &Tensor,
    weight: &PackedPanels,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    epilogue: &Epilogue<'_>,
    threads: usize,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    conv_lowered(
        x,
        ConvWeights::Packed(weight),
        (weight.rows, weight.k),
        kernel,
        stride,
        padding,
        epilogue,
        threads,
        out,
        scratch,
    );
}

/// 2-D convolution lowered to im2col + packed GEMM (groups = 1).
///
/// Produces results bit-comparable (within FP reassociation error) to
/// [`crate::kernels::conv2d`].
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn conv2d_gemm(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
) -> Tensor {
    let d = x.shape().dims();
    let (n, ih, iw) = (d[0], d[2], d[3]);
    let wd = weight.shape().dims();
    let (out_c, kh, kw) = (wd[0], wd[2], wd[3]);
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    let mut out = Tensor::zeros([n, out_c, oh, ow]);
    let epi = Epilogue {
        bias,
        ..Epilogue::default()
    };
    let mut scratch = GemmScratch::default();
    conv2d_gemm_into(
        x,
        weight,
        stride,
        padding,
        &epi,
        false,
        1,
        &mut out,
        &mut scratch,
    );
    out
}

/// Fused dense + bias + activation on the packed GEMM:
/// `out[n×units] = act(x[n×f] · Wᵀ + bias)`, with `weight` in its natural
/// `[units×f]` layout.
///
/// Small layers (below [`DIRECT_DENSE_MAX_MACS`]) run a direct dot
/// product; larger ones pack `weight` into `scratch` and call
/// [`dense_packed_into`]. Per output element the reduction runs in
/// strictly ascending feature order with the bias added after the sum and
/// the activation applied at store time, identically at every thread
/// count and on both paths (which are selected by shape, not by thread
/// count or kernel).
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn dense_act_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    act: ActivationKind,
    threads: usize,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    let (n, f) = (x.shape().dim(0), x.shape().dim(1));
    let units = weight.shape().dim(0);
    assert_eq!(weight.shape().dim(1), f, "dense weight mismatch");
    assert_eq!(out.len(), n * units, "dense output size mismatch");
    if dense_uses_gemm(n, f, units) {
        let mut packed = std::mem::take(&mut scratch.weights);
        packed.repack(weight.data(), units, f, NR);
        dense_packed_into(x, &packed, bias, act, threads, out, scratch);
        scratch.weights = packed;
    } else {
        dense_direct_into(x, weight, bias, act, out);
    }
}

/// The direct path of `dense_act_into`: one ascending-feature dot
/// product per output over the natural `[units×f]` weights — the same
/// fused multiply-add chain as the GEMM's, so either path gives the same
/// bits. The executor runs it for the dense layers it keeps natural.
pub fn dense_direct_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    act: ActivationKind,
    out: &mut Tensor,
) {
    use crate::kernels::apply_activation;
    let (n, f) = (x.shape().dim(0), x.shape().dim(1));
    let units = weight.shape().dim(0);
    assert_eq!(weight.shape().dim(1), f, "dense weight mismatch");
    assert_eq!(out.len(), n * units, "dense output size mismatch");
    let (xd, wv) = (x.data(), weight.data());
    let od = out.data_mut();
    for b in 0..n {
        let xrow = &xd[b * f..(b + 1) * f];
        for (u, slot) in od[b * units..(b + 1) * units].iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (&xi, &wi) in xrow.iter().zip(&wv[u * f..(u + 1) * f]) {
                acc = xi.mul_add(wi, acc);
            }
            if let Some(bv) = bias {
                acc += bv[u];
            }
            *slot = apply_activation(acc, act);
        }
    }
}

/// `dense_act_into` over weights already packed into `NR`-row panels of
/// the natural `[units×f]` matrix (the B operand `Wᵀ`) — the executor's
/// path, with the packing done once at prepare time. Batches of at most
/// `MR` rows stream each panel once over its full depth.
///
/// # Panics
///
/// Panics if shapes are inconsistent, `weight` is not `NR` wide, or `out`
/// has the wrong size.
pub fn dense_packed_into(
    x: &Tensor,
    weight: &PackedPanels,
    bias: Option<&[f32]>,
    act: ActivationKind,
    threads: usize,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    use crate::kernels::apply_activation;
    let (n, f) = (x.shape().dim(0), x.shape().dim(1));
    let units = weight.rows;
    assert_eq!(out.len(), n * units, "dense output size mismatch");
    gemm_blocked(
        Operand::RowMajor(x.data()),
        Operand::Packed(weight),
        (n, f, units),
        out.data_mut(),
        threads,
        scratch.kernel,
        scratch.blocking,
        &mut scratch.pack_b,
        &mut scratch.pack_a,
    );
    if bias.is_none() && act == ActivationKind::Linear {
        return;
    }
    for row in out.data_mut().chunks_exact_mut(units) {
        if let Some(bv) = bias {
            for (v, &b0) in row.iter_mut().zip(bv) {
                *v += b0;
            }
        }
        if act != ActivationKind::Linear {
            for v in row.iter_mut() {
                *v = apply_activation(*v, act);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::simd::{avx512_available, simd_available};
    use proptest::prelude::*;

    /// Every kernel the host can run.
    fn host_kernels() -> Vec<Microkernel> {
        let mut v = vec![Microkernel::Scalar, Microkernel::Wide];
        if simd_available() {
            v.push(Microkernel::Avx2);
        }
        if avx512_available() {
            v.push(Microkernel::Avx512);
        }
        v
    }

    /// A row-major `[rows×k]` matrix packed into `width`-row panels.
    fn pack(src: &[f32], rows: usize, k: usize, width: usize) -> PackedPanels {
        let mut p = PackedPanels::default();
        p.repack(src, rows, k, width);
        p
    }

    /// The natural row-major matrix back out of the panels.
    fn unpack(p: &PackedPanels) -> Vec<f32> {
        (0..p.logical_len())
            .map(|e| p.data[p.physical(e)])
            .collect()
    }

    #[test]
    fn matmul_hand_computed() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::random([5, 5], 1);
        let mut i = Tensor::zeros([5, 5]);
        for k in 0..5 {
            let idx = k * 5 + k;
            i.data_mut()[idx] = 1.0;
        }
        let c = matmul(&a, &i);
        assert!(a.mean_abs_diff(&c) < 1e-7);
    }

    #[test]
    fn packed_matches_reference_bitwise_across_shapes() {
        // Ragged edges in every direction: m, k, n not multiples of the
        // tile sizes. Strictly-ascending-k accumulation makes the packed
        // kernel *bit*-identical to the naive reference, not just close.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 150, 130),
            (4, 8, 8),
            (5, 7, 9),
            (64, 64, 64),
            (65, 129, 33),
            (130, 31, 200),
        ] {
            let a = Tensor::random([m, k], 2);
            let b = Tensor::random([k, n], 3);
            assert_eq!(
                matmul(&a, &b).data(),
                matmul_reference(&a, &b).data(),
                "shape ({m},{k},{n})"
            );
        }
    }

    /// The autotuned blocking plus deliberately odd ones, down to `kc = 1`
    /// (every `KC` split round-trips the accumulator tile through `C`).
    fn forced_blockings() -> [Option<Blocking>; 4] {
        [
            None, // autotuned
            Some(Blocking {
                mc: 8,
                kc: 8,
                nc: 16,
            }),
            Some(Blocking {
                mc: 24,
                kc: 40,
                nc: 48,
            }),
            Some(Blocking {
                mc: 8,
                kc: 1,
                nc: 16,
            }),
        ]
    }

    #[test]
    fn every_kernel_and_blocking_is_bitwise_identical_to_reference() {
        // The tentpole claim: kernel implementation (scalar / wide shim /
        // AVX2) and blocking (including deliberately odd KC splits that
        // round-trip the accumulator tile through C) are pure performance
        // knobs — never a single bit of difference.
        for &(m, k, n) in &[(5usize, 7usize, 9usize), (65, 129, 33), (64, 576, 96)] {
            let a = Tensor::random([m, k], 21);
            let b = Tensor::random([k, n], 22);
            let want = matmul_reference(&a, &b);
            for kernel in host_kernels() {
                for blk in forced_blockings() {
                    let mut scratch = GemmScratch {
                        kernel,
                        blocking: blk,
                        ..GemmScratch::default()
                    };
                    let mut c = Tensor::zeros([m, n]);
                    matmul_into(a.data(), b.data(), (m, k, n), c.data_mut(), 1, &mut scratch);
                    assert_eq!(want.data(), c.data(), "({m},{k},{n}) {kernel:?} {blk:?}");
                }
            }
        }
    }

    #[test]
    fn packed_panels_address_logical_elements_bijectively() {
        // Ragged shapes in both panel widths, including AlexNet fc8's 1000
        // units (62.5 NR panels) and an empty depth.
        for &(rows, k, width) in &[
            (1usize, 1usize, MR),
            (9, 7, MR),
            (8, 5, MR),
            (1000, 3, NR),
            (17, 5, NR),
            (16, 4, NR),
            (3, 0, MR),
        ] {
            let src: Vec<f32> = (0..rows * k).map(|e| e as f32 + 1.0).collect();
            let p = pack(&src, rows, k, width);
            assert_eq!(p.data().len(), rows.div_ceil(width) * width * k);
            assert_eq!(p.logical_len(), rows * k);
            let mut hit = vec![false; p.data().len()];
            for (e, &v) in src.iter().enumerate() {
                let slot = p.physical(e);
                assert!(!hit[slot], "({rows},{k},{width}) slot {slot} hit twice");
                hit[slot] = true;
                assert_eq!(p.data()[slot], v, "({rows},{k},{width}) element {e}");
            }
            // The slots no logical element maps to are exactly the zero
            // padding rows of the last panel.
            for (slot, _) in hit.iter().enumerate().filter(|(_, &h)| !h) {
                let row = slot / (k * width) * width + slot % width;
                assert!(row >= rows, "({rows},{k},{width}) slot {slot} is row {row}");
                assert_eq!(p.data()[slot], 0.0);
            }
            assert_eq!(unpack(&p), src, "({rows},{k},{width}) unpack");
            // Generating the same natural-order stream panel by panel yields
            // the same buffer as packing it.
            let mut next = 0.0f32;
            let generated = PackedPanels::try_generate(rows, k, width, |panel_rows| {
                for v in panel_rows {
                    next += 1.0;
                    *v = next;
                }
            })
            .unwrap();
            assert_eq!(generated, p, "({rows},{k},{width}) generate");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Prepacked weights on ragged shapes: 1..=MR+1 rows (the stream
        /// path and the blocked path), unit counts off the NR grid, depths
        /// off every KC, batches 1–4 — bit for bit the naive reference with
        /// the epilogue applied in the same order, on every host kernel
        /// tier, every forced blocking and 1, 2 and 8 threads.
        #[test]
        fn prepacked_operands_are_bitwise_identical_to_reference(
            case in (1usize..=MR + 1, 1usize..=60, 1usize..=40, 1usize..=4, 0usize..1000)
        ) {
            let (m, units, in_c, batch, seed) = case;
            let seed = seed as u64;
            let units = if units % NR == 0 { units + 1 } else { units };
            let acts = [
                ActivationKind::Relu,
                ActivationKind::Sigmoid,
                ActivationKind::Linear,
                ActivationKind::Leaky,
            ];
            let act = acts[seed as usize % acts.len()];

            // Dense: m rows of x against [units × k] weights, k ≡ 1..7 mod 8.
            let k = 8 * in_c + 1 + (seed as usize % 7);
            let x = Tensor::random([m, k], seed);
            let w = Tensor::random([units, k], seed ^ 1);
            let bias: Vec<f32> = Tensor::random([units], seed ^ 2).data().to_vec();
            let mut wt = Tensor::zeros([k, units]);
            for u in 0..units {
                for kk in 0..k {
                    wt.data_mut()[kk * units + u] = w.data()[u * k + kk];
                }
            }
            let mut want = matmul_reference(&x, &wt);
            for row in want.data_mut().chunks_exact_mut(units) {
                for (v, &b0) in row.iter_mut().zip(&bias) {
                    *v = kernels::apply_activation(*v + b0, act);
                }
            }
            let wp = pack(w.data(), units, k, NR);

            // Conv: m output channels, 3×3 over in_c channels (depth 9·in_c,
            // past the autotuned KC for in_c > 28), batch 1–4.
            let (hw, stride, pad) = (4 + seed as usize % 6, 1 + seed as usize % 2, seed as usize % 2);
            let cx = Tensor::random([batch, in_c, hw, hw], seed ^ 3);
            let cw = Tensor::random([m, in_c, 3, 3], seed ^ 4);
            let cb: Vec<f32> = Tensor::random([m], seed ^ 5).data().to_vec();
            let gamma: Vec<f32> = Tensor::random([m], seed ^ 6).data().to_vec();
            let beta: Vec<f32> = Tensor::random([m], seed ^ 7).data().to_vec();
            let oh = TensorShape::conv_out_extent(hw, 3, stride, pad).unwrap();
            let (kdim, cols) = (in_c * 9, oh * oh);
            let cw_mat = Tensor::from_vec([m, kdim], cw.data().to_vec());
            let mut cwant = Tensor::zeros([batch, m, oh, oh]);
            let mut im = vec![0.0; kdim * cols];
            for b in 0..batch {
                im2col_into(&cx, b, (3, 3), (stride, stride), (pad, pad), oh, oh, &mut im);
                let prod = matmul_reference(&cw_mat, &Tensor::from_vec([kdim, cols], im.clone()));
                for (oc, row) in prod.data().chunks_exact(cols).enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        let v = gamma[oc] * (v + cb[oc]) + beta[oc];
                        cwant.data_mut()[(b * m + oc) * cols + j] = kernels::apply_activation(v, act);
                    }
                }
            }
            let cwp = pack(cw.data(), m, kdim, MR);
            let epi = Epilogue { bias: Some(&cb), bn: Some((&gamma, &beta)), act };

            for kernel in host_kernels() {
                for blocking in forced_blockings() {
                    for threads in [1, 2, 8] {
                        let mut scratch = GemmScratch { kernel, blocking, ..GemmScratch::default() };
                        let mut got = Tensor::zeros([m, units]);
                        dense_packed_into(&x, &wp, Some(&bias), act, threads, &mut got, &mut scratch);
                        prop_assert_eq!(got.data(), want.data(), "dense {kernel:?} {blocking:?} t{threads}");
                        let mut cgot = Tensor::zeros([batch, m, oh, oh]);
                        conv2d_packed_into(
                            &cx, &cwp, (3, 3), (stride, stride), (pad, pad), &epi, threads,
                            &mut cgot, &mut scratch,
                        );
                        prop_assert_eq!(cgot.data(), cwant.data(), "conv {kernel:?} {blocking:?} t{threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_matmul_is_byte_identical() {
        let a = Tensor::random([150, 70], 5);
        let b = Tensor::random([70, 90], 6);
        let serial = matmul_threaded(&a, &b, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                matmul_threaded(&a, &b, threads).data(),
                serial.data(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scratch_reuse_larger_then_smaller_matches_fresh() {
        // Regression for the pack-buffer reuse hazard: buffers only grow,
        // so a large shape followed by a smaller one leaves stale packed
        // panels in the tail. The kernels must only ever read the
        // freshly-packed prefix — byte-compared here against fresh
        // buffers, across every kernel, for row-major and prepacked B.
        let shapes = [
            (130usize, 200usize, 150usize),
            (5, 7, 9),
            (64, 64, 64),
            (3, 150, 130),
            (1, 1, 1),
            (65, 129, 33),
        ];
        for kernel in host_kernels() {
            let mut reused = GemmScratch {
                kernel,
                ..GemmScratch::default()
            };
            for (i, &(m, k, n)) in shapes.iter().enumerate() {
                let a = Tensor::random([m, k], 40 + i as u64);
                let b = Tensor::random([k, n], 80 + i as u64);
                let mut fresh_scratch = GemmScratch {
                    kernel,
                    ..GemmScratch::default()
                };
                let mut want = Tensor::zeros([m, n]);
                matmul_into(
                    a.data(),
                    b.data(),
                    (m, k, n),
                    want.data_mut(),
                    1,
                    &mut fresh_scratch,
                );
                let mut got = Tensor::zeros([m, n]);
                matmul_into(
                    a.data(),
                    b.data(),
                    (m, k, n),
                    got.data_mut(),
                    2,
                    &mut reused,
                );
                assert_eq!(want.data(), got.data(), "step {i} ({m},{k},{n}) {kernel:?}");
                // Dense path (weights packed into the scratch) through the
                // same buffers.
                let x = Tensor::random([m, k], 140 + i as u64);
                let w = Tensor::random([n, k], 180 + i as u64);
                let mut want_d = Tensor::zeros([m, n]);
                dense_act_into(
                    &x,
                    &w,
                    None,
                    ActivationKind::Linear,
                    1,
                    &mut want_d,
                    &mut GemmScratch {
                        kernel,
                        ..GemmScratch::default()
                    },
                );
                let mut got_d = Tensor::zeros([m, n]);
                dense_act_into(
                    &x,
                    &w,
                    None,
                    ActivationKind::Linear,
                    1,
                    &mut got_d,
                    &mut reused,
                );
                assert_eq!(want_d.data(), got_d.data(), "dense step {i} {kernel:?}");
            }
        }
    }

    #[test]
    fn sparse_matmul_matches_dense_bitwise() {
        // Zero out a chunk of A exactly, as the pruned WeightStore does:
        // skipping 0·x terms must not change a single bit.
        let mut a = Tensor::random([67, 50], 8);
        for (i, v) in a.data_mut().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = Tensor::random([50, 40], 9);
        let dense = matmul(&a, &b);
        let mut sparse = Tensor::zeros([67, 40]);
        matmul_sparse_into(a.data(), b.data(), (67, 50, 40), sparse.data_mut(), 1);
        assert_eq!(dense.data(), sparse.data());
        // And across thread counts.
        let mut sparse4 = Tensor::zeros([67, 40]);
        matmul_sparse_into(a.data(), b.data(), (67, 50, 40), sparse4.data_mut(), 4);
        assert_eq!(dense.data(), sparse4.data());
    }

    #[test]
    fn matmul_into_overwrites_recycled_buffers() {
        // Simulate an arena-recycled output full of stale garbage.
        let a = Tensor::random([10, 12], 4);
        let b = Tensor::random([12, 11], 5);
        let clean = matmul(&a, &b);
        let mut dirty = vec![f32::NAN; 110];
        let mut scratch = GemmScratch::default();
        matmul_into(
            a.data(),
            b.data(),
            (10, 12, 11),
            &mut dirty,
            1,
            &mut scratch,
        );
        assert_eq!(clean.data(), &dirty[..]);
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        for &(cin, cout, hw, k, s, p) in &[
            (3usize, 8usize, 11usize, 3usize, 1usize, 1usize),
            (4, 6, 9, 3, 2, 1),
            (2, 5, 8, 5, 1, 2),
            (3, 7, 10, 1, 1, 0),
        ] {
            let x = Tensor::random([2, cin, hw, hw], 10);
            let w = Tensor::random([cout, cin, k, k], 11);
            let bias: Vec<f32> = (0..cout).map(|i| i as f32 * 0.1).collect();
            let direct = kernels::conv2d(&x, &w, Some(&bias), (s, s), (p, p), 1);
            let gemm = conv2d_gemm(&x, &w, Some(&bias), (s, s), (p, p));
            assert_eq!(direct.shape(), gemm.shape());
            assert!(
                direct.mean_abs_diff(&gemm) < 1e-4,
                "cin={cin} cout={cout} k={k}: diff {}",
                direct.mean_abs_diff(&gemm)
            );
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_kernels() {
        use edgebench_graph::ActivationKind as A;
        let x = Tensor::random([2, 3, 12, 12], 20);
        let w = Tensor::random([16, 3, 3, 3], 21);
        let bias: Vec<f32> = (0..16).map(|i| i as f32 * 0.05 - 0.3).collect();
        let gamma: Vec<f32> = (0..16).map(|i| 1.0 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..16).map(|i| 0.2 - 0.02 * i as f32).collect();
        for &(s, p) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            for act in [A::Relu, A::Relu6, A::Leaky, A::Sigmoid, A::Tanh, A::Linear] {
                // Unfused: conv (+bias) → batch-norm → activation.
                let conv = conv2d_gemm(&x, &w, Some(&bias), (s, s), (p, p));
                let bn = kernels::batch_norm(&conv, &gamma, &beta);
                let expect = kernels::activation(&bn, act);
                // Fused: one pass.
                let mut got = Tensor::zeros(conv.shape().dims().to_vec());
                let epi = Epilogue {
                    bias: Some(&bias),
                    bn: Some((&gamma, &beta)),
                    act,
                };
                let mut scratch = GemmScratch::default();
                conv2d_gemm_into(
                    &x,
                    &w,
                    (s, s),
                    (p, p),
                    &epi,
                    false,
                    1,
                    &mut got,
                    &mut scratch,
                );
                assert_eq!(expect.data(), got.data(), "s={s} p={p} act={act:?}");
            }
        }
    }

    #[test]
    fn conv_algo_selection_table() {
        // Grouped layers never take the GEMM lowering.
        assert_eq!(select_conv_algo(1 << 20, 1 << 10, 2), ConvAlgo::Direct);
        // Tiny layers stay direct; big ones lower to im2col + GEMM.
        assert_eq!(select_conv_algo(64, 27, 1), ConvAlgo::Direct);
        assert_eq!(
            select_conv_algo(28 * 28 * 64, 32 * 9, 1),
            ConvAlgo::Im2colGemm
        );
        // The boundary itself is inclusive for Direct.
        assert_eq!(select_conv_algo(1 << 8, 1 << 8, 1), ConvAlgo::Direct);
        assert_eq!(
            select_conv_algo((1 << 8) + 1, 1 << 8, 1),
            ConvAlgo::Im2colGemm
        );
        // Overflow-safe on absurd shapes.
        assert_eq!(
            select_conv_algo(usize::MAX, usize::MAX, 1),
            ConvAlgo::Im2colGemm
        );
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_mismatched_dims() {
        let _ = matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }
}
