//! Panel-packed, cache-blocked GEMM and the convolution lowering built on
//! it — the production-style CPU hot path every framework the paper
//! studies builds on (Caffe popularized im2col + GEMM; TF/PyTorch CPU
//! backends still ship packed-panel kernels of exactly this shape).
//!
//! # Structure
//!
//! `C[m×n] = A[m×k] · B[k×n]` runs as the classic three-level blocked loop
//! (see [`crate::blocking`] for how MC/KC/NC are autotuned to the host
//! caches, once per process):
//!
//! ```text
//! for jc in 0..n step NC          # B block stays cache-resident
//!   for pc in 0..k step KC        # B[pc.., jc..] as NR panels
//!     for ic in 0..m step MC      # A[ic.., pc..] as MR panels
//!       micro-kernel over every MR×NR tile   (see crate::simd)
//! ```
//!
//! * **B** is read as k-major column panels of `NR`, so the micro-kernel
//!   streams it with unit stride. Ragged right edges are zero-padded.
//! * **A** is read as micro-panels of `MR` interleaved rows, again
//!   k-major. Ragged bottom edges are zero-padded.
//!
//! An activation operand (a dense layer's input) is packed into that
//! layout per block on every call. A weight operand reaches the GEMM only
//! packed: [`crate::Executor::prepare`] generates it, once, into a
//! [`PackedPanels`] buffer of *full-depth* panels — conv weights
//! `[out_c × in_c·kh·kw]` as `MR`-row A panels, dense weights
//! `[units × features]` as `NR`-column B panels (their transpose, never
//! materialized) — or keeps it natural for a direct loop. Any `KC`, `MC`
//! or `NC` slice of a full-depth panel set is a contiguous sub-range of
//! it, so every blocking, kernel tier and thread count reads the same
//! panels. Dense layers with at most `MR` rows (batch ≤ 8) skip the
//! blocked loop: each B panel is streamed once over its whole depth
//! against the input rows, with the panels split across the intra-op
//! workers ([`crate::simd`]'s stream kernel).
//!
//! A convolution is, per image, the GEMM of its weights and the im2col
//! matrix `[in_c·kh·kw × oh·ow]` of its input — a matrix that is never
//! written out. `pack_b_from_image` packs each `KC×NC` block of it
//! straight from the NCHW input into `NR`-column panels, and a 1×1,
//! stride-1, unpadded convolution packs its input plane, which *is* that
//! matrix. The work splits into (image, output-column block) tasks, or
//! (image, row panel) tasks when the layer has fewer column panels than
//! workers; each task packs its B blocks into its worker's own buffer,
//! sweeps them against the prepacked weights and applies the fused
//! epilogue to its block, so the workers pack in parallel and the pool
//! starts once per convolution.
//!
//! The register micro-kernel ([`crate::simd`]: runtime-dispatched
//! AVX-512 or AVX2/FMA, portable 8-lane shim, or scalar) accumulates an
//! `MR×NR` tile of `C`, walking the `KC` block in ascending `k`, and
//! stores only the valid region; a tile whose valid columns fit in its
//! first 16 lanes computes only those.
//!
//! # Determinism
//!
//! For every output element the reduction order is **strictly ascending
//! `k`**, regardless of tiling, kernel choice or thread count: packing
//! permutes memory layout, never the accumulation sequence; zero-padded
//! rows and columns only feed tile lanes that are never stored; between
//! `KC` blocks the accumulator tile round-trips through `C` — an exact f32
//! store/reload — so the fused-multiply-add chain continues bit for bit;
//! and SIMD lanes hold *independent output elements*, never partial sums
//! of one reduction. Parallelism splits `C` into disjoint blocks — row panels,
//! column blocks, or on the stream path column panels — each computed
//! independently, so results are byte-identical for 1..N threads and for
//! every kernel (asserted by tests and by `scripts/verify.sh`).

use crate::blocking::{cache_info, Blocking};
use crate::pool;
use crate::simd::{self, KernelKind, Microkernel, MR, NR};
use crate::Tensor;
use edgebench_graph::{ActivationKind, TensorShape};
use std::collections::TryReserveError;
use std::marker::PhantomData;

/// How a convolution should be realized at a given shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConvAlgo {
    /// Nested-loop direct convolution (tiny or grouped layers).
    Direct,
    /// Packed GEMM over B panels packed from the image (everything else).
    Gemm,
}

/// Crossover for [`select_conv_algo`]: layers at or below this many
/// multiply-accumulates run the direct kernel; larger ones take the packed
/// GEMM. No benchmark brackets the boundary itself. The one direct/GEMM
/// pair in `BENCH_kernels.json` sits far above it, at 14.5 MMAC
/// (`conv_direct_32x28->64` against `conv_prepacked_32x28->64`, 32×28² →
/// 64, k3), where the GEMM path is 86× faster in the `a2f49d8+` snapshot.
/// 64 KMAC keeps only layers of a few thousand outputs, where packing
/// cannot amortize, on the direct loop.
pub(crate) const DIRECT_CONV_MAX_MACS: usize = 1 << 16;

/// Per-shape convolution algorithm selection, used by the executor.
/// `out_elems` is the output tensor's element count, `fan_in` the MACs per
/// output element (`in_c/groups · kh · kw`).
pub(crate) fn select_conv_algo(out_elems: usize, fan_in: usize, groups: usize) -> ConvAlgo {
    if groups != 1 {
        // No grouped GEMM lowering — grouped/depthwise layers are small
        // per-group GEMMs where packing overhead dominates anyway.
        return ConvAlgo::Direct;
    }
    if out_elems.saturating_mul(fan_in) > DIRECT_CONV_MAX_MACS {
        ConvAlgo::Gemm
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
#[derive(Debug)]
pub struct PackedPanels {
    data: Vec<f32>,
    rows: usize,
    k: usize,
    width: usize,
}

impl PackedPanels {
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

/// Reusable packing buffers plus the resolved kernel and blocking for the
/// GEMM path.
///
/// The executor's arena owns one per [`crate::PreparedExecutor`], so
/// steady-state inference reuses the same allocations; any other caller of
/// [`conv2d_packed_into`] or [`dense_packed_into`] keeps its own across
/// calls. A new scratch runs the tier [`simd::resolve`] picks for
/// [`KernelKind::Auto`], and [`GemmScratch::set_kernel`] sets another — no
/// GEMM call resolves one.
#[derive(Debug)]
pub struct GemmScratch {
    /// One packing buffer per intra-op worker: the blocked GEMM packs A
    /// micro-panels into it, a convolution its B blocks.
    workers: Vec<Vec<f32>>,
    /// The resolved micro-kernel implementation.
    kernel: Microkernel,
    /// Fixed blocking override; `None` autotunes per shape from the
    /// detected cache hierarchy.
    blocking: Option<Blocking>,
}

impl Default for GemmScratch {
    fn default() -> Self {
        GemmScratch {
            workers: Vec::new(),
            kernel: simd::resolve(KernelKind::Auto),
            blocking: None,
        }
    }
}

impl GemmScratch {
    /// Sets the micro-kernel tier.
    pub fn set_kernel(&mut self, tier: Microkernel) {
        self.kernel = tier;
    }

    /// The resolved micro-kernel tier, which the executor's depthwise
    /// path runs on too.
    pub(crate) fn kernel(&self) -> Microkernel {
        self.kernel
    }

    /// Grows one B-block buffer per worker to what the convolution with
    /// prepacked `weight` and output shape `out` needs at `threads`, so
    /// later runs allocate nothing. Called from `Executor::prepare`. The
    /// conv's A operand is its prepacked weights, so no A scratch is
    /// reserved. On allocation failure returns the element count of the
    /// buffer that could not be grown.
    pub(crate) fn reserve(
        &mut self,
        weight: &PackedPanels,
        out: &TensorShape,
        threads: usize,
    ) -> Result<(), usize> {
        let dims = (weight.rows, weight.k, out.height() * out.width());
        let split = ConvSplit::new(dims, out.batch(), threads, self.blocking);
        if self.workers.len() < split.workers {
            self.workers.resize(split.workers, Vec::new());
        }
        for buf in &mut self.workers[..split.workers] {
            grow(buf, split.b_len())?;
        }
        Ok(())
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

/// A block of rows × columns of a row-major matrix (row stride `ld`) that
/// one task writes while other tasks write other blocks of the same
/// matrix. Blocks come only from [`Block::new`], which borrows the whole
/// matrix exclusively, and from splitting a block in two, so no two live
/// blocks share an element — the 2-D counterpart of `split_at_mut`.
struct Block<'a> {
    /// First element of row 0. Row `i < rows` is the `cols` floats from
    /// `ptr + i·ld`, all inside the matrix `new` borrowed.
    ptr: *mut f32,
    ld: usize,
    rows: usize,
    cols: usize,
    _matrix: PhantomData<&'a mut [f32]>,
}

// SAFETY: a block is an exclusive borrow of its elements — no other live
// block or slice reaches them — exactly as the `&mut [f32]` it was split
// from, which is `Send`; `ld`, `rows` and `cols` are plain integers.
unsafe impl Send for Block<'_> {}

impl<'a> Block<'a> {
    /// The whole `[c.len()/ld × ld]` matrix `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `c` holds a whole number of rows of `ld > 0`.
    fn new(c: &'a mut [f32], ld: usize) -> Block<'a> {
        assert!(
            ld > 0 && c.len().is_multiple_of(ld),
            "{} floats are not rows of {ld}",
            c.len()
        );
        Block {
            ptr: c.as_mut_ptr(),
            ld,
            rows: c.len() / ld,
            cols: ld,
            _matrix: PhantomData,
        }
    }

    /// Splits the block into its first `at` rows and the rest.
    fn split_rows(self, at: usize) -> (Block<'a>, Block<'a>) {
        assert!(at <= self.rows, "row split {at} past {} rows", self.rows);
        let rest = Block {
            // Never dereferenced when no rows remain, hence wrapping.
            ptr: self.ptr.wrapping_add(at * self.ld),
            rows: self.rows - at,
            ..self
        };
        (Block { rows: at, ..self }, rest)
    }

    /// Splits the block into its first `at` columns and the rest.
    fn split_cols(self, at: usize) -> (Block<'a>, Block<'a>) {
        assert!(
            at <= self.cols,
            "column split {at} past {} columns",
            self.cols
        );
        let rest = Block {
            // Never dereferenced when no columns remain, hence wrapping.
            ptr: self.ptr.wrapping_add(at),
            cols: self.cols - at,
            ..self
        };
        (Block { cols: at, ..self }, rest)
    }

    /// Row `i` of the block.
    fn row(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} of a {}-row block", self.rows);
        // SAFETY: by the invariant on `ptr`, row `i < rows` is `cols`
        // in-bounds floats of the borrowed matrix that no other live
        // block reaches, and `&mut self` keeps this the only slice of the
        // block alive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols) }
    }
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

/// One convolution's geometry: an image's input extent, the kernel,
/// stride and padding, and the output extent. Per image, the layer is the
/// GEMM of its `[out_c × k]` weights and the `[k × n]` im2col matrix of
/// the input, `k = in_c·kh·kw` and `n = oh·ow`: row `(c·kh + ky)·kw + kx`,
/// column `oy·ow + ox` holds the input at `(c, oy·sy + ky − py,
/// ox·sx + kx − px)`, or `0.0` where that falls in the padding.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    in_c: usize,
    ih: usize,
    iw: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    oh: usize,
    ow: usize,
}

impl ConvGeom {
    /// The geometry of a `kernel` convolution over the NCHW `input`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    fn new(
        input: &TensorShape,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> ConvGeom {
        let (in_c, ih, iw) = (input.channels(), input.height(), input.width());
        let extent = |i, k, s, p| TensorShape::conv_out_extent(i, k, s, p).expect("kernel fits");
        ConvGeom {
            in_c,
            ih,
            iw,
            kernel,
            stride,
            padding,
            oh: extent(ih, kernel.0, stride.0, padding.0),
            ow: extent(iw, kernel.1, stride.1, padding.1),
        }
    }

    /// The GEMM depth, `in_c·kh·kw`.
    fn k(&self) -> usize {
        self.in_c * self.kernel.0 * self.kernel.1
    }

    /// The GEMM width, `oh·ow`.
    fn n(&self) -> usize {
        self.oh * self.ow
    }

    /// Floats of one input image.
    fn image_len(&self) -> usize {
        self.in_c * self.ih * self.iw
    }
}

/// Packs the `[pc..pc+kcb, jc..jc+ncb]` block of one image's im2col matrix
/// (see [`ConvGeom`]) into k-major `NR`-column panels, straight from the
/// `[in_c × ih × iw]` `image`, and returns the packed length. The bytes
/// are exactly those [`pack_b_block`] writes from the materialized matrix:
/// values are copied with their bits, padding taps are `+0.0`, and lanes
/// past the ragged edge are zero-filled.
///
/// A 1×1, stride-1, unpadded convolution's im2col matrix *is* its input
/// plane, which [`pack_b_block`] packs directly. Otherwise each panel's
/// lanes are cut into runs that share an output row; per depth a run
/// reads one input row, so its in-bounds taps are one contiguous copy at
/// stride 1 and a strided gather otherwise, with zeros either side.
fn pack_b_from_image(
    image: &[f32],
    g: &ConvGeom,
    (pc, kcb): (usize, usize),
    (jc, ncb): (usize, usize),
    out: &mut Vec<f32>,
) -> usize {
    assert_eq!(image.len(), g.image_len(), "image length mismatch");
    if g.kernel == (1, 1) && g.stride == (1, 1) && g.padding == (0, 0) {
        return pack_b_block(image, (g.k(), g.n()), (pc, kcb), (jc, ncb), out);
    }
    let ((kh, kw), (sy, sx), (py, px)) = (g.kernel, g.stride, g.padding);
    let plane = g.ih * g.iw;
    let panels = ncb.div_ceil(NR);
    let need = panels * kcb * NR;
    if out.len() < need {
        out.resize(need, 0.0);
    }
    for (jp, panel) in out[..need].chunks_exact_mut(kcb * NR).enumerate() {
        let j0 = jc + jp * NR;
        let width = (ncb - jp * NR).min(NR);
        // Runs of lanes in one output row: (first lane, lanes, padded
        // input row and column of the run's first tap at ky = kx = 0).
        let mut runs = [(0usize, 0usize, 0usize, 0usize); NR];
        let mut nruns = 0;
        let mut lane = 0;
        while lane < width {
            let (oy, ox) = ((j0 + lane) / g.ow, (j0 + lane) % g.ow);
            let len = (g.ow - ox).min(width - lane);
            runs[nruns] = (lane, len, oy * sy, ox * sx);
            nruns += 1;
            lane += len;
        }
        let (mut c, mut ky, mut kx) = (pc / (kh * kw), pc / kw % kh, pc % kw);
        for dst in panel.chunks_exact_mut(NR) {
            let chan = &image[c * plane..(c + 1) * plane];
            for &(l0, len, top, left) in &runs[..nruns] {
                let seg = &mut dst[l0..l0 + len];
                let iy = top + ky;
                if iy < py || iy - py >= g.ih {
                    seg.fill(0.0);
                    continue;
                }
                let row = &chan[(iy - py) * g.iw..(iy - py + 1) * g.iw];
                // Lane t reads padded column x0 + t·sx: in bounds for
                // t in lo..hi (no division for an interior run).
                let x0 = left + kx;
                let lo = if x0 >= px {
                    0
                } else {
                    (px - x0).div_ceil(sx).min(len)
                };
                let hi = if x0 + (len - 1) * sx < px + g.iw {
                    len
                } else {
                    (px + g.iw).saturating_sub(x0).div_ceil(sx).clamp(lo, len)
                };
                seg[..lo].fill(0.0);
                if lo < hi {
                    let from = x0 + lo * sx - px;
                    let src = &row[from..=from + (hi - lo - 1) * sx];
                    let inside = &mut seg[lo..hi];
                    if sx == 1 {
                        inside.copy_from_slice(src);
                    } else {
                        for (t, d) in inside.iter_mut().enumerate() {
                            *d = src[t * sx];
                        }
                    }
                }
                seg[hi..].fill(0.0);
            }
            dst[width..].fill(0.0);
            kx += 1;
            if kx == kw {
                kx = 0;
                ky += 1;
                if ky == kh {
                    ky = 0;
                    c += 1;
                }
            }
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

/// The micro-kernel sweep over one row panel of A × one block of B
/// panels, into the block `c` of `C` whose column 0 is the first B
/// panel's first lane: every `MR×NR` tile of `c` is loaded (after the
/// first `KC` block), accumulated over `kcb` ascending-`k` steps (on the
/// kernel's 16-lane half when its valid columns fit there), and stored
/// back — only the valid region touches memory. The blocked GEMM
/// and the convolution both run their tiles through it.
fn gemm_panel(
    kernel: Microkernel,
    pa: PanelView<'_>,
    pb: PanelView<'_>,
    kcb: usize,
    first: bool,
    c: &mut Block<'_>,
) {
    let (rows, ncols) = (c.rows, c.cols);
    for mb in 0..rows.div_ceil(MR) {
        let apan = pa.panel(mb, kcb * MR);
        let mr = (rows - mb * MR).min(MR);
        for jp in 0..ncols.div_ceil(NR) {
            let bpan = pb.panel(jp, kcb * NR);
            let j0 = jp * NR;
            let nr = (ncols - j0).min(NR);
            let mut acc: simd::Acc = [[0.0; NR]; MR];
            if !first {
                for (i, row) in acc.iter_mut().enumerate().take(mr) {
                    row[..nr].copy_from_slice(&c.row(mb * MR + i)[j0..j0 + nr]);
                }
            }
            simd::run(kernel, apan, bpan, kcb, nr, &mut acc);
            for (i, row) in acc.iter().enumerate().take(mr) {
                c.row(mb * MR + i)[j0..j0 + nr].copy_from_slice(&row[..nr]);
            }
        }
    }
}

/// The blocked GEMM driver of a row-major A against prepacked B panels:
/// the MC row panels are the parallel tasks, run on one start of the
/// worker pool, and each walks the NC/KC blocks in order, packing its own
/// A block per KC step and slicing B's panels in place. Every element
/// keeps its ascending-`k` chain, so neither the split nor the worker count
/// changes a bit. At most `MR` rows of A take the stream path instead.
fn gemm_blocked(
    a: &[f32],
    b: &PackedPanels,
    (m, k, n): (usize, usize, usize),
    c: &mut [f32],
    threads: usize,
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!((b.rows, b.k, b.width), (n, k, NR), "B panel shape");
    assert_eq!(c.len(), m * n, "C length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let kernel = scratch.kernel;
    if m <= MR {
        stream_packed_b(kernel, a, b, (m, k, n), c, threads);
        return;
    }
    let blk = scratch
        .blocking
        .unwrap_or_else(|| Blocking::auto((m, k, n)));
    // Prepacked panels are sliced at panel boundaries, so NC is a whole
    // number of panels (output bytes never depend on it).
    let (kc, nc) = (blk.kc.max(1), blk.nc.max(NR).next_multiple_of(NR));
    // The MC panel is also the parallel work unit: shrink it when the
    // worker pool would otherwise sit idle.
    let workers_avail = pool::effective_threads(threads);
    let mc = row_panel(blk.mc, m, workers_avail);
    let workers = workers_avail.min(m.div_ceil(mc)).max(1);
    let pa_bufs = &mut scratch.workers;
    if pa_bufs.len() < workers {
        pa_bufs.resize(workers, Vec::new());
    }
    let tasks: Vec<(usize, &mut [f32])> = c.chunks_mut(mc * n).enumerate().collect();
    pool::run_tasks(tasks, &mut pa_bufs[..workers], |pa, (pi, cpanel)| {
        let row0 = pi * mc;
        let rows = (m - row0).min(mc);
        for jc in (0..n).step_by(nc) {
            let ncb = (n - jc).min(nc);
            for pc in (0..k).step_by(kc) {
                let kcb = (k - pc).min(kc);
                pack_a_block(a, k, (row0, rows), (pc, kcb), pa);
                let pan = PanelView {
                    data: pa,
                    stride: kcb * MR,
                };
                let (_, right) = Block::new(cpanel, n).split_cols(jc);
                let (mut cblock, _) = right.split_cols(ncb);
                gemm_panel(kernel, pan, b.view(jc / NR, pc), kcb, pc == 0, &mut cblock);
            }
        }
    });
}

/// Rows per parallel row panel: the blocking's `mc`, shrunk so `workers`
/// workers all get one, in whole `MR` micro-panels.
fn row_panel(mc: usize, m: usize, workers: usize) -> usize {
    let mc = if workers > 1 {
        mc.min(m.div_ceil(workers).next_multiple_of(MR))
    } else {
        mc
    };
    mc.max(MR).next_multiple_of(MR)
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
    /// Applies the epilogue in place to `row`, a run of output channel
    /// `oc`'s values.
    fn apply_row(&self, oc: usize, row: &mut [f32]) {
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

/// How a convolution's per-image `[m×k]·[k×n]` GEMMs split into tasks.
/// By output columns when the layer has at least as many `NR` column
/// panels as workers: each task owns every row of a block of columns,
/// and an image has enough blocks that the batch's tasks divide evenly
/// among the workers. Otherwise by row panels, each task owning every
/// column of its rows. A task packs its B blocks, `kc × nc` at most, into
/// its worker's buffer. The split moves work between workers, never a
/// byte of output.
#[derive(Debug, Clone, Copy)]
struct ConvSplit {
    kc: usize,
    /// Columns per packed B block, a multiple of `NR`.
    nc: usize,
    /// Rows and columns of `C` per task.
    task: (usize, usize),
    workers: usize,
}

impl ConvSplit {
    fn new(
        (m, k, n): (usize, usize, usize),
        batch: usize,
        threads: usize,
        blocking: Option<Blocking>,
    ) -> ConvSplit {
        let blk =
            blocking.unwrap_or_else(|| Blocking::choose_prepacked_a((m, k, n), &cache_info()));
        let kc = blk.kc.clamp(1, k.max(1));
        let panels = n.div_ceil(NR);
        let nc = blk.nc.div_ceil(NR).clamp(1, panels.max(1)) * NR;
        let workers = pool::effective_threads(threads);
        let (nc, task) = if panels >= workers {
            let mut blocks = panels.div_ceil(nc / NR);
            while !(batch * blocks).is_multiple_of(workers) && blocks < panels {
                blocks += 1;
            }
            let nc = panels.div_ceil(blocks) * NR;
            (nc, (m.max(1), nc))
        } else {
            (nc, (row_panel(blk.mc, m, workers), n.max(1)))
        };
        let tasks = batch * m.div_ceil(task.0) * n.div_ceil(task.1);
        ConvSplit {
            kc,
            nc,
            task,
            workers: workers.min(tasks).max(1),
        }
    }

    /// Floats of one worker's packed B block.
    fn b_len(&self) -> usize {
        self.kc * self.nc
    }
}

/// Packed-GEMM convolution into a caller-provided output tensor, with the
/// bias/batch-norm/activation epilogue fused into the same pass — the
/// executor's path for every convolution `select_conv_algo` sends to the
/// GEMM. `weight` holds the `[out_c × in_c·kh·kw]` weight matrix packed
/// into `MR`-row A panels, once, at prepare time; `kernel` is `(kh, kw)`.
/// `out` must already have the `[n, out_c, oh, ow]` shape; every element
/// is overwritten.
///
/// The output splits into `ConvSplit` tasks, all run in one pass of the
/// worker pool. A task sweeps its block of one image's `[out_c × oh·ow]`
/// output `nc` columns at a time: per `KC` block it packs B from the
/// image into its worker's buffer and runs the tile sweep against the
/// weight panels, then applies the epilogue to the finished columns while
/// they are still in cache.
///
/// # Panics
///
/// Panics on inconsistent shapes, if `weight` is not `MR` wide, or if the
/// kernel does not fit the padded input.
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
    let g = ConvGeom::new(x.shape(), kernel, stride, padding);
    let (m, k, n, batch) = (weight.rows, g.k(), g.n(), x.shape().batch());
    assert_eq!((weight.k, weight.width), (k, MR), "weight panel shape");
    assert_eq!(out.len(), batch * m * n, "output shape mismatch");
    if out.is_empty() {
        return;
    }
    let split = ConvSplit::new((m, k, n), batch, threads, scratch.blocking);
    let (task_rows, task_cols) = split.task;
    let mut tasks = Vec::with_capacity(batch * m.div_ceil(task_rows) * n.div_ceil(task_cols));
    for (b, slab) in out.data_mut().chunks_exact_mut(m * n).enumerate() {
        let mut rows = Block::new(slab, n);
        for row0 in (0..m).step_by(task_rows) {
            let (mut cols, rest) = rows.split_rows(task_rows.min(m - row0));
            rows = rest;
            for col0 in (0..n).step_by(task_cols) {
                let (block, rest) = cols.split_cols(task_cols.min(n - col0));
                cols = rest;
                tasks.push((b, (row0, col0), block));
            }
        }
    }
    let bufs = &mut scratch.workers;
    if bufs.len() < split.workers {
        bufs.resize(split.workers, Vec::new());
    }
    let (kernel, xd, image) = (scratch.kernel, x.data(), g.image_len());
    pool::run_tasks(
        tasks,
        &mut bufs[..split.workers],
        |buf, (b, (row0, col0), block)| {
            let image = &xd[b * image..(b + 1) * image];
            let mut cols = block;
            for jc in (col0..col0 + cols.cols).step_by(split.nc) {
                let width = split.nc.min(cols.cols);
                let (mut c, rest) = cols.split_cols(width);
                cols = rest;
                let ncb = c.cols;
                for pc in (0..k).step_by(split.kc) {
                    let kcb = (k - pc).min(split.kc);
                    let need = pack_b_from_image(image, &g, (pc, kcb), (jc, ncb), buf);
                    let pb = PanelView {
                        data: &buf[..need],
                        stride: kcb * NR,
                    };
                    gemm_panel(kernel, weight.view(row0 / MR, pc), pb, kcb, pc == 0, &mut c);
                }
                for i in 0..c.rows {
                    epilogue.apply_row(row0 + i, c.row(i));
                }
            }
        },
    );
}

/// [`dense_packed_into`] as a direct loop over the natural `[units×f]`
/// weights: one ascending-feature dot product per output — the same fused
/// multiply-add chain as the GEMM's, so either path gives the same bits.
/// The executor runs it for the dense layers it keeps natural.
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

/// Dense + bias + activation on the packed GEMM: `out[n×units] =
/// act(x[n×f] · Wᵀ + bias)` over weights packed into `NR`-row panels of
/// the natural `[units×f]` matrix (the B operand `Wᵀ`), once, at prepare
/// time — the executor's path for dense layers of at least
/// `DIRECT_DENSE_MAX_MACS`. Batches of at most `MR` rows stream each
/// panel once over its full depth. Per output element the reduction runs
/// in strictly ascending feature order, the bias is added after the sum
/// and the activation applied last, identically at every thread count,
/// kernel tier and blocking.
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
        x.data(),
        weight,
        (n, f, units),
        out.data_mut(),
        threads,
        scratch,
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

    /// A row-major `[rows×k]` matrix generated into `width`-row panels, as
    /// the executor generates its weights.
    fn pack(src: &[f32], rows: usize, k: usize, width: usize) -> PackedPanels {
        let mut rest = src;
        PackedPanels::try_generate(rows, k, width, |panel_rows| {
            let (head, tail) = rest.split_at(panel_rows.len());
            panel_rows.copy_from_slice(head);
            rest = tail;
        })
        .unwrap()
    }

    /// `x[m×k] · Wᵀ` for the natural `[n×k]` weights `w`, on the naive
    /// reference.
    fn dense_reference(x: &Tensor, w: &Tensor) -> Tensor {
        let (n, k) = (w.shape().dim(0), w.shape().dim(1));
        let mut wt = Tensor::zeros([k, n]);
        for (u, row) in w.data().chunks_exact(k).enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                wt.data_mut()[kk * n + u] = v;
            }
        }
        matmul_reference(x, &wt)
    }

    /// `dense_packed_into` without bias or activation, into a fresh output.
    fn dense(x: &Tensor, w: &PackedPanels, threads: usize, scratch: &mut GemmScratch) -> Tensor {
        let mut out = Tensor::zeros([x.shape().dim(0), w.rows]);
        dense_packed_into(
            x,
            w,
            None,
            ActivationKind::Linear,
            threads,
            &mut out,
            scratch,
        );
        out
    }

    /// Unfolds image `b` of an `NCHW` input into its im2col matrix
    /// `[in_c·kh·kw, oh·ow]` (see [`ConvGeom`]), writing every element of
    /// `out` — the oracle [`pack_b_from_image`] is held to.
    fn im2col_into(x: &Tensor, b: usize, g: &ConvGeom, out: &mut [f32]) {
        let ((kh, kw), (sy, sx), (py, px)) = (g.kernel, g.stride, g.padding);
        let (cols, xd) = (g.n(), x.data());
        for c in 0..g.in_c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (c * kh + ky) * kw + kx;
                    for oy in 0..g.oh {
                        let mrow = row * cols + oy * g.ow;
                        let iy = oy * sy + ky;
                        if iy < py || iy - py >= g.ih {
                            out[mrow..mrow + g.ow].fill(0.0);
                            continue;
                        }
                        let xrow = ((b * g.in_c + c) * g.ih + (iy - py)) * g.iw;
                        for ox in 0..g.ow {
                            let ix = ox * sx + kx;
                            out[mrow + ox] = if ix < px || ix - px >= g.iw {
                                0.0
                            } else {
                                xd[xrow + (ix - px)]
                            };
                        }
                    }
                }
            }
        }
    }

    /// The natural row-major matrix back out of the panels.
    fn unpack(p: &PackedPanels) -> Vec<f32> {
        (0..p.logical_len())
            .map(|e| p.data[p.physical(e)])
            .collect()
    }

    #[test]
    fn matmul_reference_hand_computed() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul_reference(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn dense_direct_hand_computed() {
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let w = Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 1.]);
        let mut y = Tensor::zeros([1, 2]);
        dense_direct_into(&x, &w, Some(&[0.5, -0.5]), ActivationKind::Linear, &mut y);
        assert_eq!(y.data(), &[1.5, 4.5]);
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
    fn blocked_dense_is_bitwise_identical_to_reference_on_every_tier_blocking_and_thread_count() {
        // The blocked path of prepacked dense layers, m > MR row panels:
        // ragged m, k and n off every tile size, on every host kernel tier,
        // every forced blocking (kc = 1 round-trips the accumulator tile
        // through C at every depth) and 1, 2 and 8 threads. Strictly
        // ascending-k accumulation makes it *bit*-identical to the naive
        // reference, not just close.
        for &(m, k, n) in &[
            (MR + 1, 7usize, 9usize),
            (17, 150, 130),
            (64, 64, 64),
            (65, 129, 33),
            (130, 31, 200),
            (64, 576, 96),
        ] {
            let x = Tensor::random([m, k], 21);
            let w = Tensor::random([n, k], 22);
            let want = dense_reference(&x, &w);
            let wp = pack(w.data(), n, k, NR);
            for kernel in host_kernels() {
                for blocking in forced_blockings() {
                    for threads in [1, 2, 8] {
                        let mut scratch = GemmScratch {
                            kernel,
                            blocking,
                            ..GemmScratch::default()
                        };
                        let got = dense(&x, &wp, threads, &mut scratch);
                        assert_eq!(
                            want.data(),
                            got.data(),
                            "({m},{k},{n}) {kernel:?} {blocking:?} t{threads}"
                        );
                    }
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
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Prepacked weights on ragged shapes: 1..=MR+1 rows (the stream
        /// path and the blocked path), unit counts off the NR grid up to
        /// three panels (tiles of every width, in the 16-lane half and past
        /// it), depths off every KC, batches 1–4 — bit for bit the naive
        /// reference with
        /// the epilogue applied in the same order, on every host kernel
        /// tier, every forced blocking and 1, 2 and 8 threads. Convolutions
        /// take 1×1, 3×3, 5×5 and 7×7 kernels at strides 1–4 and paddings
        /// 0–3, on images of 4–9 or 20–35 pixels a side, so output rows
        /// reach past `NR` and 1×1 stride-1 unpadded layers pack their
        /// input plane.
        #[test]
        fn prepacked_operands_are_bitwise_identical_to_reference(
            case in (
                (1usize..=MR + 1, 1usize..=3 * NR),
                1usize..=40,
                1usize..=4,
                0usize..1000,
                (0usize..4, 1usize..=4, 0usize..=3, prop::bool::ANY),
            )
        ) {
            let ((m, units), in_c, batch, seed, (kind, stride, pad, big)) = case;
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
            let mut want = dense_reference(&x, &w);
            for row in want.data_mut().chunks_exact_mut(units) {
                for (v, &b0) in row.iter_mut().zip(&bias) {
                    *v = kernels::apply_activation(*v + b0, act);
                }
            }
            let wp = pack(w.data(), units, k, NR);

            // Conv: m output channels over in_c channels (a 3×3 layer's
            // depth 9·in_c passes the autotuned KC for in_c > 28), batch
            // 1–4; a large image, 5×5 or 7×7 layer keeps at most 8 channels
            // and 2 images. A large 1×1 layer is stride 1 and unpadded.
            let ks = [1, 3, 5, 7][kind];
            let (stride, pad) = if big && ks == 1 { (1, 0) } else { (stride, pad) };
            let hw = if big { 20 + seed as usize % 16 } else { 4 + seed as usize % 6 }.max(ks);
            let (in_c, batch) = if big || ks > 3 { (in_c.min(8), batch.min(2)) } else { (in_c, batch) };
            let cx = Tensor::random([batch, in_c, hw, hw], seed ^ 3);
            let cw = Tensor::random([m, in_c, ks, ks], seed ^ 4);
            let cb: Vec<f32> = Tensor::random([m], seed ^ 5).data().to_vec();
            let gamma: Vec<f32> = Tensor::random([m], seed ^ 6).data().to_vec();
            let beta: Vec<f32> = Tensor::random([m], seed ^ 7).data().to_vec();
            let g = ConvGeom::new(cx.shape(), (ks, ks), (stride, stride), (pad, pad));
            let (oh, kdim, cols) = (g.oh, g.k(), g.n());
            let cw_mat = Tensor::from_vec([m, kdim], cw.data().to_vec());
            let mut cwant = Tensor::zeros([batch, m, oh, oh]);
            let mut im = vec![0.0; kdim * cols];
            for b in 0..batch {
                im2col_into(&cx, b, &g, &mut im);
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
                            &cx, &cwp, (ks, ks), (stride, stride), (pad, pad), &epi, threads,
                            &mut cgot, &mut scratch,
                        );
                        prop_assert_eq!(cgot.data(), cwant.data(), "conv {kernel:?} {blocking:?} t{threads}");
                    }
                }
            }
        }
    }

    /// `pack_b_from_image` against `pack_b_block` over the materialized
    /// im2col matrix, as bits, on a grid of kernels (square, 11×11 and
    /// one-sided), strides, paddings up to 3 (whole border runs of zeros)
    /// and output widths below, at, above and off a multiple of `NR` and
    /// at and just past its 16-lane half, for
    /// blocks that start mid-window and mid-row, over inputs that hold NaNs
    /// with payloads, ±Inf and −0.0. Recycled garbage in the output buffer
    /// must never leak into the packed prefix.
    #[test]
    fn image_packer_is_bitwise_identical_to_packing_the_im2col_matrix() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut blocks_checked = 0;
        for (kh, kw) in [(1, 1), (3, 3), (5, 5), (7, 7), (11, 11), (1, 7), (3, 1)] {
            for s in [1, 2, 4] {
                for p in 0..=3 {
                    for ow in [5, NR / 2, NR / 2 + 1, NR, 2 * NR, 2 * NR + 5] {
                        let iw = ((ow - 1) * s + kw).saturating_sub(2 * p).max(1);
                        let ih = (2 * s + kh).saturating_sub(2 * p).max(1);
                        let seed = (kh * 1000 + kw * 100 + s * 10 + p) as u64;
                        let mut x = Tensor::random([2, 3, ih, iw], seed);
                        for (i, v) in x.data_mut().iter_mut().enumerate().step_by(5) {
                            *v = specials[i / 5 % specials.len()];
                        }
                        let g = ConvGeom::new(x.shape(), (kh, kw), (s, s), (p, p));
                        let (k, n) = (g.k(), g.n());
                        let mut im = vec![f32::NAN; k * n];
                        im2col_into(&x, 1, &g, &mut im);
                        let image = &x.data()[g.image_len()..];
                        let depths = [(0, k), (1, k - 1), (k / 2, k - k / 2), (k - 1, 1)];
                        let columns = [(0, n), (NR.min(n - 1), n - NR.min(n - 1)), (3 % n, 1)];
                        for &(pc, kcb) in &depths {
                            for &(jc, ncb) in &columns {
                                let mut want = Vec::new();
                                let len =
                                    pack_b_block(&im, (k, n), (pc, kcb), (jc, ncb), &mut want);
                                let mut got = vec![f32::from_bits(0x7f80_0bad); len + NR];
                                let got_len =
                                    pack_b_from_image(image, &g, (pc, kcb), (jc, ncb), &mut got);
                                assert_eq!(got_len, len);
                                assert_eq!(
                                    bits(&got[..len]),
                                    bits(&want[..len]),
                                    "{kh}x{kw} s{s} p{p} {ih}x{iw} depths {pc}+{kcb} cols {jc}+{ncb}"
                                );
                                blocks_checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(blocks_checked, 7 * 3 * 4 * 6 * 4 * 3);
    }

    #[test]
    fn conv_split_is_by_columns_unless_workers_outnumber_column_panels() {
        // One worker: the whole output height per task, blocks of B that
        // fit half of L2.
        let stem = (64, 147, 112 * 112);
        let one = ConvSplit::new(stem, 1, 1, None);
        assert_eq!((one.task.0, one.task.1, one.workers), (64, one.nc, 1));
        assert!(one.nc.is_multiple_of(NR) && one.b_len() * 4 <= cache_info().l2 / 2);
        // Two workers on one image: an even number of column blocks, none
        // wider than the one-worker block.
        let two = ConvSplit::new(stem, 1, 2, None);
        assert_eq!(two.workers, 2);
        assert!(two.nc <= one.nc);
        assert!(
            (112 * 112usize).div_ceil(two.task.1).is_multiple_of(2),
            "{two:?}"
        );
        // VGG-S-32's conv2d_10 has 4 columns, one panel: two workers split
        // its 512 rows instead.
        let narrow = ConvSplit::new((512, 4608, 4), 1, 2, None);
        assert_eq!((narrow.task, narrow.workers), ((256, 4), 2));
        // A batch of four keeps whole-height column blocks at two workers.
        let batched = ConvSplit::new((64, 576, 56 * 56), 4, 2, None);
        assert_eq!(batched.task.0, 64);
    }

    #[test]
    fn scratch_reuse_larger_then_smaller_matches_fresh() {
        // Regression for the pack-buffer reuse hazard: buffers only grow,
        // so a large shape followed by a smaller one leaves stale packed
        // panels in the tail. The kernels must only ever read the
        // freshly-packed prefix — byte-compared here against fresh
        // buffers, across every kernel, with one scratch reused by the
        // prepacked dense path (blocked and streamed) and the prepacked
        // convolution in turn.
        let dense_shapes = [
            (130usize, 200usize, 150usize),
            (5, 7, 9),
            (64, 64, 64),
            (3, 150, 130),
            (1, 1, 1),
            (65, 129, 33),
        ];
        // (batch, in_c, hw, out_c, kernel, stride, padding)
        let conv_shapes = [
            (2usize, 16usize, 20usize, 24usize, 3usize, 1usize, 1usize),
            (1, 3, 7, 5, 3, 2, 0),
            (1, 32, 12, 40, 1, 1, 0),
            (2, 8, 15, 17, 5, 1, 2),
            (1, 1, 4, 1, 1, 1, 0),
            (1, 4, 9, 9, 3, 1, 1),
        ];
        for kernel in host_kernels() {
            let fresh = || GemmScratch {
                kernel,
                ..GemmScratch::default()
            };
            let mut reused = fresh();
            for (i, (&(m, k, n), &conv)) in dense_shapes.iter().zip(&conv_shapes).enumerate() {
                let x = Tensor::random([m, k], 40 + i as u64);
                let w = pack(Tensor::random([n, k], 80 + i as u64).data(), n, k, NR);
                let want = dense(&x, &w, 1, &mut fresh());
                let got = dense(&x, &w, 2, &mut reused);
                assert_eq!(
                    want.data(),
                    got.data(),
                    "dense step {i} ({m},{k},{n}) {kernel:?}"
                );

                let (batch, in_c, hw, out_c, ks, s, p) = conv;
                let x = Tensor::random([batch, in_c, hw, hw], 140 + i as u64);
                let w = Tensor::random([out_c, in_c * ks * ks], 180 + i as u64);
                let w = pack(w.data(), out_c, in_c * ks * ks, MR);
                let g = ConvGeom::new(x.shape(), (ks, ks), (s, s), (p, p));
                let run = |threads, scratch: &mut GemmScratch| {
                    let mut out = Tensor::zeros([batch, out_c, g.oh, g.ow]);
                    let (k2, s2, p2, epi) = ((ks, ks), (s, s), (p, p), Epilogue::default());
                    conv2d_packed_into(&x, &w, k2, s2, p2, &epi, threads, &mut out, scratch);
                    out
                };
                let want = run(1, &mut fresh());
                let got = run(2, &mut reused);
                assert_eq!(want.data(), got.data(), "conv step {i} {conv:?} {kernel:?}");
            }
        }
    }

    #[test]
    fn dense_overwrites_recycled_buffers() {
        // An output full of stale NaNs, as a recycled arena buffer may be,
        // on the stream path (m = MR) and the blocked path (m > MR).
        for m in [MR, MR + 2] {
            let x = Tensor::random([m, 12], 4);
            let w = Tensor::random([11, 12], 5);
            let mut dirty = Tensor::from_vec([m, 11], vec![f32::NAN; m * 11]);
            let (act, mut scratch) = (ActivationKind::Linear, GemmScratch::default());
            let wp = pack(w.data(), 11, 12, NR);
            dense_packed_into(&x, &wp, None, act, 1, &mut dirty, &mut scratch);
            assert_eq!(dense_reference(&x, &w).data(), dirty.data(), "m = {m}");
        }
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
            let direct = kernels::conv(&x, &w, Some(&bias), [1, s, s], [0, p, p], 1);
            let mut gemm = Tensor::zeros(direct.shape().dims().to_vec());
            let epi = Epilogue {
                bias: Some(&bias),
                ..Epilogue::default()
            };
            let wp = pack(w.data(), cout, cin * k * k, MR);
            let mut scratch = GemmScratch::default();
            conv2d_packed_into(
                &x,
                &wp,
                (k, k),
                (s, s),
                (p, p),
                &epi,
                1,
                &mut gemm,
                &mut scratch,
            );
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
        let w = pack(Tensor::random([16, 27], 21).data(), 16, 27, MR);
        let bias: Vec<f32> = (0..16).map(|i| i as f32 * 0.05 - 0.3).collect();
        let gamma: Vec<f32> = (0..16).map(|i| 1.0 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..16).map(|i| 0.2 - 0.02 * i as f32).collect();
        let mut scratch = GemmScratch::default();
        for &(s, p) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let g = ConvGeom::new(x.shape(), (3, 3), (s, s), (p, p));
            let mut conv = |epi: &Epilogue<'_>| {
                let mut out = Tensor::zeros([2, 16, g.oh, g.ow]);
                let (k, s, p) = ((3, 3), (s, s), (p, p));
                conv2d_packed_into(&x, &w, k, s, p, epi, 1, &mut out, &mut scratch);
                out
            };
            // Unfused: conv (+bias), then the batch-norm and activation
            // kernels the unfused graph runs after it.
            let biased = conv(&Epilogue {
                bias: Some(&bias),
                ..Epilogue::default()
            });
            let bn = kernels::batch_norm(&biased, &gamma, &beta);
            for act in [A::Relu, A::Relu6, A::Leaky, A::Sigmoid, A::Tanh, A::Linear] {
                let expect = kernels::activation(&bn, act);
                // Fused: one pass.
                let got = conv(&Epilogue {
                    bias: Some(&bias),
                    bn: Some((&gamma, &beta)),
                    act,
                });
                assert_eq!(expect.data(), got.data(), "s={s} p={p} act={act:?}");
            }
        }
    }

    #[test]
    fn conv_algo_selection_table() {
        // Grouped layers never take the GEMM lowering.
        assert_eq!(select_conv_algo(1 << 20, 1 << 10, 2), ConvAlgo::Direct);
        // Tiny layers stay direct; big ones take the packed GEMM.
        assert_eq!(select_conv_algo(64, 27, 1), ConvAlgo::Direct);
        assert_eq!(select_conv_algo(28 * 28 * 64, 32 * 9, 1), ConvAlgo::Gemm);
        // The boundary itself is inclusive for Direct.
        assert_eq!(select_conv_algo(1 << 8, 1 << 8, 1), ConvAlgo::Direct);
        assert_eq!(select_conv_algo((1 << 8) + 1, 1 << 8, 1), ConvAlgo::Gemm);
        // Overflow-safe on absurd shapes.
        assert_eq!(select_conv_algo(usize::MAX, usize::MAX, 1), ConvAlgo::Gemm);
    }
}
