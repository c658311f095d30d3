//! The CNN kernel set: direct (reference) implementations of every operator
//! in the IR.
//!
//! These are the kernels the executor runs for pooling, batch-norm, LRN,
//! activations, direct convolution and the rest, and the reference the
//! faster tiers are held to. Each op family has one loop over `NCHW` and
//! `NCDHW` input, a rank-4 tensor read as depth 1: `conv_into` runs every
//! convolution off the packed GEMM (grouped, depthwise and 3-D) and
//! `pool_into` every 2-D and 3-D pooling. `--kernel scalar` runs
//! `conv_into` for depthwise layers too, and the SIMD depthwise tier in
//! [`crate::simd`] must match it bit for bit. Their wall time is what the
//! end-to-end benchmark's per-layer trace reports on the host; device
//! *performance* modelling uses the analytical roofline in
//! `edgebench-devices` instead.

use crate::Tensor;
use edgebench_graph::{ActivationKind, PoolKind, TensorShape};

/// Direct convolution over `NCHW` or `NCDHW` input in `groups` channel
/// groups: dense (`groups = 1`), grouped, depthwise (`groups = in_c`) and
/// 3-D convolution, allocating its output.
///
/// A rank-4 input is read as depth 1: its weight is `[out_c, in_c/groups,
/// kh, kw]`, and `stride` and `padding`, given as `[depth, height,
/// width]`, must hold depth stride 1 and depth padding 0. A rank-5 weight
/// is `[out_c, in_c/groups, kd, kh, kw]`. `bias` (if any) is `[out_c]`.
///
/// # Panics
///
/// Panics if the shapes are inconsistent (callers construct them from a
/// validated graph).
pub fn conv(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: [usize; 3],
    padding: [usize; 3],
    groups: usize,
) -> Tensor {
    let (n, _, input) = ncdhw(x.shape());
    let (out_c, _, kernel) = ncdhw(weight.shape());
    let o = out_extents(input, kernel, stride, padding);
    let mut out = Tensor::zeros(nc_dims(x.shape(), n, out_c, o));
    conv_into(x, weight, bias, stride, padding, groups, &mut out);
    out
}

/// [`conv`] into a caller-provided output tensor (every element is
/// overwritten, so recycled arena buffers are safe): the executor's loop
/// for every convolution off the packed GEMM, and the reference its
/// vector depthwise tier ([`crate::simd`]) is held to.
///
/// Each output element starts from its bias (`+0.0` without one) and adds
/// every in-range tap as a rounded `x * w` followed by a rounded add, in
/// ascending input channel of its group, then `kz`, `ky`, `kx`.
/// Out-of-range taps are skipped, never zero-padded.
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn conv_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: [usize; 3],
    padding: [usize; 3],
    groups: usize,
    out: &mut Tensor,
) {
    let (n, in_c, [id, ih, iw]) = ncdhw(x.shape());
    let (out_c, icg, [kd, kh, kw]) = ncdhw(weight.shape());
    assert_eq!(icg, in_c / groups, "weight in-channel mismatch");
    let [od, oh, ow] = out_extents([id, ih, iw], [kd, kh, kw], stride, padding);
    let ocg = out_c / groups;
    assert_eq!(
        out.len(),
        n * out_c * od * oh * ow,
        "conv output size mismatch"
    );
    let (xd, wv) = (x.data(), weight.data());
    let (plane, taps_per_c) = (id * ih * iw, kd * kh * kw);
    let ov = out.data_mut();
    for b in 0..n {
        for oc in 0..out_c {
            let ic0 = oc / ocg * icg;
            let b0 = bias.map_or(0.0, |bv| bv[oc]);
            for oz in 0..od {
                let (kz0, izs) = taps(oz, kd, stride[0], padding[0], id);
                for oy in 0..oh {
                    let (ky0, iys) = taps(oy, kh, stride[1], padding[1], ih);
                    for ox in 0..ow {
                        let (kx0, ixs) = taps(ox, kw, stride[2], padding[2], iw);
                        let mut acc = b0;
                        for ic in 0..icg {
                            let xc = &xd[(b * in_c + ic0 + ic) * plane..][..plane];
                            let wc = &wv[(oc * icg + ic) * taps_per_c..][..taps_per_c];
                            for (kz, iz) in (kz0..).zip(izs.clone()) {
                                for (ky, iy) in (ky0..).zip(iys.clone()) {
                                    let xs = &xc[(iz * ih + iy) * iw..][ixs.clone()];
                                    let ws = &wc[(kz * kh + ky) * kw + kx0..][..xs.len()];
                                    for (&xv, &w) in xs.iter().zip(ws) {
                                        acc += xv * w;
                                    }
                                }
                            }
                        }
                        ov[(((b * out_c + oc) * od + oz) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
    }
}

/// Max, average or global-average pooling over `NCHW` or `NCDHW` input,
/// allocating its output. A rank-4 input is read as depth 1, as in
/// [`conv`]; `kernel`, `stride` and `padding` are `[depth, height,
/// width]`, and global pooling ignores them.
pub fn pool(
    x: &Tensor,
    kind: PoolKind,
    kernel: [usize; 3],
    stride: [usize; 3],
    padding: [usize; 3],
) -> Tensor {
    let (n, c, input) = ncdhw(x.shape());
    let o = if kind == PoolKind::GlobalAvg {
        [1; 3]
    } else {
        out_extents(input, kernel, stride, padding)
    };
    let mut out = Tensor::zeros(nc_dims(x.shape(), n, c, o));
    pool_into(x, kind, kernel, stride, padding, &mut out);
    out
}

/// [`pool`] into a caller-provided output tensor (every element is
/// overwritten).
///
/// A max window takes `f32::max` of its in-range taps, starting from −∞,
/// so NaN taps are skipped and an all-NaN window gives −∞; a window with
/// no in-range tap gives `0.0`. An average window divides the sum of its
/// in-range taps by their count (padding is not counted). The 2-D 2×2,
/// stride-2, unpadded max pool takes a fast path whose pairwise `max`
/// agrees with the window loop except on an all-NaN window, where it
/// gives NaN.
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn pool_into(
    x: &Tensor,
    kind: PoolKind,
    kernel: [usize; 3],
    stride: [usize; 3],
    padding: [usize; 3],
    out: &mut Tensor,
) {
    let (n, c, [id, ih, iw]) = ncdhw(x.shape());
    let (xd, plane) = (x.data(), id * ih * iw);
    if kind == PoolKind::GlobalAvg {
        assert_eq!(out.len(), n * c, "pool output size mismatch");
        let area = plane as f32;
        for (p, o) in out.data_mut().iter_mut().enumerate() {
            let sum: f32 = xd[p * plane..(p + 1) * plane].iter().sum();
            *o = sum / area;
        }
        return;
    }
    let [od, oh, ow] = out_extents([id, ih, iw], kernel, stride, padding);
    assert_eq!(out.len(), n * c * od * oh * ow, "pool output size mismatch");
    let ov = out.data_mut();
    // Fast path for the ubiquitous 2-D 2x2/stride-2 unpadded max pool: two
    // row slices per output row, pairwise max — no per-element padding or
    // bounds bookkeeping. It differs from the window loop on an all-NaN
    // window, so a 3-D 1×2×2 window keeps the window loop it always ran.
    let max2x2 = kind == PoolKind::Max && x.shape().rank() == 4;
    if max2x2 && kernel == [1, 2, 2] && stride == [1, 2, 2] && padding == [0; 3] {
        for p in 0..n * c {
            let ibase = p * ih * iw;
            let obase = p * oh * ow;
            for oy in 0..oh {
                let r0 = &xd[ibase + 2 * oy * iw..ibase + (2 * oy + 1) * iw];
                let r1 = &xd[ibase + (2 * oy + 1) * iw..ibase + (2 * oy + 2) * iw];
                for (ox, o) in ov[obase + oy * ow..obase + (oy + 1) * ow]
                    .iter_mut()
                    .enumerate()
                {
                    let ix = 2 * ox;
                    *o = r0[ix].max(r0[ix + 1]).max(r1[ix].max(r1[ix + 1]));
                }
            }
        }
        return;
    }
    for (p, op) in ov.chunks_exact_mut(od * oh * ow).enumerate() {
        let xp = &xd[p * plane..][..plane];
        for oz in 0..od {
            let (_, izs) = taps(oz, kernel[0], stride[0], padding[0], id);
            for oy in 0..oh {
                let (_, iys) = taps(oy, kernel[1], stride[1], padding[1], ih);
                for ox in 0..ow {
                    let (_, ixs) = taps(ox, kernel[2], stride[2], padding[2], iw);
                    let mut acc = if kind == PoolKind::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    for iz in izs.clone() {
                        for iy in iys.clone() {
                            for &v in &xp[(iz * ih + iy) * iw..][ixs.clone()] {
                                match kind {
                                    PoolKind::Max => acc = acc.max(v),
                                    _ => acc += v,
                                }
                            }
                        }
                    }
                    let count = izs.len() * iys.len() * ixs.len();
                    op[(oz * oh + oy) * ow + ox] = match kind {
                        PoolKind::Max => {
                            if count == 0 {
                                0.0
                            } else {
                                acc
                            }
                        }
                        _ => acc / count.max(1) as f32,
                    };
                }
            }
        }
    }
}

/// Inference batch-norm: per-channel `y = gamma * x + beta` (statistics are
/// pre-folded into the scale and shift).
pub fn batch_norm(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    let mut out = x.clone();
    batch_norm_inplace(&mut out, gamma, beta);
    out
}

/// [`batch_norm`] mutating the tensor in place — the executor's path when
/// the input buffer dies at this node.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths disagree with the channel count.
pub fn batch_norm_inplace(x: &mut Tensor, gamma: &[f32], beta: &[f32]) {
    let c = x.shape().channels();
    assert_eq!(gamma.len(), c, "gamma length mismatch");
    assert_eq!(beta.len(), c, "beta length mismatch");
    let per_channel: usize = x.shape().dims()[2..].iter().product();
    let n = x.shape().batch();
    let od = x.data_mut();
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * per_channel;
            for v in &mut od[base..base + per_channel] {
                *v = gamma[ch] * *v + beta[ch];
            }
        }
    }
}

/// Batch-norm (optional) then activation in one in-place pass — the
/// epilogue of the direct (non-GEMM) fused convolution path. Applies the
/// same element-wise formulas in the same order as [`batch_norm`] followed
/// by [`activation`], so results are bit-identical to the unfused pair.
pub(crate) fn bn_act_inplace(x: &mut Tensor, bn: Option<(&[f32], &[f32])>, act: ActivationKind) {
    if let Some((gamma, beta)) = bn {
        batch_norm_inplace(x, gamma, beta);
    }
    if act != ActivationKind::Linear {
        activation_inplace(x, act);
    }
}

/// Local response normalization across channels (AlexNet formulation with
/// k=2, alpha=1e-4, beta=0.75) into a caller-provided output tensor (every
/// element is overwritten).
///
/// The channel-window sum of squares accumulates directly in the output
/// plane, one contiguous channel plane at a time in ascending channel
/// order, then a single sweep normalizes it — the per-element reduction
/// order is fixed regardless of layout or thread count. `t^0.75` is
/// computed as `sqrt(t · sqrt(t))`: both operations are IEEE-exact, so
/// the result is deterministic, and it is far cheaper than `powf`.
///
/// # Panics
///
/// Panics if `out` has the wrong size.
pub(crate) fn lrn_into(x: &Tensor, size: usize, out: &mut Tensor) {
    let (n, c, ih, iw) = dims4(x.shape());
    let (k, alpha) = (2.0f32, 1e-4f32);
    assert_eq!(out.len(), x.len(), "lrn output size mismatch");
    let xd = x.data();
    let od = out.data_mut();
    let half = size / 2;
    let hw = ih * iw;
    for b in 0..n {
        let base = b * c * hw;
        for ch in 0..c {
            let lo = ch.saturating_sub(half);
            let hi = (ch + half).min(c - 1);
            let plane = &mut od[base + ch * hw..base + (ch + 1) * hw];
            plane.fill(0.0);
            for cc in lo..=hi {
                let src = &xd[base + cc * hw..base + (cc + 1) * hw];
                for (s, &v) in plane.iter_mut().zip(src) {
                    *s += v * v;
                }
            }
            let src = &xd[base + ch * hw..base + (ch + 1) * hw];
            for (s, &v) in plane.iter_mut().zip(src) {
                let t = alpha.mul_add(*s, k);
                *s = v / (t * t.sqrt()).sqrt();
            }
        }
    }
}

/// One activation applied to one value — the single source of the
/// activation formulas, shared by every fused and standalone path so they
/// stay bit-identical.
#[inline]
pub(crate) fn apply_activation(v: f32, kind: ActivationKind) -> f32 {
    match kind {
        ActivationKind::Relu => v.max(0.0),
        ActivationKind::Relu6 => v.clamp(0.0, 6.0),
        ActivationKind::Leaky => {
            if v > 0.0 {
                v
            } else {
                0.1 * v
            }
        }
        ActivationKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        ActivationKind::Tanh => v.tanh(),
        ActivationKind::Linear => v,
    }
}

/// Element-wise activation.
pub fn activation(x: &Tensor, kind: ActivationKind) -> Tensor {
    let mut out = x.clone();
    activation_inplace(&mut out, kind);
    out
}

/// [`activation`] mutating the tensor in place.
pub(crate) fn activation_inplace(x: &mut Tensor, kind: ActivationKind) {
    for v in x.data_mut() {
        *v = apply_activation(*v, kind);
    }
}

/// `a += b` in place.
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    for (o, &v) in a.data_mut().iter_mut().zip(b.data()) {
        *o += v;
    }
}

/// `a *= b` (Hadamard) in place.
///
/// # Panics
///
/// Panics if the shapes differ.
pub(crate) fn mul_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "mul shape mismatch");
    for (o, &v) in a.data_mut().iter_mut().zip(b.data()) {
        *o *= v;
    }
}

/// Channel-axis concatenation into a caller-provided output tensor (every
/// element is overwritten — the inputs jointly cover the whole channel
/// axis).
///
/// # Panics
///
/// Panics if there are no inputs, they disagree on batch/trailing dims,
/// or `out` is missized.
pub(crate) fn concat_into<'a>(inputs: impl Iterator<Item = &'a Tensor> + Clone, out: &mut Tensor) {
    let first = inputs
        .clone()
        .next()
        .expect("concat of zero tensors")
        .shape();
    let n = first.batch();
    let trailing: usize = first.dims()[2..].iter().product();
    let total_c: usize = inputs.clone().map(|t| t.shape().channels()).sum();
    assert_eq!(out.len(), n * total_c * trailing, "concat output mismatch");
    let od = out.data_mut();
    for b in 0..n {
        let mut c_off = 0usize;
        for t in inputs.clone() {
            let c = t.shape().channels();
            assert_eq!(t.shape().batch(), n, "concat batch mismatch");
            assert_eq!(
                t.shape().dims()[2..].iter().product::<usize>(),
                trailing,
                "concat trailing mismatch"
            );
            let src = &t.data()[b * c * trailing..(b + 1) * c * trailing];
            let dst_base = (b * total_c + c_off) * trailing;
            od[dst_base..dst_base + c * trailing].copy_from_slice(src);
            c_off += c;
        }
    }
}

/// Feature-axis slice of a rank-2 `[N, features]` tensor into a
/// caller-provided `[N, len]` output (every element is overwritten).
///
/// # Panics
///
/// Panics if the range is out of bounds or `out` has the wrong size.
pub(crate) fn slice2_into(x: &Tensor, start: usize, len: usize, out: &mut Tensor) {
    let (n, f) = (x.shape().dim(0), x.shape().dim(1));
    assert!(
        start + len <= f,
        "slice [{start}, {}) out of {f}",
        start + len
    );
    assert_eq!(out.len(), n * len, "slice output size mismatch");
    let od = out.data_mut();
    for b in 0..n {
        od[b * len..(b + 1) * len].copy_from_slice(&x.data()[b * f + start..b * f + start + len]);
    }
}

/// Nearest-neighbour upsampling by an integer factor into a
/// caller-provided output tensor (every element is overwritten).
pub(crate) fn upsample_into(x: &Tensor, factor: usize, out: &mut Tensor) {
    let (n, c, ih, iw) = dims4(x.shape());
    let (oh, ow) = (ih * factor, iw * factor);
    assert_eq!(out.len(), n * c * oh * ow, "upsample output size mismatch");
    let xd = x.data();
    let od = out.data_mut();
    for b in 0..n {
        for ch in 0..c {
            for y in 0..oh {
                for xw in 0..ow {
                    od[((b * c + ch) * oh + y) * ow + xw] =
                        xd[((b * c + ch) * ih + y / factor) * iw + xw / factor];
                }
            }
        }
    }
}

/// Softmax over the last dimension.
pub fn softmax(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_inplace(&mut out);
    out
}

/// [`softmax`] mutating the tensor in place.
pub(crate) fn softmax_inplace(x: &mut Tensor) {
    let last = *x.shape().dims().last().expect("softmax on rank >= 1");
    let rows = x.len() / last;
    let od = x.data_mut();
    for r in 0..rows {
        let row = &mut od[r * last..(r + 1) * last];
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn dims4(s: &TensorShape) -> (usize, usize, usize, usize) {
    let d = s.dims();
    assert_eq!(d.len(), 4, "expected rank-4 tensor, got {s}");
    (d[0], d[1], d[2], d[3])
}

/// The two leading dims and the `[depth, height, width]` extents of a
/// rank-4 or rank-5 shape; rank 4 reads as depth 1.
fn ncdhw(s: &TensorShape) -> (usize, usize, [usize; 3]) {
    match *s.dims() {
        [n, c, h, w] => (n, c, [1, h, w]),
        [n, c, d, h, w] => (n, c, [d, h, w]),
        _ => panic!("expected rank-4 or rank-5 tensor, got {s}"),
    }
}

/// The taps of output `o`'s `kernel`-wide window that land inside an
/// input axis of `extent`, tap `k` reading input `o·stride + k − padding`:
/// the first such tap and the input indices the taps read, in order.
fn taps(
    o: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    extent: usize,
) -> (usize, std::ops::Range<usize>) {
    let start = o * stride;
    let (lo, hi) = (start.max(padding), (start + kernel).min(padding + extent));
    if lo >= hi {
        return (0, 0..0);
    }
    (lo - start, lo - padding..hi - padding)
}

/// Output extents of a window sliding over `input`, per axis.
fn out_extents(
    input: [usize; 3],
    kernel: [usize; 3],
    stride: [usize; 3],
    padding: [usize; 3],
) -> [usize; 3] {
    std::array::from_fn(|a| {
        TensorShape::conv_out_extent(input[a], kernel[a], stride[a], padding[a])
            .expect("window fits")
    })
}

/// `[n, c]` followed by the output extents, at the rank of `like`.
fn nc_dims(like: &TensorShape, n: usize, c: usize, o: [usize; 3]) -> Vec<usize> {
    let spatial = &o[5 - like.rank()..];
    [n, c].iter().chain(spatial).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 reproduces the input.
        let x = Tensor::random([1, 1, 4, 4], 1);
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv(&x, &w, None, [1; 3], [0; 3], 1);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_hand_computed_3x3() {
        // Input 3x3 of ones, 3x3 kernel of ones, pad 1: centre sees 9,
        // edges 6, corners 4.
        let x = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let w = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv(&x, &w, None, [1; 3], [0, 1, 1], 1);
        assert_eq!(y.data(), &[4., 6., 4., 6., 9., 6., 4., 6., 4.]);
    }

    #[test]
    fn conv2d_bias_and_stride() {
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = Tensor::from_vec([1, 1, 2, 2], vec![1.0; 4]);
        let y = conv(&x, &w, Some(&[10.0]), [1, 2, 2], [0; 3], 1);
        // Windows: (0+1+4+5)+10, (2+3+6+7)+10, (8+9+12+13)+10, (10+11+14+15)+10
        assert_eq!(y.data(), &[20., 28., 52., 60.]);
    }

    #[test]
    fn grouped_conv_partitions_channels() {
        // Two input channels, two groups; each output sees only its group.
        let x = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 5.0]);
        let w = Tensor::from_vec([2, 1, 1, 1], vec![1.0, 1.0]);
        let y = conv(&x, &w, None, [1; 3], [0; 3], 2);
        assert_eq!(y.data(), &[3.0, 5.0]);
    }

    #[test]
    fn depthwise_equals_one_convolution_per_channel() {
        // At groups = channels with multiplier 2, output channel oc reads
        // input channel oc / 2 alone: the same bits as a one-channel
        // convolution of that plane.
        let x = Tensor::random([1, 4, 6, 6], 11);
        let w = Tensor::random([8, 1, 3, 3], 12);
        let dw = conv(&x, &w, None, [1; 3], [0, 1, 1], 4);
        for oc in 0..8 {
            let plane = Tensor::from_vec([1, 1, 6, 6], x.data()[oc / 2 * 36..][..36].to_vec());
            let wc = Tensor::from_vec([1, 1, 3, 3], w.data()[oc * 9..][..9].to_vec());
            let one = conv(&plane, &wc, None, [1; 3], [0, 1, 1], 1);
            assert_eq!(&dw.data()[oc * 36..][..36], one.data(), "channel {oc}");
        }
    }

    #[test]
    fn conv3d_matches_conv2d_on_depth1() {
        // A depth-1 3-D conv with kd=1 equals a 2-D conv.
        let x2 = Tensor::random([1, 2, 5, 5], 21);
        let mut x3 = x2.clone();
        x3.reshape([1, 2, 1, 5, 5]);
        let w2 = Tensor::random([3, 2, 3, 3], 22);
        let mut w3 = w2.clone();
        w3.reshape([3, 2, 1, 3, 3]);
        let y2 = conv(&x2, &w2, None, [1; 3], [0, 1, 1], 1);
        let mut y3 = conv(&x3, &w3, None, [1; 3], [0, 1, 1], 1);
        assert_eq!(y3.shape().dims(), &[1, 3, 1, 5, 5]);
        y3.reshape(y2.shape().dims().to_vec());
        assert_eq!(y2.data(), y3.data());
    }

    #[test]
    fn max_pool_hand_computed() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 5., 3., 2.]);
        let y = pool(&x, PoolKind::Max, [1, 2, 2], [1, 2, 2], [0; 3]);
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn avg_pool_ignores_padding_in_denominator() {
        // 2x2 input, 2x2 window, stride 2, pad 1: corner windows see one
        // real element each.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![4., 8., 12., 16.]);
        let y = pool(&x, PoolKind::Avg, [1, 2, 2], [1, 2, 2], [0, 1, 1]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn global_avg_pool_averages_everything() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let y = pool(&x, PoolKind::GlobalAvg, [0; 3], [1; 3], [0; 3]);
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn pool3d_max() {
        let x = Tensor::from_vec([1, 1, 2, 2, 2], (1..=8).map(|v| v as f32).collect());
        let mut y = Tensor::from_vec([1, 1, 1, 1, 1], vec![f32::NAN]);
        pool_into(&x, PoolKind::Max, [2; 3], [2; 3], [0; 3], &mut y);
        assert_eq!(y.data(), &[8.0]);
    }

    #[test]
    fn max_pool_nan_windows_on_the_fast_path_and_the_window_loop() {
        // Four 2×2 windows: all NaN; NaN beside 3; one NaN pair beside
        // 1 and 2; no NaN. The 2-D 2×2/stride-2 fast path takes pairwise
        // `f32::max`, which returns NaN only when both operands are NaN,
        // so an all-NaN window gives NaN. The window loop (reached here
        // through a depth-1 NCDHW input) starts from −∞, so NaN taps are
        // skipped and an all-NaN window gives −∞. Both results stay as
        // they are: fault campaigns produce NaN inputs.
        let nan = f32::NAN;
        #[rustfmt::skip]
        let v = vec![
            nan, nan, nan, 3.0, nan, nan, 4.0, 5.0,
            nan, nan, nan, nan, 1.0, 2.0, 7.0, 6.0,
        ];
        let fast = pool(
            &Tensor::from_vec([1, 1, 2, 8], v.clone()),
            PoolKind::Max,
            [1, 2, 2],
            [1, 2, 2],
            [0; 3],
        );
        let window = pool(
            &Tensor::from_vec([1, 1, 1, 2, 8], v),
            PoolKind::Max,
            [1, 2, 2],
            [1, 2, 2],
            [0; 3],
        );
        assert!(fast.data()[0].is_nan());
        assert_eq!(fast.data()[1..], [3.0, 2.0, 7.0]);
        assert_eq!(window.data(), &[f32::NEG_INFINITY, 3.0, 2.0, 7.0]);
    }

    #[test]
    fn batch_norm_scales_and_shifts_per_channel() {
        let x = Tensor::from_vec([1, 2, 1, 2], vec![1., 2., 3., 4.]);
        let y = batch_norm(&x, &[2.0, 10.0], &[0.5, -1.0]);
        assert_eq!(y.data(), &[2.5, 4.5, 29.0, 39.0]);
    }

    #[test]
    fn activations_behave() {
        let x = Tensor::from_vec([1, 4], vec![-2.0, -0.5, 0.5, 8.0]);
        assert_eq!(
            activation(&x, ActivationKind::Relu).data(),
            &[0., 0., 0.5, 8.0]
        );
        assert_eq!(
            activation(&x, ActivationKind::Relu6).data(),
            &[0., 0., 0.5, 6.0]
        );
        let leaky = activation(&x, ActivationKind::Leaky);
        assert!((leaky.data()[0] + 0.2).abs() < 1e-6);
        assert_eq!(activation(&x, ActivationKind::Linear).data(), x.data());
        let sig = activation(&x, ActivationKind::Sigmoid);
        assert!(sig.data().iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn mul_is_elementwise() {
        let a = Tensor::from_vec([1, 3], vec![2.0, -1.0, 0.5]);
        let b = Tensor::from_vec([1, 3], vec![3.0, 4.0, -2.0]);
        let mut y = a.clone();
        mul_assign(&mut y, &b);
        assert_eq!(y.data(), &[6.0, -4.0, -1.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec([1, 1, 1, 2], vec![1., 2.]);
        let b = Tensor::from_vec([1, 2, 1, 2], vec![3., 4., 5., 6.]);
        let mut y = Tensor::from_vec([1, 3, 1, 2], vec![f32::NAN; 6]);
        concat_into([&a, &b].into_iter(), &mut y);
        assert_eq!(y.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn slice2_takes_feature_window() {
        let x = Tensor::from_vec([2, 4], vec![0., 1., 2., 3., 10., 11., 12., 13.]);
        let mut y = Tensor::from_vec([2, 2], vec![f32::NAN; 4]);
        slice2_into(&x, 1, 2, &mut y);
        assert_eq!(y.data(), &[1., 2., 11., 12.]);
    }

    #[test]
    fn upsample_repeats_pixels() {
        let x = Tensor::from_vec([1, 1, 1, 2], vec![7., 9.]);
        let mut y = Tensor::from_vec([1, 1, 2, 4], vec![f32::NAN; 8]);
        upsample_into(&x, 2, &mut y);
        assert_eq!(y.data(), &[7., 7., 9., 9., 7., 7., 9., 9.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::random([3, 7], 5);
        let y = softmax(&x);
        for r in 0..3 {
            let s: f32 = y.data()[r * 7..(r + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.data()[r * 7..(r + 1) * 7].iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn lrn_preserves_sign_and_reduces_magnitude() {
        let x = Tensor::from_vec([1, 3, 1, 1], vec![-1.0, 2.0, 3.0]);
        let mut y = Tensor::from_vec([1, 3, 1, 1], vec![f32::NAN; 3]);
        lrn_into(&x, 5, &mut y);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert_eq!(a.signum(), b.signum());
            assert!(b.abs() <= a.abs());
        }
    }
}
