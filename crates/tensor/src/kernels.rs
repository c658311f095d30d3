//! The CNN kernel set: direct (reference) implementations of every operator
//! in the IR.
//!
//! These are the kernels the executor runs for pooling, batch-norm, LRN,
//! activations, direct convolution and the rest, and the reference the
//! faster tiers are held to: `--kernel scalar` runs
//! `depthwise_conv2d_into`, and the SIMD depthwise tier in
//! [`crate::simd`] must match it bit for bit. Their wall time is what the
//! end-to-end benchmark's per-layer trace reports on the host; device
//! *performance* modelling uses the analytical roofline in
//! `edgebench-devices` instead.

use crate::Tensor;
use edgebench_graph::{ActivationKind, PoolKind, TensorShape};

/// 2-D convolution over `NCHW` input.
///
/// `weight` is `[out_c, in_c/groups, kh, kw]`; `bias` (if any) is `[out_c]`.
///
/// # Panics
///
/// Panics if the shapes are inconsistent (callers construct them from a
/// validated graph).
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
    groups: usize,
) -> Tensor {
    let (n, _, ih, iw) = dims4(x.shape());
    let wd = weight.shape().dims();
    let (out_c, kh, kw) = (wd[0], wd[2], wd[3]);
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    let mut out = Tensor::zeros([n, out_c, oh, ow]);
    conv2d_into(x, weight, bias, stride, padding, groups, &mut out);
    out
}

/// [`conv2d`] into a caller-provided output tensor (every element is
/// overwritten, so recycled arena buffers are safe).
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
    groups: usize,
    out: &mut Tensor,
) {
    let (n, in_c, ih, iw) = dims4(x.shape());
    let wd = weight.shape().dims();
    let (out_c, icg, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(icg, in_c / groups, "weight in-channel mismatch");
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    let ocg = out_c / groups;
    assert_eq!(
        out.len(),
        n * out_c * oh * ow,
        "conv2d output size mismatch"
    );

    let xd = x.data();
    let wv = weight.data();
    let od = out.data_mut();
    for b in 0..n {
        for g in 0..groups {
            for oc in 0..ocg {
                let oc_abs = g * ocg + oc;
                let b0 = bias.map_or(0.0, |bv| bv[oc_abs]);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b0;
                        for ic in 0..icg {
                            let ic_abs = g * icg + ic;
                            for ky in 0..kh {
                                let iy = oy * stride.0 + ky;
                                if iy < padding.0 || iy - padding.0 >= ih {
                                    continue;
                                }
                                let iy = iy - padding.0;
                                let xrow = ((b * in_c + ic_abs) * ih + iy) * iw;
                                let wrow = ((oc_abs * icg + ic) * kh + ky) * kw;
                                for kx in 0..kw {
                                    let ix = ox * stride.1 + kx;
                                    if ix < padding.1 || ix - padding.1 >= iw {
                                        continue;
                                    }
                                    acc += xd[xrow + (ix - padding.1)] * wv[wrow + kx];
                                }
                            }
                        }
                        od[((b * out_c + oc_abs) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
    }
}

/// Depthwise 2-D convolution. `weight` is `[in_c * multiplier, 1, kh, kw]`.
pub fn depthwise_conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
    multiplier: usize,
) -> Tensor {
    let (n, in_c, ih, iw) = dims4(x.shape());
    let wd = weight.shape().dims();
    let (kh, kw) = (wd[2], wd[3]);
    let out_c = in_c * multiplier;
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    let mut out = Tensor::zeros([n, out_c, oh, ow]);
    depthwise_conv2d_into(x, weight, bias, stride, padding, multiplier, &mut out);
    out
}

/// [`depthwise_conv2d`] into a caller-provided output tensor (every
/// element is overwritten).
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn depthwise_conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    padding: (usize, usize),
    multiplier: usize,
    out: &mut Tensor,
) {
    let (n, in_c, ih, iw) = dims4(x.shape());
    let wd = weight.shape().dims();
    let (kh, kw) = (wd[2], wd[3]);
    let out_c = in_c * multiplier;
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("kernel fits");
    assert_eq!(out.len(), n * out_c * oh * ow, "depthwise output mismatch");

    let xd = x.data();
    let wv = weight.data();
    let od = out.data_mut();
    for b in 0..n {
        for oc in 0..out_c {
            let ic = oc / multiplier;
            let b0 = bias.map_or(0.0, |bv| bv[oc]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b0;
                    for ky in 0..kh {
                        let iy = oy * stride.0 + ky;
                        if iy < padding.0 || iy - padding.0 >= ih {
                            continue;
                        }
                        let iy = iy - padding.0;
                        let xrow = ((b * in_c + ic) * ih + iy) * iw;
                        let wrow = (oc * kh + ky) * kw;
                        for kx in 0..kw {
                            let ix = ox * stride.1 + kx;
                            if ix < padding.1 || ix - padding.1 >= iw {
                                continue;
                            }
                            acc += xd[xrow + (ix - padding.1)] * wv[wrow + kx];
                        }
                    }
                    od[((b * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
}

/// 3-D convolution over `NCDHW` input. `weight` is
/// `[out_c, in_c, kd, kh, kw]`.
pub fn conv3d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize, usize),
    padding: (usize, usize, usize),
) -> Tensor {
    let d = x.shape().dims();
    let (n, in_c, id, ih, iw) = (d[0], d[1], d[2], d[3], d[4]);
    let wd = weight.shape().dims();
    let (out_c, kd, kh, kw) = (wd[0], wd[2], wd[3], wd[4]);
    let od_ = TensorShape::conv_out_extent(id, kd, stride.0, padding.0).expect("kernel fits");
    let oh = TensorShape::conv_out_extent(ih, kh, stride.1, padding.1).expect("kernel fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.2, padding.2).expect("kernel fits");

    let mut out = Tensor::zeros([n, out_c, od_, oh, ow]);
    let xd = x.data();
    let wv = weight.data();
    let ov = out.data_mut();
    for b in 0..n {
        for oc in 0..out_c {
            let b0 = bias.map_or(0.0, |bv| bv[oc]);
            for oz in 0..od_ {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b0;
                        for ic in 0..in_c {
                            for kz in 0..kd {
                                let iz = oz * stride.0 + kz;
                                if iz < padding.0 || iz - padding.0 >= id {
                                    continue;
                                }
                                let iz = iz - padding.0;
                                for ky in 0..kh {
                                    let iy = oy * stride.1 + ky;
                                    if iy < padding.1 || iy - padding.1 >= ih {
                                        continue;
                                    }
                                    let iy = iy - padding.1;
                                    let xrow = (((b * in_c + ic) * id + iz) * ih + iy) * iw;
                                    let wrow = (((oc * in_c + ic) * kd + kz) * kh + ky) * kw;
                                    for kx in 0..kw {
                                        let ix = ox * stride.2 + kx;
                                        if ix < padding.2 || ix - padding.2 >= iw {
                                            continue;
                                        }
                                        acc += xd[xrow + (ix - padding.2)] * wv[wrow + kx];
                                    }
                                }
                            }
                        }
                        ov[(((b * out_c + oc) * od_ + oz) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
    }
    out
}

/// Dense layer: `y = x · Wᵀ + b`, with `x: [n, f]`, `weight: [units, f]`.
pub fn dense(x: &Tensor, weight: &Tensor, bias: Option<&[f32]>) -> Tensor {
    let n = x.shape().dim(0);
    let units = weight.shape().dim(0);
    let mut out = Tensor::zeros([n, units]);
    dense_act_into(x, weight, bias, ActivationKind::Linear, 1, &mut out);
    out
}

/// Fused dense + bias + activation into a caller-provided output tensor.
///
/// Thin wrapper over [`crate::gemm::dense_act_into`] with a transient
/// scratch buffer; the executor calls the GEMM entry point directly with
/// its arena-owned scratch so the steady state stays allocation-free.
/// Every in-build dense path shares that one implementation, so fused and
/// unfused layers agree bit-for-bit and any intra-op thread count yields
/// the same bytes.
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
) {
    let mut scratch = crate::gemm::GemmScratch::default();
    crate::gemm::dense_act_into(x, weight, bias, act, threads, out, &mut scratch);
}

/// 2-D pooling (max / average / global average).
pub fn pool2d(
    x: &Tensor,
    kind: PoolKind,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Tensor {
    let (n, c, ih, iw) = dims4(x.shape());
    let (oh, ow) = if kind == PoolKind::GlobalAvg {
        (1, 1)
    } else {
        (
            TensorShape::conv_out_extent(ih, kernel.0, stride.0, padding.0).expect("window fits"),
            TensorShape::conv_out_extent(iw, kernel.1, stride.1, padding.1).expect("window fits"),
        )
    };
    let mut out = Tensor::zeros([n, c, oh, ow]);
    pool2d_into(x, kind, kernel, stride, padding, &mut out);
    out
}

/// [`pool2d`] into a caller-provided output tensor (every element is
/// overwritten).
///
/// # Panics
///
/// Panics if shapes are inconsistent or `out` has the wrong size.
pub(crate) fn pool2d_into(
    x: &Tensor,
    kind: PoolKind,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    out: &mut Tensor,
) {
    let (n, c, ih, iw) = dims4(x.shape());
    if kind == PoolKind::GlobalAvg {
        assert_eq!(out.len(), n * c, "pool output size mismatch");
        let xd = x.data();
        let od = out.data_mut();
        let area = (ih * iw) as f32;
        for b in 0..n {
            for ch in 0..c {
                let base = (b * c + ch) * ih * iw;
                let sum: f32 = xd[base..base + ih * iw].iter().sum();
                od[b * c + ch] = sum / area;
            }
        }
        return;
    }
    let (kh, kw) = kernel;
    let oh = TensorShape::conv_out_extent(ih, kh, stride.0, padding.0).expect("window fits");
    let ow = TensorShape::conv_out_extent(iw, kw, stride.1, padding.1).expect("window fits");
    assert_eq!(out.len(), n * c * oh * ow, "pool output size mismatch");
    let xd = x.data();
    let od = out.data_mut();
    // Fast path for the ubiquitous 2x2/stride-2 unpadded max pool: two row
    // slices per output row, pairwise max — no per-element padding or
    // bounds bookkeeping. `max` is exact, so this matches the generic loop
    // bit-for-bit.
    if kind == PoolKind::Max && kernel == (2, 2) && stride == (2, 2) && padding == (0, 0) {
        for p in 0..n * c {
            let ibase = p * ih * iw;
            let obase = p * oh * ow;
            for oy in 0..oh {
                let r0 = &xd[ibase + 2 * oy * iw..ibase + (2 * oy + 1) * iw];
                let r1 = &xd[ibase + (2 * oy + 1) * iw..ibase + (2 * oy + 2) * iw];
                for (ox, o) in od[obase + oy * ow..obase + (oy + 1) * ow]
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
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = if kind == PoolKind::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    let mut count = 0usize;
                    for ky in 0..kh {
                        let iy = oy * stride.0 + ky;
                        if iy < padding.0 || iy - padding.0 >= ih {
                            continue;
                        }
                        let iy = iy - padding.0;
                        for kx in 0..kw {
                            let ix = ox * stride.1 + kx;
                            if ix < padding.1 || ix - padding.1 >= iw {
                                continue;
                            }
                            let v = xd[((b * c + ch) * ih + iy) * iw + (ix - padding.1)];
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                _ => acc += v,
                            }
                            count += 1;
                        }
                    }
                    od[((b * c + ch) * oh + oy) * ow + ox] = match kind {
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

/// 3-D max/avg pooling (no padding).
pub(crate) fn pool3d(
    x: &Tensor,
    kind: PoolKind,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
) -> Tensor {
    let d = x.shape().dims();
    let (n, c, id, ih, iw) = (d[0], d[1], d[2], d[3], d[4]);
    let od_ = TensorShape::conv_out_extent(id, kernel.0, stride.0, 0).expect("window fits");
    let oh = TensorShape::conv_out_extent(ih, kernel.1, stride.1, 0).expect("window fits");
    let ow = TensorShape::conv_out_extent(iw, kernel.2, stride.2, 0).expect("window fits");
    let mut out = Tensor::zeros([n, c, od_, oh, ow]);
    let xd = x.data();
    let ov = out.data_mut();
    for b in 0..n {
        for ch in 0..c {
            for oz in 0..od_ {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = if kind == PoolKind::Max {
                            f32::NEG_INFINITY
                        } else {
                            0.0
                        };
                        for kz in 0..kernel.0 {
                            for ky in 0..kernel.1 {
                                for kx in 0..kernel.2 {
                                    let v = xd[(((b * c + ch) * id + oz * stride.0 + kz) * ih
                                        + oy * stride.1
                                        + ky)
                                        * iw
                                        + ox * stride.2
                                        + kx];
                                    match kind {
                                        PoolKind::Max => acc = acc.max(v),
                                        _ => acc += v,
                                    }
                                }
                            }
                        }
                        let denom = (kernel.0 * kernel.1 * kernel.2) as f32;
                        ov[(((b * c + ch) * od_ + oz) * oh + oy) * ow + ox] = match kind {
                            PoolKind::Max => acc,
                            _ => acc / denom,
                        };
                    }
                }
            }
        }
    }
    out
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
/// k=2, alpha=1e-4, beta=0.75).
#[cfg(test)]
fn lrn(x: &Tensor, size: usize) -> Tensor {
    let (n, c, ih, iw) = dims4(x.shape());
    let mut out = Tensor::zeros([n, c, ih, iw]);
    lrn_into(x, size, &mut out);
    out
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

/// Element-wise (Hadamard) product of equal-shaped tensors.
///
/// # Panics
///
/// Panics if the shapes differ.
#[cfg(test)]
fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = a.clone();
    mul_assign(&mut out, b);
    out
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

/// Channel-axis concatenation.
///
/// # Panics
///
/// Panics if inputs disagree on batch or trailing dims.
#[cfg(test)]
fn concat(inputs: &[&Tensor]) -> Tensor {
    assert!(!inputs.is_empty(), "concat of zero tensors");
    let first = inputs[0].shape();
    let total_c: usize = inputs.iter().map(|t| t.shape().channels()).sum();
    let mut dims = first.dims().to_vec();
    dims[1] = total_c;
    let mut out = Tensor::zeros(dims);
    concat_into(inputs, &mut out);
    out
}

/// Channel-axis concatenation into a caller-provided output tensor (every
/// element is overwritten — the inputs jointly cover the whole channel
/// axis).
///
/// # Panics
///
/// Panics if inputs disagree on batch/trailing dims or `out` is missized.
pub(crate) fn concat_into(inputs: &[&Tensor], out: &mut Tensor) {
    assert!(!inputs.is_empty(), "concat of zero tensors");
    let first = inputs[0].shape();
    let n = first.batch();
    let trailing: usize = first.dims()[2..].iter().product();
    let total_c: usize = inputs.iter().map(|t| t.shape().channels()).sum();
    assert_eq!(out.len(), n * total_c * trailing, "concat output mismatch");
    let od = out.data_mut();
    for b in 0..n {
        let mut c_off = 0usize;
        for t in inputs {
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

/// Feature-axis slice of a rank-2 `[N, features]` tensor.
///
/// # Panics
///
/// Panics if the range is out of bounds.
pub(crate) fn slice2(x: &Tensor, start: usize, len: usize) -> Tensor {
    let (n, f) = (x.shape().dim(0), x.shape().dim(1));
    assert!(
        start + len <= f,
        "slice [{start}, {}) out of {f}",
        start + len
    );
    let mut out = Tensor::zeros([n, len]);
    let od = out.data_mut();
    for b in 0..n {
        od[b * len..(b + 1) * len].copy_from_slice(&x.data()[b * f + start..b * f + start + len]);
    }
    out
}

/// Nearest-neighbour upsampling by an integer factor.
pub(crate) fn upsample(x: &Tensor, factor: usize) -> Tensor {
    let (n, c, ih, iw) = dims4(x.shape());
    let (oh, ow) = (ih * factor, iw * factor);
    let mut out = Tensor::zeros([n, c, oh, ow]);
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
    out
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 reproduces the input.
        let x = Tensor::random([1, 1, 4, 4], 1);
        let w = Tensor::from_vec([1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, None, (1, 1), (0, 0), 1);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_hand_computed_3x3() {
        // Input 3x3 of ones, 3x3 kernel of ones, pad 1: centre sees 9,
        // edges 6, corners 4.
        let x = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let w = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv2d(&x, &w, None, (1, 1), (1, 1), 1);
        assert_eq!(y.data(), &[4., 6., 4., 6., 9., 6., 4., 6., 4.]);
    }

    #[test]
    fn conv2d_bias_and_stride() {
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect());
        let w = Tensor::from_vec([1, 1, 2, 2], vec![1.0; 4]);
        let y = conv2d(&x, &w, Some(&[10.0]), (2, 2), (0, 0), 1);
        // Windows: (0+1+4+5)+10, (2+3+6+7)+10, (8+9+12+13)+10, (10+11+14+15)+10
        assert_eq!(y.data(), &[20., 28., 52., 60.]);
    }

    #[test]
    fn grouped_conv_partitions_channels() {
        // Two input channels, two groups; each output sees only its group.
        let x = Tensor::from_vec([1, 2, 1, 1], vec![3.0, 5.0]);
        let w = Tensor::from_vec([2, 1, 1, 1], vec![1.0, 1.0]);
        let y = conv2d(&x, &w, None, (1, 1), (0, 0), 2);
        assert_eq!(y.data(), &[3.0, 5.0]);
    }

    #[test]
    fn depthwise_equals_grouped_conv_with_groups_eq_channels() {
        let x = Tensor::random([1, 4, 6, 6], 11);
        let w = Tensor::random([4, 1, 3, 3], 12);
        let dw = depthwise_conv2d(&x, &w, None, (1, 1), (1, 1), 1);
        let gc = conv2d(&x, &w, None, (1, 1), (1, 1), 4);
        assert!(dw.mean_abs_diff(&gc) < 1e-6);
    }

    #[test]
    fn dense_hand_computed() {
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let w = Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 1.]);
        let y = dense(&x, &w, Some(&[0.5, -0.5]));
        assert_eq!(y.data(), &[1.5, 4.5]);
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
        let y2 = conv2d(&x2, &w2, None, (1, 1), (1, 1), 1);
        let mut y3 = conv3d(&x3, &w3, None, (1, 1, 1), (0, 1, 1));
        y3.reshape(y2.shape().dims().to_vec());
        assert!(y2.mean_abs_diff(&y3) < 1e-6);
    }

    #[test]
    fn max_pool_hand_computed() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 5., 3., 2.]);
        let y = pool2d(&x, PoolKind::Max, (2, 2), (2, 2), (0, 0));
        assert_eq!(y.data(), &[5.0]);
    }

    #[test]
    fn avg_pool_ignores_padding_in_denominator() {
        // 2x2 input, 2x2 window, stride 2, pad 1: corner windows see one
        // real element each.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![4., 8., 12., 16.]);
        let y = pool2d(&x, PoolKind::Avg, (2, 2), (2, 2), (1, 1));
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn global_avg_pool_averages_everything() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let y = pool2d(&x, PoolKind::GlobalAvg, (0, 0), (1, 1), (0, 0));
        assert_eq!(y.data(), &[2.5, 25.0]);
    }

    #[test]
    fn pool3d_max() {
        let x = Tensor::from_vec([1, 1, 2, 2, 2], (1..=8).map(|v| v as f32).collect());
        let y = pool3d(&x, PoolKind::Max, (2, 2, 2), (2, 2, 2));
        assert_eq!(y.data(), &[8.0]);
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
        assert_eq!(mul(&a, &b).data(), &[6.0, -4.0, -1.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec([1, 1, 1, 2], vec![1., 2.]);
        let b = Tensor::from_vec([1, 2, 1, 2], vec![3., 4., 5., 6.]);
        let y = concat(&[&a, &b]);
        assert_eq!(y.shape().dims(), &[1, 3, 1, 2]);
        assert_eq!(y.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn slice2_takes_feature_window() {
        let x = Tensor::from_vec([2, 4], vec![0., 1., 2., 3., 10., 11., 12., 13.]);
        let y = slice2(&x, 1, 2);
        assert_eq!(y.shape().dims(), &[2, 2]);
        assert_eq!(y.data(), &[1., 2., 11., 12.]);
    }

    #[test]
    fn upsample_repeats_pixels() {
        let x = Tensor::from_vec([1, 1, 1, 2], vec![7., 9.]);
        let y = upsample(&x, 2);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 4]);
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
        let y = lrn(&x, 5);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert_eq!(a.signum(), b.signum());
            assert!(b.abs() <= a.abs());
        }
    }
}
