//! The operator set of the IR.
//!
//! Each variant carries the attributes needed for shape inference and cost
//! accounting. The set covers every layer type used by the paper's sixteen
//! CNN models (Table I): 2-D/3-D convolution, depthwise convolution, dense
//! (fully-connected) layers, pooling, batch normalization, local response
//! normalization, element-wise residual addition, concatenation, upsampling,
//! flatten, softmax, and activations — plus the *fused* convolution produced
//! by framework optimization passes.

use crate::shape::TensorShape;
use crate::GraphError;
use std::fmt;

/// Kind of a pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Sliding-window maximum.
    Max,
    /// Sliding-window average.
    Avg,
    /// Global average over all spatial positions (output is `1x1`).
    GlobalAvg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PoolKind::Max => "max",
            PoolKind::Avg => "avg",
            PoolKind::GlobalAvg => "global_avg",
        };
        f.write_str(s)
    }
}

/// Kind of an element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// ReLU clipped at 6 (used by MobileNet family).
    Relu6,
    /// Leaky ReLU with a small negative slope (used by the YOLO family).
    Leaky,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear) activation.
    Linear,
}

impl fmt::Display for ActivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActivationKind::Relu => "relu",
            ActivationKind::Relu6 => "relu6",
            ActivationKind::Leaky => "leaky",
            ActivationKind::Sigmoid => "sigmoid",
            ActivationKind::Tanh => "tanh",
            ActivationKind::Linear => "linear",
        };
        f.write_str(s)
    }
}

/// A graph operator together with its attributes.
///
/// Spatial attributes are `(height, width)` pairs; 3-D convolution uses
/// `(depth, height, width)` triples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Graph input placeholder with a fixed shape.
    Input {
        /// Shape of the input tensor, e.g. `1x3x224x224`.
        shape: TensorShape,
    },
    /// 2-D convolution over `NCHW` input.
    Conv2d {
        /// Number of output channels.
        out_channels: usize,
        /// Kernel extent `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Zero padding `(ph, pw)` applied symmetrically.
        padding: (usize, usize),
        /// Number of channel groups (`1` = dense convolution).
        groups: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Depthwise 2-D convolution (one filter per input channel).
    DepthwiseConv2d {
        /// Channel multiplier (output channels = input channels × multiplier).
        multiplier: usize,
        /// Kernel extent `(kh, kw)`.
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Zero padding `(ph, pw)`.
        padding: (usize, usize),
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// 3-D convolution over `NCDHW` input (used by C3D).
    Conv3d {
        /// Number of output channels.
        out_channels: usize,
        /// Kernel extent `(kd, kh, kw)`.
        kernel: (usize, usize, usize),
        /// Stride `(sd, sh, sw)`.
        stride: (usize, usize, usize),
        /// Zero padding `(pd, ph, pw)`.
        padding: (usize, usize, usize),
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// Fully-connected layer over a flattened `[N, features]` input.
    Dense {
        /// Number of output units.
        units: usize,
        /// Whether a bias vector is added.
        bias: bool,
    },
    /// 2-D spatial pooling over `NCHW` input ([`Op::Pool3d`] pools
    /// `NCDHW`).
    Pool {
        /// Pooling kind.
        kind: PoolKind,
        /// Window extent `(kh, kw)`; ignored for [`PoolKind::GlobalAvg`].
        kernel: (usize, usize),
        /// Stride `(sh, sw)`.
        stride: (usize, usize),
        /// Zero padding `(ph, pw)`.
        padding: (usize, usize),
    },
    /// 3-D pooling over `NCDHW` input (used by C3D), unpadded.
    Pool3d {
        /// Pooling kind: max or avg. Shape inference rejects
        /// [`PoolKind::GlobalAvg`] and a window with a zero extent.
        kind: PoolKind,
        /// Window extent `(kd, kh, kw)`.
        kernel: (usize, usize, usize),
        /// Stride `(sd, sh, sw)`.
        stride: (usize, usize, usize),
    },
    /// Batch normalization (inference form: per-channel scale and shift).
    BatchNorm,
    /// Local response normalization (AlexNet-era).
    Lrn {
        /// Normalization window size across channels.
        size: usize,
    },
    /// Element-wise activation.
    Activation {
        /// Which function is applied.
        kind: ActivationKind,
    },
    /// Element-wise addition of two equal-shaped inputs (residual connections).
    Add,
    /// Element-wise (Hadamard) product of two equal-shaped inputs (LSTM/GRU
    /// gating).
    Mul,
    /// Concatenation of inputs along the channel axis.
    Concat,
    /// Nearest-neighbour spatial upsampling by an integer factor.
    Upsample {
        /// Spatial scale factor.
        factor: usize,
    },
    /// Contiguous slice along the feature axis of a `[N, features]` tensor
    /// (used to split a packed sequence into timesteps for RNN unrolling).
    Slice {
        /// First feature index of the slice.
        start: usize,
        /// Number of features taken.
        len: usize,
    },
    /// Collapse all non-batch dimensions into one.
    Flatten,
    /// Softmax over the last dimension.
    Softmax,
    /// Inference-time no-op kept for architectural fidelity (dropout).
    Dropout,
    /// Convolution + batch-norm + activation fused by a framework pass.
    ///
    /// Produced by `edgebench-frameworks`' fusion pass; never emitted by
    /// model builders directly.
    FusedConvBnAct {
        /// The convolution being fused (must be `Conv2d` or `DepthwiseConv2d`).
        conv: Box<Op>,
        /// Whether a batch-norm was folded in.
        bn: bool,
        /// The fused activation.
        act: ActivationKind,
    },
    /// Dense layer + activation fused by a framework pass.
    ///
    /// Produced by `edgebench-frameworks`' fusion pass; never emitted by
    /// model builders directly. The activation is applied at store time by
    /// the backend's fused dense kernel, eliminating a full pass over the
    /// output.
    FusedDenseAct {
        /// Number of output units.
        units: usize,
        /// Whether a bias vector is added.
        bias: bool,
        /// The fused activation.
        act: ActivationKind,
    },
}

impl Op {
    /// Short lowercase mnemonic for the operator, e.g. `"conv2d"`.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::DepthwiseConv2d { .. } => "depthwise_conv2d",
            Op::Conv3d { .. } => "conv3d",
            Op::Dense { .. } => "dense",
            Op::Pool { .. } => "pool",
            Op::Pool3d { .. } => "pool3d",
            Op::BatchNorm => "batch_norm",
            Op::Lrn { .. } => "lrn",
            Op::Activation { .. } => "activation",
            Op::Add => "add",
            Op::Mul => "mul",
            Op::Concat => "concat",
            Op::Upsample { .. } => "upsample",
            Op::Slice { .. } => "slice",
            Op::Flatten => "flatten",
            Op::Softmax => "softmax",
            Op::Dropout => "dropout",
            Op::FusedConvBnAct { .. } => "fused_conv_bn_act",
            Op::FusedDenseAct { .. } => "fused_dense_act",
        }
    }

    /// Number of data inputs this operator requires, or `None` if variadic.
    pub(crate) fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } => Some(0),
            Op::Add | Op::Mul => Some(2),
            Op::Concat => None,
            _ => Some(1),
        }
    }

    /// Whether this operator carries learnable parameters.
    pub(crate) fn has_params(&self) -> bool {
        matches!(
            self,
            Op::Conv2d { .. }
                | Op::DepthwiseConv2d { .. }
                | Op::Conv3d { .. }
                | Op::Dense { .. }
                | Op::BatchNorm
                | Op::FusedConvBnAct { .. }
                | Op::FusedDenseAct { .. }
        )
    }

    /// Infers the output shape given the input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeMismatch`] when the inputs are incompatible
    /// with the operator (wrong rank, non-dividing groups, mismatched `Add`
    /// operands, windows that do not fit, …).
    pub(crate) fn infer_shape(&self, inputs: &[TensorShape]) -> Result<TensorShape, GraphError> {
        let one = |what: &str| -> Result<&TensorShape, GraphError> {
            inputs.first().ok_or_else(|| GraphError::ShapeMismatch {
                op: self.name(),
                detail: format!("{what}: missing input"),
            })
        };
        let err = |detail: String| GraphError::ShapeMismatch {
            op: self.name(),
            detail,
        };
        match self {
            Op::Input { shape } => Ok(shape.clone()),
            Op::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                ..
            } => {
                let x = one("conv2d")?;
                if x.rank() != 4 {
                    return Err(err(format!("expected rank-4 NCHW input, got {x}")));
                }
                if *groups == 0 || x.channels() % groups != 0 || out_channels % groups != 0 {
                    return Err(err(format!(
                        "groups {groups} must divide in_channels {} and out_channels {out_channels}",
                        x.channels()
                    )));
                }
                let oh = TensorShape::conv_out_extent(x.height(), kernel.0, stride.0, padding.0)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                let ow = TensorShape::conv_out_extent(x.width(), kernel.1, stride.1, padding.1)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                Ok(TensorShape::new([x.batch(), *out_channels, oh, ow]))
            }
            Op::DepthwiseConv2d {
                multiplier,
                kernel,
                stride,
                padding,
                ..
            } => {
                let x = one("depthwise_conv2d")?;
                if x.rank() != 4 {
                    return Err(err(format!("expected rank-4 NCHW input, got {x}")));
                }
                let oh = TensorShape::conv_out_extent(x.height(), kernel.0, stride.0, padding.0)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                let ow = TensorShape::conv_out_extent(x.width(), kernel.1, stride.1, padding.1)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                Ok(TensorShape::new([
                    x.batch(),
                    x.channels() * multiplier,
                    oh,
                    ow,
                ]))
            }
            Op::Conv3d {
                out_channels,
                kernel,
                stride,
                padding,
                ..
            } => {
                let x = one("conv3d")?;
                if x.rank() != 5 {
                    return Err(err(format!("expected rank-5 NCDHW input, got {x}")));
                }
                let od = TensorShape::conv_out_extent(x.depth(), kernel.0, stride.0, padding.0)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                let oh = TensorShape::conv_out_extent(x.height(), kernel.1, stride.1, padding.1)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                let ow = TensorShape::conv_out_extent(x.width(), kernel.2, stride.2, padding.2)
                    .ok_or_else(|| err(format!("kernel {kernel:?} does not fit input {x}")))?;
                Ok(TensorShape::new([x.batch(), *out_channels, od, oh, ow]))
            }
            Op::Dense { units, .. } => {
                let x = one("dense")?;
                if x.rank() != 2 {
                    return Err(err(format!(
                        "expected rank-2 [N, features] input, got {x} (flatten first)"
                    )));
                }
                Ok(TensorShape::new([x.batch(), *units]))
            }
            Op::Pool {
                kind,
                kernel,
                stride,
                padding,
            } => {
                let x = one("pool")?;
                if x.rank() != 4 {
                    return Err(err(format!("expected rank-4 NCHW input, got {x}")));
                }
                if *kind == PoolKind::GlobalAvg {
                    return Ok(TensorShape::new([x.batch(), x.channels(), 1, 1]));
                }
                let oh = TensorShape::conv_out_extent(x.height(), kernel.0, stride.0, padding.0)
                    .ok_or_else(|| err(format!("window {kernel:?} does not fit input {x}")))?;
                let ow = TensorShape::conv_out_extent(x.width(), kernel.1, stride.1, padding.1)
                    .ok_or_else(|| err(format!("window {kernel:?} does not fit input {x}")))?;
                Ok(TensorShape::new([x.batch(), x.channels(), oh, ow]))
            }
            Op::Pool3d {
                kind,
                kernel,
                stride,
            } => {
                let x = one("pool3d")?;
                if x.rank() != 5 {
                    return Err(err(format!("expected rank-5 NCDHW input, got {x}")));
                }
                if *kind == PoolKind::GlobalAvg {
                    return Err(err("global pooling is 2-D only".into()));
                }
                if [kernel.0, kernel.1, kernel.2].contains(&0) {
                    return Err(err(format!("window {kernel:?} has a zero extent")));
                }
                let od = TensorShape::conv_out_extent(x.depth(), kernel.0, stride.0, 0)
                    .ok_or_else(|| err(format!("window {kernel:?} does not fit input {x}")))?;
                let oh = TensorShape::conv_out_extent(x.height(), kernel.1, stride.1, 0)
                    .ok_or_else(|| err(format!("window {kernel:?} does not fit input {x}")))?;
                let ow = TensorShape::conv_out_extent(x.width(), kernel.2, stride.2, 0)
                    .ok_or_else(|| err(format!("window {kernel:?} does not fit input {x}")))?;
                Ok(TensorShape::new([x.batch(), x.channels(), od, oh, ow]))
            }
            Op::BatchNorm | Op::Lrn { .. } | Op::Activation { .. } | Op::Dropout | Op::Softmax => {
                Ok(one("elementwise")?.clone())
            }
            Op::Add | Op::Mul => {
                if inputs.len() != 2 {
                    return Err(err(format!(
                        "{} requires exactly 2 inputs, got {}",
                        self.name(),
                        inputs.len()
                    )));
                }
                if inputs[0] != inputs[1] {
                    return Err(err(format!(
                        "{} operand shapes differ: {} vs {}",
                        self.name(),
                        inputs[0],
                        inputs[1]
                    )));
                }
                Ok(inputs[0].clone())
            }
            Op::Concat => {
                if inputs.len() < 2 {
                    return Err(err(format!(
                        "concat requires >= 2 inputs, got {}",
                        inputs.len()
                    )));
                }
                let first = &inputs[0];
                if first.rank() < 2 {
                    return Err(err(format!(
                        "concat input must have a channel axis, got {first}"
                    )));
                }
                let mut channels = 0;
                for s in inputs {
                    if s.rank() != first.rank()
                        || s.batch() != first.batch()
                        || s.dims()[2..] != first.dims()[2..]
                    {
                        return Err(err(format!("concat inputs incompatible: {first} vs {s}")));
                    }
                    channels += s.channels();
                }
                let mut dims = first.dims().to_vec();
                dims[1] = channels;
                Ok(TensorShape::new(dims))
            }
            Op::Upsample { factor } => {
                let x = one("upsample")?;
                if x.rank() != 4 {
                    return Err(err(format!("expected rank-4 NCHW input, got {x}")));
                }
                Ok(TensorShape::new([
                    x.batch(),
                    x.channels(),
                    x.height() * factor,
                    x.width() * factor,
                ]))
            }
            Op::Slice { start, len } => {
                let x = one("slice")?;
                if x.rank() != 2 {
                    return Err(err(format!(
                        "slice expects rank-2 [N, features] input, got {x}"
                    )));
                }
                if *len == 0 || start + len > x.dim(1) {
                    return Err(err(format!(
                        "slice [{start}, {}) out of bounds for {} features",
                        start + len,
                        x.dim(1)
                    )));
                }
                Ok(TensorShape::new([x.batch(), *len]))
            }
            Op::Flatten => {
                let x = one("flatten")?;
                let feats: usize = x.dims().iter().skip(1).product();
                Ok(TensorShape::new([x.batch(), feats]))
            }
            Op::FusedConvBnAct { conv, .. } => conv.infer_shape(inputs),
            Op::FusedDenseAct { units, .. } => {
                let x = one("fused_dense_act")?;
                if x.rank() != 2 {
                    return Err(err(format!(
                        "expected rank-2 [N, features] input, got {x} (flatten first)"
                    )));
                }
                Ok(TensorShape::new([x.batch(), *units]))
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: &[usize]) -> TensorShape {
        TensorShape::new(d.to_vec())
    }

    #[test]
    fn conv2d_shape_inference() {
        let op = Op::Conv2d {
            out_channels: 64,
            kernel: (7, 7),
            stride: (2, 2),
            padding: (3, 3),
            groups: 1,
            bias: false,
        };
        let out = op.infer_shape(&[s(&[1, 3, 224, 224])]).unwrap();
        assert_eq!(out, s(&[1, 64, 112, 112]));
    }

    #[test]
    fn conv2d_rejects_bad_groups() {
        let op = Op::Conv2d {
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 5,
            bias: false,
        };
        assert!(op.infer_shape(&[s(&[1, 3, 8, 8])]).is_err());
    }

    #[test]
    fn depthwise_multiplies_channels() {
        let op = Op::DepthwiseConv2d {
            multiplier: 2,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            bias: false,
        };
        let out = op.infer_shape(&[s(&[1, 32, 16, 16])]).unwrap();
        assert_eq!(out, s(&[1, 64, 16, 16]));
    }

    #[test]
    fn conv3d_shape_inference() {
        let op = Op::Conv3d {
            out_channels: 64,
            kernel: (3, 3, 3),
            stride: (1, 1, 1),
            padding: (1, 1, 1),
            bias: true,
        };
        let out = op.infer_shape(&[s(&[1, 3, 12, 112, 112])]).unwrap();
        assert_eq!(out, s(&[1, 64, 12, 112, 112]));
    }

    #[test]
    fn global_avg_pool_collapses_spatial() {
        let op = Op::Pool {
            kind: PoolKind::GlobalAvg,
            kernel: (0, 0),
            stride: (1, 1),
            padding: (0, 0),
        };
        let out = op.infer_shape(&[s(&[1, 2048, 7, 7])]).unwrap();
        assert_eq!(out, s(&[1, 2048, 1, 1]));
    }

    #[test]
    fn pool3d_rejects_global_and_empty_windows() {
        let pool3d = |kind, kernel| Op::Pool3d {
            kind,
            kernel,
            stride: (1, 1, 1),
        };
        let x = [s(&[1, 4, 2, 6, 6])];
        let ok = pool3d(PoolKind::Avg, (2, 2, 2)).infer_shape(&x);
        assert_eq!(ok.unwrap(), s(&[1, 4, 1, 5, 5]));
        for op in [
            pool3d(PoolKind::GlobalAvg, (2, 2, 2)),
            pool3d(PoolKind::Max, (1, 0, 2)),
            pool3d(PoolKind::Avg, (0, 1, 1)),
        ] {
            let e = op.infer_shape(&x).unwrap_err();
            assert!(
                matches!(e, GraphError::ShapeMismatch { op: "pool3d", .. }),
                "{op:?}: {e}"
            );
        }
    }

    #[test]
    fn add_requires_equal_shapes() {
        assert!(Op::Add
            .infer_shape(&[s(&[1, 8, 4, 4]), s(&[1, 8, 4, 4])])
            .is_ok());
        assert!(Op::Add
            .infer_shape(&[s(&[1, 8, 4, 4]), s(&[1, 4, 4, 4])])
            .is_err());
        assert!(Op::Add.infer_shape(&[s(&[1, 8, 4, 4])]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let out = Op::Concat
            .infer_shape(&[
                s(&[1, 64, 28, 28]),
                s(&[1, 96, 28, 28]),
                s(&[1, 32, 28, 28]),
            ])
            .unwrap();
        assert_eq!(out, s(&[1, 192, 28, 28]));
    }

    #[test]
    fn concat_rejects_spatial_mismatch() {
        assert!(Op::Concat
            .infer_shape(&[s(&[1, 64, 28, 28]), s(&[1, 96, 14, 14])])
            .is_err());
    }

    #[test]
    fn flatten_collapses_non_batch() {
        let out = Op::Flatten.infer_shape(&[s(&[2, 256, 6, 6])]).unwrap();
        assert_eq!(out, s(&[2, 256 * 36]));
    }

    #[test]
    fn dense_requires_rank2() {
        let op = Op::Dense {
            units: 10,
            bias: true,
        };
        assert!(op.infer_shape(&[s(&[1, 256, 6, 6])]).is_err());
        assert_eq!(op.infer_shape(&[s(&[1, 128])]).unwrap(), s(&[1, 10]));
    }

    #[test]
    fn upsample_scales_spatial() {
        let op = Op::Upsample { factor: 2 };
        let out = op.infer_shape(&[s(&[1, 128, 13, 13])]).unwrap();
        assert_eq!(out, s(&[1, 128, 26, 26]));
    }

    #[test]
    fn slice_shape_inference_and_errors() {
        let op = Op::Slice { start: 4, len: 8 };
        assert_eq!(op.infer_shape(&[s(&[1, 16])]).unwrap(), s(&[1, 8]));
        // Out of bounds.
        assert!(Op::Slice { start: 10, len: 8 }
            .infer_shape(&[s(&[1, 16])])
            .is_err());
        // Zero length.
        assert!(Op::Slice { start: 0, len: 0 }
            .infer_shape(&[s(&[1, 16])])
            .is_err());
        // Wrong rank.
        assert!(op.infer_shape(&[s(&[1, 3, 4, 4])]).is_err());
    }

    #[test]
    fn mul_behaves_like_add_for_shapes() {
        assert_eq!(
            Op::Mul.infer_shape(&[s(&[1, 8]), s(&[1, 8])]).unwrap(),
            s(&[1, 8])
        );
        assert!(Op::Mul.infer_shape(&[s(&[1, 8]), s(&[1, 9])]).is_err());
        assert_eq!(Op::Mul.arity(), Some(2));
        assert_eq!(Op::Mul.name(), "mul");
    }

    #[test]
    fn missing_input_yields_shape_mismatch() {
        assert!(Op::Flatten.infer_shape(&[]).is_err());
        assert!(Op::Softmax.infer_shape(&[]).is_err());
    }

    #[test]
    fn every_op_name_is_unique_and_lowercase() {
        let ops = [
            Op::Input {
                shape: crate::TensorShape::new([1]),
            },
            Op::Conv2d {
                out_channels: 1,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
                groups: 1,
                bias: false,
            },
            Op::DepthwiseConv2d {
                multiplier: 1,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
                bias: false,
            },
            Op::Conv3d {
                out_channels: 1,
                kernel: (1, 1, 1),
                stride: (1, 1, 1),
                padding: (0, 0, 0),
                bias: false,
            },
            Op::Dense {
                units: 1,
                bias: false,
            },
            Op::Pool {
                kind: PoolKind::Max,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
            },
            Op::Pool3d {
                kind: PoolKind::Max,
                kernel: (1, 1, 1),
                stride: (1, 1, 1),
            },
            Op::BatchNorm,
            Op::Lrn { size: 5 },
            Op::Activation {
                kind: ActivationKind::Relu,
            },
            Op::Add,
            Op::Mul,
            Op::Concat,
            Op::Upsample { factor: 2 },
            Op::Slice { start: 0, len: 1 },
            Op::Flatten,
            Op::Softmax,
            Op::Dropout,
        ];
        let mut names: Vec<&str> = ops.iter().map(|o| o.name()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate op names");
        assert!(names.iter().all(|s| s
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())));
    }

    #[test]
    fn fused_dense_infers_like_dense() {
        let dense = Op::Dense {
            units: 10,
            bias: true,
        };
        let fused = Op::FusedDenseAct {
            units: 10,
            bias: true,
            act: ActivationKind::Relu,
        };
        let x = s(&[2, 128]);
        assert_eq!(
            fused.infer_shape(std::slice::from_ref(&x)).unwrap(),
            dense.infer_shape(std::slice::from_ref(&x)).unwrap()
        );
        assert!(fused.has_params());
        assert_eq!(fused.name(), "fused_dense_act");
        // Same rank requirement as plain dense.
        assert!(fused.infer_shape(&[s(&[1, 256, 6, 6])]).is_err());
    }

    #[test]
    fn fused_conv_infers_like_inner_conv() {
        let conv = Op::Conv2d {
            out_channels: 16,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 1,
            bias: false,
        };
        let fused = Op::FusedConvBnAct {
            conv: Box::new(conv.clone()),
            bn: true,
            act: ActivationKind::Relu,
        };
        let x = s(&[1, 3, 32, 32]);
        assert_eq!(
            fused.infer_shape(std::slice::from_ref(&x)).unwrap(),
            conv.infer_shape(&[x]).unwrap()
        );
    }
}
