//! Shared building blocks used by several model families.

use edgebench_graph::{ActivationKind, GraphBuilder, GraphError, NodeId, PoolKind};

/// Convolution → batch-norm → activation, the standard modern conv block.
///
/// The convolution has no bias (it is absorbed by the batch-norm shift),
/// matching the reference implementations of ResNet/MobileNet/Inception.
///
/// # Errors
///
/// Propagates shape errors from the underlying convolution.
pub(crate) fn conv_bn_act(
    b: &mut GraphBuilder,
    x: NodeId,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    act: ActivationKind,
) -> Result<NodeId, GraphError> {
    let c = b.conv2d_nobias(x, out_channels, kernel, stride, padding)?;
    let n = b.batch_norm(c)?;
    if act == ActivationKind::Linear {
        Ok(n)
    } else {
        b.activation(n, act)
    }
}

/// Conv-BN-ReLU shorthand.
///
/// # Errors
///
/// Propagates shape errors from the underlying convolution.
pub(crate) fn cbr(
    b: &mut GraphBuilder,
    x: NodeId,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Result<NodeId, GraphError> {
    conv_bn_act(
        b,
        x,
        out_channels,
        kernel,
        stride,
        padding,
        ActivationKind::Relu,
    )
}

/// Biased convolution followed by a plain activation (VGG/AlexNet style).
///
/// # Errors
///
/// Propagates shape errors from the underlying convolution.
pub(crate) fn conv_act(
    b: &mut GraphBuilder,
    x: NodeId,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    act: ActivationKind,
) -> Result<NodeId, GraphError> {
    let c = b.conv2d(x, out_channels, kernel, stride, padding)?;
    b.activation(c, act)
}

/// Depthwise-separable convolution (depthwise k×k + pointwise 1×1), each
/// followed by batch-norm and the given activation — the MobileNet/Xception
/// building block.
///
/// # Errors
///
/// Propagates shape errors from the underlying convolutions.
pub(crate) fn separable_conv(
    b: &mut GraphBuilder,
    x: NodeId,
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    act: ActivationKind,
) -> Result<NodeId, GraphError> {
    let dw = b.depthwise(x, kernel, stride, padding)?;
    let dn = b.batch_norm(dw)?;
    let dact = if act == ActivationKind::Linear {
        dn
    } else {
        b.activation(dn, act)?
    };
    conv_bn_act(b, dact, out_channels, (1, 1), (1, 1), (0, 0), act)
}

/// Global-average-pool → flatten → dense classifier head.
///
/// # Errors
///
/// Propagates shape errors from the dense layer.
pub(crate) fn classifier_head(
    b: &mut GraphBuilder,
    x: NodeId,
    classes: usize,
) -> Result<NodeId, GraphError> {
    let p = b.global_avg_pool(x)?;
    let f = b.flatten(p)?;
    let d = b.dense(f, classes)?;
    b.softmax(d)
}

/// Max-pool shorthand with explicit padding.
///
/// # Errors
///
/// Propagates shape errors from the pool window.
pub(crate) fn max_pool(
    b: &mut GraphBuilder,
    x: NodeId,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Result<NodeId, GraphError> {
    b.pool_padded(x, PoolKind::Max, kernel, stride, padding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_graph::GraphBuilder;

    #[test]
    fn cbr_emits_three_nodes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let y = cbr(&mut b, x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(y).unwrap();
        assert_eq!(g.len(), 4); // input + conv + bn + relu
        let names: Vec<_> = g.nodes().iter().map(|n| n.op().name()).collect();
        assert_eq!(names, ["input", "conv2d", "batch_norm", "activation"]);
    }

    #[test]
    fn separable_conv_halves_macs_vs_dense_conv() {
        use edgebench_graph::ActivationKind::Relu;
        let mut b = GraphBuilder::new("sep");
        let x = b.input([1, 64, 16, 16]);
        let y = separable_conv(&mut b, x, 128, (3, 3), (1, 1), (1, 1), Relu).unwrap();
        let sep = b.build(y).unwrap().stats().flops;

        let mut b = GraphBuilder::new("dense");
        let x = b.input([1, 64, 16, 16]);
        let y = cbr(&mut b, x, 128, (3, 3), (1, 1), (1, 1)).unwrap();
        let dense = b.build(y).unwrap().stats().flops;
        assert!(
            sep * 5 < dense,
            "separable {sep} should be >5x cheaper than {dense}"
        );
    }

    #[test]
    fn classifier_head_outputs_softmax_classes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 512, 7, 7]);
        let y = classifier_head(&mut b, x, 1000).unwrap();
        let g = b.build(y).unwrap();
        assert_eq!(g.output_shape().dims(), &[1, 1000]);
        assert_eq!(g.node(g.output()).op().name(), "softmax");
    }
}
