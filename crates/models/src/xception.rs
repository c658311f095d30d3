//! Xception (Chollet, CVPR 2017) at 224×224.
//!
//! Entry flow (3 residual separable modules), middle flow (8 modules), exit
//! flow. Parameter count (~22.9 M) is input-size independent; the paper's
//! 4.65 GFLOP corresponds to a 224×224 input.

use crate::common::{cbr, classifier_head, conv_bn_act, separable_conv};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId, PoolKind};

/// Separable conv + BN, optionally preceded by ReLU (pre-activation style).
fn sep_bn(
    b: &mut GraphBuilder,
    x: NodeId,
    out_c: usize,
    pre_relu: bool,
) -> Result<NodeId, GraphError> {
    let h = if pre_relu {
        b.activation(x, ActivationKind::Relu)?
    } else {
        x
    };
    separable_conv(b, h, out_c, (3, 3), (1, 1), (1, 1), ActivationKind::Linear)
}

/// Entry/exit residual module: two separable convs + strided max-pool, with a
/// 1×1 stride-2 projection skip.
fn down_module(
    b: &mut GraphBuilder,
    x: NodeId,
    c1: usize,
    c2: usize,
    first_relu: bool,
) -> Result<NodeId, GraphError> {
    let s1 = sep_bn(b, x, c1, first_relu)?;
    let s2 = sep_bn(b, s1, c2, true)?;
    let p = b.pool_padded(s2, PoolKind::Max, (3, 3), (2, 2), (1, 1))?;
    let skip = conv_bn_act(b, x, c2, (1, 1), (2, 2), (0, 0), ActivationKind::Linear)?;
    b.add(p, skip)
}

/// Middle-flow module: three ReLU-separable-conv(728) with identity skip.
fn middle_module(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let s1 = sep_bn(b, x, 728, true)?;
    let s2 = sep_bn(b, s1, 728, true)?;
    let s3 = sep_bn(b, s2, 728, true)?;
    b.add(s3, x)
}

/// Builds Xception at 224×224.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn xception() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("xception");
    let x = b.input([1, 3, 224, 224]);
    // Entry flow stem.
    let c1 = cbr(&mut b, x, 32, (3, 3), (2, 2), (1, 1))?; // 112
    let c2 = cbr(&mut b, c1, 64, (3, 3), (1, 1), (1, 1))?;
    // Three downsampling residual modules: 128, 256, 728.
    let m1 = down_module(&mut b, c2, 128, 128, false)?; // 56
    let m2 = down_module(&mut b, m1, 256, 256, true)?; // 28
    let m3 = down_module(&mut b, m2, 728, 728, true)?; // 14
                                                       // Middle flow.
    let mut h = m3;
    for _ in 0..8 {
        h = middle_module(&mut b, h)?;
    }
    // Exit flow.
    let e1 = sep_bn(&mut b, h, 728, true)?;
    let e2 = sep_bn(&mut b, e1, 1024, true)?;
    let ep = b.pool_padded(e2, PoolKind::Max, (3, 3), (2, 2), (1, 1))?; // 7
    let eskip = conv_bn_act(
        &mut b,
        h,
        1024,
        (1, 1),
        (2, 2),
        (0, 0),
        ActivationKind::Linear,
    )?;
    let esum = b.add(ep, eskip)?;
    let f1 = separable_conv(
        &mut b,
        esum,
        1536,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    let f2 = separable_conv(
        &mut b,
        f1,
        2048,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    let out = classifier_head(&mut b, f2, 1000)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xception_matches_paper_table1() {
        let s = xception().unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 22.91).abs() < 0.8,
            "params {}",
            s.params as f64 / 1e6
        );
        assert!(
            (s.flops as f64 / 1e9 - 4.65).abs() < 0.5,
            "flops {}",
            s.flops as f64 / 1e9
        );
    }

    #[test]
    fn middle_flow_preserves_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 728, 14, 14]);
        let m = middle_module(&mut b, x).unwrap();
        let g = b.build(m).unwrap();
        assert_eq!(g.node(m).output_shape().dims(), &[1, 728, 14, 14]);
    }
}
