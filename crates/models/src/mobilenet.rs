//! MobileNet-v1 (Howard et al. 2017) and MobileNet-v2 (Sandler et al. 2018).

use crate::common::{cbr, classifier_head, conv_bn_act, separable_conv};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId};

/// MobileNet-v2 inverted residual block with expansion `t`.
fn inverted_residual(
    b: &mut GraphBuilder,
    x: NodeId,
    in_c: usize,
    out_c: usize,
    stride: usize,
    expansion: usize,
) -> Result<NodeId, GraphError> {
    let hidden = in_c * expansion;
    let mut h = x;
    if expansion != 1 {
        h = conv_bn_act(b, h, hidden, (1, 1), (1, 1), (0, 0), ActivationKind::Relu6)?;
    }
    let dw = b.depthwise(h, (3, 3), (stride, stride), (1, 1))?;
    let dn = b.batch_norm(dw)?;
    let da = b.activation(dn, ActivationKind::Relu6)?;
    let pw = conv_bn_act(b, da, out_c, (1, 1), (1, 1), (0, 0), ActivationKind::Linear)?;
    if stride == 1 && in_c == out_c {
        b.add(pw, x)
    } else {
        Ok(pw)
    }
}

/// Builds MobileNet-v2 at 224×224 (width multiplier 1.0).
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn mobilenet_v2() -> Result<Graph, GraphError> {
    // (expansion t, channels c, repeats n, first stride s) — Table 2 of the
    // MobileNet-v2 paper.
    const CFG: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut b = GraphBuilder::new("mobilenet-v2");
    let x = b.input([1, 3, 224, 224]);
    let mut h = conv_bn_act(&mut b, x, 32, (3, 3), (2, 2), (1, 1), ActivationKind::Relu6)?;
    let mut in_c = 32;
    for &(t, c, n, s) in &CFG {
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            h = inverted_residual(&mut b, h, in_c, c, stride, t)?;
            in_c = c;
        }
    }
    h = conv_bn_act(
        &mut b,
        h,
        1280,
        (1, 1),
        (1, 1),
        (0, 0),
        ActivationKind::Relu6,
    )?;
    let out = classifier_head(&mut b, h, 1000)?;
    b.build(out)
}

/// Builds the MobileNet-v1 feature extractor trunk (used by SSD) and returns
/// the builder plus the ids of the conv11 (stride-16) and conv13 (stride-32)
/// feature maps.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn mobilenet_v1_trunk(
    b: &mut GraphBuilder,
    input: NodeId,
) -> Result<(NodeId, NodeId), GraphError> {
    // (out_channels, stride) pairs for the 13 separable layers.
    const CFG: [(usize, usize); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    let mut h = cbr(b, input, 32, (3, 3), (2, 2), (1, 1))?;
    let mut conv11 = h;
    for (i, &(c, s)) in CFG.iter().enumerate() {
        h = separable_conv(b, h, c, (3, 3), (s, s), (1, 1), ActivationKind::Relu6)?;
        if i == 10 {
            conv11 = h;
        }
    }
    Ok((conv11, h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobilenet_v2_matches_paper_table1() {
        let s = mobilenet_v2().unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 3.53).abs() < 0.3,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 0.32).abs() < 0.05,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn v2_has_residual_adds() {
        let g = mobilenet_v2().unwrap();
        let adds = g.nodes().iter().filter(|n| n.op().name() == "add").count();
        // Repeated blocks with stride 1 and equal channels: (2-1)+(3-1)+(4-1)+(3-1)+(3-1)
        assert_eq!(adds, 10);
    }

    #[test]
    fn v1_trunk_feature_map_strides() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 224, 224]);
        let (c11, c13) = mobilenet_v1_trunk(&mut b, x).unwrap();
        let g = b.build(c13).unwrap();
        assert_eq!(g.node(c11).output_shape().dims()[1..], [512, 14, 14]);
        assert_eq!(g.node(c13).output_shape().dims()[1..], [1024, 7, 7]);
    }
}
