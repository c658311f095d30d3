//! ResNet-18/50/101 (He et al., CVPR 2016).
//!
//! Depth 18 uses basic blocks (two 3×3 convs); depths 50/101 use bottleneck
//! blocks (1×1 → 3×3 → 1×1, expansion 4). Downsampling residual branches use
//! a projection 1×1 convolution, as in the reference implementation.

use crate::common::{cbr, classifier_head, conv_bn_act, max_pool};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId};

/// Basic residual block: 3×3 conv, 3×3 conv, identity/projection skip.
fn basic_block(
    b: &mut GraphBuilder,
    x: NodeId,
    channels: usize,
    stride: usize,
    project: bool,
) -> Result<NodeId, GraphError> {
    let c1 = cbr(b, x, channels, (3, 3), (stride, stride), (1, 1))?;
    let c2 = conv_bn_act(
        b,
        c1,
        channels,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Linear,
    )?;
    let skip = if project {
        conv_bn_act(
            b,
            x,
            channels,
            (1, 1),
            (stride, stride),
            (0, 0),
            ActivationKind::Linear,
        )?
    } else {
        x
    };
    let sum = b.add(c2, skip)?;
    b.activation(sum, ActivationKind::Relu)
}

/// Bottleneck residual block: 1×1 reduce, 3×3, 1×1 expand (×4).
fn bottleneck_block(
    b: &mut GraphBuilder,
    x: NodeId,
    channels: usize,
    stride: usize,
    project: bool,
) -> Result<NodeId, GraphError> {
    let out = channels * 4;
    let c1 = cbr(b, x, channels, (1, 1), (1, 1), (0, 0))?;
    let c2 = cbr(b, c1, channels, (3, 3), (stride, stride), (1, 1))?;
    let c3 = conv_bn_act(b, c2, out, (1, 1), (1, 1), (0, 0), ActivationKind::Linear)?;
    let skip = if project {
        conv_bn_act(
            b,
            x,
            out,
            (1, 1),
            (stride, stride),
            (0, 0),
            ActivationKind::Linear,
        )?
    } else {
        x
    };
    let sum = b.add(c3, skip)?;
    b.activation(sum, ActivationKind::Relu)
}

/// Builds ResNet of the given depth (18, 50 or 101) at 224×224.
///
/// # Errors
///
/// Propagates internal builder errors (none for supported depths).
///
/// # Panics
///
/// Panics if `depth` is not 18, 50 or 101.
pub(crate) fn resnet(depth: usize) -> Result<Graph, GraphError> {
    let (bottleneck, blocks): (bool, [usize; 4]) = match depth {
        18 => (false, [2, 2, 2, 2]),
        50 => (true, [3, 4, 6, 3]),
        101 => (true, [3, 4, 23, 3]),
        d => panic!("unsupported ResNet depth {d} (expected 18, 50 or 101)"),
    };
    let mut b = GraphBuilder::new(format!("resnet-{depth}"));
    let input = b.input([1, 3, 224, 224]);
    let stem = cbr(&mut b, input, 64, (7, 7), (2, 2), (3, 3))?;
    let mut x = max_pool(&mut b, stem, (3, 3), (2, 2), (1, 1))?;

    let stage_channels = [64usize, 128, 256, 512];
    for (stage, (&n_blocks, &channels)) in blocks.iter().zip(stage_channels.iter()).enumerate() {
        for block in 0..n_blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            // The first block of every stage changes channel width, so it
            // always needs a projection skip (including stage 0 for
            // bottlenecks, where 64 -> 256).
            let project = block == 0 && (stage > 0 || bottleneck);
            x = if bottleneck {
                bottleneck_block(&mut b, x, channels, stride, project)?
            } else {
                basic_block(&mut b, x, channels, stride, project)?
            };
        }
    }
    let out = classifier_head(&mut b, x, 1000)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_matches_paper_table1() {
        let s = resnet(18).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 11.69).abs() < 0.12,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 1.83).abs() < 0.1,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn resnet50_matches_paper_table1() {
        let s = resnet(50).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 25.56).abs() < 0.3,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 4.14).abs() < 0.15,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn resnet101_matches_paper_table1() {
        let s = resnet(101).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 44.55).abs() < 0.5,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 7.87).abs() < 0.3,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn final_feature_map_is_7x7() {
        let g = resnet(50).unwrap();
        // node before global avg pool must be 2048 x 7 x 7
        let gap_input = g
            .nodes()
            .iter()
            .rev()
            .find(|n| n.op().name() == "pool")
            .map(|n| n.inputs()[0])
            .unwrap();
        assert_eq!(g.node(gap_input).output_shape().dims()[1..], [2048, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "unsupported ResNet depth")]
    fn unsupported_depth_panics() {
        let _ = resnet(34);
    }
}
