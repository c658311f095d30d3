//! VGG16 / VGG19 (Simonyan & Zisserman 2015) and VGG-S (Chatfield et al.
//! 2014, "Return of the Devil in the Details").

use crate::common::{conv_act, max_pool};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId, Op};

fn vgg_block(
    b: &mut GraphBuilder,
    mut x: NodeId,
    convs: usize,
    channels: usize,
) -> Result<NodeId, GraphError> {
    for _ in 0..convs {
        x = conv_act(b, x, channels, (3, 3), (1, 1), (1, 1), ActivationKind::Relu)?;
    }
    max_pool(b, x, (2, 2), (2, 2), (0, 0))
}

fn fc_head(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let f = b.flatten(x)?;
    let f6 = b.dense(f, 4096)?;
    let r6 = b.activation(f6, ActivationKind::Relu)?;
    let d6 = b.push_auto(Op::Dropout, vec![r6])?;
    let f7 = b.dense(d6, 4096)?;
    let r7 = b.activation(f7, ActivationKind::Relu)?;
    let d7 = b.push_auto(Op::Dropout, vec![r7])?;
    let f8 = b.dense(d7, 1000)?;
    b.softmax(f8)
}

/// Builds VGG of the given depth (16 or 19) at 224×224.
///
/// # Errors
///
/// Propagates internal builder errors (none for supported depths).
///
/// # Panics
///
/// Panics if `depth` is not 16 or 19.
pub(crate) fn vgg(depth: usize) -> Result<Graph, GraphError> {
    let convs_per_block: [usize; 5] = match depth {
        16 => [2, 2, 3, 3, 3],
        19 => [2, 2, 4, 4, 4],
        d => panic!("unsupported VGG depth {d} (expected 16 or 19)"),
    };
    let channels = [64usize, 128, 256, 512, 512];
    let mut b = GraphBuilder::new(format!("vgg{depth}"));
    let mut x = b.input([1, 3, 224, 224]);
    for (&n, &c) in convs_per_block.iter().zip(channels.iter()) {
        x = vgg_block(&mut b, x, n, c)?;
    }
    let out = fc_head(&mut b, x)?;
    b.build(out)
}

/// Builds VGG-S at the given square input size (the paper uses 32 and 224).
///
/// VGG-S: conv 96 7×7/2 → LRN → pool 3/3; conv 256 5×5 pad 2 → pool 2/2;
/// three 3×3 512 convs → pool 3/3; FC 4096 ×2 → FC 1000.
///
/// At 32×32 the feature map reaches 2×2 before the last pool, which cannot
/// fit the canonical 3×3/3 window; a 2×2/2 pool is used instead (noted in
/// EXPERIMENTS.md).
///
/// # Errors
///
/// Propagates internal builder errors for unsupported sizes.
pub(crate) fn vgg_s(input: usize) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(format!("vgg-s-{input}"));
    let x = b.input([1, 3, input, input]);
    let c1 = conv_act(&mut b, x, 96, (7, 7), (2, 2), (0, 0), ActivationKind::Relu)?;
    let n1 = b.push_auto(Op::Lrn { size: 5 }, vec![c1])?;
    let p1 = max_pool(&mut b, n1, (3, 3), (3, 3), (0, 0))?;
    let c2 = conv_act(
        &mut b,
        p1,
        256,
        (5, 5),
        (1, 1),
        (2, 2),
        ActivationKind::Relu,
    )?;
    let p2 = max_pool(&mut b, c2, (2, 2), (2, 2), (0, 0))?;
    let c3 = conv_act(
        &mut b,
        p2,
        512,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    let c4 = conv_act(
        &mut b,
        c3,
        512,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    let c5 = conv_act(
        &mut b,
        c4,
        512,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    // Track the spatial extent arithmetically to pick a last pool that fits.
    let s1 = (input - 7) / 2 + 1; // conv1, valid, stride 2
    let s2 = (s1 - 3) / 3 + 1; // pool1 3/3
    let s5 = s2 / 2; // pool2 2/2 (conv2..5 preserve extent)
    let p5 = if s5 >= 3 {
        max_pool(&mut b, c5, (3, 3), (3, 3), (0, 0))?
    } else {
        max_pool(&mut b, c5, (2, 2), (2, 2), (0, 0))?
    };
    let out = fc_head(&mut b, p5)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_matches_paper_table1() {
        let s = vgg(16).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 138.36).abs() < 1.0,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 15.47).abs() < 0.3,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn vgg19_matches_paper_table1() {
        let s = vgg(19).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 143.66).abs() < 1.0,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 19.63).abs() < 0.4,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn vgg_s_224_matches_paper_table1() {
        let s = vgg_s(224).unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 102.91).abs() < 2.0,
            "params {}",
            s.params
        );
        assert!(
            (s.flops as f64 / 1e9 - 3.27).abs() < 0.7,
            "flops {}",
            s.flops
        );
    }

    #[test]
    fn vgg_s_32_is_fc_dominated_and_small() {
        let s = vgg_s(32).unwrap().stats();
        // Paper: 32.11 M params, 0.11 GFLOP. Our faithful construction gives
        // ~29.5 M (the paper's larger figure implies a bigger FC6 input); we
        // assert the same order and the paper's key property: the lowest
        // FLOP/param ratio of the zoo (3.42 in Table I).
        let p = s.params as f64 / 1e6;
        assert!((20.0..40.0).contains(&p), "params {p} M");
        assert!(
            s.flop_per_param() < 10.0,
            "flop/param {}",
            s.flop_per_param()
        );
    }

    #[test]
    fn vgg16_has_13_convs_and_3_fcs() {
        let g = vgg(16).unwrap();
        let convs = g
            .nodes()
            .iter()
            .filter(|n| n.op().name() == "conv2d")
            .count();
        let fcs = g
            .nodes()
            .iter()
            .filter(|n| n.op().name() == "dense")
            .count();
        assert_eq!(convs, 13);
        assert_eq!(fcs, 3);
    }
}
