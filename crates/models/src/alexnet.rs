//! AlexNet (Krizhevsky 2014, single-tower "one weird trick" variant) and
//! CifarNet (the TF-slim CIFAR-10 network).
//!
//! Note on Table I fidelity: the paper lists AlexNet at 102.14 M parameters
//! and 0.72 GFLOP. That parameter count identifies a Caffe-era variant whose
//! conv5 widens to 512 channels, making FC6's input 512·6·6 = 18432 (the
//! canonical single-tower AlexNet has 61 M parameters). We reproduce the
//! variant the paper measured; its MAC count comes out slightly above the
//! paper's figure (recorded in EXPERIMENTS.md).

use crate::common::{conv_act, max_pool};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, Op};

/// Builds AlexNet at 224×224.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn alexnet() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("alexnet");
    let x = b.input([1, 3, 224, 224]);
    let c1 = conv_act(
        &mut b,
        x,
        64,
        (11, 11),
        (4, 4),
        (2, 2),
        ActivationKind::Relu,
    )?;
    let n1 = b.push_auto(Op::Lrn { size: 5 }, vec![c1])?;
    let p1 = max_pool(&mut b, n1, (3, 3), (2, 2), (0, 0))?;
    let c2 = conv_act(
        &mut b,
        p1,
        192,
        (5, 5),
        (1, 1),
        (2, 2),
        ActivationKind::Relu,
    )?;
    let n2 = b.push_auto(Op::Lrn { size: 5 }, vec![c2])?;
    let p2 = max_pool(&mut b, n2, (3, 3), (2, 2), (0, 0))?;
    let c3 = conv_act(
        &mut b,
        p2,
        384,
        (3, 3),
        (1, 1),
        (1, 1),
        ActivationKind::Relu,
    )?;
    let c4 = conv_act(
        &mut b,
        c3,
        384,
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
    let p5 = max_pool(&mut b, c5, (3, 3), (2, 2), (0, 0))?;
    let f = b.flatten(p5)?;
    let f6 = b.dense(f, 4096)?;
    let r6 = b.activation(f6, ActivationKind::Relu)?;
    let d6 = b.push_auto(Op::Dropout, vec![r6])?;
    let f7 = b.dense(d6, 4096)?;
    let r7 = b.activation(f7, ActivationKind::Relu)?;
    let d7 = b.push_auto(Op::Dropout, vec![r7])?;
    let f8 = b.dense(d7, 1000)?;
    let out = b.softmax(f8)?;
    b.build(out)
}

/// Builds CifarNet at 32×32: two 5×5 conv+pool stages and a 384/192/10 MLP.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn cifarnet() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("cifarnet");
    let x = b.input([1, 3, 32, 32]);
    let c1 = conv_act(&mut b, x, 64, (5, 5), (1, 1), (0, 0), ActivationKind::Relu)?;
    let p1 = max_pool(&mut b, c1, (2, 2), (2, 2), (0, 0))?;
    let n1 = b.push_auto(Op::Lrn { size: 4 }, vec![p1])?;
    let c2 = conv_act(&mut b, n1, 64, (5, 5), (1, 1), (0, 0), ActivationKind::Relu)?;
    let n2 = b.push_auto(Op::Lrn { size: 4 }, vec![c2])?;
    let p2 = max_pool(&mut b, n2, (2, 2), (2, 2), (0, 0))?;
    let f = b.flatten(p2)?;
    let f3 = b.dense(f, 384)?;
    let r3 = b.activation(f3, ActivationKind::Relu)?;
    let f4 = b.dense(r3, 192)?;
    let r4 = b.activation(f4, ActivationKind::Relu)?;
    let f5 = b.dense(r4, 10)?;
    let out = b.softmax(f5)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_flops_match_paper() {
        let s = alexnet().unwrap().stats();
        // Parameters match the paper's 102.14 M; MACs land near but above
        // its 0.72 G (see module docs).
        assert!(
            (s.params as f64 / 1e6 - 102.14).abs() < 2.5,
            "params {}",
            s.params as f64 / 1e6
        );
        let g = s.flops as f64 / 1e9;
        assert!((0.6..1.25).contains(&g), "flops {g}");
    }

    #[test]
    fn alexnet_is_fc_dominated() {
        let s = alexnet().unwrap().stats();
        // FLOP/param far below 20 => memory-intensive (paper Fig 1: 7.05).
        assert!(s.flop_per_param() < 20.0);
    }

    #[test]
    fn cifarnet_matches_paper_scale() {
        let s = cifarnet().unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 0.79).abs() < 0.25,
            "params {}",
            s.params
        );
        assert!(s.flops < 30_000_000, "flops {}", s.flops);
    }

    #[test]
    fn cifarnet_outputs_10_classes() {
        let g = cifarnet().unwrap();
        assert_eq!(g.output_shape().dims(), &[1, 10]);
    }
}
