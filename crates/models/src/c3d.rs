//! C3D (Tran et al., ICCV 2015): 3-D convolutions over short video clips.
//!
//! The paper uses 12-frame 112×112 clips. With 12 frames, the temporal
//! extent after pools 2–4 is 12 → 6 → 3 → 1, so pool5 degenerates to a
//! spatial-only (1×2×2) pool; this matches how frameworks handle shallow
//! clips and is recorded in EXPERIMENTS.md.

use edgebench_graph::{ActivationKind, Graph, GraphBuilder, GraphError, NodeId, Op, PoolKind};

fn conv3(b: &mut GraphBuilder, x: NodeId, out_c: usize) -> Result<NodeId, GraphError> {
    let c = b.conv3d(x, out_c, (3, 3, 3), (1, 1, 1), (1, 1, 1))?;
    b.activation(c, ActivationKind::Relu)
}

fn pool3(
    b: &mut GraphBuilder,
    x: NodeId,
    kernel: (usize, usize, usize),
) -> Result<NodeId, GraphError> {
    b.push_auto(
        Op::Pool3d {
            kind: PoolKind::Max,
            kernel,
            stride: kernel,
        },
        vec![x],
    )
}

/// Builds C3D for 12×112×112 clips (Sports-1M head: 487 classes).
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn c3d() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("c3d");
    let x = b.input([1, 3, 12, 112, 112]);
    let c1 = conv3(&mut b, x, 64)?;
    let p1 = pool3(&mut b, c1, (1, 2, 2))?; // 12×56×56
    let c2 = conv3(&mut b, p1, 128)?;
    let p2 = pool3(&mut b, c2, (2, 2, 2))?; // 6×28×28
    let c3a = conv3(&mut b, p2, 256)?;
    let c3b = conv3(&mut b, c3a, 256)?;
    let p3 = pool3(&mut b, c3b, (2, 2, 2))?; // 3×14×14
    let c4a = conv3(&mut b, p3, 512)?;
    let c4b = conv3(&mut b, c4a, 512)?;
    let p4 = pool3(&mut b, c4b, (2, 2, 2))?; // 1×7×7
    let c5a = conv3(&mut b, p4, 512)?;
    let c5b = conv3(&mut b, c5a, 512)?;
    let p5 = pool3(&mut b, c5b, (1, 2, 2))?; // 1×3×3 (temporal already 1)
    let f = b.flatten(p5)?;
    let f6 = b.dense(f, 4096)?;
    let r6 = b.activation(f6, ActivationKind::Relu)?;
    let d6 = b.push_auto(Op::Dropout, vec![r6])?;
    let f7 = b.dense(d6, 4096)?;
    let r7 = b.activation(f7, ActivationKind::Relu)?;
    let d7 = b.push_auto(Op::Dropout, vec![r7])?;
    let f8 = b.dense(d7, 487)?;
    let out = b.softmax(f8)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c3d_matches_paper_scale() {
        let s = c3d().unwrap().stats();
        // Paper: 89 M params, 57.99 G with the 2-FLOP-per-MAC convention
        // (≈29 G MACs). The 12-frame clip shrinks FC6 versus the 16-frame
        // original, giving ~65 M params; we assert the order of magnitude
        // and the MAC count.
        let macs_g = s.flops as f64 / 1e9;
        assert!((20.0..35.0).contains(&macs_g), "macs {macs_g}");
        let p = s.params as f64 / 1e6;
        assert!((55.0..95.0).contains(&p), "params {p}");
    }

    #[test]
    fn c3d_is_the_most_compute_intense_model() {
        let s = c3d().unwrap().stats();
        // Paper Fig 1: C3D has the highest FLOP/param of the zoo (734).
        assert!(
            s.flop_per_param() > 300.0,
            "flop/param {}",
            s.flop_per_param()
        );
    }

    #[test]
    fn temporal_extent_collapses_to_one() {
        let g = c3d().unwrap();
        let last_pool3d = g
            .nodes()
            .iter()
            .rev()
            .find(|n| n.op().name() == "pool3d")
            .unwrap();
        assert_eq!(last_pool3d.output_shape().depth(), 1);
    }
}
