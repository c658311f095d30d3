//! Inception-v4 (Szegedy et al., AAAI 2017), built at its native 299×299.

use crate::common::cbr;
use edgebench_graph::{Graph, GraphBuilder, GraphError, NodeId, PoolKind};

/// Average pool 3×3 stride 1 with same padding (used inside blocks).
fn avg_same(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    b.pool_padded(x, PoolKind::Avg, (3, 3), (1, 1), (1, 1))
}

fn max_valid2(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    b.pool(x, PoolKind::Max, (3, 3), (2, 2))
}

/// Stem: 299×299×3 → 35×35×384.
fn stem(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let c1 = cbr(b, x, 32, (3, 3), (2, 2), (0, 0))?; // 149
    let c2 = cbr(b, c1, 32, (3, 3), (1, 1), (0, 0))?; // 147
    let c3 = cbr(b, c2, 64, (3, 3), (1, 1), (1, 1))?; // 147
    let p1 = max_valid2(b, c3)?; // 73
    let c4 = cbr(b, c3, 96, (3, 3), (2, 2), (0, 0))?; // 73
    let cat1 = b.concat(vec![p1, c4])?; // 160

    let a1 = cbr(b, cat1, 64, (1, 1), (1, 1), (0, 0))?;
    let a2 = cbr(b, a1, 96, (3, 3), (1, 1), (0, 0))?; // 71
    let b1 = cbr(b, cat1, 64, (1, 1), (1, 1), (0, 0))?;
    let b2 = cbr(b, b1, 64, (7, 1), (1, 1), (3, 0))?;
    let b3 = cbr(b, b2, 64, (1, 7), (1, 1), (0, 3))?;
    let b4 = cbr(b, b3, 96, (3, 3), (1, 1), (0, 0))?; // 71
    let cat2 = b.concat(vec![a2, b4])?; // 192

    let d1 = cbr(b, cat2, 192, (3, 3), (2, 2), (0, 0))?; // 35
    let p2 = max_valid2(b, cat2)?; // 35
    b.concat(vec![d1, p2]) // 384
}

/// Inception-A block at 35×35, 384 → 384 channels.
fn inception_a(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let p = avg_same(b, x)?;
    let br1 = cbr(b, p, 96, (1, 1), (1, 1), (0, 0))?;
    let br2 = cbr(b, x, 96, (1, 1), (1, 1), (0, 0))?;
    let a1 = cbr(b, x, 64, (1, 1), (1, 1), (0, 0))?;
    let br3 = cbr(b, a1, 96, (3, 3), (1, 1), (1, 1))?;
    let b1 = cbr(b, x, 64, (1, 1), (1, 1), (0, 0))?;
    let b2 = cbr(b, b1, 96, (3, 3), (1, 1), (1, 1))?;
    let br4 = cbr(b, b2, 96, (3, 3), (1, 1), (1, 1))?;
    b.concat(vec![br1, br2, br3, br4])
}

/// Reduction-A: 35×35×384 → 17×17×1024.
fn reduction_a(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let p = max_valid2(b, x)?;
    let br1 = cbr(b, x, 384, (3, 3), (2, 2), (0, 0))?;
    let a1 = cbr(b, x, 192, (1, 1), (1, 1), (0, 0))?;
    let a2 = cbr(b, a1, 224, (3, 3), (1, 1), (1, 1))?;
    let br2 = cbr(b, a2, 256, (3, 3), (2, 2), (0, 0))?;
    b.concat(vec![p, br1, br2])
}

/// Inception-B block at 17×17, 1024 → 1024 channels.
fn inception_b(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let p = avg_same(b, x)?;
    let br1 = cbr(b, p, 128, (1, 1), (1, 1), (0, 0))?;
    let br2 = cbr(b, x, 384, (1, 1), (1, 1), (0, 0))?;
    let a1 = cbr(b, x, 192, (1, 1), (1, 1), (0, 0))?;
    let a2 = cbr(b, a1, 224, (1, 7), (1, 1), (0, 3))?;
    let br3 = cbr(b, a2, 256, (7, 1), (1, 1), (3, 0))?;
    let c1 = cbr(b, x, 192, (1, 1), (1, 1), (0, 0))?;
    let c2 = cbr(b, c1, 192, (1, 7), (1, 1), (0, 3))?;
    let c3 = cbr(b, c2, 224, (7, 1), (1, 1), (3, 0))?;
    let c4 = cbr(b, c3, 224, (1, 7), (1, 1), (0, 3))?;
    let br4 = cbr(b, c4, 256, (7, 1), (1, 1), (3, 0))?;
    b.concat(vec![br1, br2, br3, br4])
}

/// Reduction-B: 17×17×1024 → 8×8×1536.
fn reduction_b(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let p = max_valid2(b, x)?;
    let a1 = cbr(b, x, 192, (1, 1), (1, 1), (0, 0))?;
    let br1 = cbr(b, a1, 192, (3, 3), (2, 2), (0, 0))?;
    let b1 = cbr(b, x, 256, (1, 1), (1, 1), (0, 0))?;
    let b2 = cbr(b, b1, 256, (1, 7), (1, 1), (0, 3))?;
    let b3 = cbr(b, b2, 320, (7, 1), (1, 1), (3, 0))?;
    let br2 = cbr(b, b3, 320, (3, 3), (2, 2), (0, 0))?;
    b.concat(vec![p, br1, br2])
}

/// Inception-C block at 8×8, 1536 → 1536 channels.
fn inception_c(b: &mut GraphBuilder, x: NodeId) -> Result<NodeId, GraphError> {
    let p = avg_same(b, x)?;
    let br1 = cbr(b, p, 256, (1, 1), (1, 1), (0, 0))?;
    let br2 = cbr(b, x, 256, (1, 1), (1, 1), (0, 0))?;
    let a1 = cbr(b, x, 384, (1, 1), (1, 1), (0, 0))?;
    let a2a = cbr(b, a1, 256, (1, 3), (1, 1), (0, 1))?;
    let a2b = cbr(b, a1, 256, (3, 1), (1, 1), (1, 0))?;
    let c1 = cbr(b, x, 384, (1, 1), (1, 1), (0, 0))?;
    let c2 = cbr(b, c1, 448, (1, 3), (1, 1), (0, 1))?;
    let c3 = cbr(b, c2, 512, (3, 1), (1, 1), (1, 0))?;
    let c4a = cbr(b, c3, 256, (3, 1), (1, 1), (1, 0))?;
    let c4b = cbr(b, c3, 256, (1, 3), (1, 1), (0, 1))?;
    b.concat(vec![br1, br2, a2a, a2b, c4a, c4b])
}

/// Builds Inception-v4: stem, 4×A, Reduction-A, 7×B, Reduction-B, 3×C,
/// global average pool, dropout, FC-1000.
///
/// # Errors
///
/// Propagates internal builder errors (none in practice).
pub(crate) fn inception_v4() -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new("inception-v4");
    let x = b.input([1, 3, 299, 299]);
    let mut h = stem(&mut b, x)?;
    for _ in 0..4 {
        h = inception_a(&mut b, h)?;
    }
    h = reduction_a(&mut b, h)?;
    for _ in 0..7 {
        h = inception_b(&mut b, h)?;
    }
    h = reduction_b(&mut b, h)?;
    for _ in 0..3 {
        h = inception_c(&mut b, h)?;
    }
    let p = b.global_avg_pool(h)?;
    let f = b.flatten(p)?;
    let drop = b.push_auto(edgebench_graph::Op::Dropout, vec![f])?;
    let fc = b.dense(drop, 1000)?;
    let out = b.softmax(fc)?;
    b.build(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_v4_matches_paper_table1() {
        let s = inception_v4().unwrap().stats();
        assert!(
            (s.params as f64 / 1e6 - 42.71).abs() < 1.0,
            "params {}",
            s.params as f64 / 1e6
        );
        assert!(
            (s.flops as f64 / 1e9 - 12.27).abs() < 0.6,
            "flops {}",
            s.flops as f64 / 1e9
        );
    }

    #[test]
    fn stage_shapes_are_canonical() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 299, 299]);
        let s = stem(&mut b, x).unwrap();
        let ra = {
            let mut h = s;
            for _ in 0..4 {
                h = inception_a(&mut b, h).unwrap();
            }
            reduction_a(&mut b, h).unwrap()
        };
        let rb = {
            let mut h = ra;
            for _ in 0..7 {
                h = inception_b(&mut b, h).unwrap();
            }
            reduction_b(&mut b, h).unwrap()
        };
        let g = b.build(rb).unwrap();
        assert_eq!(g.node(s).output_shape().dims()[1..], [384, 35, 35]);
        assert_eq!(g.node(ra).output_shape().dims()[1..], [1024, 17, 17]);
        assert_eq!(g.node(rb).output_shape().dims()[1..], [1536, 8, 8]);
    }
}
