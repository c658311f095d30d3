//! The chain digest the identity tests share: `integrity::checksum_f32` of
//! every node's output, observed through `run_observed` after lowering to
//! the run precision, folded in step order. A change a max pool, a ReLU or
//! an int8 grid swallows before the output still moves the chain.

use edgebench_graph::Graph;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{PreparedExecutor, Tensor};

/// Runs `exec` on `x` once: its output, and every node's (node index,
/// output digest) in step order.
pub fn observe(exec: &PreparedExecutor<'_>, x: &Tensor) -> (Tensor, Vec<(usize, u64)>) {
    let mut nodes = Vec::new();
    let (y, _) = exec
        .run_observed(x, &mut |i, y| {
            nodes.push((i, checksum_f32(y.data())));
            Ok(())
        })
        .unwrap();
    (y, nodes)
}

/// Folds per-node digests, in step order, into one chain digest.
pub fn chain(nodes: &[(usize, u64)]) -> u64 {
    nodes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(_, d)| {
        (h ^ d).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Panics unless two runs of `g` have the same chain digest, naming the
/// first node whose digest differs and printing every node's digest.
pub fn assert_same_chain(g: &Graph, label: &str, want: &[(usize, u64)], got: &[(usize, u64)]) {
    if chain(want) == chain(got) {
        return;
    }
    let first = want.iter().zip(got).find(|(a, b)| a != b);
    let node = first.map_or("none".to_string(), |(&(i, _), _)| {
        format!("node {i} ({})", g.nodes()[i].name())
    });
    panic!(
        "{label}: chain {:#018x} against {:#018x}, first differing at {node}; nodes\n{}\nagainst\n{}",
        chain(want),
        chain(got),
        node_lines(g, want),
        node_lines(g, got)
    );
}

/// One line per node: index, name and output digest.
pub fn node_lines(g: &Graph, nodes: &[(usize, u64)]) -> String {
    let name = |i: usize| g.nodes()[i].name().to_string();
    let lines = nodes
        .iter()
        .map(|&(i, d)| format!("  {i:>3} {:<24} {d:#018x}", name(i)));
    lines.collect::<Vec<_>>().join("\n")
}
