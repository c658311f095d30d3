//! Graph optimization passes — real IR transformations, validated for
//! structural and (via `edgebench-tensor`) numerical equivalence.
//!
//! * [`fuse_conv_bn_act`] — kernel fusion: collapses `conv → batch-norm →
//!   activation` chains into a single [`Op::FusedConvBnAct`], eliminating
//!   two dispatches and two activation-map round trips per chain. This is
//!   the fusion TFLite / TensorRT / NCSDK apply (paper §III-B).
//! * [`freeze`] — graph freezing: removes inference-time no-ops (dropout),
//!   as TFLite's converter does when it freezes a TensorFlow graph.
//! * [`quantize`] — precision lowering to INT8.
//! * [`pruning_speedup`] — the compute reduction a framework that exploits
//!   pruned weights achieves at a given sparsity.

use edgebench_graph::{ActivationKind, Graph, GraphError, NodeId, Op};

/// Rebuilds a graph keeping only nodes where `keep[i]` is true, rewiring
/// consumers of a dropped node to `forward[i]` (which must be kept).
fn rebuild(
    g: &Graph,
    keep: &[bool],
    forward: &[usize],
    replacement_ops: &[Option<Op>],
) -> Result<Graph, GraphError> {
    // Resolve forwarding chains (a dropped node may forward to another
    // dropped node).
    let resolve = |mut i: usize| -> usize {
        while !keep[i] {
            i = forward[i];
        }
        i
    };
    let mut new_id = vec![usize::MAX; g.len()];
    let mut specs: Vec<(String, Op, Vec<NodeId>)> = Vec::new();
    for node in g.nodes() {
        let i = node.id().index();
        if !keep[i] {
            continue;
        }
        let op = replacement_ops[i]
            .clone()
            .unwrap_or_else(|| node.op().clone());
        let inputs = node
            .inputs()
            .iter()
            .map(|&inp| NodeId::from_index(new_id[resolve(inp.index())]))
            .collect();
        new_id[i] = specs.len();
        specs.push((node.name().to_string(), op, inputs));
    }
    let out = NodeId::from_index(new_id[resolve(g.output().index())]);
    Graph::from_transformed(g.name().to_string(), specs, out, g.dtype())
}

/// Fuses `conv → batch-norm → activation` (and the shorter `conv → bn`,
/// `conv → act` variants) into single fused operators.
///
/// A chain is fused only when each intermediate value has exactly one
/// consumer, so residual taps are never broken. The fused node keeps the
/// convolution's *name*, which keeps the synthetic `WeightStore` of
/// `edgebench-tensor` assigning identical weights before and after fusion —
/// numerical equivalence is asserted in tests.
///
/// # Errors
///
/// Propagates graph-reconstruction errors (none for valid inputs).
pub fn fuse_conv_bn_act(g: &Graph) -> Result<Graph, GraphError> {
    let consumers = g.consumers();
    let sole_consumer = |i: usize| -> Option<usize> {
        if consumers[i].len() == 1 {
            Some(consumers[i][0].index())
        } else {
            None
        }
    };
    let n = g.len();
    let mut keep = vec![true; n];
    let mut forward: Vec<usize> = (0..n).collect();
    let mut replacement: Vec<Option<Op>> = vec![None; n];

    for node in g.nodes() {
        let i = node.id().index();
        if !keep[i] {
            continue;
        }
        let conv = match node.op() {
            c @ (Op::Conv2d { .. } | Op::DepthwiseConv2d { .. }) => c.clone(),
            _ => continue,
        };
        let mut bn = false;
        let mut act = ActivationKind::Linear;
        let mut last = i;
        // Optional batch-norm directly after.
        if let Some(j) = sole_consumer(last) {
            if matches!(g.nodes()[j].op(), Op::BatchNorm) {
                bn = true;
                last = j;
            }
        }
        // Optional activation after that.
        if let Some(k) = sole_consumer(last) {
            if let Op::Activation { kind } = g.nodes()[k].op() {
                act = *kind;
                last = k;
            }
        }
        if last == i {
            continue; // nothing to fuse
        }
        // Drop the fused-away nodes, forwarding their consumers to the conv.
        let mut j = i;
        while j != last {
            let next = sole_consumer(j).expect("chain verified");
            keep[next] = false;
            forward[next] = i;
            j = next;
        }
        replacement[i] = Some(Op::FusedConvBnAct {
            conv: Box::new(conv),
            bn,
            act,
        });
    }
    rebuild(g, &keep, &forward, &replacement)
}

/// Freezes the graph for deployment: removes dropout no-ops.
///
/// # Errors
///
/// Propagates graph-reconstruction errors (none for valid inputs).
pub fn freeze(g: &Graph) -> Result<Graph, GraphError> {
    let n = g.len();
    let mut keep = vec![true; n];
    let mut forward: Vec<usize> = (0..n).collect();
    for node in g.nodes() {
        if matches!(node.op(), Op::Dropout) {
            let i = node.id().index();
            // A dropout that *is* the output must stay.
            if g.output().index() != i {
                keep[i] = false;
                forward[i] = node.inputs()[0].index();
            }
        }
    }
    let replacement = vec![None; n];
    rebuild(g, &keep, &forward, &replacement)
}

/// Lowers the graph to INT8 (post-training quantization).
pub fn quantize(g: &Graph) -> Graph {
    g.with_dtype(edgebench_graph::DType::I8)
}

/// Compute-time reduction factor from pruned (sparse) weights.
///
/// Every framework stores pruned weights compactly, but only frameworks
/// that take the further step of sparse *computation* (TensorFlow, TFLite,
/// TensorRT per Table II) convert sparsity into speed. The achievable
/// speedup saturates well below `1/(1-s)` because sparse kernels pay
/// indexing overheads.
pub fn pruning_speedup(exploits_sparsity: bool, sparsity: f64) -> f64 {
    let s = sparsity.clamp(0.0, 0.95);
    if !exploits_sparsity {
        return 1.0;
    }
    // Effective MACs drop to (1-s), recovered at 70 % efficiency.
    1.0 / (1.0 - 0.7 * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgebench_graph::GraphBuilder;
    use edgebench_models::Model;

    fn conv_bn_relu_graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 8, 8]);
        let c = b.conv2d_nobias(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let n = b.batch_norm(c).unwrap();
        let r = b.activation(n, ActivationKind::Relu).unwrap();
        let d = b.flatten(r).unwrap();
        let out = b.dense(d, 10).unwrap();
        b.build(out).unwrap()
    }

    #[test]
    fn fusion_collapses_chain() {
        let g = conv_bn_relu_graph();
        let f = fuse_conv_bn_act(&g).unwrap();
        assert_eq!(g.len(), 6);
        assert_eq!(f.len(), 4); // input, fused, flatten, dense
        let fused = f
            .nodes()
            .iter()
            .find(|n| matches!(n.op(), Op::FusedConvBnAct { .. }))
            .expect("fused node exists");
        if let Op::FusedConvBnAct { bn, act, .. } = fused.op() {
            assert!(*bn);
            assert_eq!(*act, ActivationKind::Relu);
        }
        assert_eq!(f.output_shape(), g.output_shape());
    }

    #[test]
    fn fusion_preserves_flops_params_approximately() {
        let g = Model::ResNet18.build();
        let f = fuse_conv_bn_act(&g).unwrap();
        let (sg, sf) = (g.stats(), f.stats());
        assert_eq!(sg.params, sf.params, "fusion must not change parameters");
        // Fusion removes separate BN/activation passes; FLOPs shrink a
        // little but stay within 5 %.
        assert!(sf.flops <= sg.flops);
        assert!(sf.flops as f64 > 0.95 * sg.flops as f64);
        // Node count shrinks substantially.
        assert!(f.len() * 3 < g.len() * 2, "{} vs {}", f.len(), g.len());
    }

    #[test]
    fn fusion_does_not_break_residual_taps() {
        // conv output feeds both a bn and a residual add: must not fuse.
        let mut b = GraphBuilder::new("res");
        let x = b.input([1, 4, 8, 8]);
        let c = b.conv2d_nobias(x, 4, (3, 3), (1, 1), (1, 1)).unwrap();
        let n = b.batch_norm(c).unwrap();
        let r = b.activation(n, ActivationKind::Relu).unwrap();
        let s = b.add(r, c).unwrap(); // taps the raw conv output
        let g = b.build(s).unwrap();
        let f = fuse_conv_bn_act(&g).unwrap();
        // The conv has two consumers, so nothing may be fused away.
        assert_eq!(f.len(), g.len());
    }

    #[test]
    fn fusion_is_numerically_equivalent() {
        use edgebench_tensor::{Executor, Tensor};
        let g = conv_bn_relu_graph();
        let f = fuse_conv_bn_act(&g).unwrap();
        let x = Tensor::random([1, 3, 8, 8], 3);
        let yg = Executor::new(&g).with_seed(11).run(&x).unwrap();
        let yf = Executor::new(&f).with_seed(11).run(&x).unwrap();
        assert!(
            yg.mean_abs_diff(&yf) < 1e-5,
            "fusion changed numerics by {}",
            yg.mean_abs_diff(&yf)
        );
    }

    #[test]
    fn fusion_on_all_models_preserves_output_shape() {
        for &m in Model::all() {
            let g = m.build();
            let f = fuse_conv_bn_act(&g).unwrap();
            assert_eq!(f.output_shape(), g.output_shape(), "{m}");
            assert!(f.len() <= g.len(), "{m}");
        }
    }

    #[test]
    fn freeze_removes_dropout() {
        let g = Model::Vgg16.build();
        let f = freeze(&g).unwrap();
        assert!(g.nodes().iter().any(|n| matches!(n.op(), Op::Dropout)));
        assert!(!f.nodes().iter().any(|n| matches!(n.op(), Op::Dropout)));
        assert_eq!(f.output_shape(), g.output_shape());
    }

    #[test]
    fn freeze_is_numerically_identical() {
        use edgebench_tensor::{Executor, Tensor};
        let mut b = GraphBuilder::new("d");
        let x = b.input([1, 8]);
        let d1 = b.dense(x, 16).unwrap();
        let dr = b.push_auto(Op::Dropout, vec![d1]).unwrap();
        let d2 = b.dense(dr, 4).unwrap();
        let g = b.build(d2).unwrap();
        let f = freeze(&g).unwrap();
        let xt = Tensor::random([1, 8], 1);
        let yg = Executor::new(&g).with_seed(2).run(&xt).unwrap();
        let yf = Executor::new(&f).with_seed(2).run(&xt).unwrap();
        assert_eq!(yg, yf);
    }

    #[test]
    fn quantize_retags_dtype() {
        let g = Model::CifarNet.build();
        assert_eq!(quantize(&g).dtype(), edgebench_graph::DType::I8);
    }

    #[test]
    fn pruning_speedup_behaviour() {
        assert_eq!(pruning_speedup(false, 0.9), 1.0);
        assert_eq!(pruning_speedup(true, 0.0), 1.0);
        let s50 = pruning_speedup(true, 0.5);
        let s90 = pruning_speedup(true, 0.9);
        assert!(s50 > 1.3 && s50 < 2.0, "{s50}");
        assert!(s90 > s50);
        assert!(s90 < 1.0 / (1.0 - 0.9), "below the ideal bound");
    }
}
