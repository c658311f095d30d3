//! First-principles cost accounting over the IR.
//!
//! Every quantity is derived from the operator attributes and inferred
//! shapes — nothing is looked up from tables — so Table I of the paper
//! (FLOP, parameter count, FLOP/parameter) is *reproduced*, not transcribed.
//!
//! ## Conventions
//!
//! * **FLOP**: one multiply-accumulate = one FLOP, matching the paper's
//!   Table I (their ResNet-18 = 1.83 GFLOP is 1.83 G-MACs).
//! * **Bytes**: activation and weight traffic assume the graph's current
//!   [`DType`](crate::DType).
//! * **Peak memory**: computed by liveness analysis over the topological
//!   order; see [`MemoryPolicy`].

use crate::graph::{Graph, NodeId};
use crate::op::{Op, PoolKind};
use crate::shape::TensorShape;
use std::collections::BTreeMap;

/// How a framework allocates activation memory, used to estimate a model's
/// runtime footprint.
///
/// The paper (§VI-A, Table V) observes that TensorFlow's static graph fails
/// with memory errors on the 1 GB Raspberry Pi for AlexNet/VGG16/C3D, while
/// PyTorch's dynamic graph — which frees activations as soon as their last
/// consumer runs — survives at an order-of-magnitude time cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryPolicy {
    /// All activation buffers are materialized simultaneously (frozen static
    /// graph without buffer reuse). Footprint = weights + Σ activations.
    StaticGraph,
    /// Buffers are freed after their last consumer (dynamic graph).
    /// Footprint = weights + peak live activations.
    DynamicGraph,
}

/// Per-node cost vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeCost {
    /// Multiply-accumulate-counted floating point operations.
    pub flops: u64,
    /// Learnable parameter count.
    pub params: u64,
    /// Bytes read from producer activations.
    pub input_bytes: u64,
    /// Bytes written to this node's activation buffer.
    pub output_bytes: u64,
    /// Bytes of weights streamed for this node.
    pub weight_bytes: u64,
}

impl NodeCost {
    /// Total bytes moved (inputs + outputs + weights) — the roofline's
    /// memory-traffic proxy.
    pub fn total_bytes(&self) -> u64 {
        self.input_bytes + self.output_bytes + self.weight_bytes
    }
}

/// Whole-graph cost summary (the row format of the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Model name.
    pub name: String,
    /// Input shape of the first graph input.
    pub input_shape: TensorShape,
    /// Total FLOP for one inference (MAC convention).
    pub flops: u64,
    /// Total learnable parameters.
    pub params: u64,
    /// Total weight bytes at the graph's dtype.
    pub weight_bytes: u64,
    /// Sum of all activation buffer sizes.
    pub activation_bytes_total: u64,
    /// Peak live activation bytes (dynamic-graph liveness).
    pub peak_activation_bytes: u64,
    /// FLOP grouped by operator mnemonic (for software-stack profiling).
    pub flops_by_op: BTreeMap<&'static str, u64>,
}

impl GraphStats {
    /// FLOP per parameter — the paper's compute-intensity metric (Fig 1).
    pub fn flop_per_param(&self) -> f64 {
        if self.params == 0 {
            0.0
        } else {
            self.flops as f64 / self.params as f64
        }
    }
}

fn pair(p: (usize, usize)) -> u64 {
    (p.0 * p.1) as u64
}

fn triple(p: (usize, usize, usize)) -> u64 {
    (p.0 * p.1 * p.2) as u64
}

/// Computes the learnable-parameter count of `op` given its input shapes.
pub(crate) fn op_params(op: &Op, inputs: &[TensorShape], output: &TensorShape) -> u64 {
    match op {
        Op::Conv2d {
            out_channels,
            kernel,
            groups,
            bias,
            ..
        } => {
            let in_c = inputs[0].channels() as u64;
            let w = *out_channels as u64 * (in_c / *groups as u64) * pair(*kernel);
            w + if *bias { *out_channels as u64 } else { 0 }
        }
        Op::DepthwiseConv2d {
            multiplier,
            kernel,
            bias,
            ..
        } => {
            let in_c = inputs[0].channels() as u64;
            let w = in_c * *multiplier as u64 * pair(*kernel);
            w + if *bias { in_c * *multiplier as u64 } else { 0 }
        }
        Op::Conv3d {
            out_channels,
            kernel,
            bias,
            ..
        } => {
            let in_c = inputs[0].channels() as u64;
            let w = *out_channels as u64 * in_c * triple(*kernel);
            w + if *bias { *out_channels as u64 } else { 0 }
        }
        Op::Dense { units, bias } => {
            let in_f = inputs[0].dim(1) as u64;
            *units as u64 * in_f + if *bias { *units as u64 } else { 0 }
        }
        // Inference-form batch norm: per-channel scale and shift.
        Op::BatchNorm => 2 * output.channels() as u64,
        Op::FusedConvBnAct { conv, bn, .. } => {
            op_params(conv, inputs, output) + if *bn { 2 * output.channels() as u64 } else { 0 }
        }
        Op::FusedDenseAct { units, bias, .. } => {
            let in_f = inputs[0].dim(1) as u64;
            *units as u64 * in_f + if *bias { *units as u64 } else { 0 }
        }
        _ => 0,
    }
}

/// Computes the FLOP count (MAC convention) of `op` for one inference.
pub(crate) fn op_flops(op: &Op, inputs: &[TensorShape], output: &TensorShape) -> u64 {
    let out_elems = output.num_elements() as u64;
    match op {
        Op::Conv2d { kernel, groups, .. } => {
            let in_c = inputs[0].channels() as u64;
            out_elems * (in_c / *groups as u64) * pair(*kernel)
        }
        Op::DepthwiseConv2d { kernel, .. } => out_elems * pair(*kernel),
        Op::Conv3d { kernel, .. } => {
            let in_c = inputs[0].channels() as u64;
            out_elems * in_c * triple(*kernel)
        }
        Op::Dense { .. } => {
            let in_f = inputs[0].dim(1) as u64;
            out_elems * in_f
        }
        Op::BatchNorm => out_elems,
        Op::Lrn { size } => out_elems * *size as u64,
        Op::Activation { .. } | Op::Add | Op::Mul | Op::Dropout => out_elems,
        Op::Pool { kind, kernel, .. } => match kind {
            PoolKind::GlobalAvg => inputs[0].num_elements() as u64,
            _ => out_elems * pair(*kernel),
        },
        Op::Pool3d { kernel, .. } => out_elems * triple(*kernel),
        Op::Softmax => 5 * out_elems,
        Op::Concat | Op::Flatten | Op::Slice { .. } | Op::Upsample { .. } | Op::Input { .. } => 0,
        Op::FusedConvBnAct { conv, bn, .. } => {
            // Fusion eliminates the separate BN/activation passes; only the
            // fused-in BN scale remains as a multiply on the output.
            op_flops(conv, inputs, output) + if *bn { out_elems } else { 0 }
        }
        Op::FusedDenseAct { .. } => {
            // Fusion eliminates the separate activation pass; the matmul cost
            // is unchanged (mirrors the FusedConvBnAct convention).
            let in_f = inputs[0].dim(1) as u64;
            out_elems * in_f
        }
    }
}

/// Computes the full per-node cost vector for node `id` of `graph`.
pub fn node_cost(graph: &Graph, id: NodeId) -> NodeCost {
    let node = graph.node(id);
    let elem = graph.dtype().size_bytes() as u64;
    let inputs: Vec<TensorShape> = node
        .inputs()
        .iter()
        .map(|&i| graph.node(i).output_shape().clone())
        .collect();
    let output = node.output_shape();
    let params = op_params(node.op(), &inputs, output);
    let flops = op_flops(node.op(), &inputs, output);
    let input_bytes: u64 = inputs.iter().map(|s| s.num_elements() as u64 * elem).sum();
    let output_bytes = output.num_elements() as u64 * elem;
    NodeCost {
        flops,
        params,
        input_bytes,
        output_bytes,
        weight_bytes: params * elem,
    }
}

/// Peak live activation bytes under dynamic (free-after-last-use) allocation.
pub(crate) fn peak_activation_bytes(graph: &Graph) -> u64 {
    let elem = graph.dtype().size_bytes() as u64;
    let n = graph.len();
    // last_use[i] = index of the last node consuming node i's output.
    let mut last_use: Vec<usize> = (0..n).collect();
    for node in graph.nodes() {
        for &inp in node.inputs() {
            last_use[inp.index()] = last_use[inp.index()].max(node.id().index());
        }
    }
    // The graph output stays live to the end.
    last_use[graph.output().index()] = n.saturating_sub(1);

    let size = |i: usize| graph.nodes()[i].output_shape().num_elements() as u64 * elem;
    let mut live: u64 = 0;
    let mut peak: u64 = 0;
    // Buffers whose last use is at step t, to free after t executes.
    let mut free_at: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &lu) in last_use.iter().enumerate() {
        free_at[lu].push(i);
    }
    for (t, frees) in free_at.iter().enumerate() {
        live += size(t); // allocate output of node t
        peak = peak.max(live);
        for &i in frees {
            live -= size(i);
        }
    }
    peak
}

impl Graph {
    /// Computes the whole-graph cost summary.
    ///
    /// Nodes that share a *name* share weights (the convention used by the
    /// synthetic weight store and by recurrent models unrolled over time),
    /// so their parameters are counted once while their FLOPs are counted
    /// per occurrence.
    pub fn stats(&self) -> GraphStats {
        let mut flops = 0u64;
        let mut params = 0u64;
        let mut weight_bytes = 0u64;
        let mut activation_bytes_total = 0u64;
        let mut flops_by_op: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut seen_weight_names: std::collections::BTreeSet<&str> =
            std::collections::BTreeSet::new();
        for node in self.nodes() {
            let c = node_cost(self, node.id());
            flops += c.flops;
            if !node.op().has_params() || seen_weight_names.insert(node.name()) {
                params += c.params;
                weight_bytes += c.weight_bytes;
            }
            activation_bytes_total += c.output_bytes;
            *flops_by_op.entry(node.op().name()).or_insert(0) += c.flops;
        }
        let input_shape = self
            .input_ids()
            .first()
            .map(|&i| self.node(i).output_shape().clone())
            .unwrap_or_default();
        GraphStats {
            name: self.name().to_string(),
            input_shape,
            flops,
            params,
            weight_bytes,
            activation_bytes_total,
            peak_activation_bytes: peak_activation_bytes(self),
            flops_by_op,
        }
    }

    /// Per-node costs in topological order.
    pub fn node_costs(&self) -> Vec<NodeCost> {
        self.nodes()
            .iter()
            .map(|n| node_cost(self, n.id()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationKind, DType, GraphBuilder};

    #[test]
    fn conv_params_and_flops_match_hand_computation() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 32, 32]);
        let c = b.conv2d(x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(c).unwrap();
        let cost = node_cost(&g, c);
        // weights 16*3*3*3 + bias 16
        assert_eq!(cost.params, 16 * 3 * 9 + 16);
        // 32*32 spatial out * 16 channels * 3*9 MACs
        assert_eq!(cost.flops, 32 * 32 * 16 * 27);
    }

    #[test]
    fn dense_cost() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 128]);
        let d = b.dense(x, 10).unwrap();
        let g = b.build(d).unwrap();
        let cost = node_cost(&g, d);
        assert_eq!(cost.params, 128 * 10 + 10);
        assert_eq!(cost.flops, 128 * 10);
    }

    #[test]
    fn depthwise_cost() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 32, 16, 16]);
        let d = b.depthwise(x, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(d).unwrap();
        let cost = node_cost(&g, d);
        assert_eq!(cost.params, 32 * 9);
        assert_eq!(cost.flops, 32 * 16 * 16 * 9);
    }

    #[test]
    fn grouped_conv_divides_macs() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 32, 8, 8]);
        let c = b.conv2d_grouped(x, 64, (3, 3), (1, 1), (1, 1), 2).unwrap();
        let g = b.build(c).unwrap();
        let cost = node_cost(&g, c);
        assert_eq!(cost.params, 64 * 16 * 9 + 64);
        assert_eq!(cost.flops, 8 * 8 * 64 * 16 * 9);
    }

    #[test]
    fn conv3d_cost() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 12, 16, 16]);
        let c = b.conv3d(x, 8, (3, 3, 3), (1, 1, 1), (1, 1, 1)).unwrap();
        let g = b.build(c).unwrap();
        let cost = node_cost(&g, c);
        assert_eq!(cost.params, 8 * 3 * 27 + 8);
        assert_eq!(cost.flops, (12 * 16 * 16 * 8) as u64 * 3 * 27);
    }

    #[test]
    fn dtype_scales_bytes_not_flops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 32, 32]);
        let c = b.conv2d(x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(c).unwrap();
        let g8 = g.with_dtype(DType::I8);
        let s32 = g.stats();
        let s8 = g8.stats();
        assert_eq!(s32.flops, s8.flops);
        assert_eq!(s32.params, s8.params);
        assert_eq!(s32.weight_bytes, 4 * s8.weight_bytes);
    }

    #[test]
    fn peak_memory_below_total_for_chain() {
        // A long chain reuses buffers: peak is ~2 buffers, total is N buffers.
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input([1, 8, 32, 32]);
        for _ in 0..10 {
            x = b.conv2d(x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        }
        let g = b.build(x).unwrap();
        let s = g.stats();
        assert!(s.peak_activation_bytes < s.activation_bytes_total / 3);
    }

    #[test]
    fn residual_keeps_skip_alive() {
        let mut b = GraphBuilder::new("res");
        let x = b.input([1, 8, 16, 16]);
        let c1 = b.conv2d(x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let c2 = b.conv2d(c1, 8, (3, 3), (1, 1), (1, 1)).unwrap();
        let s = b.add(c2, x).unwrap();
        let g = b.build(s).unwrap();
        let buf = (8 * 16 * 16 * 4) as u64;
        // At the c2 step, x (skip), c1 (input) and c2 (output) are all live.
        assert!(peak_activation_bytes(&g) >= 3 * buf);
    }

    #[test]
    fn flops_by_op_partition_sums_to_total() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 32, 32]);
        let c = b.conv2d(x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let bn = b.batch_norm(c).unwrap();
        let r = b.activation(bn, ActivationKind::Relu).unwrap();
        let g = b.build(r).unwrap();
        let s = g.stats();
        let sum: u64 = s.flops_by_op.values().sum();
        assert_eq!(sum, s.flops);
        assert!(s.flops_by_op["conv2d"] > s.flops_by_op["batch_norm"]);
    }

    #[test]
    fn flop_per_param_matches_ratio() {
        let mut b = GraphBuilder::new("t");
        let x = b.input([1, 3, 32, 32]);
        let c = b.conv2d(x, 16, (3, 3), (1, 1), (1, 1)).unwrap();
        let g = b.build(c).unwrap();
        let s = g.stats();
        let expected = s.flops as f64 / s.params as f64;
        assert!((s.flop_per_param() - expected).abs() < 1e-9);
    }
}
