//! `infer-*`: closed-loop prepared inference. One caller thread runs rounds
//! of four Table-I models, each putting a different kernel on top, and
//! interleaves them so that host drift lands on every model alike.

use crate::trace::{self, Tracer};
use crate::{host, stats, Metric, Outcome};
use edgebench_devices::faults::stream_seed;
use edgebench_graph::stats::node_cost;
use edgebench_graph::{Graph, Op};
use edgebench_models::Model;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{ExecError, Executor, KernelKind, Precision, PreparedExecutor, Tensor};
use std::time::{Duration, Instant};

/// CifarNet: per-op overhead. MobileNet-v2: depthwise. ResNet-18: dense
/// convolution. AlexNet: dense layers streaming a weight set far beyond L2.
pub const MODELS: [Model; 4] = [
    Model::CifarNet,
    Model::MobileNetV2,
    Model::ResNet18,
    Model::AlexNet,
];

/// Op classes per-layer times are grouped by.
pub const CLASSES: [&str; 9] = [
    "conv", "dwconv", "dense", "pool", "bn", "act", "add", "lrn", "other",
];

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub batch: usize,
    pub precision: Precision,
    /// Intra-op threads (`pool` workers) per call.
    pub threads: usize,
    /// CifarNet calls per round; every other model runs once per round.
    pub cifar_calls: usize,
}

pub const B1: Spec = Spec {
    batch: 1,
    precision: Precision::F32,
    threads: 1,
    cifar_calls: 5,
};

/// CifarNet runs 20 times a round here: at 5 its median swung the most.
pub const B4_INT8: Spec = Spec {
    batch: 4,
    precision: Precision::Int8,
    threads: 2,
    cifar_calls: 20,
};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 3;
/// Alternating call pairs per model behind each counterfactual ratio.
const PAIRS: usize = 3;

/// The op class of a graph operator.
pub fn class_of(op: &Op) -> usize {
    let name = match op {
        Op::Conv2d { .. } | Op::Conv3d { .. } => "conv",
        Op::DepthwiseConv2d { .. } => "dwconv",
        Op::FusedConvBnAct { conv, .. } => return class_of(conv),
        Op::Dense { .. } | Op::FusedDenseAct { .. } => "dense",
        Op::Pool { .. } | Op::Pool3d { .. } => "pool",
        Op::BatchNorm => "bn",
        Op::Activation { .. } => "act",
        Op::Add | Op::Mul => "add",
        Op::Lrn { .. } => "lrn",
        _ => "other",
    };
    CLASSES
        .iter()
        .position(|c| *c == name)
        .expect("listed class")
}

/// Class and computed cost of every node of a graph, by node index.
/// FLOP follow `node_cost`'s MAC convention; bytes are its input, output
/// and weight bytes. Both are computed, not measured.
pub fn node_table(g: &Graph) -> Vec<(usize, u64, u64)> {
    g.nodes()
        .iter()
        .map(|n| {
            let c = node_cost(g, n.id());
            (class_of(n.op()), c.flops, c.total_bytes())
        })
        .collect()
}

/// Self time, FLOP and bytes summed per op class.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ClassTotals {
    pub ns: [u64; CLASSES.len()],
    pub flops: [u64; CLASSES.len()],
    pub bytes: [u64; CLASSES.len()],
}

impl ClassTotals {
    /// Adds one node's self time under its class.
    pub fn add(&mut self, table: &[(usize, u64, u64)], node: usize, self_ns: u64) {
        let (class, flops, bytes) = table[node];
        self.ns[class] += self_ns;
        self.flops[class] += flops;
        self.bytes[class] += bytes;
    }

    /// `tensor.<class>.{ms,gflops,gbps}`, with time per round.
    pub fn report(&self, rounds: usize, out: &mut Outcome) {
        for (c, name) in CLASSES.iter().enumerate() {
            let ns = self.ns[c] as f64;
            let per_ns = |x: u64| if ns > 0.0 { x as f64 / ns } else { 0.0 };
            out.set(
                format!("tensor.{name}.ms"),
                Metric::single(ns / rounds.max(1) as f64 / 1e6),
            );
            out.set(
                format!("tensor.{name}.gflops"),
                Metric::single(per_ns(self.flops[c])),
            );
            out.set(
                format!("tensor.{name}.gbps"),
                Metric::single(per_ns(self.bytes[c])),
            );
        }
    }
}

fn graphs(spec: &Spec) -> Vec<Graph> {
    MODELS
        .iter()
        .map(|m| {
            let g = m.build();
            if spec.batch == 1 {
                g
            } else {
                g.with_batch(spec.batch).expect("shipped models rebatch")
            }
        })
        .collect()
}

pub fn prepare(
    g: &Graph,
    seed: u64,
    precision: Precision,
    threads: usize,
    kernel: KernelKind,
) -> PreparedExecutor<'_> {
    Executor::new(g)
        .with_seed(seed)
        .with_precision(precision)
        .with_intra_op_threads(threads)
        .with_kernel(kernel)
        .prepare()
        .expect("shipped models prepare")
}

/// The tier-identity reference: the output checksum of a scalar-kernel,
/// one-thread executor at the same precision and batch.
pub fn reference(g: &Graph, seed: u64, precision: Precision, input: &Tensor) -> u64 {
    let scalar = prepare(g, seed, precision, 1, KernelKind::Scalar);
    checksum_f32(
        scalar
            .run(input)
            .expect("reference run on generated input")
            .data(),
    )
}

pub fn input_for(g: &Graph, seed: u64) -> Tensor {
    let shape = g.node(g.input_ids()[0]).output_shape().clone();
    Tensor::random(shape, seed)
}

/// Model indices in round order: each larger model follows one CifarNet
/// call, and the remaining CifarNet calls close the round.
fn round_order(cifar_calls: usize) -> Vec<usize> {
    let mut order = Vec::new();
    for big in 1..MODELS.len() {
        order.push(0);
        order.push(big);
    }
    order.extend(std::iter::repeat_n(
        0,
        cifar_calls.saturating_sub(MODELS.len() - 1),
    ));
    order
}

/// Prepares every model, recording each prepare time and the total set-up
/// time including the `build_s` the graphs took.
fn set_up<'g>(
    gs: &'g [Graph],
    build_s: f64,
    spec: &Spec,
    wseed: u64,
    setup_s: &mut Vec<f64>,
    prepare_ms: &mut [Vec<f64>],
) -> Vec<PreparedExecutor<'g>> {
    let mut total = build_s;
    let execs = gs
        .iter()
        .zip(prepare_ms.iter_mut())
        .map(|(g, ms)| {
            let t = Instant::now();
            let e = prepare(g, wseed, spec.precision, spec.threads, KernelKind::Auto);
            let s = t.elapsed().as_secs_f64();
            total += s;
            ms.push(s * 1e3);
            e
        })
        .collect();
    setup_s.push(total);
    execs
}

/// Whether a call failed: an error, or an output whose checksum is not
/// the reference's.
fn wrong(want: u64, result: &Result<Tensor, ExecError>) -> bool {
    !matches!(result, Ok(y) if checksum_f32(y.data()) == want)
}

/// Times one untraced call and counts it.
pub fn timed_call(
    out: &mut Outcome,
    want: u64,
    call: impl FnOnce() -> Result<Tensor, ExecError>,
) -> f64 {
    let t = Instant::now();
    let result = call();
    let secs = t.elapsed().as_secs_f64();
    out.count(wrong(want, &result));
    secs
}

/// One traced call: a span for the call, and under it one span per node
/// running from the previous node's observer stamp (the call's start for
/// the first node) to its own. Counts the call and returns its seconds,
/// the peak live activation bytes, and the share of the call the node
/// spans cover.
#[allow(clippy::too_many_arguments)]
pub fn traced_call(
    out: &mut Outcome,
    tracer: &mut Tracer,
    nodes: &mut Vec<(usize, usize)>,
    exec: &PreparedExecutor<'_>,
    g: &Graph,
    input: &Tensor,
    want: u64,
    parent: Option<usize>,
    op: u64,
) -> (f64, usize, f64) {
    let origin = tracer.origin();
    let mut stamps: Vec<(usize, u64)> = Vec::with_capacity(g.len());
    let mut observe = |node: usize, _: &mut Tensor| {
        stamps.push((node, origin.elapsed().as_nanos() as u64));
        Ok::<(), ExecError>(())
    };
    let call = tracer.open(g.name(), parent, op);
    let result = exec.run_observed(input, &mut observe);
    tracer.close(call);
    let live = result.as_ref().map_or(0, |(_, s)| s.peak_live_bytes);
    out.count(wrong(want, &result.map(|(y, _)| y)));
    let start = tracer.spans()[call].start_ns;
    let mut prev = start;
    for (node, at) in stamps {
        let id = tracer.record(g.nodes()[node].name(), Some(call), op, prev, at);
        nodes.push((id, node));
        prev = at;
    }
    let ns = tracer.duration_ns(call).max(1);
    (ns as f64 / 1e9, live, (prev - start) as f64 / ns as f64)
}

pub fn run(name: &str, spec: Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let wseed = stream_seed(seed, &["e2e", "weights"]);
    let inputs: Vec<Tensor> = graphs(&spec)
        .iter()
        .zip(MODELS)
        .map(|(g, m)| input_for(g, stream_seed(seed, &["e2e", "input", m.name()])))
        .collect();
    let want: Vec<u64> = graphs(&spec)
        .iter()
        .zip(&inputs)
        .map(|(g, x)| reference(g, wseed, spec.precision, x))
        .collect();

    // Set-up: build, rebatch and prepare every model. The last repetition's
    // executors are the ones timed.
    let mut setup_s = Vec::new();
    let mut prepare_ms = vec![Vec::new(); MODELS.len()];
    let timed_graphs = || {
        let t = Instant::now();
        let gs = graphs(&spec);
        (gs, t.elapsed().as_secs_f64())
    };
    for _ in 1..SETUP_REPS {
        let (gs, build_s) = timed_graphs();
        drop(set_up(
            &gs,
            build_s,
            &spec,
            wseed,
            &mut setup_s,
            &mut prepare_ms,
        ));
    }
    let (gs, build_s) = timed_graphs();
    let execs = set_up(&gs, build_s, &spec, wseed, &mut setup_s, &mut prepare_ms);

    let first_call_ms: Vec<f64> = (0..MODELS.len())
        .map(|i| 1e3 * timed_call(&mut out, want[i], || execs[i].run(&inputs[i])))
        .collect();

    // Closed loop. A traced run alternates traced and untraced rounds, so
    // the two are measured under the same host conditions.
    let tables: Vec<_> = gs.iter().map(node_table).collect();
    let order = round_order(spec.cifar_calls);
    let mut plain_ms = vec![Vec::new(); MODELS.len()];
    let mut traced_ms = vec![Vec::new(); MODELS.len()];
    let mut tracer = Tracer::new();
    let mut node_spans = vec![Vec::new(); MODELS.len()];
    let mut coverage = Vec::new();
    let mut peak_live = vec![0usize; MODELS.len()];
    let (mut rounds, mut traced_rounds, mut op) = (0, 0, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rounds < MIN_ROUNDS * (1 + usize::from(traced)) || Instant::now() < deadline {
        let trace_round = traced && rounds % 2 == 0;
        let round_span = trace_round.then(|| tracer.open("round", None, op));
        for &i in &order {
            op += 1;
            if trace_round {
                let (secs, live, covered) = traced_call(
                    &mut out,
                    &mut tracer,
                    &mut node_spans[i],
                    &execs[i],
                    &gs[i],
                    &inputs[i],
                    want[i],
                    round_span,
                    op,
                );
                peak_live[i] = live;
                coverage.push(covered);
                traced_ms[i].push(secs * 1e3);
            } else {
                let secs = timed_call(&mut out, want[i], || execs[i].run(&inputs[i]));
                plain_ms[i].push(secs * 1e3);
            }
        }
        if let Some(id) = round_span {
            tracer.close(id);
            traced_rounds += 1;
        }
        rounds += 1;
    }

    if !traced {
        let per_model: Vec<Metric> = plain_ms.iter().map(|v| Metric::of(v)).collect();
        for (m, part) in MODELS.iter().zip(&per_model) {
            out.set_part("latency_ms", m.name(), *part);
        }
        out.set("latency_ms", Metric::geomean(&per_model));
        let calls: Vec<Metric> = order.iter().map(|&i| per_model[i]).collect();
        let items = (spec.batch * order.len()) as f64;
        out.set(
            "items_per_s",
            Metric::throughput(items, &calls, rounds - traced_rounds),
        );
        out.set("setup_s", Metric::of(&setup_s));
        return out;
    }

    // Per-layer metrics from the traced rounds.
    let self_ns = trace::self_ns(tracer.spans());
    let mut totals = ClassTotals::default();
    for (i, spans) in node_spans.iter().enumerate() {
        for &(id, node) in spans {
            totals.add(&tables[i], node, self_ns[id]);
        }
    }
    totals.report(traced_rounds, &mut out);
    out.lines.push(format!(
        "node spans cover {:.2}% (min) / {:.2}% (median) of {} traced calls",
        100.0 * coverage.iter().copied().fold(f64::INFINITY, f64::min),
        100.0 * stats::median(&coverage),
        coverage.len()
    ));
    let ratios: Vec<f64> = (0..MODELS.len())
        .map(|i| stats::median(&traced_ms[i]) / stats::median(&plain_ms[i]))
        .collect();
    out.set(
        "trace_overhead_pct",
        Metric::single(100.0 * (stats::geomean(&ratios) - 1.0)),
    );
    for (i, m) in MODELS.iter().enumerate() {
        let m = m.name();
        out.set(format!("tensor.run_ms.{m}"), Metric::of(&plain_ms[i]));
        out.set(format!("tensor.prepare_ms.{m}"), Metric::of(&prepare_ms[i]));
        out.set(
            format!("tensor.first_call_ms.{m}"),
            Metric::single(first_call_ms[i]),
        );
        out.set(
            format!("tensor.peak_live_mib.{m}"),
            Metric::single(peak_live[i] as f64 / (1024.0 * 1024.0)),
        );
    }
    out.set("peak_rss_mib", Metric::single(host::peak_rss_mib()));
    drop(execs);
    counterfactuals(&spec, &gs, &inputs, &want, wseed, &mut out);
    crate::write_spans(name, &tracer);
    out
}

/// `pool.speedup_2t` and `quant.int8_over_f32` per model: the workload's
/// configuration against the same one with the other thread count, then
/// with the other precision, in alternating calls.
fn counterfactuals(
    spec: &Spec,
    gs: &[Graph],
    inputs: &[Tensor],
    want: &[u64],
    wseed: u64,
    out: &mut Outcome,
) {
    let other_prec = if spec.precision == Precision::Int8 {
        Precision::F32
    } else {
        Precision::Int8
    };
    for (i, m) in MODELS.iter().enumerate() {
        let (g, x) = (&gs[i], &inputs[i]);
        // The workload's own executors are gone by now, so at most two
        // copies of a model's weights are alive: this one and `b`.
        let pair = |out: &mut Outcome, b: &PreparedExecutor<'_>, want_b: u64| {
            let a = prepare(g, wseed, spec.precision, spec.threads, KernelKind::Auto);
            let (mut ta, mut tb) = (Vec::new(), Vec::new());
            for _ in 0..PAIRS {
                ta.push(timed_call(out, want[i], || a.run(x)));
                tb.push(timed_call(out, want_b, || b.run(x)));
            }
            (stats::median(&ta), stats::median(&tb))
        };
        let other_threads = if spec.threads == 1 { 2 } else { 1 };
        let flip = prepare(g, wseed, spec.precision, other_threads, KernelKind::Auto);
        let (t_own, t_flip) = pair(out, &flip, want[i]);
        drop(flip);
        let (t1, t2) = if spec.threads == 1 {
            (t_own, t_flip)
        } else {
            (t_flip, t_own)
        };
        out.set(
            format!("pool.speedup_2t.{}", m.name()),
            Metric::single(t1 / t2),
        );

        let want_other = reference(g, wseed, other_prec, x);
        let flip = prepare(g, wseed, other_prec, spec.threads, KernelKind::Auto);
        let (t_own, t_flip) = pair(out, &flip, want_other);
        let (t_i8, t_f32) = if spec.precision == Precision::Int8 {
            (t_own, t_flip)
        } else {
            (t_flip, t_own)
        };
        out.set(
            format!("quant.int8_over_f32.{}", m.name()),
            Metric::single(t_i8 / t_f32),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_totals_carry_node_cost_on_cifarnet() {
        let g = Model::CifarNet.build();
        let table = node_table(&g);
        let mut totals = ClassTotals::default();
        for node in 0..g.len() {
            totals.add(&table, node, 1000);
        }
        let class = |name: &str| CLASSES.iter().position(|c| *c == name).unwrap();
        let conv_nodes: Vec<_> = g
            .nodes()
            .iter()
            .filter(|n| class_of(n.op()) == class("conv"))
            .collect();
        assert!(!conv_nodes.is_empty());
        let conv_flops: u64 = conv_nodes.iter().map(|n| node_cost(&g, n.id()).flops).sum();
        assert_eq!(totals.flops[class("conv")], conv_flops);
        assert_eq!(totals.ns[class("conv")], 1000 * conv_nodes.len() as u64);
        assert_eq!(totals.flops.iter().sum::<u64>(), g.stats().flops);
        for present in ["conv", "dense", "pool", "lrn"] {
            assert!(totals.flops[class(present)] > 0, "{present}");
        }
        assert_eq!(totals.ns[class("dwconv")], 0);

        let mut out = Outcome::default();
        totals.report(2, &mut out);
        let conv_ms = out.metrics["tensor.conv.ms"].value;
        assert!((conv_ms - 1000.0 * conv_nodes.len() as f64 / 2.0 / 1e6).abs() < 1e-12);
        let gflops = out.metrics["tensor.conv.gflops"].value;
        assert!((gflops - conv_flops as f64 / (1000.0 * conv_nodes.len() as f64)).abs() < 1e-9);
        assert_eq!(out.metrics["tensor.dwconv.gbps"].value, 0.0);
    }

    #[test]
    fn rounds_interleave_cifarnet_between_larger_models() {
        assert_eq!(round_order(5), [0, 1, 0, 2, 0, 3, 0, 0]);
        assert_eq!(round_order(20).iter().filter(|&&i| i == 0).count(), 20);
        assert_eq!(round_order(1).iter().filter(|&&i| i == 0).count(), 3);
    }
}
