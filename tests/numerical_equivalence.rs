//! Numerical integration tests: the framework optimization passes must not
//! change what a graph computes, verified by actually executing graphs
//! through the tensor substrate before and after each pass.

mod support;

use edgebench_frameworks::passes;
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, Op, PoolKind};
use edgebench_models::Model;
use edgebench_tensor::{Executor, KernelKind, Microkernel, Precision, Tensor};
use proptest::prelude::*;
use support::{assert_same_chain, observe};

/// A small but structurally rich network: conv-bn-relu chains, a residual
/// branch, depthwise separable block, dropout, pooling and a dense head.
fn rich_graph() -> Graph {
    let mut b = GraphBuilder::new("rich");
    let x = b.input([1, 3, 16, 16]);
    let c1 = b.conv2d_nobias(x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
    let n1 = b.batch_norm(c1).unwrap();
    let r1 = b.activation(n1, ActivationKind::Relu).unwrap();
    // Residual branch.
    let c2 = b.conv2d_nobias(r1, 8, (3, 3), (1, 1), (1, 1)).unwrap();
    let n2 = b.batch_norm(c2).unwrap();
    let s = b.add(n2, r1).unwrap();
    let r2 = b.activation(s, ActivationKind::Relu).unwrap();
    // Depthwise separable block.
    let dw = b.depthwise(r2, (3, 3), (1, 1), (1, 1)).unwrap();
    let dn = b.batch_norm(dw).unwrap();
    let da = b.activation(dn, ActivationKind::Relu6).unwrap();
    let pw = b.conv2d_nobias(da, 16, (1, 1), (1, 1), (0, 0)).unwrap();
    let pn = b.batch_norm(pw).unwrap();
    let p = b.pool(pn, PoolKind::Max, (2, 2), (2, 2)).unwrap();
    let f = b.flatten(p).unwrap();
    let d1 = b.dense(f, 32).unwrap();
    let dr = b.push_auto(edgebench_graph::Op::Dropout, vec![d1]).unwrap();
    let d2 = b.dense(dr, 10).unwrap();
    let out = b.softmax(d2).unwrap();
    b.build(out).unwrap()
}

fn run(g: &Graph, seed: u64) -> Tensor {
    let input = Tensor::random(g.node(g.input_ids()[0]).output_shape().dims().to_vec(), 99);
    Executor::new(g).with_seed(seed).run(&input).unwrap()
}

#[test]
fn fusion_preserves_numerics_on_rich_graph() {
    let g = rich_graph();
    let f = passes::fuse_conv_bn_act(&g).unwrap();
    assert!(f.len() < g.len());
    let (a, b) = (run(&g, 5), run(&f, 5));
    assert!(a.mean_abs_diff(&b) < 1e-5, "diff {}", a.mean_abs_diff(&b));
}

#[test]
fn freeze_then_fuse_preserves_numerics() {
    let g = rich_graph();
    let t = passes::fuse_conv_bn_act(&passes::freeze(&g).unwrap()).unwrap();
    let (a, b) = (run(&g, 6), run(&t, 6));
    assert!(a.mean_abs_diff(&b) < 1e-5);
}

#[test]
fn fused_cifarnet_matches_unfused() {
    let g = Model::CifarNet.build();
    let f = passes::fuse_conv_bn_act(&g).unwrap();
    let x = Tensor::random([1, 3, 32, 32], 3);
    let a = Executor::new(&g).with_seed(1).run(&x).unwrap();
    let b = Executor::new(&f).with_seed(1).run(&x).unwrap();
    assert_eq!(a.shape(), b.shape());
    assert!(a.mean_abs_diff(&b) < 1e-6);
}

#[test]
fn precision_ladder_orders_error() {
    // f16 error < int8 error, and both small relative to signal.
    let g = rich_graph();
    let x = Tensor::random([1, 3, 16, 16], 4);
    let full = Executor::new(&g).with_seed(9).run(&x).unwrap();
    let half = Executor::new(&g)
        .with_seed(9)
        .with_precision(Precision::F16)
        .run(&x)
        .unwrap();
    let int8 = Executor::new(&g)
        .with_seed(9)
        .with_precision(Precision::Int8)
        .run(&x)
        .unwrap();
    let e16 = full.mean_abs_diff(&half);
    let e8 = full.mean_abs_diff(&int8);
    assert!(e16 < e8, "f16 {e16} vs int8 {e8}");
    // The softmax output still sums to ~1 at every precision.
    for t in [&half, &int8] {
        let sum: f32 = t.data().iter().sum();
        assert!((sum - 1.0).abs() < 0.05, "{sum}");
    }
}

#[test]
fn quantized_argmax_usually_survives() {
    // Post-training INT8 should preserve the top-1 class on most inputs —
    // the premise behind TFLite/EdgeTPU deployment.
    let g = Model::CifarNet.build();
    let mut agree = 0;
    const TRIALS: u64 = 20;
    for i in 0..TRIALS {
        let x = Tensor::random([1, 3, 32, 32], 1000 + i);
        let full = Executor::new(&g).with_seed(2).run(&x).unwrap();
        let q = Executor::new(&g)
            .with_seed(2)
            .with_precision(Precision::Int8)
            .run(&x)
            .unwrap();
        let top = |t: &Tensor| {
            t.data()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        if top(&full) == top(&q) {
            agree += 1;
        }
    }
    assert!(agree * 10 >= TRIALS * 7, "only {agree}/{TRIALS} agreed");
}

#[test]
fn executor_respects_every_zoo_model_structurally() {
    // Executing the big models numerically is too slow for a test, but the
    // executor's shape bookkeeping must at least agree with the IR for the
    // two small-input models end to end.
    for m in [Model::CifarNet, Model::VggS32] {
        let g = m.build();
        let out = Executor::new(&g)
            .with_seed(0)
            .run(&Tensor::random([1, 3, 32, 32], 1))
            .unwrap();
        assert_eq!(out.shape(), g.output_shape(), "{m}");
        assert!(out.data().iter().all(|v| v.is_finite()), "{m}");
    }
}

#[test]
fn measured_peak_memory_matches_liveness_analysis() {
    // The peak live bytes the executor's static plan reports must agree
    // with the IR's analytical liveness bound: never above it, and (for
    // these graphs, which have no dead nodes) exactly at it.
    for g in [rich_graph(), Model::CifarNet.build(), Model::VggS32.build()] {
        let analytical = g.stats().peak_activation_bytes as usize;
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 17);
        let prepared = Executor::new(&g).with_seed(2).prepare().unwrap();
        let (_, stats) = prepared.run_observed(&x, &mut |_, _| Ok(())).unwrap();
        assert!(
            stats.peak_live_bytes <= analytical,
            "{}: measured {} > analytical {}",
            g.name(),
            stats.peak_live_bytes,
            analytical
        );
        assert_eq!(stats.peak_live_bytes, analytical, "{}", g.name());
        assert_eq!(stats.ops_executed, g.len() - 1, "{}", g.name());
    }
}

#[test]
fn execution_is_byte_identical_across_intra_op_threads() {
    // The tentpole determinism contract: the intra-op thread count is a
    // pure performance knob. Per output element the GEMM reduction order
    // is fixed (strictly ascending k), so 1, 2 and 8 workers must produce
    // the same bytes — on the plain and the prepared executor alike, and
    // at every node of the prepared one (its chain digest), so a change a
    // later layer swallows still fails and names its node.
    for g in [rich_graph(), Model::CifarNet.build().with_batch(8).unwrap()] {
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 23);
        let exec = |threads| {
            Executor::new(&g)
                .with_seed(4)
                .with_intra_op_threads(threads)
        };
        let (base, nodes) = observe(&exec(1).prepare().unwrap(), &x);
        for threads in [2usize, 8] {
            let out = exec(threads).run(&x).unwrap();
            assert_eq!(
                base.data(),
                out.data(),
                "{} diverged at {} intra-op threads",
                g.name(),
                threads
            );
            let (prepared, got) = observe(&exec(threads).prepare().unwrap(), &x);
            let label = format!("{} prepared at {threads} intra-op threads", g.name());
            assert_same_chain(&g, &label, &nodes, &got);
            assert_eq!(
                base.data(),
                prepared.data(),
                "{} prepared diverged at {} intra-op threads",
                g.name(),
                threads
            );
        }
    }
}

#[test]
fn simd_and_scalar_kernels_are_bitwise_identical() {
    // The SIMD micro-kernels hold one output element per lane and reduce k
    // in the same strictly-ascending order as the scalar kernel, with FMAs
    // that round once like `f32::mul_add`, and the tier's f16 and int8
    // lowering repeats the reference's rounding per element. The kernel
    // choice is therefore a pure performance knob: whole-model outputs
    // must match the forced-scalar baseline bit for bit (`-0.0` and NaN
    // payloads included), at every precision and any thread count, on the
    // plain and the prepared executor alike, and so must every node's
    // output bits on the prepared one (its chain digest).
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for g in [rich_graph(), Model::CifarNet.build().with_batch(8).unwrap()] {
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 41);
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            let exec = |kernel, threads| {
                Executor::new(&g)
                    .with_seed(7)
                    .with_precision(precision)
                    .with_kernel(kernel)
                    .with_intra_op_threads(threads)
            };
            let (base, nodes) = observe(&exec(KernelKind::Scalar, 1).prepare().unwrap(), &x);
            let base = bits(&base);
            for kernel in [KernelKind::Scalar, KernelKind::Auto] {
                for threads in [1usize, 2, 8] {
                    let out = exec(kernel, threads).run(&x).unwrap();
                    assert_eq!(
                        base,
                        bits(&out),
                        "{} diverged at {precision:?} with kernel {kernel:?} at {threads} threads",
                        g.name(),
                    );
                    let (prepared, got) = observe(&exec(kernel, threads).prepare().unwrap(), &x);
                    let label = format!(
                        "{} prepared at {precision:?} with kernel {kernel:?} at {threads} threads",
                        g.name()
                    );
                    assert_same_chain(&g, &label, &nodes, &got);
                    assert_eq!(
                        base,
                        bits(&prepared),
                        "{} prepared diverged at {precision:?} with kernel {kernel:?} at \
                         {threads} threads",
                        g.name(),
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_dispatch_honours_runtime_detection_and_forced_scalar() {
    use edgebench_tensor::simd;
    // Forcing scalar must bypass SIMD even on machines that have it — that
    // fallback is what the A/B flag and the non-x86 build rely on.
    assert_eq!(simd::resolve(KernelKind::Scalar), Microkernel::Scalar);
    let auto = simd::resolve(KernelKind::Auto);
    assert_ne!(auto, Microkernel::Scalar, "Auto never picks plain scalar");
    if simd::avx512_available() {
        assert_eq!(auto, Microkernel::Avx512);
    } else if simd::simd_available() {
        assert_eq!(auto, Microkernel::Avx2);
    } else {
        assert_eq!(auto, Microkernel::Wide);
    }
    // Whichever tier detection picked, it computes the same bytes as the
    // forced-scalar executor on a real model.
    let g = rich_graph();
    let x = Tensor::random([1, 3, 16, 16], 57);
    let scalar = Executor::new(&g)
        .with_seed(3)
        .with_kernel(KernelKind::Scalar)
        .run(&x)
        .unwrap();
    let detected = Executor::new(&g).with_seed(3).run(&x).unwrap();
    assert_eq!(scalar.data(), detected.data());
}

/// Strategy: a single conv layer with randomized geometry — channel counts,
/// spatial size, kernel, stride, padding and batch — followed by a dense
/// head so both the packed-GEMM and the direct path get exercised.
fn arb_conv_case() -> impl Strategy<Value = (Graph, u64)> {
    let size = (1usize..=3, 1usize..=8, 1usize..=12); // batch, cin, cout
    let geom = (3usize..=5, 0usize..=2, 1usize..=2, 0usize..=2); // hw exp, k sel, stride, pad
    (size, geom, 0usize..1_000_000).prop_map(
        |((batch, cin, cout), (hw_exp, ksel, stride, pad), seed)| {
            let hw = 1 << hw_exp;
            let k = [1usize, 3, 5][ksel];
            // Keep the geometry valid: padding never exceeds the kernel radius.
            let pad = pad.min(k / 2);
            let mut b = GraphBuilder::new("conv-case");
            let x = b.input([batch, cin, hw, hw]);
            let c = b
                .conv2d_nobias(x, cout, (k, k), (stride, stride), (pad, pad))
                .unwrap();
            let a = b.activation(c, ActivationKind::Relu).unwrap();
            let f = b.flatten(a).unwrap();
            let d = b.dense(f, 10).unwrap();
            (b.build(d).unwrap(), seed as u64)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simd_matches_scalar_bitwise_on_random_conv_geometry(case in arb_conv_case()) {
        let (g, seed) = case;
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, seed);
        let scalar = Executor::new(&g)
            .with_seed(5)
            .with_kernel(KernelKind::Scalar)
            .with_intra_op_threads(1)
            .run(&x)
            .unwrap();
        for threads in [1usize, 2, 8] {
            let simd = Executor::new(&g)
                .with_seed(5)
                .with_kernel(KernelKind::Auto)
                .with_intra_op_threads(threads)
                .run(&x)
                .unwrap();
            prop_assert_eq!(scalar.data(), simd.data(), "diverged at {} threads", threads);
        }
    }

    #[test]
    fn simd_matches_scalar_bitwise_on_random_depthwise_geometry(case in arb_depthwise_case()) {
        // The depthwise tiers repeat the reference's mul-then-add per tap
        // and skip out-of-range taps, so the SIMD kernel must match the
        // scalar loop bit for bit — strides above 2 take the portable loop.
        // The same layer as a grouped `Conv2d` with one input channel per
        // group reaches the same kernels.
        let (graphs, seed) = case;
        for g in &graphs {
            let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
            let x = Tensor::random(shape, seed);
            let scalar = Executor::new(g)
                .with_seed(9)
                .with_kernel(KernelKind::Scalar)
                .with_intra_op_threads(1)
                .run(&x)
                .unwrap();
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(g)
                    .with_seed(9)
                    .with_kernel(KernelKind::Auto)
                    .with_intra_op_threads(threads);
                let plain = exec.run(&x).unwrap();
                prop_assert_eq!(scalar.data(), plain.data(), "{} diverged at {} threads", g.name(), threads);
                let prepared = exec.prepare().unwrap().run(&x).unwrap();
                prop_assert_eq!(scalar.data(), prepared.data(), "{} prepared diverged at {} threads", g.name(), threads);
            }
        }
    }
}

/// Strategy: one depthwise layer with randomized geometry — batch,
/// channels, multiplier 1 or 2, bias, ragged height and width, kernel,
/// stride 1–3 and padding — as the whole graph, so every output element is
/// compared; once as `DepthwiseConv2d` and once as the grouped `Conv2d`
/// with `groups` equal to the input channels.
fn arb_depthwise_case() -> impl Strategy<Value = ([Graph; 2], u64)> {
    let size = (1usize..=3, 1usize..=8, 1usize..=2, prop::bool::ANY); // batch, cin, multiplier, bias
    let geom = (5usize..=40, 5usize..=40, 0usize..=2, 1usize..=3, 0usize..=2); // h, w, k sel, stride, pad
    (size, geom, 0usize..1_000_000).prop_map(
        |((batch, cin, multiplier, bias), (h, w, ksel, stride, pad), seed)| {
            let k = [1usize, 3, 5][ksel];
            let pad = pad.min(k / 2);
            let depthwise = Op::DepthwiseConv2d {
                multiplier,
                kernel: (k, k),
                stride: (stride, stride),
                padding: (pad, pad),
                bias,
            };
            let grouped = Op::Conv2d {
                out_channels: cin * multiplier,
                kernel: (k, k),
                stride: (stride, stride),
                padding: (pad, pad),
                groups: cin,
                bias,
            };
            let graphs =
                [("depthwise-case", depthwise), ("grouped-case", grouped)].map(|(name, op)| {
                    let mut b = GraphBuilder::new(name);
                    let x = b.input([batch, cin, h, w]);
                    let d = b.push_auto(op, vec![x]).unwrap();
                    b.build(d).unwrap()
                });
            (graphs, seed as u64)
        },
    )
}

#[test]
fn fusion_is_bit_identical_across_stride_padding_activation() {
    // The fused conv+bias+BN+act kernel applies the epilogue per element in
    // the same order as the standalone kernel chain, so fusion must be an
    // exact no-op numerically — for every stride/padding/activation combo,
    // not just the common 3x3/s1/ReLU case.
    for &(k, stride, pad, act, depthwise) in &[
        (
            3usize,
            (1usize, 1usize),
            (1usize, 1usize),
            ActivationKind::Relu,
            false,
        ),
        (3, (2, 2), (1, 1), ActivationKind::Relu6, false),
        (1, (1, 1), (0, 0), ActivationKind::Leaky, false),
        (3, (2, 2), (0, 0), ActivationKind::Tanh, false),
        (3, (1, 1), (1, 1), ActivationKind::Sigmoid, false),
        (3, (2, 2), (1, 1), ActivationKind::Relu6, true),
    ] {
        let mut b = GraphBuilder::new("combo");
        let x = b.input([2, 3, 16, 16]);
        let c = if depthwise {
            b.depthwise(x, (k, k), stride, pad)
        } else {
            b.conv2d_nobias(x, 24, (k, k), stride, pad)
        }
        .unwrap();
        let n = b.batch_norm(c).unwrap();
        let a = b.activation(n, act).unwrap();
        let f = b.flatten(a).unwrap();
        let d = b.dense(f, 10).unwrap();
        let g = b.build(d).unwrap();
        let fused = passes::fuse_conv_bn_act(&g).unwrap();
        assert!(
            fused.len() < g.len(),
            "fusion fired for k{k} s{stride:?} depthwise={depthwise}"
        );
        let input = Tensor::random([2, 3, 16, 16], 31);
        let want = Executor::new(&g).with_seed(6).run(&input).unwrap();
        let got = Executor::new(&fused).with_seed(6).run(&input).unwrap();
        assert_eq!(
            want.data(),
            got.data(),
            "fused combo k{k} stride{stride:?} pad{pad:?} {act} depthwise={depthwise} diverged"
        );
    }
}
