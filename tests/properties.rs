//! Property-based integration tests (proptest) over randomly generated
//! graphs: cost accounting, optimization passes and execution must agree
//! for *any* valid network, not just the zoo.

use edgebench_frameworks::passes;
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, PoolKind};
use edgebench_tensor::{Executor, Tensor};
use proptest::prelude::*;

/// Strategy: a random plain CNN — alternating conv/bn/act/pool layers with
/// random widths, kernel sizes and strides, ending in a dense head.
fn arb_cnn() -> impl Strategy<Value = Graph> {
    let layer = (1usize..=16, 1usize..=2, prop::bool::ANY, prop::bool::ANY);
    (2usize..=5, prop::collection::vec(layer, 1..5)).prop_map(|(in_hw_exp, layers)| {
        let hw = 1 << (in_hw_exp + 1); // 8..=64
        let mut b = GraphBuilder::new("random-cnn");
        let mut x = b.input([1, 3, hw, hw]);
        let mut cur_hw = hw;
        for (channels, ksel, with_bn, with_pool) in layers {
            let k = if ksel == 1 { 1 } else { 3 };
            let pad = k / 2;
            x = b
                .conv2d_nobias(x, channels.max(1), (k, k), (1, 1), (pad, pad))
                .unwrap();
            if with_bn {
                x = b.batch_norm(x).unwrap();
            }
            x = b.activation(x, ActivationKind::Relu).unwrap();
            if with_pool && cur_hw >= 4 {
                x = b.pool(x, PoolKind::Max, (2, 2), (2, 2)).unwrap();
                cur_hw /= 2;
            }
        }
        let f = b.flatten(x).unwrap();
        let d = b.dense(f, 10).unwrap();
        b.build(d).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fusion_never_changes_params_or_output_shape(g in arb_cnn()) {
        let f = passes::fuse_conv_bn_act(&g).unwrap();
        prop_assert_eq!(f.stats().params, g.stats().params);
        prop_assert_eq!(f.output_shape(), g.output_shape());
        prop_assert!(f.len() <= g.len());
    }

    #[test]
    fn fusion_preserves_numerics(g in arb_cnn()) {
        let f = passes::fuse_conv_bn_act(&g).unwrap();
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 11);
        let a = Executor::new(&g).with_seed(3).run(&x).unwrap();
        let b = Executor::new(&f).with_seed(3).run(&x).unwrap();
        prop_assert!(a.mean_abs_diff(&b) < 1e-4, "diff {}", a.mean_abs_diff(&b));
    }

    #[test]
    fn peak_memory_never_exceeds_total(g in arb_cnn()) {
        let s = g.stats();
        prop_assert!(s.peak_activation_bytes <= s.activation_bytes_total);
        prop_assert!(s.flops >= 1);
    }

    #[test]
    fn flops_by_op_partitions_total(g in arb_cnn()) {
        let s = g.stats();
        let sum: u64 = s.flops_by_op.values().sum();
        prop_assert_eq!(sum, s.flops);
    }

    #[test]
    fn dtype_retag_scales_bytes_linearly(g in arb_cnn()) {
        let s32 = g.stats();
        let s8 = g.with_dtype(edgebench_graph::DType::I8).stats();
        prop_assert_eq!(s32.flops, s8.flops);
        prop_assert_eq!(s32.weight_bytes, 4 * s8.weight_bytes);
        prop_assert_eq!(s32.peak_activation_bytes, 4 * s8.peak_activation_bytes);
    }

    #[test]
    fn execution_output_matches_inferred_shape(g in arb_cnn()) {
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 5);
        let out = Executor::new(&g).with_seed(1).run(&x).unwrap();
        prop_assert_eq!(out.shape(), g.output_shape());
        prop_assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn packed_gemm_is_bit_identical_to_naive(
        dims in (1usize..48, 1usize..64, 1usize..48, 0usize..1000)
    ) {
        let (m, k, n, seed) = dims;
        let seed = seed as u64;
        // The packed panel/micro-kernel GEMM fixes the per-element
        // reduction order to strictly ascending k — exactly the naive
        // triple loop's order — so for ANY shape, ragged or aligned, the
        // two must agree to the last bit, single- and multi-threaded.
        use edgebench_tensor::gemm;
        let a = Tensor::random([m, k], seed);
        let b = Tensor::random([k, n], seed ^ 0x9e37);
        let naive = gemm::matmul_reference(&a, &b);
        let packed = gemm::matmul(&a, &b);
        prop_assert_eq!(packed.data(), naive.data());
        let threaded = gemm::matmul_threaded(&a, &b, 4);
        prop_assert_eq!(threaded.data(), naive.data());
    }

    #[test]
    fn execution_is_thread_invariant(g in arb_cnn()) {
        let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
        let x = Tensor::random(shape, 13);
        let one = Executor::new(&g).with_seed(2).with_intra_op_threads(1).run(&x).unwrap();
        let four = Executor::new(&g).with_seed(2).with_intra_op_threads(4).run(&x).unwrap();
        prop_assert_eq!(one.data(), four.data());
    }

    #[test]
    fn roofline_time_is_positive_and_monotone_in_compute_scale(g in arb_cnn()) {
        use edgebench_devices::{perf::RooflineModel, Device};
        let fast = RooflineModel::for_device(Device::JetsonTx2).graph_time_s(&g);
        let slow = RooflineModel::for_device(Device::JetsonTx2)
            .with_compute_scale(0.25)
            .graph_time_s(&g);
        prop_assert!(fast > 0.0);
        // Equality holds for fully memory-bound graphs; allow 1-ulp-scale
        // slack for the differing compute/memory accumulation split.
        prop_assert!(slow >= fast * (1.0 - 1e-12), "slow {slow} fast {fast}");
    }
}
