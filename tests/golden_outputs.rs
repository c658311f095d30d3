//! Golden output digests: the interpreter's output bytes, pinned across
//! commits.
//!
//! Each graph below runs at f32, f16 and int8, at weight sparsity 0 and
//! 0.5. For every configuration, `integrity::checksum_f32` of the output
//! must equal the pinned constant under the auto kernel tier at 1 and 2
//! intra-op threads and under the scalar tier at 1 thread, and a second
//! run on the same prepared executor (its arena reused) must repeat it.
//! The thread- and tier-identity tests compare one build with itself;
//! these constants were recorded once and catch a change to any output
//! bit of the executor, its kernels or its weight generator.
//!
//! A change inside the graph need not reach the output: a max pool, a
//! ReLU or an int8 grid can swallow it. So every configuration also pins a
//! chain digest, `checksum_f32` of every node's output (after lowering to
//! the run precision, as observed through `run_observed`) folded in step
//! order. On a mismatch the test prints each node's digest, to diff
//! against a run of the parent commit.
//!
//! Together the graphs reach every kernel the executor can dispatch:
//! packed 2-D convolution (on a pruned store too) and direct 2-D
//! convolution (grouped included),
//! depthwise alone and fused, 3-D convolution and pooling, padded, 2×2
//! and global pooling, batch norm, LRN, every activation kind, add, mul,
//! concat, slice, upsample, flatten, packed and direct dense layers (one
//! fused with its activation), dropout and softmax.

mod support;

use edgebench_frameworks::passes;
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, Op, PoolKind};
use edgebench_models::{rnn, Model};
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{Executor, KernelKind, Precision, Tensor};
use support::{assert_same_chain, chain, node_lines, observe};

/// The configurations, in the order of each graph's pinned digests.
const CONFIGS: [(Precision, f32); 6] = [
    (Precision::F32, 0.0),
    (Precision::F32, 0.5),
    (Precision::F16, 0.0),
    (Precision::F16, 0.5),
    (Precision::Int8, 0.0),
    (Precision::Int8, 0.5),
];

/// Runs `g` under every configuration and execution setting and checks
/// each output digest against `pinned` and each chain digest against
/// `chains`.
fn check(g: &Graph, pinned: [u64; 6], chains: [u64; 6]) {
    let shape = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
    let x = Tensor::random(shape, 17);
    let mut got = Vec::new();
    for (precision, sparsity) in CONFIGS {
        let mut runs = Vec::new();
        for (kernel, threads) in [
            (KernelKind::Auto, 1),
            (KernelKind::Auto, 2),
            (KernelKind::Scalar, 1),
        ] {
            let exec = Executor::new(g)
                .with_seed(3)
                .with_precision(precision)
                .with_weight_sparsity(sparsity)
                .with_kernel(kernel)
                .with_intra_op_threads(threads)
                .prepare()
                .unwrap();
            for _ in 0..2 {
                let (y, nodes) = observe(&exec, &x);
                runs.push((checksum_f32(y.data()), nodes));
            }
        }
        let label = format!(
            "{}: {precision:?} sparsity {sparsity} across kernels, threads or reruns",
            g.name()
        );
        for r in &runs[1..] {
            assert_same_chain(g, &label, &runs[0].1, &r.1);
            assert_eq!(r.0, runs[0].0, "{label}: output digest");
        }
        got.push(runs.swap_remove(0));
    }
    let outputs: Vec<u64> = got.iter().map(|r| r.0).collect();
    let chained: Vec<u64> = got.iter().map(|r| chain(&r.1)).collect();
    assert_eq!(
        outputs,
        pinned,
        "{}: output digests changed; got {outputs:#018x?}",
        g.name()
    );
    if chained != chains {
        let report: Vec<String> = CONFIGS
            .iter()
            .zip(&got)
            .map(|((p, s), r)| format!("{p:?} sparsity {s}:\n{}", node_lines(g, &r.1)))
            .collect();
        panic!(
            "{}: chain digests changed; got {chained:#018x?}; per-node digests:\n{}",
            g.name(),
            report.join("\n")
        );
    }
}

/// Conv + batch norm + activation chains, a residual add, a depthwise
/// separable block, pooling, dropout and a dense head; [`fused`] folds
/// its conv-BN-act chains, the depthwise one included.
fn rich_graph() -> Graph {
    let mut b = GraphBuilder::new("rich");
    let x = b.input([1, 3, 16, 16]);
    let c1 = b.conv2d_nobias(x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
    let n1 = b.batch_norm(c1).unwrap();
    let r1 = b.activation(n1, ActivationKind::Relu).unwrap();
    let c2 = b.conv2d_nobias(r1, 8, (3, 3), (1, 1), (1, 1)).unwrap();
    let n2 = b.batch_norm(c2).unwrap();
    let s = b.add(n2, r1).unwrap();
    let r2 = b.activation(s, ActivationKind::Relu).unwrap();
    let dw = b.depthwise(r2, (3, 3), (1, 1), (1, 1)).unwrap();
    let dn = b.batch_norm(dw).unwrap();
    let da = b.activation(dn, ActivationKind::Relu6).unwrap();
    let pw = b.conv2d_nobias(da, 16, (1, 1), (1, 1), (0, 0)).unwrap();
    let pn = b.batch_norm(pw).unwrap();
    let p = b.pool(pn, PoolKind::Max, (2, 2), (2, 2)).unwrap();
    let f = b.flatten(p).unwrap();
    let d1 = b.dense(f, 32).unwrap();
    let dr = b.push_auto(Op::Dropout, vec![d1]).unwrap();
    let d2 = b.dense(dr, 10).unwrap();
    let out = b.softmax(d2).unwrap();
    b.build(out).unwrap()
}

/// The fused copy of [`rich_graph`].
fn fused() -> Graph {
    let g = passes::fuse_conv_bn_act(&rich_graph()).unwrap();
    assert!(
        g.nodes().iter().any(|n| matches!(
            n.op(),
            Op::FusedConvBnAct { conv, .. } if matches!(**conv, Op::DepthwiseConv2d { .. })
        )),
        "the fusion pass folds the depthwise block"
    );
    g
}

/// Every 4-D kernel not covered by the models above, at batch 2: a
/// GEMM-sized convolution, a grouped one, LRN, padded average pooling,
/// upsampling, concat, the 2×2 max pool, depthwise with batch norm and a
/// leaky activation, global pooling on a side branch, a GEMM-sized fused
/// dense layer next to a small plain one, dropout and softmax.
fn coverage_2d() -> Graph {
    let mut b = GraphBuilder::new("coverage-2d");
    let x = b.input([2, 4, 12, 12]);
    let c = b.conv2d(x, 8, (3, 3), (1, 1), (1, 1)).unwrap();
    let grouped = Op::Conv2d {
        out_channels: 8,
        kernel: (3, 3),
        stride: (1, 1),
        padding: (1, 1),
        groups: 2,
        bias: true,
    };
    let g = b.push_auto(grouped, vec![c]).unwrap();
    let l = b.push_auto(Op::Lrn { size: 5 }, vec![g]).unwrap();
    let p1 = b
        .pool_padded(l, PoolKind::Avg, (3, 3), (2, 2), (1, 1))
        .unwrap();
    let u = b.push_auto(Op::Upsample { factor: 2 }, vec![p1]).unwrap();
    let cat = b.concat(vec![u, c]).unwrap();
    let p2 = b.pool(cat, PoolKind::Max, (2, 2), (2, 2)).unwrap();
    let dw = b.depthwise(p2, (3, 3), (1, 1), (1, 1)).unwrap();
    let bn = b.batch_norm(dw).unwrap();
    let a = b.activation(bn, ActivationKind::Leaky).unwrap();
    let gap = b.global_avg_pool(a).unwrap();
    let side = b.flatten(gap).unwrap();
    let f = b.flatten(a).unwrap();
    let fused_dense = Op::FusedDenseAct {
        units: 64,
        bias: true,
        act: ActivationKind::Relu,
    };
    let d1 = b.push_auto(fused_dense, vec![f]).unwrap();
    let d1 = b.slice(d1, 0, 16).unwrap();
    let joined = b.add(d1, side).unwrap();
    let d2 = b.dense(joined, 10).unwrap();
    let dr = b.push_auto(Op::Dropout, vec![d2]).unwrap();
    let out = b.softmax(dr).unwrap();
    b.build(out).unwrap()
}

/// The 5-D kernels: a padded 3-D convolution, max and average 3-D
/// pooling, then slices gated by a product and a tanh dense head.
fn coverage_3d() -> Graph {
    let mut b = GraphBuilder::new("coverage-3d");
    let x = b.input([1, 2, 6, 8, 8]);
    let c = b.conv3d(x, 4, (3, 3, 3), (1, 1, 1), (1, 1, 1)).unwrap();
    let pool3d = |kind| Op::Pool3d {
        kind,
        kernel: (2, 2, 2),
        stride: (2, 2, 2),
    };
    let p = b.push_auto(pool3d(PoolKind::Max), vec![c]).unwrap();
    let q = b.push_auto(pool3d(PoolKind::Avg), vec![c]).unwrap();
    let s = b.add(p, q).unwrap();
    let f = b.flatten(s).unwrap();
    let lo = b.slice(f, 0, 96).unwrap();
    let hi = b.slice(f, 96, 96).unwrap();
    let gate = b.activation(hi, ActivationKind::Sigmoid).unwrap();
    let m = b.mul(lo, gate).unwrap();
    let d = b.dense(m, 8).unwrap();
    let t = b.activation(d, ActivationKind::Tanh).unwrap();
    let out = b.softmax(t).unwrap();
    b.build(out).unwrap()
}

#[test]
fn cifarnet_output_matches_pinned_digests() {
    check(
        &Model::CifarNet.build(),
        [
            0x9cb0_5de8_cc0d_2bb9,
            0x20a4_a56a_0073_fd06,
            0x6847_a7ab_069a_6d6d,
            0x6822_92a5_646b_ed6d,
            0x640f_1099_d50f_a72a,
            0xbfde_a063_c21f_4cef,
        ],
        [
            0x5695_9521_475c_7e1f,
            0x78d5_c87b_9150_f337,
            0x5171_05bb_100c_8468,
            0x2a9c_aa12_2919_6468,
            0xaf19_4c53_0ecf_a969,
            0x8548_684d_5fee_5550,
        ],
    );
}

#[test]
fn char_lstm_output_matches_pinned_digests() {
    check(
        &rnn::char_lstm(6, 16, 32, 2).unwrap(),
        [
            0xdc22_4876_23ba_e32f,
            0x7868_d3e5_f0c1_5a4e,
            0x1e66_faaa_6f67_e37f,
            0x716f_ff6f_147c_037f,
            0x4854_936e_4dea_4dc8,
            0x524d_dcee_2a09_4fb7,
        ],
        [
            0x0267_a193_3271_2ca5,
            0x1bf8_ad9d_ef32_ecd4,
            0x3879_b577_277c_fb46,
            0x74c9_75b1_acd1_5b46,
            0x98da_71be_b10f_0f33,
            0x32ee_e31c_c681_b540,
        ],
    );
}

#[test]
fn gru_classifier_output_matches_pinned_digests() {
    check(
        &rnn::gru_classifier(6, 16, 32, 5).unwrap(),
        [
            0xf571_ae1d_1067_28f7,
            0xb85e_78e9_cdc0_2ff5,
            0x7df4_550e_327a_b506,
            0x87d1_0995_fbde_b506,
            0x8827_c090_15df_3f52,
            0x74dc_53de_015f_9046,
        ],
        [
            0x0f93_3a9c_b0a0_bb02,
            0x03a2_1ad0_2514_2240,
            0xd9a8_7997_1e06_df77,
            0x5f36_5afa_7114_ff77,
            0x350c_c702_d2e2_1b1f,
            0x6f08_1a17_8e71_c091,
        ],
    );
}

#[test]
fn fused_rich_graph_output_matches_pinned_digests() {
    check(
        &fused(),
        [
            0x39f5_8f1e_77af_2e67,
            0x55bd_23af_a589_9d1c,
            0x3b2d_c36e_982f_cd6d,
            0xd9c2_d607_f0de_0d6d,
            0xb8dd_7e55_1bfc_f07a,
            0xe9b3_97d6_4cd8_d34a,
        ],
        [
            0xc651_861c_1788_7301,
            0xb1eb_b5ea_ae3d_ab3c,
            0x3e27_5990_2fab_b65d,
            0xbb54_fba1_cfa3_f65d,
            0x9d7c_6642_bc87_64e4,
            0x3070_a103_1111_aa6f,
        ],
    );
}

#[test]
fn coverage_2d_output_matches_pinned_digests() {
    check(
        &coverage_2d(),
        [
            0x2d2f_cc5c_3263_3597,
            0x7840_70b3_a901_7c48,
            0x6da3_5a69_616e_b983,
            0xa725_5052_9d92_3983,
            0x9078_7239_09ce_6828,
            0x234b_e03b_d8b9_6757,
        ],
        [
            0x9c61_52d8_5315_ee35,
            0xa231_3645_941c_063a,
            0xae32_4b30_33ef_4c30,
            0xe51a_2594_6503_ec30,
            0xbdf5_5889_67e4_0d11,
            0x72c8_2a5b_bb17_f53a,
        ],
    );
}

#[test]
fn coverage_3d_output_matches_pinned_digests() {
    check(
        &coverage_3d(),
        [
            0x3f41_8576_db62_4073,
            0xab8d_8459_0562_e224,
            0xfcf2_e3be_0da0_003f,
            0x644d_5a28_5928_a03f,
            0xf826_ee92_d5eb_e2ab,
            0x56b0_0376_30e8_656a,
        ],
        [
            0xc1dc_5e5c_3a82_2969,
            0x3644_dd57_cc41_feb5,
            0x7ec9_55ef_3d98_4831,
            0x90e5_9e78_5ea4_0831,
            0xaac4_8e0c_420b_9b49,
            0x369e_0057_410c_4713,
        ],
    );
}
