//! Per-node identity on the end-to-end benchmark's models: CifarNet,
//! MobileNet-v2, ResNet-18, AlexNet and VGG-S-32 at batch 1 and 4, at f32,
//! f16 and int8 and at weight sparsity 0 and 0.5, each on the auto tier at
//! 1 and 2 intra-op threads and on the scalar tier. Every node's output
//! digest must agree across the three; a mismatch names the first node
//! that differs.
//!
//! Each configuration prints its output digest (the `output checksum`
//! `edgebench-cli infer --seed 5` prints for it) and its chain digest (see
//! `support`), so a kernel change can diff these lines against its parent
//! commit's. These models reach layer shapes the golden graphs do not:
//! ResNet-18's 7×7 layer 4 (a 49-column GEMM), MobileNet-v2's pointwise
//! layers and VGG-S-32's 4×4 and 2×2 convolutions. Too slow for a debug
//! build: run it with
//! `cargo test --release --offline --test model_chains -- --ignored --nocapture`.

mod support;

use edgebench_models::Model;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{Executor, KernelKind, Precision, Tensor};
use support::{assert_same_chain, chain, observe};

#[test]
#[ignore = "release only: 180 runs of five models"]
fn benchmark_models_agree_node_by_node_on_every_tier_and_thread_count() {
    let models = [
        Model::CifarNet,
        Model::MobileNetV2,
        Model::ResNet18,
        Model::AlexNet,
        Model::VggS32,
    ];
    let settings = [
        (KernelKind::Auto, 1),
        (KernelKind::Auto, 2),
        (KernelKind::Scalar, 1),
    ];
    for model in models {
        for batch in [1, 4] {
            let g = model.build().with_batch(batch).unwrap();
            let dims = g.node(g.input_ids()[0]).output_shape().dims().to_vec();
            let x = Tensor::random(dims, 5 ^ 1);
            for precision in [Precision::F32, Precision::F16, Precision::Int8] {
                for sparsity in [0.0, 0.5] {
                    let label = format!("{model} batch {batch} {precision:?} sparsity {sparsity}");
                    let runs: Vec<_> = settings
                        .iter()
                        .map(|&(kernel, threads)| {
                            let exec = Executor::new(&g)
                                .with_seed(5)
                                .with_precision(precision)
                                .with_weight_sparsity(sparsity)
                                .with_kernel(kernel)
                                .with_intra_op_threads(threads)
                                .prepare()
                                .unwrap();
                            let (y, nodes) = observe(&exec, &x);
                            (checksum_f32(y.data()), nodes)
                        })
                        .collect();
                    let want = &runs[0];
                    for (&(kernel, threads), got) in settings.iter().zip(&runs).skip(1) {
                        let against =
                            format!("{label}: {kernel:?} at {threads} thread(s) against Auto at 1");
                        assert_same_chain(&g, &against, &want.1, &got.1);
                        assert_eq!(got.0, want.0, "{label}: {kernel:?} t{threads} output");
                    }
                    println!(
                        "{label}: output {:016x} chain {:016x}",
                        want.0,
                        chain(&want.1)
                    );
                }
            }
        }
    }
}
