//! End-to-end numeric inference through the tensor substrate at every
//! simulated precision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgebench_models::Model;
use edgebench_tensor::{Executor, Precision, Tensor};
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("inference");
    g.sample_size(20);
    for m in [Model::CifarNet, Model::VggS32] {
        let graph = m.build();
        let x = Tensor::random([1, 3, 32, 32], 7);
        for (label, p) in [
            ("f32", Precision::F32),
            ("f16", Precision::F16),
            ("int8", Precision::Int8),
        ] {
            let exec = Executor::new(&graph)
                .with_seed(1)
                .with_precision(p)
                .prepare()
                .expect("prepare");
            g.bench_with_input(
                BenchmarkId::new(m.name(), label),
                &(&exec, &x),
                |b, (exec, x)| b.iter(|| black_box(exec.run(x).unwrap())),
            );
        }
    }
    g.finish();
}

fn bench_fused_vs_unfused_execution(c: &mut Criterion) {
    // The functional counterpart of the fusion ablation: fewer nodes means
    // fewer intermediate tensors even in the reference interpreter.
    use edgebench_frameworks::passes;
    let graph = Model::CifarNet.build();
    let fused = passes::fuse_conv_bn_act(&graph).unwrap();
    let x = Tensor::random([1, 3, 32, 32], 7);
    let mut g = c.benchmark_group("fusion_exec");
    g.sample_size(20);
    g.bench_function("cifarnet_unfused", |b| {
        let e = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        b.iter(|| black_box(e.run(&x).unwrap()))
    });
    g.bench_function("cifarnet_fused", |b| {
        let e = Executor::new(&fused)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        b.iter(|| black_box(e.run(&x).unwrap()))
    });
    g.finish();
}

fn bench_prepared_batch(c: &mut Criterion) {
    // The tentpole throughput target: batch-8 inference through the
    // prepared executor (packed GEMM + fused kernels + zero-alloc arena),
    // at 1 and 4 intra-op threads. Output bytes are identical across the
    // thread axis; only wall-clock changes.
    let mut g = c.benchmark_group("prepared_batch8");
    g.sample_size(10);
    for m in [Model::CifarNet, Model::MobileNetV2] {
        let graph = m.build().with_batch(8).unwrap();
        let dims = graph
            .node(graph.input_ids()[0])
            .output_shape()
            .dims()
            .to_vec();
        let x = Tensor::random(dims, 7);
        for threads in [1usize, 4] {
            let exec = Executor::new(&graph)
                .with_seed(1)
                .with_intra_op_threads(threads)
                .prepare()
                .expect("prepare");
            g.bench_with_input(
                BenchmarkId::new(m.name(), format!("t{threads}")),
                &(&exec, &x),
                |b, (exec, x)| b.iter(|| black_box(exec.run(x).unwrap())),
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_inference,
    bench_fused_vs_unfused_execution,
    bench_prepared_batch
);
criterion_main!(benches);
