//! Harness-level benches: repeated inference through a prepared executor,
//! the one-shot cost of `prepare` itself, and the parallel
//! sweep/experiment runner.
//!
//! Run with `cargo bench --offline -p edgebench-bench --bench harness`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgebench::sweep::Sweep;
use edgebench_devices::Device;
use edgebench_frameworks::Framework;
use edgebench_models::Model;
use edgebench_tensor::{Executor, Precision, Tensor};
use std::hint::black_box;

/// Repeated inference on CifarNet through `PreparedExecutor`, whose weights
/// were materialized once at `prepare()` time.
fn bench_weight_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("weight_cache");
    g.sample_size(20);
    for (label, p) in [("f32", Precision::F32), ("int8", Precision::Int8)] {
        let graph = Model::CifarNet.build();
        let x = Tensor::random([1, 3, 32, 32], 7);
        let prepared = Executor::new(&graph)
            .with_seed(1)
            .with_precision(p)
            .prepare()
            .expect("prepare");
        g.bench_with_input(
            BenchmarkId::new("prepared", label),
            &(&prepared, &x),
            |b, (prepared, x)| b.iter(|| black_box(prepared.run(x).unwrap())),
        );
    }
    g.finish();
}

/// The one-shot cost of `prepare()` itself: one materialization plus a run
/// (what `Executor::run` does).
fn bench_prepare_overhead(c: &mut Criterion) {
    let graph = Model::CifarNet.build();
    let x = Tensor::random([1, 3, 32, 32], 7);
    let mut g = c.benchmark_group("prepare_overhead");
    g.sample_size(20);
    g.bench_function("prepare_then_run", |b| {
        b.iter(|| {
            let prepared = Executor::new(&graph)
                .with_seed(1)
                .prepare()
                .expect("prepare");
            black_box(prepared.run(&x).unwrap())
        })
    });
    g.finish();
}

/// The same sweep grid at increasing worker counts; rows are identical for
/// every count, so the spread is pure wall-clock scaling. (On a single-core
/// host all worker counts degenerate to serial plus thread overhead.)
fn bench_parallel_sweep(c: &mut Criterion) {
    let sweep = Sweep::new()
        .models(Model::all().iter().copied())
        .frameworks([Framework::PyTorch, Framework::TensorFlow, Framework::TfLite])
        .devices([
            Device::JetsonTx2,
            Device::RaspberryPi3,
            Device::JetsonNano,
            Device::XeonCpu,
        ])
        .batches([1, 8]);
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    for jobs in [1usize, 2, 4, 0] {
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            let s = sweep.clone().jobs(jobs);
            b.iter(|| black_box(s.run()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_weight_cache,
    bench_prepare_overhead,
    bench_parallel_sweep
);
criterion_main!(benches);
