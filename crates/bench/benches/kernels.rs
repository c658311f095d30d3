//! Micro-benchmarks of the numeric tensor kernels (the compute substrate
//! behind the functional executor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgebench_graph::{ActivationKind, PoolKind};
use edgebench_tensor::kernels;
use edgebench_tensor::{f16, quant, Tensor};
use std::hint::black_box;

fn bench_conv2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    for &(cin, cout, hw, k) in &[
        (3usize, 16usize, 32usize, 3usize),
        (16, 32, 16, 3),
        (64, 64, 8, 3),
        (64, 128, 8, 1),
    ] {
        let x = Tensor::random([1, cin, hw, hw], 1);
        let w = Tensor::random([cout, cin, k, k], 2);
        let macs = (cout * cin * k * k * hw * hw) as u64;
        g.throughput(Throughput::Elements(macs));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{cin}x{hw}x{hw}->{cout}k{k}")),
            &(x, w, k),
            |b, (x, w, k)| {
                b.iter(|| black_box(kernels::conv2d(x, w, None, (1, 1), (*k / 2, *k / 2), 1)))
            },
        );
    }
    g.finish();
}

fn bench_depthwise(c: &mut Criterion) {
    let x = Tensor::random([1, 64, 16, 16], 1);
    let w = Tensor::random([64, 1, 3, 3], 2);
    c.bench_function("depthwise_64x16x16", |b| {
        b.iter(|| black_box(kernels::depthwise_conv2d(&x, &w, None, (1, 1), (1, 1), 1)))
    });
    // The executor's depthwise path on the forced-scalar reference and on
    // the SIMD tier, at two MobileNet-v2 layers (3×3, padding 1): a
    // stride-1 block layer and the stride-2 layer that halves 112×112.
    // Each runs as a one-node graph on a prepared executor, one thread.
    use edgebench_graph::GraphBuilder;
    use edgebench_tensor::{Executor, KernelKind};
    let mut g = c.benchmark_group("depthwise");
    for (ch, hw, stride) in [(144usize, 56usize, 1usize), (96, 112, 2)] {
        let mut b = GraphBuilder::new("depthwise");
        let input = b.input([1, ch, hw, hw]);
        let dw = b
            .depthwise(input, (3, 3), (stride, stride), (1, 1))
            .unwrap();
        let graph = b.build(dw).unwrap();
        let x = Tensor::random([1, ch, hw, hw], 1);
        let out_hw = hw / stride;
        g.throughput(Throughput::Elements((ch * out_hw * out_hw * 9) as u64));
        for (label, kind) in [("scalar", KernelKind::Scalar), ("simd", KernelKind::Simd)] {
            let exec = Executor::new(&graph)
                .with_kernel(kind)
                .prepare()
                .expect("prepare");
            g.bench_function(format!("{label}/{ch}x{hw}x{hw}s{stride}"), |bch| {
                bch.iter(|| black_box(exec.run(&x).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_conv3d(c: &mut Criterion) {
    let x = Tensor::random([1, 3, 8, 16, 16], 1);
    let w = Tensor::random([16, 3, 3, 3, 3], 2);
    c.bench_function("conv3d_3x8x16x16->16", |b| {
        b.iter(|| black_box(kernels::conv3d(&x, &w, None, (1, 1, 1), (1, 1, 1))))
    });
}

fn bench_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("dense");
    for &(fin, fout) in &[(256usize, 256usize), (1024, 1024), (4096, 1000)] {
        let x = Tensor::random([1, fin], 1);
        let w = Tensor::random([fout, fin], 2);
        g.throughput(Throughput::Elements((fin * fout) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{fin}->{fout}")),
            &(x, w),
            |b, (x, w)| b.iter(|| black_box(kernels::dense(x, w, None))),
        );
    }
    g.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let x = Tensor::random([1, 64, 32, 32], 1);
    c.bench_function("relu_64x32x32", |b| {
        b.iter(|| black_box(kernels::activation(&x, ActivationKind::Relu)))
    });
    c.bench_function("batch_norm_64x32x32", |b| {
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.1f32; 64];
        b.iter(|| black_box(kernels::batch_norm(&x, &gamma, &beta)))
    });
    c.bench_function("maxpool2x2_64x32x32", |b| {
        b.iter(|| black_box(kernels::pool2d(&x, PoolKind::Max, (2, 2), (2, 2), (0, 0))))
    });
    let logits = Tensor::random([1, 1000], 3);
    c.bench_function("softmax_1000", |b| {
        b.iter(|| black_box(kernels::softmax(&logits)))
    });
}

fn bench_precision(c: &mut Criterion) {
    let mut x = Tensor::random([1, 64, 32, 32], 4);
    c.bench_function("f16_round_trip_64k", |b| {
        b.iter(|| {
            let mut y = x.clone();
            f16::round_slice_f16(y.data_mut());
            black_box(y)
        })
    });
    c.bench_function("int8_fake_quant_64k", |b| {
        b.iter(|| {
            let mut y = x.clone();
            black_box(quant::fake_quantize_tensor(&mut y))
        })
    });
    c.bench_function("quant_observe_64k", |b| {
        b.iter(|| black_box(quant::QuantParams::observe(&x)))
    });
    // Keep `x` mutable usage meaningful.
    x.data_mut()[0] = 0.0;
}

fn bench_gemm(c: &mut Criterion) {
    use edgebench_tensor::gemm::{self, GemmScratch};
    use edgebench_tensor::KernelKind;
    // The SIMD micro-kernel (runtime-dispatched) vs the forced-scalar
    // kernel vs the naive triple loop, at the shapes the executor's
    // convolution lowering actually produces. `packed` is the production path;
    // `packed-scalar` isolates the vectorization win (same packing, same
    // blocking, scalar FMAs); `naive` is the unpacked baseline.
    let mut g = c.benchmark_group("gemm");
    for &(m, k, n) in &[(32usize, 128usize, 128usize), (64, 576, 256)] {
        let a = Tensor::random([m, k], 1);
        let b_ = Tensor::random([k, n], 2);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        for (label, kind) in [
            ("packed", KernelKind::Auto),
            ("packed-scalar", KernelKind::Scalar),
        ] {
            let mut scratch = GemmScratch::default();
            scratch.set_kernel(kind);
            let mut out = Tensor::zeros([m, n]);
            g.bench_with_input(
                BenchmarkId::new(label, format!("{m}x{k}x{n}")),
                &(&a, &b_),
                |bch, (a, b_)| {
                    bch.iter(|| {
                        gemm::matmul_into(
                            a.data(),
                            b_.data(),
                            (m, k, n),
                            out.data_mut(),
                            1,
                            &mut scratch,
                        );
                        black_box(out.data()[0])
                    })
                },
            );
        }
        g.bench_with_input(
            BenchmarkId::new("naive", format!("{m}x{k}x{n}")),
            &(&a, &b_),
            |bch, (a, b_)| bch.iter(|| black_box(gemm::matmul_reference(a, b_))),
        );
    }
    g.finish();
    // Direct vs packed-GEMM convolution at a representative layer.
    let x = Tensor::random([1, 32, 28, 28], 3);
    let w = Tensor::random([64, 32, 3, 3], 4);
    c.bench_function("conv_direct_32x28->64", |b| {
        b.iter(|| black_box(kernels::conv2d(&x, &w, None, (1, 1), (1, 1), 1)))
    });
    c.bench_function("conv_gemm_32x28->64", |b| {
        b.iter(|| black_box(gemm::conv2d_gemm(&x, &w, None, (1, 1), (1, 1))))
    });
}

fn bench_fused_conv(c: &mut Criterion) {
    use edgebench_tensor::gemm::{self, Epilogue, GemmScratch};
    // conv+bias+BN+ReLU as one fused kernel pass vs the four-kernel chain
    // the unfused graph executes. Same arithmetic, same order, one memory
    // sweep instead of four.
    let x = Tensor::random([1, 32, 28, 28], 3);
    let w = Tensor::random([64, 32, 3, 3], 4);
    let bias = vec![0.05f32; 64];
    let gamma = vec![1.1f32; 64];
    let beta = vec![-0.02f32; 64];
    let mut g = c.benchmark_group("fused_conv");
    g.bench_function("unfused_32x28->64", |b| {
        b.iter(|| {
            let y = kernels::conv2d(&x, &w, Some(&bias), (1, 1), (1, 1), 1);
            let y = kernels::batch_norm(&y, &gamma, &beta);
            black_box(kernels::activation(&y, ActivationKind::Relu))
        })
    });
    g.bench_function("fused_32x28->64", |b| {
        let epi = Epilogue {
            bias: Some(&bias),
            bn: Some((&gamma, &beta)),
            act: ActivationKind::Relu,
        };
        let mut out = Tensor::zeros([1, 64, 28, 28]);
        let mut scratch = GemmScratch::default();
        b.iter(|| {
            gemm::conv2d_gemm_into(&x, &w, (1, 1), (1, 1), &epi, 1, &mut out, &mut scratch);
            black_box(out.data()[0])
        })
    });
    g.finish();
}

fn bench_prepacked(c: &mut Criterion) {
    use edgebench_tensor::gemm::{self, Epilogue, GemmScratch, PackedPanels};
    use edgebench_tensor::simd::{MR, NR};
    // The weight-bound shapes that motivate packing weights at prepare
    // time, on the executor's prepacked path: AlexNet fc6 (18432 → 4096,
    // 302 MB of weights) at batch 1 (the full-depth stream kernel) and
    // batch 4, and VGG-S-32's conv2d_10 (a 512 × 4608 weight matrix over
    // 2×2 = 4 output pixels). Throughput is weight bytes, so the rate
    // reads as the bandwidth the weights stream at; one intra-op thread.
    let synthetic = |rows: usize, k: usize, width: usize| {
        let mut i = 0u32;
        PackedPanels::try_generate(rows, k, width, |panel_rows| {
            for v in panel_rows {
                i = i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *v = (i >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
            }
        })
        .expect("bench weights fit in memory")
    };
    let mut g = c.benchmark_group("prepacked");
    g.sample_size(10);
    // Four real convolution layers on the executor's path at batch 1, one
    // thread: B panels packed from the image, weights prepacked, the
    // epilogue empty. Throughput is multiply-accumulates, so the rate
    // reads as GMAC/s (half the FLOP/s).
    for (name, (in_c, hw), (out_c, k, s, p)) in [
        (
            "resnet18-stem",
            (3usize, 224usize),
            (64usize, 7usize, 2usize, 3usize),
        ),
        ("resnet18-layer1", (64, 56), (64, 3, 1, 1)),
        ("mobilenetv2-conv2d_9", (16, 112), (96, 1, 1, 0)),
        ("alexnet-conv2d_1", (3, 224), (64, 11, 4, 2)),
    ] {
        let w = synthetic(out_c, in_c * k * k, MR);
        let x = Tensor::random([1, in_c, hw, hw], 5);
        let o = (hw + 2 * p - k) / s + 1;
        let mut out = Tensor::zeros([1, out_c, o, o]);
        let mut scratch = GemmScratch::default();
        g.throughput(Throughput::Elements((out_c * in_c * k * k * o * o) as u64));
        g.bench_function(format!("conv/{name}"), |b| {
            b.iter(|| {
                gemm::conv2d_packed_into(
                    &x,
                    &w,
                    (k, k),
                    (s, s),
                    (p, p),
                    &Epilogue::default(),
                    1,
                    &mut out,
                    &mut scratch,
                );
                black_box(out.data()[0])
            })
        });
    }
    let (f, units) = (18432usize, 4096usize);
    let w = synthetic(units, f, NR);
    g.throughput(Throughput::Bytes((units * f * 4) as u64));
    for batch in [1usize, 4] {
        let x = Tensor::random([batch, f], 1);
        let mut out = Tensor::zeros([batch, units]);
        let mut scratch = GemmScratch::default();
        g.bench_function(format!("dense/{batch}x{f}x{units}"), |b| {
            b.iter(|| {
                gemm::dense_packed_into(
                    &x,
                    &w,
                    None,
                    ActivationKind::Linear,
                    1,
                    &mut out,
                    &mut scratch,
                );
                black_box(out.data()[0])
            })
        });
    }
    drop(w);
    let w = synthetic(512, 512 * 9, MR);
    let x = Tensor::random([1, 512, 2, 2], 3);
    let mut out = Tensor::zeros([1, 512, 2, 2]);
    let mut scratch = GemmScratch::default();
    g.throughput(Throughput::Bytes((512 * 4608 * 4) as u64));
    g.bench_function("conv/512x4608x4", |b| {
        b.iter(|| {
            gemm::conv2d_packed_into(
                &x,
                &w,
                (3, 3),
                (1, 1),
                (1, 1),
                &Epilogue::default(),
                1,
                &mut out,
                &mut scratch,
            );
            black_box(out.data()[0])
        })
    });
    g.finish();
}

fn bench_guards(c: &mut Criterion) {
    use edgebench_models::Model;
    use edgebench_tensor::{Executor, GuardConfig, GuardedExecutor};
    // The integrity-guard overhead budget: batch-8 CifarNet through the
    // plain prepared executor vs the same executor wrapped in
    // GuardedExecutor at cadence 1 (weight scrub every inference plus
    // per-node activation envelopes). The defended run must stay within
    // 3% of the bare run.
    let graph = Model::CifarNet.build().with_batch(8).unwrap();
    let dims = graph
        .node(graph.input_ids()[0])
        .output_shape()
        .dims()
        .to_vec();
    let x = Tensor::random(dims.clone(), 7);
    let mut g = c.benchmark_group("guards");
    g.sample_size(20);
    g.bench_function("cifarnet_b8_bare", |b| {
        let exec = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        b.iter(|| black_box(exec.run(&x).unwrap()))
    });
    g.bench_function("cifarnet_b8_guarded", |b| {
        let exec = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        let mut guarded = GuardedExecutor::new(exec, GuardConfig::default());
        let calib: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(dims.clone(), 100 + i))
            .collect();
        let refs: Vec<&Tensor> = calib.iter().collect();
        guarded.calibrate(&refs).expect("calibrate");
        b.iter(|| black_box(guarded.run(&x).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_prepacked,
    bench_fused_conv,
    bench_guards,
    bench_conv2d,
    bench_depthwise,
    bench_conv3d,
    bench_dense,
    bench_elementwise,
    bench_precision
);
criterion_main!(benches);
