//! Micro-benchmarks of the numeric tensor kernels (the compute substrate
//! behind the functional executor). Conv and dense layers are timed on the
//! path the executor runs them on: weights packed once, before timing, and
//! the packing buffers and output reused call after call.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use edgebench_graph::{ActivationKind, Graph, GraphBuilder, PoolKind};
use edgebench_tensor::gemm::{self, Epilogue, GemmScratch, PackedPanels};
use edgebench_tensor::simd::{self, MR, NR};
use edgebench_tensor::{kernels, Executor, KernelKind, Tensor};
use std::hint::black_box;

/// A `[rows×k]` weight matrix generated straight into `width`-row panels,
/// as `Executor::prepare` generates a GEMM layer's weights.
fn synthetic(rows: usize, k: usize, width: usize) -> PackedPanels {
    let mut i = 0u32;
    PackedPanels::try_generate(rows, k, width, |panel_rows| {
        for v in panel_rows {
            i = i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *v = (i >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
        }
    })
    .expect("bench weights fit in memory")
}

/// Times `graph` on a prepared executor at one intra-op thread on `kind`'s
/// tier, through `run_into`: the plan the executor runs, with no allocation
/// per call.
fn bench_prepared(g: &mut BenchmarkGroup<'_>, name: String, graph: &Graph, kind: KernelKind) {
    let exec = Executor::new(graph)
        .with_kernel(kind)
        .prepare()
        .expect("prepare");
    let dims = graph.node(graph.input_ids()[0]).output_shape().dims();
    let x = Tensor::random(dims.to_vec(), 1);
    let mut out = Tensor::zeros([0]);
    g.bench_function(name, |b| {
        b.iter(|| {
            exec.run_into(dims, x.data(), &mut out, &mut |_, _| Ok(()))
                .expect("run");
            black_box(out.data()[0])
        })
    });
}

fn bench_conv2d(c: &mut Criterion) {
    // Four small layers, each a one-node graph. At these sizes
    // (0.44–2.4 M multiply-adds) the executor takes the packed GEMM.
    let mut g = c.benchmark_group("conv2d");
    for &(cin, cout, hw, k) in &[
        (3usize, 16usize, 32usize, 3usize),
        (16, 32, 16, 3),
        (64, 64, 8, 3),
        (64, 128, 8, 1),
    ] {
        let mut b = GraphBuilder::new("conv2d");
        let input = b.input([1, cin, hw, hw]);
        let conv = b
            .conv2d_nobias(input, cout, (k, k), (1, 1), (k / 2, k / 2))
            .unwrap();
        let graph = b.build(conv).unwrap();
        g.throughput(Throughput::Elements((cout * cin * k * k * hw * hw) as u64));
        let name = format!("prepared/{cin}x{hw}x{hw}->{cout}k{k}");
        bench_prepared(&mut g, name, &graph, KernelKind::Auto);
    }
    g.finish();
}

fn bench_depthwise(c: &mut Criterion) {
    let x = Tensor::random([1, 64, 16, 16], 1);
    let w = Tensor::random([64, 1, 3, 3], 2);
    c.bench_function("depthwise_64x16x16", |b| {
        b.iter(|| black_box(kernels::conv(&x, &w, None, [1; 3], [0, 1, 1], 64)))
    });
    // The executor's depthwise path on the forced-scalar reference and on
    // the SIMD tier, at two MobileNet-v2 layers (3×3, padding 1): a
    // stride-1 block layer and the stride-2 layer that halves 112×112.
    // Each runs as a one-node graph on a prepared executor through
    // `run_into`, one thread.
    let mut g = c.benchmark_group("depthwise");
    for (ch, hw, stride) in [(144usize, 56usize, 1usize), (96, 112, 2)] {
        let mut b = GraphBuilder::new("depthwise");
        let input = b.input([1, ch, hw, hw]);
        let dw = b
            .depthwise(input, (3, 3), (stride, stride), (1, 1))
            .unwrap();
        let graph = b.build(dw).unwrap();
        let out_hw = hw / stride;
        g.throughput(Throughput::Elements((ch * out_hw * out_hw * 9) as u64));
        for (label, kind) in [("scalar", KernelKind::Scalar), ("simd", KernelKind::Auto)] {
            let name = format!("{label}/{ch}x{hw}x{hw}s{stride}");
            bench_prepared(&mut g, name, &graph, kind);
        }
    }
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    // Pooling as the executor runs it, a one-node graph on a prepared
    // executor through `run_into`: ResNet-18's 3×3/stride-2/padding-1 max
    // pool on 64×112×112 (the generic 2-D window loop, which the e2e
    // models reach) and C3D's 2×2×2 max pool on 128×12×56×56. Throughput
    // is window taps (output elements × window size).
    use edgebench_graph::Op;
    let mut g = c.benchmark_group("pool");
    let mut b = GraphBuilder::new("pool2d");
    let input = b.input([1, 64, 112, 112]);
    let p = b
        .pool_padded(input, PoolKind::Max, (3, 3), (2, 2), (1, 1))
        .unwrap();
    let graph = b.build(p).unwrap();
    g.throughput(Throughput::Elements((64 * 56 * 56 * 9) as u64));
    let name = "prepared/max3x3s2p1_64x112x112".into();
    bench_prepared(&mut g, name, &graph, KernelKind::Auto);
    let mut b = GraphBuilder::new("pool3d");
    let input = b.input([1, 128, 12, 56, 56]);
    let op = Op::Pool3d {
        kind: PoolKind::Max,
        kernel: (2, 2, 2),
        stride: (2, 2, 2),
    };
    let p = b.push_auto(op, vec![input]).unwrap();
    let graph = b.build(p).unwrap();
    g.throughput(Throughput::Elements((128 * 6 * 28 * 28 * 8) as u64));
    let name = "prepared/max2x2x2_128x12x56x56".into();
    bench_prepared(&mut g, name, &graph, KernelKind::Auto);
    g.finish();
}

fn bench_conv3d(c: &mut Criterion) {
    let x = Tensor::random([1, 3, 8, 16, 16], 1);
    let w = Tensor::random([16, 3, 3, 3, 3], 2);
    c.bench_function("conv3d_3x8x16x16->16", |b| {
        b.iter(|| black_box(kernels::conv(&x, &w, None, [1; 3], [1; 3], 1)))
    });
}

fn bench_dense(c: &mut Criterion) {
    // Batch-1 dense layers over prepacked weights, one thread: the stream
    // kernel every dense layer of at most MR rows runs.
    let mut g = c.benchmark_group("dense");
    for &(fin, fout) in &[(256usize, 256usize), (1024, 1024), (4096, 1000)] {
        let x = Tensor::random([1, fin], 1);
        let w = synthetic(fout, fin, NR);
        let mut out = Tensor::zeros([1, fout]);
        let mut scratch = GemmScratch::default();
        g.throughput(Throughput::Elements((fin * fout) as u64));
        g.bench_function(
            BenchmarkId::new("prepacked", format!("{fin}->{fout}")),
            |b| {
                b.iter(|| {
                    let act = ActivationKind::Linear;
                    gemm::dense_packed_into(&x, &w, None, act, 1, &mut out, &mut scratch);
                    black_box(out.data()[0])
                })
            },
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
        b.iter(|| {
            black_box(kernels::pool(
                &x,
                PoolKind::Max,
                [1, 2, 2],
                [1, 2, 2],
                [0; 3],
            ))
        })
    });
    let logits = Tensor::random([1, 1000], 3);
    c.bench_function("softmax_1000", |b| {
        b.iter(|| black_box(kernels::softmax(&logits)))
    });
}

fn bench_precision(c: &mut Criterion) {
    // The executor's lowering passes over one 64k-element tensor, on the
    // forced-scalar reference and on the SIMD tier, side by side: f16
    // rounding, int8 fake quantization (range pass plus rounding pass) and
    // the range pass alone. The two passes that write start each iteration
    // by copying the input back (256 KiB, on both tiers).
    let x = Tensor::random([1, 64, 32, 32], 4);
    let mut y = x.clone();
    let mut g = c.benchmark_group("lowering");
    g.throughput(Throughput::Elements(x.len() as u64));
    for (label, kind) in [("scalar", KernelKind::Scalar), ("simd", KernelKind::Auto)] {
        let tier = simd::resolve(kind);
        g.bench_function(format!("{label}/f16_round_64k"), |b| {
            b.iter(|| {
                y.data_mut().copy_from_slice(x.data());
                simd::round_f16(tier, y.data_mut());
                black_box(y.data()[0])
            })
        });
        g.bench_function(format!("{label}/int8_fake_quant_64k"), |b| {
            b.iter(|| {
                y.data_mut().copy_from_slice(x.data());
                black_box(simd::fake_quantize(tier, y.data_mut()))
            })
        });
        g.bench_function(format!("{label}/quant_range_64k"), |b| {
            b.iter(|| black_box(simd::quant_params(tier, x.data())))
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    // The SIMD micro-kernel (runtime-dispatched) vs the forced-scalar
    // kernel vs the naive triple loop. `prepacked` is the executor's path
    // for a dense layer of more than MR rows: the activations packed per
    // call, the weights (B) packed once. `prepacked-scalar` isolates the
    // vectorization win (same packing, same blocking, scalar FMAs);
    // `naive` is the unpacked baseline.
    let mut g = c.benchmark_group("gemm");
    // The tile's ceiling: the resolved tier's micro-kernel over one packed
    // A micro-panel and one B panel, both resident in L1 at KC 256, beside
    // 16 independent FMA chains on the host's widest vector. Throughput is
    // multiply-adds, so both rates read in GMAC/s.
    let tier = simd::resolve(KernelKind::Auto);
    const KC: usize = 256;
    let (apan, bpan) = (Tensor::random([KC * MR], 1), Tensor::random([KC * NR], 2));
    let mut acc = [[0.0f32; NR]; MR];
    g.throughput(Throughput::Elements((KC * MR * NR) as u64));
    g.bench_function("microkernel/kc256", |bch| {
        bch.iter(|| {
            simd::microkernel(tier, apan.data(), bpan.data(), KC, &mut acc);
            black_box(acc[0][0])
        })
    });
    const STEPS: usize = 1024;
    g.throughput(Throughput::Elements(simd::fma_peak(tier, STEPS).0 as u64));
    g.bench_function("fma_peak", |bch| {
        bch.iter(|| black_box(simd::fma_peak(tier, black_box(STEPS))))
    });
    for &(m, k, n) in &[(32usize, 128usize, 128usize), (64, 576, 256)] {
        let a = Tensor::random([m, k], 1);
        let w = synthetic(n, k, NR);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        for (label, kind) in [
            ("prepacked", KernelKind::Auto),
            ("prepacked-scalar", KernelKind::Scalar),
        ] {
            let mut scratch = GemmScratch::default();
            scratch.set_kernel(simd::resolve(kind));
            let mut out = Tensor::zeros([m, n]);
            g.bench_function(BenchmarkId::new(label, format!("{m}x{k}x{n}")), |bch| {
                bch.iter(|| {
                    let act = ActivationKind::Linear;
                    gemm::dense_packed_into(&a, &w, None, act, 1, &mut out, &mut scratch);
                    black_box(out.data()[0])
                })
            });
        }
        let b_ = Tensor::random([k, n], 2);
        g.bench_with_input(
            BenchmarkId::new("naive", format!("{m}x{k}x{n}")),
            &(&a, &b_),
            |bch, (a, b_)| bch.iter(|| black_box(gemm::matmul_reference(a, b_))),
        );
    }
    g.finish();
    // Direct vs packed-GEMM convolution at a representative layer, far
    // above the executor's crossover (`gemm::select_conv_algo`).
    let x = Tensor::random([1, 32, 28, 28], 3);
    let w = Tensor::random([64, 32, 3, 3], 4);
    c.bench_function("conv_direct_32x28->64", |b| {
        b.iter(|| black_box(kernels::conv(&x, &w, None, [1; 3], [0, 1, 1], 1)))
    });
    let w = synthetic(64, 32 * 9, MR);
    let mut out = Tensor::zeros([1, 64, 28, 28]);
    let mut scratch = GemmScratch::default();
    c.bench_function("conv_prepacked_32x28->64", |b| {
        b.iter(|| {
            let epi = Epilogue::default();
            gemm::conv2d_packed_into(
                &x,
                &w,
                (3, 3),
                (1, 1),
                (1, 1),
                &epi,
                1,
                &mut out,
                &mut scratch,
            );
            black_box(out.data()[0])
        })
    });
}

fn bench_fused_conv(c: &mut Criterion) {
    // conv+bias → batch-norm → ReLU as the executor runs it unfused (the
    // packed conv with its bias, then batch-norm and ReLU in place) and
    // after the fusion pass (one packed conv whose epilogue applies all
    // three). Same arithmetic, same order; the fused step saves two sweeps
    // over the output.
    use edgebench_frameworks::passes;
    let mut b = GraphBuilder::new("conv-bn-relu");
    let input = b.input([1, 32, 28, 28]);
    let conv = b.conv2d(input, 64, (3, 3), (1, 1), (1, 1)).unwrap();
    let bn = b.batch_norm(conv).unwrap();
    let relu = b.activation(bn, ActivationKind::Relu).unwrap();
    let unfused = b.build(relu).unwrap();
    let fused = passes::fuse_conv_bn_act(&unfused).unwrap();
    let mut g = c.benchmark_group("fused_conv");
    let auto = KernelKind::Auto;
    bench_prepared(&mut g, "prepared-unfused_32x28->64".into(), &unfused, auto);
    bench_prepared(&mut g, "prepared-fused_32x28->64".into(), &fused, auto);
    g.finish();
}

fn bench_prepacked(c: &mut Criterion) {
    // The weight-bound shapes that motivate packing weights at prepare
    // time, on the executor's prepacked path: AlexNet fc6 (18432 → 4096,
    // 302 MB of weights) at batch 1 (the full-depth stream kernel) and
    // batch 4, and VGG-S-32's conv2d_10 (a 512 × 4608 weight matrix over
    // 2×2 = 4 output pixels). Throughput is weight bytes, so the rate
    // reads as the bandwidth the weights stream at; one intra-op thread.
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
    use edgebench_tensor::{GuardConfig, GuardedExecutor};
    // The integrity-guard overhead budget: batch-8 CifarNet through the
    // plain prepared executor vs the same executor wrapped in
    // GuardedExecutor at its default cadence (a weight scrub every 4th
    // inference plus per-node activation envelopes every inference). Both
    // write into a kept output tensor, so neither allocates per call. The
    // defended run must stay within 3% of the bare run.
    let graph = Model::CifarNet.build().with_batch(8).unwrap();
    let dims = graph
        .node(graph.input_ids()[0])
        .output_shape()
        .dims()
        .to_vec();
    let x = Tensor::random(dims.clone(), 7);
    let mut out = Tensor::zeros([0]);
    let mut g = c.benchmark_group("guards");
    g.sample_size(20);
    g.bench_function("cifarnet_b8_bare", |b| {
        let exec = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        b.iter(|| {
            let res = exec.run_into(&dims, x.data(), &mut out, &mut |_, _| Ok(()));
            res.unwrap();
            black_box(out.data()[0])
        })
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
        guarded.calibrate(&calib).expect("calibrate");
        b.iter(|| {
            guarded.run(&x, &mut out, &mut |_, _, _| {}).unwrap();
            black_box(out.data()[0])
        })
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
    bench_pool,
    bench_dense,
    bench_elementwise,
    bench_precision
);
criterion_main!(benches);
