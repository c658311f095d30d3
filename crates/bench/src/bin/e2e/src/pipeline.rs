//! `pipeline-*`: the runtime's capture → preprocess → inference → gateway
//! stages as threads over shared rings, fed a 60 Hz Poisson trace with hit
//! rate 0.1 and run free rather than paced in wall time.

use crate::infer::{self, ClassTotals};
use crate::trace::Tracer;
use crate::{host, stats, Metric, Outcome, OUT_DIR};
use edgebench::runtime::ring::{DropPolicy, FrameBuf, FrameMeta, Pop, Reserve, RingBuffer};
use edgebench::runtime::shm::SharedMap;
use edgebench::runtime::{
    run_replay, ExecMode, RuntimeConfig, RuntimeError, RuntimeReport, SuperviseConfig,
};
use edgebench::serve::{TraceFile, Traffic};
use edgebench_devices::faults::stream_seed;
use edgebench_devices::Device;
use edgebench_models::Model;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{KernelKind, Precision};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub exec: ExecMode,
    /// Frames per timed `run_replay`.
    pub frames: usize,
    pub supervise: bool,
    /// One-frame set-up runs; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Compute dominates: f16 lowering and the one-thread executor. One-frame
/// runs spread from 0.3 to 0.45 s within a run, so set-up repeats 9 times.
pub const REAL: Spec = Spec {
    exec: ExecMode::Real,
    frames: 50,
    supervise: false,
    setup_reps: 9,
};

/// No compute: ring hand-off, wakeups, checksums, the frame ledger and
/// heartbeats are the whole cost. A one-frame run takes about 7 ms when
/// the hang monitor starts its 5 ms poll before the frame is through, and
/// about 2 ms when it starts after; set-up repeats 25 times so the median
/// follows the common case.
pub const MODELED: Spec = Spec {
    exec: ExecMode::Model,
    frames: 20_000,
    supervise: true,
    setup_reps: 25,
};

const NET: Model = Model::VggS32;
const DEVICE: Device = Device::JetsonNano;
/// The precision of the Nano's full ladder rung, which `ExecMode::Real`
/// executes.
const FULL_RUNG: Precision = Precision::F16;
const RATE_HZ: f64 = 60.0;
const HIT_RATE: f64 = 0.1;
const MIN_RUNS: usize = 3;
/// Alternating untraced and traced calls of the executor probe.
const EXEC_PROBE_PAIRS: usize = 20;
/// A CifarNet-sized frame: 1×3×32×32 f32.
const RING_ELEMS: usize = 3072;
const RING_BATCH: usize = 1000;
const RING_BATCHES: usize = 10;

/// Rings and the control block live in files here, so a run writes only
/// under its working directory.
fn shm_dir() -> PathBuf {
    PathBuf::from(OUT_DIR).join("shm")
}

fn config(spec: &Spec, seed: u64) -> RuntimeConfig {
    let cfg = RuntimeConfig::new(NET, DEVICE)
        .with_seed(stream_seed(seed, &["e2e", "runtime"]))
        .with_exec(spec.exec)
        .with_shm_dir(shm_dir());
    if spec.supervise {
        cfg.with_supervise(SuperviseConfig::default())
    } else {
        cfg
    }
}

fn frames(n: usize, seed: u64) -> TraceFile {
    let traffic = Traffic::poisson(RATE_HZ, stream_seed(seed, &["e2e", "frames"]));
    TraceFile::generate(&traffic, n, HIT_RATE, stream_seed(seed, &["e2e", "hits"]))
        .expect("positive rate and frame count")
}

/// Counts one run's offered frames, and as failed either all of them when
/// an invariant broke or those not delivered. Invariants: conservation,
/// no duplicate or out-of-order delivery, no degraded stage, and for real
/// execution a non-zero output digest equal to the first run's.
fn count_frames(
    out: &mut Outcome,
    result: Result<RuntimeReport, RuntimeError>,
    offered: usize,
    digest: Option<&mut Option<u64>>,
) -> Option<RuntimeReport> {
    let n = offered as u64;
    out.attempted += n;
    let Ok(r) = result else {
        out.failed += n;
        return None;
    };
    let mut ok = r.offered == n
        && r.completed + r.dropped + r.corrupted + r.lost == n
        && r.duplicates == 0
        && r.order_violations == 0
        && r.degraded.is_empty();
    if let Some(first) = digest {
        ok &= r.output_digest != 0 && *first.get_or_insert(r.output_digest) == r.output_digest;
    }
    out.failed += if ok { n - r.completed } else { n };
    Some(r)
}

pub fn run(name: &str, spec: Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(shm_dir()).expect("create the ring directory");
    let cfg = config(&spec, seed);
    let real = spec.exec == ExecMode::Real;
    let (one, many) = (frames(1, seed), frames(spec.frames, seed));

    let (mut setup_s, mut setup_digest) = (Vec::new(), None);
    for _ in 0..spec.setup_reps {
        let t = Instant::now();
        let r = run_replay(&cfg, &one);
        setup_s.push(t.elapsed().as_secs_f64());
        count_frames(&mut out, r, 1, real.then_some(&mut setup_digest));
    }

    let mut tracer = Tracer::new();
    let (mut plain_s, mut traced_s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut digest, mut last, mut runs) = (None, None, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while runs < MIN_RUNS * (1 + usize::from(traced)) || Instant::now() < deadline {
        let t0 = tracer.now_ns();
        let r = run_replay(&cfg, &many);
        let t1 = tracer.now_ns();
        let secs = (t1 - t0) as f64 / 1e9;
        last = count_frames(&mut out, r, spec.frames, real.then_some(&mut digest)).or(last);
        if traced && runs % 2 == 0 {
            tracer.record("run_replay", None, runs as u64, t0, t1);
            traced_s.push(secs);
        } else {
            plain_s.push(secs);
            rates.push(spec.frames as f64 / secs);
        }
        runs += 1;
    }
    let _ = std::fs::remove_dir(shm_dir());

    if !traced {
        out.set(
            "latency_ms",
            Metric::of(&plain_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        );
        out.set("items_per_s", Metric::of(&rates));
        out.set("setup_s", Metric::of(&setup_s));
        return out;
    }

    out.set("peak_rss_mib", Metric::single(host::peak_rss_mib()));
    // T(1) is the fixed cost; the rest of T(N) is spread over N − 1 frames.
    let fixed_s = stats::median(&setup_s);
    let per_frame_us = (stats::median(&plain_s) - fixed_s) / (spec.frames - 1) as f64 * 1e6;
    let exec_us = if real {
        exec_probe(cfg.seed, seed, &mut tracer, &mut out)
    } else {
        0.0
    };
    out.set("runtime.fixed_ms", Metric::single(fixed_s * 1e3));
    out.set("runtime.us_per_frame", Metric::single(per_frame_us));
    out.set("runtime.exec_us_per_frame", Metric::single(exec_us));
    out.set(
        "runtime.overhead_us_per_frame",
        Metric::single(per_frame_us - exec_us),
    );
    let ring_us = ring_probe(&mut out);
    out.set("ring.roundtrip_us", Metric::single(ring_us));
    if let Some(r) = &last {
        for (k, v) in [
            ("completed", r.completed),
            ("dropped", r.dropped),
            ("lost", r.lost),
            ("duplicates", r.duplicates),
            ("order_violations", r.order_violations),
            ("restarts", r.restarts),
        ] {
            out.set(format!("runtime.{k}"), Metric::single(v as f64));
        }
    }
    out.set(
        "trace_overhead_pct",
        Metric::single(100.0 * (stats::median(&traced_s) / stats::median(&plain_s) - 1.0)),
    );
    crate::write_spans(name, &tracer);
    out
}

/// The inference stage's compute outside the pipeline: the same model,
/// seed and precision through `PreparedExecutor::run` on one thread.
/// Traced calls give the per-class metrics (time per frame); untraced
/// calls give the returned median, microseconds.
fn exec_probe(runtime_seed: u64, seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    let g = NET.build();
    let x = infer::input_for(&g, stream_seed(seed, &["e2e", "probe-input"]));
    let want = infer::reference(&g, runtime_seed, FULL_RUNG, &x);
    let exec = infer::prepare(&g, runtime_seed, FULL_RUNG, 1, KernelKind::Auto);
    let table = infer::node_table(&g);
    let (mut totals, mut plain_us, mut nodes) = (ClassTotals::default(), Vec::new(), Vec::new());
    for k in 0..EXEC_PROBE_PAIRS {
        plain_us.push(1e6 * infer::timed_call(out, want, || exec.run(&x)));
        nodes.clear();
        infer::traced_call(out, tracer, &mut nodes, &exec, &g, &x, want, None, k as u64);
        // Node spans have no children: their self time is their duration.
        for &(id, node) in &nodes {
            totals.add(&table, node, tracer.duration_ns(id));
        }
    }
    totals.report(EXEC_PROBE_PAIRS, out);
    stats::median(&plain_us)
}

/// Reserve, commit and pop of one frame through a ring on one thread,
/// microseconds per round trip (median over batches).
fn ring_probe(out: &mut Outcome) -> f64 {
    let path = shm_dir().join(format!("ring-probe-{}", std::process::id()));
    std::fs::create_dir_all(shm_dir()).expect("create the ring directory");
    let map = SharedMap::create(&path, RingBuffer::required_bytes(8, RING_ELEMS))
        .expect("map the probe ring");
    let ring = RingBuffer::create(map, 8, RING_ELEMS).expect("probe ring");
    ring.map().unlink();
    let _ = std::fs::remove_dir(shm_dir());
    let payload: Vec<f32> = (0..RING_ELEMS).map(|i| i as f32).collect();
    let mut meta = FrameMeta {
        payload_len: RING_ELEMS as u32,
        checksum: checksum_f32(&payload),
        ..FrameMeta::default()
    };
    let mut buf = FrameBuf::for_ring(&ring);
    let (mut ok, mut per_us) = (true, Vec::new());
    for b in 0..RING_BATCHES {
        let t = Instant::now();
        for k in 0..RING_BATCH {
            let deadline = Instant::now() + Duration::from_millis(100);
            meta.frame_id = (b * RING_BATCH + k) as u64;
            match ring.reserve(DropPolicy::Block, deadline) {
                Reserve::Slot(mut slot) => {
                    slot.payload_mut()[..RING_ELEMS].copy_from_slice(&payload);
                    slot.commit(&meta);
                }
                Reserve::TimedOut => ok = false,
            }
            ok &= ring.pop_into(&mut buf, deadline, |_| 0) == Pop::Popped
                && buf.meta.frame_id == meta.frame_id;
        }
        per_us.push(t.elapsed().as_secs_f64() * 1e6 / RING_BATCH as f64);
        ok &= buf.checksum_ok();
    }
    out.count(!ok);
    stats::median(&per_us)
}
