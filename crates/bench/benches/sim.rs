//! Event-engine benches: events per second through the serving
//! simulator on the calendar queue vs the binary-heap reference, and raw
//! queue churn on the two structures alone.
//!
//! The full-simulation pairs share the identical zero-allocation sim
//! body, so their gap is purely the event queue (plus the calendar
//! queue's lazy arrival merge, which never materializes the trace as
//! queued events). The churn pairs strip the sim away entirely: build
//! the queue from a trace, then drain it in timestamp order — the
//! binary heap pays `O(log n)` cache-missing sift per operation at
//! million-event populations while the calendar queue stays `O(1)`
//! bucket arithmetic.
//!
//! Run with `cargo bench --offline -p edgebench-bench --bench sim`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgebench::serve::engine::{CalendarQueue, EventKind, EventQueue, HeapQueue};
use edgebench::serve::{Fleet, ReplicaSpec, ServeConfig, Traffic};
use edgebench_devices::Device;
use edgebench_models::Model;
use std::hint::black_box;

fn nano_fleet(n: usize) -> Fleet {
    let spec = ReplicaSpec::best_for(Model::MobileNetV2, Device::JetsonNano)
        .expect("mobilenet deploys on the nano");
    Fleet::new(vec![spec; n]).unwrap()
}

/// Requests per second the whole simulator sustains, per queue, at
/// 10k and 1M requests. Arrivals are pre-materialized so the trace
/// generator stays out of the measurement.
fn bench_sim_events(c: &mut Criterion) {
    fn run_on<Q: EventQueue>(fleet: &Fleet, arrive_s: &[f64], cfg: &ServeConfig) {
        black_box(fleet.serve_arrivals_on::<Q>(arrive_s, cfg).unwrap());
    }
    let fleet = nano_fleet(4);
    let cfg = ServeConfig::new(100.0);
    let mut g = c.benchmark_group("sim_events");
    for &n in &[10_000usize, 1_000_000] {
        let arrive_s = Traffic::poisson(4000.0, 7)
            .timestamps(n)
            .expect("positive rate");
        g.throughput(Throughput::Elements(n as u64));
        g.sample_size(10);
        g.bench_with_input(
            BenchmarkId::new("calendar", n),
            &arrive_s,
            |b, arrive_s: &Vec<f64>| b.iter(|| run_on::<CalendarQueue>(&fleet, arrive_s, &cfg)),
        );
        g.bench_with_input(
            BenchmarkId::new("heap", n),
            &arrive_s,
            |b, arrive_s: &Vec<f64>| b.iter(|| run_on::<HeapQueue>(&fleet, arrive_s, &cfg)),
        );
    }
    g.finish();
}

/// Arrival timestamps spread over a span: one event per request, plus
/// one dynamic completion each — the sim's steady-state event mix.
fn arrivals(n: usize, span_ns: u64) -> Vec<u64> {
    (0..n).map(|i| i as u64 * (span_ns / n as u64)).collect()
}

/// Builds `Q` from the trace, then pops every event; each arrival
/// spawns one completion `SVC_NS` out. Returns the events popped.
fn sweep<Q: EventQueue>(arrive_ns: &[u64]) -> usize {
    const SVC_NS: u64 = 5_000_000;
    let mut q = Q::from_trace(arrive_ns);
    let mut popped = 0usize;
    while let Some(ev) = q.pop(arrive_ns) {
        if let EventKind::Arrival(i) = ev.kind {
            q.push(ev.time_ns + SVC_NS, EventKind::Flush(i));
        }
        popped += 1;
        black_box(ev);
    }
    popped
}

/// The trace sweep the two queue designs actually disagree on: the
/// heap materializes all `n` arrivals as queued events up front (the
/// seed design), so every operation sifts a million-entry heap; the
/// calendar queue merges the sorted arrival array lazily, so it only
/// ever holds the in-flight completions. Each arrival spawns one
/// completion 5 ms out, popped in order — 2n pops total, no sim body.
fn bench_trace_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_sweep");
    for &n in &[10_000usize, 1_000_000] {
        let arrive_ns = arrivals(n, n as u64 * 250_000);
        g.throughput(Throughput::Elements(2 * n as u64));
        g.sample_size(10);
        g.bench_with_input(
            BenchmarkId::new("calendar_lazy_merge", n),
            &arrive_ns,
            |b, arrive_ns: &Vec<u64>| {
                b.iter(|| assert_eq!(sweep::<CalendarQueue>(arrive_ns), 2 * n))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("heap_materialized", n),
            &arrive_ns,
            |b, arrive_ns: &Vec<u64>| b.iter(|| assert_eq!(sweep::<HeapQueue>(arrive_ns), 2 * n)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sim_events, bench_trace_sweep);
criterion_main!(benches);
