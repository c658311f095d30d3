//! Steady-state inference allocates no large buffer.
//!
//! `Executor::prepare` reserves everything a run writes in bulk — the
//! activation arena and one B-panel buffer per intra-op worker for every
//! GEMM convolution — so once warm, a run may only make small allocations
//! (task lists, thread handles). A counting global allocator records every
//! allocation of this process while the measured runs execute; the counter
//! is process-wide, which is why this file holds a single test.

use edgebench_models::Model;
use edgebench_tensor::{Executor, Precision, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations of at least this many bytes count as large.
const LARGE: usize = 4096;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn record(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if size >= LARGE {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
                LARGEST.fetch_max(size, Ordering::Relaxed);
            }
        }
    }
}

// SAFETY: every call forwards to the system allocator with the caller's
// layout and pointer unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::record(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::record(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_runs_make_no_large_allocation() {
    let configs = [
        (Model::CifarNet, 1, Precision::F32, 1),
        (Model::CifarNet, 1, Precision::F32, 2),
        (Model::MobileNetV2, 1, Precision::F32, 1),
        (Model::MobileNetV2, 1, Precision::F32, 2),
        (Model::ResNet18, 1, Precision::F32, 1),
        (Model::ResNet18, 1, Precision::F32, 2),
        (Model::AlexNet, 1, Precision::F32, 1),
        (Model::AlexNet, 1, Precision::F32, 2),
        (Model::ResNet18, 4, Precision::Int8, 2),
    ];
    const WARM: usize = 3;
    const RUNS: usize = 10;
    for (model, batch, precision, threads) in configs {
        let graph = model.build().with_batch(batch).expect("rebatch");
        let dims = graph
            .node(graph.input_ids()[0])
            .output_shape()
            .dims()
            .to_vec();
        let x = Tensor::random(dims, 7);
        let exec = Executor::new(&graph)
            .with_seed(1)
            .with_precision(precision)
            .with_intra_op_threads(threads)
            .prepare()
            .expect("prepare");
        for _ in 0..WARM {
            drop(exec.run(&x).expect("warm-up run"));
        }
        ALLOCS.store(0, Ordering::Relaxed);
        LARGE_ALLOCS.store(0, Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        for _ in 0..RUNS {
            drop(exec.run(&x).expect("steady-state run"));
        }
        COUNTING.store(false, Ordering::Relaxed);
        let (all, large) = (
            ALLOCS.load(Ordering::Relaxed),
            LARGE_ALLOCS.load(Ordering::Relaxed),
        );
        eprintln!(
            "{model:?} batch {batch} {precision:?} {threads} thread(s): {} allocations per run",
            all / RUNS
        );
        assert_eq!(
            large,
            0,
            "{model:?} batch {batch} {precision:?} at {threads} thread(s) made {large} \
             allocations of {LARGE} bytes or more in {RUNS} runs (largest {} bytes)",
            LARGEST.load(Ordering::Relaxed)
        );
    }
}
