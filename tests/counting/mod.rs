//! A counting global allocator for the allocation tests. It records every
//! allocation the process makes while a counted closure runs; the counter
//! is process-wide, so each test binary that uses it holds a single test.

use edgebench_models::Model;
use edgebench_tensor::{Executor, Precision, PreparedExecutor, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations of at least this many bytes count as large.
pub const LARGE: usize = 4096;

/// How many allocation sizes a count keeps, in order; later ones are
/// counted but not kept.
const KEPT: usize = 1024;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; KEPT] = [const { AtomicUsize::new(0) }; KEPT];

impl Counting {
    fn record(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let i = ALLOCS.fetch_add(1, Ordering::Relaxed);
            LARGEST.fetch_max(size, Ordering::Relaxed);
            if let Some(slot) = SIZES.get(i) {
                slot.store(size, Ordering::Relaxed);
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

/// The allocations one counted closure made.
#[derive(Debug)]
pub struct Count {
    /// How many there were.
    pub allocs: usize,
    /// The largest, in bytes.
    pub largest: usize,
    /// The size in bytes of each, in order (the first [`KEPT`] only).
    pub sizes: Vec<usize>,
}

/// Runs `f`, counting the allocations the process makes meanwhile.
pub fn count(f: impl FnOnce()) -> Count {
    ALLOCS.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let sizes = SIZES[..allocs.min(KEPT)]
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    let largest = LARGEST.load(Ordering::Relaxed);
    Count {
        allocs,
        largest,
        sizes,
    }
}

/// Warm-up runs before any run is counted.
pub const WARM: usize = 3;

/// Prepares `model` at `batch`, `precision` (weight seed 1) and `threads`
/// intra-op threads and hands it to `f` with an input.
pub fn with_model<R>(
    model: Model,
    batch: usize,
    precision: Precision,
    threads: usize,
    f: impl FnOnce(PreparedExecutor<'_>, &Tensor) -> R,
) -> R {
    let graph = model.build().with_batch(batch).expect("rebatch");
    let dims = graph.node(graph.input_ids()[0]).output_shape().dims();
    let x = Tensor::random(dims.to_vec(), 7);
    let exec = Executor::new(&graph)
        .with_seed(1)
        .with_precision(precision)
        .with_intra_op_threads(threads)
        .prepare()
        .expect("prepare");
    f(exec, &x)
}

/// Calls `run` [`WARM`] times, then `runs` times more, counting each of
/// those on its own.
pub fn counted(runs: usize, mut run: impl FnMut()) -> Vec<Count> {
    for _ in 0..WARM {
        run();
    }
    let mut counts = Vec::with_capacity(runs);
    for _ in 0..runs {
        counts.push(count(&mut run));
    }
    counts
}

/// Runs `exec` on `x` through `run_into`, into one output tensor, as
/// [`counted`] does.
pub fn counted_runs(exec: &PreparedExecutor<'_>, x: &Tensor, runs: usize) -> Vec<Count> {
    let mut out = Tensor::zeros([0]);
    counted(runs, || {
        let dims = x.shape().dims();
        let res = exec.run_into(dims, x.data(), &mut out, &mut |_, _| Ok(()));
        res.expect("run");
    })
}

/// Asserts that no run of `counts` allocated [`LARGE`] bytes or more and,
/// at one thread, that every run made as many allocations as the first,
/// and prints the first run's count.
pub fn check_steady(label: &str, threads: usize, counts: &[Count]) {
    for (i, c) in counts.iter().enumerate() {
        assert!(
            c.largest < LARGE,
            "{label}: counted run {} allocated {} bytes (of {} allocations)",
            i + 1,
            c.largest,
            c.allocs
        );
        if threads == 1 {
            assert_eq!(
                c.allocs,
                counts[0].allocs,
                "{label}: counted run {} ({:?}) against the first ({:?})",
                i + 1,
                c.sizes,
                counts[0].sizes
            );
        }
    }
    eprintln!(
        "{label}: {} counted runs, {} allocations in the first",
        counts.len(),
        counts[0].allocs
    );
    if threads == 1 {
        eprintln!("  their sizes in bytes: {:?}", counts[0].sizes);
    }
}
