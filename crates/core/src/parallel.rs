//! A minimal bounded worker pool on `std::thread::scope`.
//!
//! The characterization grid (models × frameworks × devices × batch sizes)
//! is embarrassingly parallel: every cell is an independent pure function
//! of its coordinates. This module gives [`Sweep`](crate::sweep::Sweep),
//! the experiment registry and the CLI one shared primitive —
//! [`run_indexed`] — that fans a slice of inputs over `jobs` worker
//! threads and returns results **in input order**, so a parallel run is
//! byte-identical to a serial one. No dependencies beyond `std`.
//!
//! Scheduling is delegated to [`edgebench_tensor::pool`] — the same
//! intra-op worker pool the tensor backend uses for GEMM row-panels — so
//! the workspace has exactly one pool implementation. Inter-op (`--jobs`,
//! this module) and intra-op (`--threads`, the tensor executor)
//! parallelism compose: each is deterministic, so their product is too.
//!
//! # Examples
//!
//! ```
//! use edgebench::parallel::run_indexed;
//!
//! let squares = run_indexed(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

/// Resolves a `--jobs`-style request to a concrete worker count.
///
/// `0` means "ask the OS" ([`std::thread::available_parallelism`], falling
/// back to 1 when unavailable); any other value is used as given.
pub(crate) fn effective_jobs(requested: usize) -> usize {
    edgebench_tensor::pool::effective_threads(requested)
}

/// Applies `f` to every element of `inputs` using up to `jobs` worker
/// threads, returning the outputs in input order.
///
/// `f` receives `(index, &input)` and must be pure with respect to result
/// ordering: outputs are placed by index, so the result is identical to
/// `inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect()` regardless
/// of scheduling. Work is distributed dynamically (an atomic cursor), so
/// uneven per-item cost still load-balances.
///
/// `jobs == 0` resolves via `effective_jobs`; `jobs == 1` (or a single
/// input) runs inline on the caller's thread with no pool at all.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn run_indexed<I, O, F>(inputs: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let jobs = effective_jobs(jobs).min(inputs.len().max(1));
    if jobs <= 1 {
        return inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let mut slots: Vec<Option<O>> = Vec::with_capacity(inputs.len());
    slots.resize_with(inputs.len(), || None);
    let tasks: Vec<(usize, &I, &mut Option<O>)> = inputs
        .iter()
        .enumerate()
        .zip(slots.iter_mut())
        .map(|((i, x), slot)| (i, x, slot))
        .collect();
    let mut scratch = vec![(); jobs];
    edgebench_tensor::pool::run_tasks(tasks, &mut scratch, |(), (i, x, slot)| {
        *slot = Some(f(i, x));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("worker filled every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = run_indexed(&inputs, 8, |i, &x| {
            // Stagger completion so later items often finish first.
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let inputs: Vec<u64> = (0..257).collect();
        let serial = run_indexed(&inputs, 1, |i, &x| (i as u64).wrapping_mul(x) ^ 0xabcd);
        let parallel = run_indexed(&inputs, 7, |i, &x| (i as u64).wrapping_mul(x) ^ 0xabcd);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
        // And the pool still produces ordered results under it.
        let inputs: Vec<usize> = (0..16).collect();
        let out = run_indexed(&inputs, 0, |_, &x| x + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        // With jobs=1 the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let out = run_indexed(&[(); 4], 1, |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = run_indexed(&[10, 20], 64, |_, &x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }
}
