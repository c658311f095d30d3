//! A prepared executor's runs allocate no buffer, run after run.
//!
//! `Executor::prepare` fixes the buffer every activation is written to
//! and reserves those buffers, with one B-panel buffer per intra-op worker
//! for every GEMM convolution, so a warm run through `run_into` may only
//! make small allocations (the GEMM drivers' task lists and, on two
//! threads, the workers). This tier-1 check counts CifarNet at 1 and 2
//! threads over 40 runs (twice its 15 steps, plus 10): an executor that
//! lost one buffer per run would allocate a fresh one from about run 14.
//! `tests/allocations_long.rs` counts nine configurations in release.

mod counting;

use counting::{check_steady, counted_runs, with_model};
use edgebench_models::Model;
use edgebench_tensor::Precision;

#[test]
fn steady_state_runs_make_no_large_allocation() {
    for threads in [1, 2] {
        with_model(Model::CifarNet, 1, Precision::F32, threads, |exec, x| {
            let counts = counted_runs(exec, x, 40);
            check_steady(
                &format!("CifarNet at {threads} thread(s)"),
                threads,
                &counts,
            );
        });
    }
}
