//! A prepared executor's runs allocate no buffer, run after run.
//!
//! `Executor::prepare` fixes the buffer every activation is written to
//! and reserves those buffers, with one B-panel buffer per intra-op worker
//! for every GEMM convolution, so a warm run through `run_into` may only
//! make small allocations (the GEMM drivers' task lists and, on two
//! threads, the workers). This tier-1 check counts CifarNet at 1 and 2
//! threads over 40 runs (twice its 15 steps, plus 10): an executor that
//! lost one buffer per run would allocate a fresh one from about run 14.
//! At one thread it also counts 40 guarded runs, which must make exactly
//! the allocations of a plain `run_into`.
//! `tests/allocations_long.rs` counts nine configurations in release.

mod counting;

use counting::{check_steady, counted, counted_runs, with_model};
use edgebench_models::Model;
use edgebench_tensor::{GuardConfig, GuardedExecutor, Precision, Tensor};

#[test]
fn steady_state_runs_make_no_large_allocation() {
    for threads in [1, 2] {
        with_model(Model::CifarNet, 1, Precision::F32, threads, |exec, x| {
            let label = format!("CifarNet at {threads} thread(s)");
            let counts = counted_runs(&exec, x, 40);
            check_steady(&label, threads, &counts);
            if threads > 1 {
                return;
            }
            // A guarded run scrubs the weights every 4th run and checks
            // every node's output against its envelope, and writes into
            // the caller's tensor as `run_into` does: it allocates nothing
            // more than a plain run.
            let mut guarded = GuardedExecutor::new(exec, GuardConfig::default());
            guarded.calibrate([x]).expect("calibrate");
            let mut out = Tensor::zeros([0]);
            let guarded_counts = counted(40, || {
                let res = guarded.run(x, &mut out, &mut |_, _, _| {});
                res.expect("guarded run");
            });
            let label = format!("guarded {label}");
            check_steady(&label, threads, &guarded_counts);
            for (i, c) in guarded_counts.iter().enumerate() {
                assert_eq!(
                    (c.allocs, &c.sizes),
                    (counts[0].allocs, &counts[0].sizes),
                    "{label}: counted run {} against run_into",
                    i + 1
                );
            }
            assert_eq!(
                guarded.stats().scrubs,
                11,
                "{label}: scrubbed every 4th run"
            );
        });
    }
}
