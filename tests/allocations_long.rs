//! A prepared executor's runs allocate no buffer, run after run, on four
//! models at 1 and 2 threads and on batch-4 int8 ResNet-18 at 2 threads.
//!
//! Each configuration counts twice its step count plus ten runs through
//! `run_into` after the warm-up, so every buffer the plan holds is
//! written many times over. Too slow for a debug build: run it with
//! `cargo test --release --offline --test allocations_long -- --ignored`.
//! The counter is process-wide, so this binary holds a single test.

mod counting;

use counting::{check_steady, count, counted_runs, with_model};
use edgebench_models::Model;
use edgebench_tensor::Precision;

#[test]
#[ignore = "release only: hundreds of runs of four models"]
fn run_into_allocates_no_buffer_on_any_config() {
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
    for (model, batch, precision, threads) in configs {
        with_model(model, batch, precision, threads, |exec, x| {
            let exec = &exec;
            let (y, stats) = exec.run_observed(x, &mut |_, _| Ok(())).expect("run");
            let label = format!("{model:?} batch {batch} {precision:?} {threads} thread(s)");
            let counts = counted_runs(exec, x, 2 * stats.ops_executed + 10);
            check_steady(&label, threads, &counts);
            if threads > 1 {
                return;
            }
            // `run` allocates what it returns, and nothing else more: the
            // output's values, at exactly their bytes, and its dims.
            let run = count(|| drop(exec.run(x).expect("run")));
            let mut extra = run.sizes.clone();
            for size in &counts[0].sizes {
                let at = extra.iter().position(|s| s == size);
                extra.swap_remove(at.unwrap_or_else(|| panic!("{label}: run skipped {size}")));
            }
            extra.sort_unstable();
            let dims = y.shape().rank() * std::mem::size_of::<usize>();
            let values = y.len() * std::mem::size_of::<f32>();
            let mut want = vec![dims, values];
            want.sort_unstable();
            assert_eq!(extra, want, "{label}: run against run_into");
        });
    }
}
