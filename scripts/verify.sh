#!/usr/bin/env bash
# Tier-1 verification: build, test, lint — all offline (the build
# environment has no registry access; every dependency is vendored).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The determinism contracts, named explicitly: neither intra-op threads
# nor the SIMD kernel choice may change a single output byte, at f32, f16
# and int8, nor the chain digest of every node's output on the prepared
# executor; a chain mismatch names the first node that differs (the rest
# of the suite runs these too, but a regression here should fail loudly
# under its own name).
cargo test -q --offline --test numerical_equivalence \
    execution_is_byte_identical_across_intra_op_threads
cargo test -q --offline --test numerical_equivalence \
    simd_and_scalar_kernels_are_bitwise_identical
# Output bytes pinned across commits: CifarNet, an LSTM, a GRU, a fused
# graph and two op-coverage graphs, at f32, f16 and int8 and at sparsity 0
# and 0.5, must keep their recorded output digests, and the chain digests
# of every node's output, on the auto tier at 1 and 2 threads and on the
# scalar tier.
cargo test -q --offline --test golden_outputs
# The same per-node identity on the end-to-end benchmark's own models
# (CifarNet, MobileNet-v2, ResNet-18, AlexNet, VGG-S-32 at batch 1 and 4,
# f32/f16/int8, sparsity 0 and 0.5): every node's output digest must agree
# across the auto tier at 1 and 2 threads and the scalar tier, and a
# mismatch names the first node that differs. It prints one output and
# chain digest per configuration, to diff against a parent commit's run
# (release, about 75-110 s).
cargo test -q --release --offline --test model_chains -- --ignored
# Direct convolution runs on the same tier: for depthwise layers the
# AVX-512 kernel and the portable loop must equal the scalar reference, the
# one direct convolution loop, bit for bit on a grid of widths, kernels,
# strides, paddings, multipliers and biases, with ±Inf and NaN weights at
# border taps, and on random layers through the executor, each run as a
# DepthwiseConv2d and as the grouped Conv2d with one input channel per group.
cargo test -q --offline -p edgebench-tensor \
    depthwise_tiers_are_bitwise_identical_to_the_reference
cargo test -q --offline --test numerical_equivalence \
    simd_matches_scalar_bitwise_on_random_depthwise_geometry
# The lowering to the run precision runs on the same tier: f16 rounding and
# int8 fake quantization on every tier the host has must equal the scalar
# reference bit for bit on slices of length 0–70 holding NaN payloads, ±Inf,
# ±0.0, f32 subnormals, binary16's subnormal range, values past 65504, exact
# int8 half-step ties and NaN alone; and the f16 rounding must on every one
# of the 2^32 f32 bit patterns (release, about 10 s).
cargo test -q --offline -p edgebench-tensor \
    lowering_tiers_are_bitwise_identical_to_the_reference
cargo test -q --release --offline -p edgebench-tensor --lib \
    f16_tiers_match_the_reference_on_every_f32_pattern -- --ignored
# Weights packed once at prepare time: prepacked conv and dense operands on
# ragged shapes must equal the naive reference bit for bit on every kernel
# tier, forced blocking (kc = 1 included) and 1, 2 and 8 threads, and the
# SDC layer must address packed weights by their natural (logical) index.
# The property test draws at most MR + 1 dense rows and up to three NR
# panels of units; the blocked-dense grid holds layers of MR + 1 to 130
# rows, up to 17 MR-row panels, to the same reference on the same tiers,
# blockings and threads.
cargo test -q --offline -p edgebench-tensor \
    prepacked_operands_are_bitwise_identical_to_reference
cargo test -q --offline -p edgebench-tensor \
    blocked_dense_is_bitwise_identical_to_reference_on_every_tier_blocking_and_thread_count
cargo test -q --offline --test sdc \
    packed_weight_flips_address_logical_elements
# A tile whose valid columns fit in its first 16 lanes computes only those:
# that half must equal the full 8x32 tile and the plain reference loop bit
# for bit on every host tier, at every valid width 1..=NR, from a zero tile
# and from a reloaded C tile.
cargo test -q --offline -p edgebench-tensor \
    half_tile_is_bitwise_identical_to_the_full_tile_and_the_reference
# A convolution packs its B panels straight from the image: the packer must
# write exactly the bytes of packing the im2col matrix, as bits, over
# kernels 1×1 to 11×11 and one-sided, strides 1–4, paddings 0–3, output
# widths around NR and its 16-lane half, and blocks starting mid-window and
# mid-row, on inputs with NaN payloads, ±Inf and −0.0.
cargo test -q --offline -p edgebench-tensor \
    image_packer_is_bitwise_identical_to_packing_the_im2col_matrix
# Buffers fixed at prepare: a warm prepared executor allocates nothing of
# 4 KiB or more per run through `run_into`, run after run (every activation
# buffer and per-worker packing buffer is reserved at prepare), and at one
# thread every run makes the same allocations; `run` adds only the tensor
# it returns. The guarded allocation check rides in the same counted test
# (the counter is process-wide): at one thread, 40 warm GuardedExecutor
# runs (a weight scrub every 4th run, envelope checks on every node) into
# a kept output tensor must make exactly the allocations of a plain
# `run_into`. Counted with a counting allocator after 3 warm-up runs: on
# CifarNet at 1 and 2 threads over 40 runs (about 2 s in debug), then in
# release on four models at 1 and 2 threads and on batch-4 int8 ResNet-18,
# each over twice its step count plus 10 runs (about 75 s). A run that
# finds the arena in use (from an observer, or a second thread) runs on an
# arena of its own and repeats a serial run's bytes.
cargo test -q --offline --test allocations \
    steady_state_runs_make_no_large_allocation
cargo test -q --release --offline --test allocations_long -- --ignored
cargo test -q --offline -p edgebench-tensor --lib \
    runs_that_miss_the_shared_arena_repeat_a_serial_run
# The SDC defense contracts, named explicitly: every single-bit weight
# flip must be caught by the prepare-time checksums, and guard verdicts
# must be byte-identical across thread counts, kernel tiers, and
# repeated seeded campaigns (run through `edgebench::sdc::run_campaign`,
# the campaign `infer --flip-rate` and `ext-sdc` run too).
cargo test -q --offline --test sdc \
    any_single_weight_bit_flip_is_caught
cargo test -q --offline --test sdc \
    guard_verdicts_are_identical_across_threads_and_kernels
cargo test -q --offline --test sdc \
    guarded_campaign_replays_byte_identically
# The zero-copy runtime contracts, named explicitly: the thread loopback
# must drain every frame in order and unlink every shm file, and replay at
# a fixed seed must be byte-identical (the rest of the suite runs these
# too, but a regression here should fail loudly under its own name).
cargo test -q --offline -p edgebench --test runtime \
    loopback_smoke_drains_in_order_and_cleans_up
cargo test -q --offline -p edgebench --test runtime \
    replay_report_is_byte_identical_across_runs
# The layout-identity contracts: four child processes must return the same
# report and event log as the thread loopback (plain and under chaos),
# `--procs --out` must write the report file, and an unsupervised kill must
# degrade only the killed stage in both layouts.
cargo test -q --offline -p edgebench --test runtime_mp \
    procs_report_matches_thread_loopback
cargo test -q --offline -p edgebench --test chaos \
    procs_and_threads_agree_under_chaos
cargo test -q --offline -p edgebench --test runtime_mp \
    procs_out_flag_writes_the_report
cargo test -q --offline -p edgebench --test runtime_mp \
    sigterm_of_middle_stage_degrades_gracefully
cargo test -q --offline -p edgebench --test chaos \
    unsupervised_kill_degrades_the_same_stage_in_both_layouts
# One failure policy: a run without supervision is a supervised run at
# restart budget 0, so the unsupervised kill@1:15 command replays one report
# in both layouts and an unsupervised hang degrades and conserves. A
# SIGTERMed supervised stage restarts over its still-open rings, and real
# execution beats once per node, so a long frame is never killed as a hang.
cargo test -q --offline -p edgebench --test chaos \
    unsupervised_kill_replays_one_report_in_both_layouts
cargo test -q --offline -p edgebench --test chaos \
    unsupervised_hang_degrades_and_conserves
cargo test -q --offline -p edgebench --test runtime_mp \
    sigterm_of_supervised_stage_restarts_and_conserves
cargo test -q --offline -p edgebench --test runtime_mp \
    supervised_real_exec_is_not_mistaken_for_a_hang
# The supervision contracts, named explicitly: a curated chaos campaign
# must recover every stage within its restart budget with at-most-once
# accounting, and any generated campaign must conserve frames and replay
# byte-identically.
cargo test -q --offline -p edgebench --test chaos \
    supervised_pipeline_recovers_within_restart_budget
cargo test -q --offline -p edgebench --test chaos \
    chaos_campaigns_conserve_and_replay_identically
# The experiment registry must cover every paper artifact (including the
# ext-sdc, ext-chaos, and ext-geo campaigns) and match the documented
# count (29).
cargo test -q --offline -p edgebench \
    registry_covers_every_paper_artifact
# The event-engine contracts, named explicitly: the calendar queue and
# the binary-heap reference (`HeapQueue`) must be byte-identical under the
# full resilience stack, simultaneous arrivals must tie-break FIFO
# deterministically, and the geo tier must be invariant to --jobs. At the
# queue level, the calendar queue's lazy arrival merge must pop what the
# heap pops over runs of same-instant arrivals with dynamic events pushed
# at arrival instants (an arrival wins the tie).
cargo test -q --offline -p edgebench --test engine_oracle \
    oracle_identity_holds_under_the_full_resilience_stack
cargo test -q --offline -p edgebench --test engine_oracle \
    simultaneous_arrivals_tie_break_fifo_deterministically
cargo test -q --offline -p edgebench --test engine_oracle \
    geo_tier_is_jobs_invariant
cargo test -q --offline -p edgebench --lib \
    arrival_merge_matches_the_heap_queue
# The CLI contracts, named explicitly: seeded argv mutations of every
# subcommand must parse to Ok or a typed CliError (never a panic), and
# the NaN / infinite / zero values the per-command parsers once accepted
# must be typed Invalid errors naming their flag.
cargo test -q --offline -p edgebench --bin edgebench-cli \
    cli_fuzz_never_panics
cargo test -q --offline -p edgebench --bin edgebench-cli \
    validation_holes_are_typed_invalid_errors
# Malformed input and counts no allocator can meet, named explicitly: a
# crafted trace file (a point count that wraps the length check, arrival
# times that decrease, 2k seeded byte mutations) is a typed Malformed
# error, a generated chaos plan is capped at its 4 x frames (stage, frame)
# slots, and request or replica counts no host can hold are typed errors,
# never an allocation abort.
cargo test -q --offline -p edgebench --lib \
    trace_decoder_rejects_wrapped_lengths_and_decreasing_times
cargo test -q --offline -p edgebench --lib \
    trace_decoder_never_panics_on_mutated_bytes
cargo test -q --offline -p edgebench-devices --lib \
    generated_chaos_plan_is_capped_at_stage_frame_slots
cargo test -q --offline -p edgebench --lib \
    huge_request_and_replica_counts_are_typed_errors
# A graph the executor cannot run (a second input node, a FusedConvBnAct
# around a pool) is a typed UnsupportedGraph error from prepare, never a
# panic mid-run. A runtime frame whose payload does not fill its dims (the
# slot read cuts it to what the ring holds) is a typed stage error, as
# permuted dims are.
cargo test -q --offline -p edgebench-tensor --lib \
    graphs_the_executor_cannot_run_are_rejected_at_prepare
cargo test -q --offline -p edgebench --lib \
    a_frame_shorter_than_its_dims_is_a_typed_stage_error
# A shared-memory header attach cannot map is a typed Shm error, never a
# panic or an out-of-bounds view: for the control block a short file, a bad
# magic or version, regions cut short, and each region cap whose size
# overflows; for a ring a short map, a bad magic or version, a zero or
# non-power-of-two capacity, a slot size that disagrees with the payload,
# and a map shorter than its geometry. A ring too large for any map (a
# `--ring-capacity` of 2^62) is a typed error too, not an out-of-bounds write.
cargo test -q --offline -p edgebench --lib \
    ctl_attach_rejects_malformed_headers
cargo test -q --offline -p edgebench --lib \
    runtime::ring::tests::attach_rejects_garbage
cargo test -q --offline -p edgebench --lib \
    a_ring_no_map_can_hold_is_an_error
# Every library item is only as visible as its users need, so rustc's
# dead_code lint sees all of them and clippy -D warnings below is the
# dead-code guard. An allowance would switch that guard off.
if grep -rnE '(allow|expect)\([^)]*\bdead_code\b' crates/*/src src; then
    echo "verify: FAIL — dead_code allowance in library source" >&2
    exit 1
fi
cargo clippy --workspace --all-targets --offline -- -D warnings
# Benches must keep compiling even though tier-1 never runs them.
cargo bench --no-run --offline --workspace
# The end-to-end benchmark is a workspace of its own that calls the
# library (the runtime included) by path: build it and run its unit tests
# so an API change cannot break it unnoticed.
CARGO_TARGET_DIR=.bench_build cargo test -q --offline \
    --manifest-path crates/bench/src/bin/e2e/Cargo.toml
# The tracked benchmark trajectory must stay parseable (running the full
# bench suite is too slow for tier-1; structure is checked instead), and
# the snapshot writer must turn a captured bench log into a v2 entry with
# its spread and host header, keeping the older v1 entries as they were.
scripts/bench_snapshot.sh --check BENCH_kernels.json
scripts/bench_snapshot_test.sh
# The A/B pair runner builds and runs the benchmark for minutes: syntax only.
bash -n scripts/ab.sh
# Non-test library lines per crate, on one rule (printed, not gated).
scripts/loc.sh
# Docs are part of the contract: broken intra-doc links fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Perf sanity gate: one release batch-8 CifarNet inference pass through the
# prepared executor must finish well inside a generous wall-clock budget
# (catches accidental O(n^2) regressions in the hot path, not CI jitter).
budget_s=60
start=$(date +%s)
cargo run -q --release --offline -p edgebench --bin edgebench-cli -- \
    infer --model cifarnet --batch 8 --threads 0 --iters 5 > /dev/null
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — infer sanity run took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: infer sanity run ${elapsed}s (budget ${budget_s}s)"

# Event-engine perf gate: one million requests through the release-mode
# calendar engine must finish inside a generous budget, under a 768 MiB
# address-space cap so per-event allocation regressions (or a qps-scan
# that materializes every probe trace at once) fail loudly. The binary
# is invoked directly — `cargo run` would fork outside the ulimit shell.
budget_s=60
start=$(date +%s)
(
    ulimit -v 786432
    ./target/release/edgebench-cli serve --devices jetson-nano --replicas 4 \
        --rate 4000 --frames 1000000 --csv > /dev/null
)
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — 1M-request serve took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: 1M-request serve ${elapsed}s (budget ${budget_s}s, 768 MiB cap)"

# Geo sanity gate: a release multi-region run (three regions, diurnal
# traffic, autoscaling, carbon accounting) inside its own budget.
budget_s=120
start=$(date +%s)
./target/release/edgebench-cli geo --requests 20000 --jobs 4 --csv > /dev/null
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — geo sanity run took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: geo sanity run ${elapsed}s (budget ${budget_s}s)"

echo "verify: OK"
