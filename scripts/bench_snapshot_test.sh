#!/usr/bin/env bash
# Runs the writer of scripts/bench_snapshot.sh on a captured bench log and
# checks what it writes, without running a bench: a stub `cargo` first on
# PATH prints the log for the first bench target, nothing for the others,
# and `infer`'s header line for `cargo run`.
#
#   scripts/bench_snapshot_test.sh
#
# It appends a bench-trajectory-v2 entry to a copy of BENCH_kernels.json
# (v1 entries stay in the history as they were), appends three more on top
# of that, and feeds `--check` two malformed v2 files. Every entry must
# carry the label of the tree the test runs in: HEAD, plus "+" when a
# tracked file is modified. The delta against the previous entry judges a
# benchmark only when the two [lo, hi] ranges do not overlap: identical
# timings on the same host judge none faster or slower, and timings from
# another host, or from an entry without a host header, are not judged.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Captured from `cargo bench -p edgebench-bench --bench ipc` and `--bench sim`
# on a 2-vCPU AMD EPYC host (avx512f tier).
cat > "$tmp/bench.log" <<'LOG'
   Compiling edgebench-bench v0.1.0
ipc/ring_roundtrip_3072f32               time: [376 ns .. 381 ns .. 396 ns]  thrpt: 32.25 G/s bytes
ipc/ring_burst_16x3072f32                time: [5.957 µs .. 6.023 µs .. 6.134 µs]  thrpt: 32.64 G/s bytes
ipc/futex_ping_pong_8f32                 time: [6.318 µs .. 7.853 µs .. 8.845 µs]
sim_events/calendar/10000                time: [699.209 µs .. 712.424 µs .. 769.690 µs]  thrpt: 14.04 M/s elem
sim_events/heap/10000                    time: [1.042 ms .. 1.051 ms .. 1.153 ms]  thrpt: 9.51 M/s elem
sim_events/calendar/1000000              time: [83.042 ms .. 88.512 ms .. 96.969 ms]  thrpt: 11.30 M/s elem
sim_events/heap/1000000                  time: [265.032 ms .. 279.396 ms .. 298.263 ms]  thrpt: 3.58 M/s elem
trace_sweep/calendar_lazy_merge/10000    time: [147.463 µs .. 149.123 µs .. 153.114 µs]  thrpt: 134.12 M/s elem
trace_sweep/heap_materialized/10000      time: [828.143 µs .. 834.858 µs .. 844.723 µs]  thrpt: 23.96 M/s elem
trace_sweep/calendar_lazy_merge/1000000  time: [12.389 ms .. 12.669 ms .. 13.341 ms]  thrpt: 157.86 M/s elem
trace_sweep/heap_materialized/1000000    time: [200.640 ms .. 224.282 ms .. 270.987 ms]  thrpt: 8.92 M/s elem
LOG

mkdir "$tmp/bin"
cat > "$tmp/bin/cargo" <<STUB
#!/usr/bin/env bash
case " \$* " in
    *" --bench kernels "*) cat "$tmp/bench.log" ;;
    *" bench "*) ;;
    *" run "*) echo "cifarnet | batch 1 | F32 | 1 intra-op thread(s) | sparsity 0 | kernel stubtier" ;;
    *) exit 1 ;;
esac
STUB
chmod +x "$tmp/bin/cargo"

# The label the writer must give this tree: HEAD, with a "+" when a tracked
# file differs from it (the snapshot lies outside the repository here, so
# nothing is excluded from that check).
label="$(git rev-parse --short HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    label="${label}+"
fi

out="$tmp/trajectory.json"
cp BENCH_kernels.json "$out"
PATH="$tmp/bin:$PATH" scripts/bench_snapshot.sh "$out" > "$tmp/first.txt"
scripts/bench_snapshot.sh --check "$out"

python3 - BENCH_kernels.json "$out" "$(nproc)" "$label" <<'PY'
import json, sys

before_path, out_path, nproc, label = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
before = json.load(open(before_path))
doc = json.load(open(out_path))
assert doc["schema"] == "bench-trajectory-v2", doc["schema"]
cur = doc["current"]
assert cur["commit"] == label, f"labelled {cur['commit']!r}, the tree is {label!r}"
host = cur["host"]
assert host["nproc"] == nproc and host["kernel_tier"] == "stubtier", host
assert set(host["cache_bytes"]) == {"l2", "l3"}, host
b = cur["benchmarks"]
assert len(b) == 11, sorted(b)
assert b["ipc/ring_roundtrip_3072f32"] == {"lo": 376.0, "median": 381.0, "hi": 396.0}
assert b["ipc/ring_burst_16x3072f32"] == {"lo": 5957.0, "median": 6023.0, "hi": 6134.0}
assert b["sim_events/heap/1000000"] == {"lo": 265032000.0, "median": 279396000.0, "hi": 298263000.0}
# The v1 entries are kept as they were, the old "current" last.
old = before["history"] + ([before["current"]] if "current" in before else [])
if before.get("current", {}).get("commit") == cur["commit"]:
    old = before["history"]
assert doc["history"] == old, "history was rewritten"
PY
# The tracked entries come from a real host, not the stub's tier (or, when
# the tree is the tracked entry's commit, from a v1 entry): nothing judged.
if grep -qE "x (faster|slower)\)" "$tmp/first.txt"; then
    echo "bench_snapshot_test: the first delta judged another host" >&2
    exit 1
fi

# Snapshots the stub log again on top of the current entry, after `edit`
# (Python over `doc`) relabels it so it rolls into the history, and checks
# that the delta against it says `basis` and gives every one of the 11
# benchmarks the note `note`.
again() {
    local edit="$1" basis="$2" note="$3"
    python3 - "$out" "$edit" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
exec(sys.argv[2])
json.dump(doc, open(sys.argv[1], "w"), indent=2)
PY
    PATH="$tmp/bin:$PATH" scripts/bench_snapshot.sh "$out" > "$tmp/delta.txt"
    grep -q "shared benchmarks, $basis):" "$tmp/delta.txt"
    if [ "$(grep -cF "ns  ($note)" "$tmp/delta.txt")" != 11 ]; then
        echo "bench_snapshot_test: not every benchmark reads '$note':" >&2
        cat "$tmp/delta.txt" >&2
        exit 1
    fi
}

# The same timings on the same host: all 11 within their spread, none
# judged faster or slower. The history then holds v1 and v2 entries.
again 'doc["current"]["commit"] = "stub-before"' \
    "medians, judged by \[lo, hi\] spread" "within spread"
scripts/bench_snapshot.sh --check "$out"
grep -q "delta vs stub-before (11 shared benchmarks" "$tmp/delta.txt"
grep -qF "ipc/ring_roundtrip_3072f32: 381 -> 381 ns  (within spread)" "$tmp/delta.txt"
python3 - "$out" "$label" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["current"]["commit"] == sys.argv[2], doc["current"]["commit"]
assert doc["history"][-1]["commit"] == "stub-before"
assert "host" in doc["history"][-1] and "host" not in doc["history"][0]
PY

# Another L3 size: a host change, so nothing is judged.
again 'doc["current"]["commit"] = "stub-l3"; doc["current"]["host"]["cache_bytes"]["l3"] = 1 << 20' \
    "host change" "host change"
# A v1 entry, one median per benchmark and no host header: nothing judged.
again 'cur = doc["current"]; cur["commit"] = "stub-v1"; del cur["host"]
cur["benchmarks"] = {n: v["median"] for n, v in cur["benchmarks"].items()}' \
    "no host" "no host"
scripts/bench_snapshot.sh --check "$out"

# `--check` refuses a v2 entry whose times are out of order, and one
# without its host header.
python3 - "$out" "$tmp/unordered.json" "$tmp/hostless.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["current"]["benchmarks"]["ipc/ring_roundtrip_3072f32"]["lo"] = 500.0
json.dump(doc, open(sys.argv[2], "w"))
doc = json.load(open(sys.argv[1]))
del doc["current"]["host"]
json.dump(doc, open(sys.argv[3], "w"))
PY
for bad in unordered hostless; do
    if scripts/bench_snapshot.sh --check "$tmp/$bad.json" 2> /dev/null; then
        echo "bench_snapshot_test: --check accepted the $bad file" >&2
        exit 1
    fi
done
echo "bench_snapshot_test: ok"
