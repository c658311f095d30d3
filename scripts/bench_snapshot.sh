#!/usr/bin/env bash
# Snapshots the kernel micro-benchmarks into BENCH_kernels.json as a
# tracked trajectory: the file keeps one entry per snapshot (keyed by the
# commit it was taken at) so perf PRs can diff before/after numbers
# mechanically instead of eyeballing logs.
#
#   scripts/bench_snapshot.sh [output.json]   # run benches, append snapshot
#   scripts/bench_snapshot.sh --check FILE    # validate structure only (no benches)
#
# File schema (bench-trajectory-v1):
#   {
#     "schema": "bench-trajectory-v1",
#     "current": {"commit": "<short-sha>[+]", "benchmarks": {"name": ns, ...}},
#     "history": [ {"commit": ..., "benchmarks": {...}}, ... ]   # oldest first
#   }
# A legacy flat {"name": ns} file is absorbed as the first history entry.
#
# Runs offline (every dependency is vendored) and is deterministic in
# structure — only the timings vary run to run.
set -euo pipefail
cd "$(dirname "$0")/.."

# --check mode: assert the snapshot file parses and has the expected shape.
# Used by verify.sh as a cheap smoke test without running the benches.
if [ "${1:-}" = "--check" ]; then
    file="${2:?usage: bench_snapshot.sh --check FILE}"
    python3 - "$file" <<'PY'
import json, sys

path = sys.argv[1]
with open(path) as fh:
    doc = json.load(fh)

def check_benchmarks(b, where):
    if not isinstance(b, dict) or not b:
        sys.exit(f"{path}: {where}.benchmarks must be a non-empty object")
    for name, ns in b.items():
        if not isinstance(ns, (int, float)) or ns <= 0:
            sys.exit(f"{path}: {where}.benchmarks[{name!r}] must be positive ns, got {ns!r}")

if isinstance(doc, dict) and doc.get("schema") == "bench-trajectory-v1":
    cur = doc.get("current")
    if not isinstance(cur, dict) or not isinstance(cur.get("commit"), str):
        sys.exit(f"{path}: current.commit must be a string")
    check_benchmarks(cur.get("benchmarks"), "current")
    hist = doc.get("history")
    if not isinstance(hist, list):
        sys.exit(f"{path}: history must be a list")
    for i, entry in enumerate(hist):
        if not isinstance(entry, dict) or not isinstance(entry.get("commit"), str):
            sys.exit(f"{path}: history[{i}].commit must be a string")
        check_benchmarks(entry.get("benchmarks"), f"history[{i}]")
    n = len(cur["benchmarks"])
    print(f"{path}: ok (trajectory, {n} benchmarks at {cur['commit']}, {len(hist)} historical)")
else:
    # Legacy flat {"name": ns} snapshot.
    check_benchmarks(doc, "top-level")
    print(f"{path}: ok (legacy flat, {len(doc)} benchmarks)")
PY
    exit 0
fi

out="${1:-BENCH_kernels.json}"
raw="$(mktemp)"
flat="$(mktemp)"
trap 'rm -f "$raw" "$flat"' EXIT

# Kernel microbenches plus the IPC ring/futex and supervision benches:
# all feed one merged snapshot so perf PRs see compute, transport, and
# recovery regressions alike.
cargo bench --offline -p edgebench-bench --bench kernels 2>/dev/null | tee "$raw"
cargo bench --offline -p edgebench-bench --bench ipc 2>/dev/null | tee -a "$raw"
cargo bench --offline -p edgebench-bench --bench supervise 2>/dev/null | tee -a "$raw"
cargo bench --offline -p edgebench-bench --bench sim 2>/dev/null | tee -a "$raw"

awk '
BEGIN { print "{"; n = 0 }
/ time: \[/ {
    name = $1
    # Median is the middle of "[lo .. median .. hi]".
    line = $0
    sub(/^[^[]*\[/, "", line)
    sub(/\].*$/, "", line)
    split(line, parts, / \.\. /)
    split(parts[2], mv, / /)
    value = mv[1]; unit = mv[2]
    ns = value
    if (unit == "s")       ns = value * 1e9
    else if (unit == "ms") ns = value * 1e6
    else if (unit ~ /^(µs|us)$/) ns = value * 1e3
    if (n++) printf ",\n"
    printf "  \"%s\": %.1f", name, ns
}
END { if (n) printf "\n"; print "}" }
' "$raw" > "$flat"

# Fail loudly if the parse produced nothing: an empty snapshot means the
# bench run or the awk pattern broke, and silently writing "{}" would mask
# it until the next perf PR wonders where its baseline went.
count="$(grep -c '":' "$flat")" || {
    echo "error: parsed zero benchmarks from cargo bench output" >&2
    echo "       (criterion output format changed, or the bench produced no results)" >&2
    exit 1
}

# Label the entry with the commit that lands the numbers. A snapshot is
# normally taken on a tree whose changes are not committed yet (it is
# committed together with the code it measures), so a tree with changes to
# tracked files other than the snapshot file is labelled "<HEAD>+": the
# change on top of HEAD, not HEAD itself.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no -- . ":(exclude)$out" 2>/dev/null)" ]; then
    commit="${commit}+"
fi

# Merge the fresh flat snapshot into the trajectory file: the previous
# "current" entry (or a legacy flat file) rolls into history, and deltas
# against it are printed so the PR log carries the before/after numbers.
python3 - "$flat" "$out" "$commit" <<'PY'
import json, os, sys

flat_path, out_path, commit = sys.argv[1], sys.argv[2], sys.argv[3]
with open(flat_path) as fh:
    fresh = json.load(fh)
if not fresh:
    sys.exit("error: parsed benchmark map is empty")
for name, ns in fresh.items():
    if not isinstance(ns, (int, float)) or ns <= 0:
        sys.exit(f"error: benchmark {name!r} has non-positive time {ns!r}")

history = []
prev = None
if os.path.exists(out_path):
    with open(out_path) as fh:
        old = json.load(fh)
    if isinstance(old, dict) and old.get("schema") == "bench-trajectory-v1":
        history = old.get("history", [])
        prev = old.get("current")
        # Re-running at the same commit refreshes "current" in place;
        # history stays one entry per commit.
        if prev and prev.get("commit") != commit:
            history = history + [prev]
        elif prev and history:
            prev = history[-1]
    elif isinstance(old, dict) and old:
        # Legacy flat snapshot: seed history with it.
        prev = {"commit": "legacy", "benchmarks": old}
        history = [prev]

doc = {
    "schema": "bench-trajectory-v1",
    "current": {"commit": commit, "benchmarks": fresh},
    "history": history,
}
with open(out_path, "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")

print(f"wrote {out_path} ({len(fresh)} benchmarks, median ns/iter, commit {commit})")
if prev:
    base = prev["benchmarks"]
    common = [n for n in fresh if n in base]
    if common:
        print(f"delta vs {prev['commit']} ({len(common)} shared benchmarks):")
        for name in common:
            before, after = base[name], fresh[name]
            ratio = before / after if after else float("inf")
            sign = "faster" if ratio >= 1 else "slower"
            factor = ratio if ratio >= 1 else 1 / ratio
            print(f"  {name}: {before:.0f} -> {after:.0f} ns  ({factor:.2f}x {sign})")
    new = [n for n in fresh if n not in base]
    if new:
        print(f"new benchmarks: {', '.join(sorted(new))}")
PY
