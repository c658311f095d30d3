#!/usr/bin/env bash
# Snapshots the kernel micro-benchmarks into BENCH_kernels.json as a
# tracked trajectory: the file keeps one entry per snapshot (keyed by the
# commit it was taken at) so perf PRs can diff before/after numbers
# mechanically instead of eyeballing logs.
#
#   scripts/bench_snapshot.sh [output.json]   # run benches, append snapshot
#   scripts/bench_snapshot.sh --check FILE    # validate structure only (no benches)
#
# File schema (bench-trajectory-v2):
#   {
#     "schema": "bench-trajectory-v2",
#     "current": {
#       "commit": "<short-sha>[+]",
#       "host": {"nproc": N, "cache_bytes": {"l2": B, "l3": B}, "kernel_tier": "avx512f"},
#       "benchmarks": {"name": {"lo": ns, "median": ns, "hi": ns}, ...}
#     },
#     "history": [ {"commit": ..., "host": ..., "benchmarks": ...}, ... ]   # oldest first
#   }
# An entry may also hold a "note" string, added by hand, saying why its
# numbers do not compare with the entries before it (a bench that now times
# another entry point, say); the writer keeps it when the entry moves into
# the history.
# Each benchmark keeps the fastest, median and slowest sample the criterion
# shim prints as `[lo .. median .. hi]`; the host header says what machine
# took them (cache sizes from sysfs, null when sysfs does not say; the
# kernel tier `edgebench-cli infer` resolves). Entries written before v2
# (bench-trajectory-v1) have no host and keep one median per benchmark,
# {"name": ns}; they stay in the history as they were. A legacy flat
# {"name": ns} file is absorbed as the first history entry.
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

def positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0

def check_host(host, where):
    if not isinstance(host, dict):
        sys.exit(f"{path}: {where}.host must be an object")
    if not isinstance(host.get("nproc"), int) or host["nproc"] < 1:
        sys.exit(f"{path}: {where}.host.nproc must be a positive integer")
    cache = host.get("cache_bytes")
    if not isinstance(cache, dict) or set(cache) != {"l2", "l3"}:
        sys.exit(f"{path}: {where}.host.cache_bytes must hold exactly l2 and l3")
    for level, size in cache.items():
        if size is not None and not (isinstance(size, int) and size > 0):
            sys.exit(f"{path}: {where}.host.cache_bytes.{level} must be positive bytes or null")
    if not isinstance(host.get("kernel_tier"), str) or not host["kernel_tier"]:
        sys.exit(f"{path}: {where}.host.kernel_tier must be a non-empty string")

def check_benchmarks(b, where, spread):
    if not isinstance(b, dict) or not b:
        sys.exit(f"{path}: {where}.benchmarks must be a non-empty object")
    for name, v in b.items():
        if not spread:
            if not positive(v):
                sys.exit(f"{path}: {where}.benchmarks[{name!r}] must be positive ns, got {v!r}")
        elif not (isinstance(v, dict) and set(v) == {"lo", "median", "hi"}
                  and all(positive(x) for x in v.values())
                  and v["lo"] <= v["median"] <= v["hi"]):
            sys.exit(f"{path}: {where}.benchmarks[{name!r}] must be positive ns "
                     f"with lo <= median <= hi, got {v!r}")

def check_entry(entry, where, v2):
    if not isinstance(entry, dict) or not isinstance(entry.get("commit"), str):
        sys.exit(f"{path}: {where}.commit must be a string")
    if not isinstance(entry.get("note", ""), str):
        sys.exit(f"{path}: {where}.note must be a string")
    if v2:
        check_host(entry.get("host"), where)
    check_benchmarks(entry.get("benchmarks"), where, v2)

schema = doc.get("schema") if isinstance(doc, dict) else None
if schema in ("bench-trajectory-v1", "bench-trajectory-v2"):
    cur = doc.get("current")
    check_entry(cur, "current", schema == "bench-trajectory-v2")
    hist = doc.get("history")
    if not isinstance(hist, list):
        sys.exit(f"{path}: history must be a list")
    for i, entry in enumerate(hist):
        # A v2 file keeps the v1 entries it grew from: those have no host.
        v2 = isinstance(entry, dict) and "host" in entry
        if v2 and schema != "bench-trajectory-v2":
            sys.exit(f"{path}: history[{i}] has a host header in a v1 file")
        check_entry(entry, f"history[{i}]", v2)
    n = len(cur["benchmarks"])
    print(f"{path}: ok ({schema}, {n} benchmarks at {cur['commit']}, {len(hist)} historical)")
else:
    # Legacy flat {"name": ns} snapshot.
    check_benchmarks(doc, "top-level", False)
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

# One "name": {"lo": ns, "median": ns, "hi": ns} member per bench line
# "name  time: [lo .. median .. hi]".
awk '
function ns(t,    f) {
    split(t, f, / /)
    if (f[2] == "s")       return f[1] * 1e9
    if (f[2] == "ms")      return f[1] * 1e6
    if (f[2] ~ /^(µs|us)$/) return f[1] * 1e3
    return f[1]
}
BEGIN { print "{"; n = 0 }
/ time: \[/ {
    name = $1
    line = $0
    sub(/^[^[]*\[/, "", line)
    sub(/\].*$/, "", line)
    split(line, parts, / \.\. /)
    if (n++) printf ",\n"
    printf "  \"%s\": {\"lo\": %.1f, \"median\": %.1f, \"hi\": %.1f}", name, ns(parts[1]), ns(parts[2]), ns(parts[3])
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

# The kernel tier the benches ran on, as `infer` prints it ("... | kernel T").
tier="$(cargo run -q --release --offline -p edgebench --bin edgebench-cli -- \
    infer --model cifarnet --iters 1 | sed -n '1s/.*| kernel //p')"
[ -n "$tier" ] || { echo "error: infer printed no kernel tier" >&2; exit 1; }

# Label the entry with the commit that lands the numbers. A snapshot is
# normally taken on a tree whose changes are not committed yet (it is
# committed together with the code it measures), so a tree with changes to
# tracked files other than the snapshot file is labelled "<HEAD>+": the
# change on top of HEAD, not HEAD itself. The snapshot file is excluded
# only when it lies inside the repository: git refuses a pathspec outside
# it, and a failed status must not read as a clean tree.
commit="$(git rev-parse --short HEAD)"
pathspec=(.)
case "$(realpath -m "$out")" in
    "$(git rev-parse --show-toplevel)"/*) pathspec+=(":(exclude)$out") ;;
esac
if ! dirty="$(git status --porcelain --untracked-files=no -- "${pathspec[@]}")"; then
    echo "error: git status failed, so the snapshot cannot be labelled" >&2
    exit 1
fi
if [ -n "$dirty" ]; then
    commit="${commit}+"
fi

# Merge the fresh flat snapshot into the trajectory file: the previous
# "current" entry (or a legacy flat file) rolls into history, and deltas
# against it are printed so the PR log carries the before/after numbers.
# A benchmark reads faster or slower only when its old and new [lo, hi]
# ranges do not overlap; when the two entries' hosts differ, or either has
# none, no benchmark is judged.
python3 - "$flat" "$out" "$commit" "$tier" "$(nproc)" <<'PY'
import glob, json, os, sys

flat_path, out_path, commit, tier, nproc = sys.argv[1:6]
with open(flat_path) as fh:
    fresh = json.load(fh)
if not fresh:
    sys.exit("error: parsed benchmark map is empty")
for name, v in fresh.items():
    if not 0 < v["lo"] <= v["median"] <= v["hi"]:
        sys.exit(f"error: benchmark {name!r} has times out of order or non-positive: {v!r}")

def cache_bytes(level):
    """Size of cpu0's unified or data cache at `level`, from sysfs."""
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(f"{d}/level") as fh:
                lv = int(fh.read())
            with open(f"{d}/type") as fh:
                kind = fh.read().strip()
            with open(f"{d}/size") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if lv == level and kind in ("Unified", "Data"):
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    return None

host = {
    "nproc": int(nproc),
    "cache_bytes": {"l2": cache_bytes(2), "l3": cache_bytes(3)},
    "kernel_tier": tier,
}

history = []
prev = None
if os.path.exists(out_path):
    with open(out_path) as fh:
        old = json.load(fh)
    if isinstance(old, dict) and old.get("schema") in ("bench-trajectory-v1", "bench-trajectory-v2"):
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
    "schema": "bench-trajectory-v2",
    "current": {"commit": commit, "host": host, "benchmarks": fresh},
    "history": history,
}
with open(out_path, "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")

print(f"wrote {out_path} ({len(fresh)} benchmarks, lo/median/hi ns/iter, commit {commit}, "
      f"{tier}, {host['nproc']} cpus)")

def median(v):
    """A v2 {lo, median, hi} entry's median, or a v1 entry's one number."""
    return v["median"] if isinstance(v, dict) else v

def verdict(before, after):
    """Faster or slower only when the two [lo, hi] ranges do not overlap."""
    if after["hi"] < before["lo"]:
        return f"{before['median'] / after['median']:.2f}x faster"
    if after["lo"] > before["hi"]:
        return f"{after['median'] / before['median']:.2f}x slower"
    return "within spread"

if prev:
    base = prev["benchmarks"]
    common = [n for n in fresh if n in base]
    if common:
        # Timings from another machine, or from an entry that does not say
        # which machine took it (every v1 entry), judge nothing.
        if "host" not in prev:
            judged = "no host"
        elif prev["host"] != host:
            judged = "host change"
        else:
            judged = None
        basis = judged or "medians, judged by [lo, hi] spread"
        print(f"delta vs {prev['commit']} ({len(common)} shared benchmarks, {basis}):")
        for name in common:
            before, after = median(base[name]), median(fresh[name])
            note = judged or verdict(base[name], fresh[name])
            print(f"  {name}: {before:.0f} -> {after:.0f} ns  ({note})")
    new = [n for n in fresh if n not in base]
    if new:
        print(f"new benchmarks: {', '.join(sorted(new))}")
PY
