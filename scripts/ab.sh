#!/usr/bin/env bash
# Alternating A/B pairs of the end-to-end benchmark between two commits.
#
#   scripts/ab.sh A B N [--seed S] WORKLOAD...
#
# Builds the e2e binary (crates/bench/src/bin/e2e) of commits A and B in
# throwaway trees under target/ab/ (`git archive` extractions), then runs N
# pairs per workload at BENCHMARK.json's run_seconds and one seed (default
# 11): A runs first on odd pairs, B on even ones. Each run starts in its
# own tree. For each workload and end-to-end metric, and each part of one
# (`latency_ms.<model>`), it prints both sides' medians with quartiles, B's
# wins out of N and the per-pair B/A ratios. A metric is marked `claim`
# when B won at least 9 of 10 pairs and its median beats A's by more than
# A's interquartile range, the rule of the e2e README. Every run's detail
# line goes to target/ab/<A>-<B>-s<seed>-<workloads>.log.
#
# Each run also records the vCPU time the hypervisor stole during it
# (`steal_ticks`, USER_HZ ticks from /proc/stat). The summary prints both
# sides' steal for every pair and marks a pair whose sides differ by more
# than $steal_gap ticks (100 ticks is about 1 s of a 15 s run), since the
# host rather than the code may have moved it. The verdict is given twice:
# over all pairs, and over the unmarked pairs alone.
#
# To measure uncommitted work, stage it and pass `$(git stash create)` as B.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh A B N [--seed S] WORKLOAD..." >&2
    exit 2
}
[ $# -ge 4 ] || usage
a_rev=$1 b_rev=$2 pairs=$3
shift 3
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
seed=11
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --seed)
            seed=${2:?--seed needs a value}
            shift 2
            ;;
        *)
            workloads+=("$1")
            shift
            ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || usage
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
steal_gap=100

# Extracts REV into target/ab/<sha>/src and builds its e2e binary there,
# once per commit; prints the tree.
build() {
    local sha tree
    sha=$(git rev-parse --short=12 "$1^{commit}")
    tree=$PWD/target/ab/$sha
    if [ ! -x "$tree/e2e" ]; then
        rm -rf "$tree"
        mkdir -p "$tree/src"
        git archive "$sha" | tar -x -C "$tree/src"
        (cd "$tree/src" && CARGO_TARGET_DIR="$tree/build" cargo build --release --offline -q \
            --manifest-path crates/bench/src/bin/e2e/Cargo.toml) >&2
        cp "$tree/build/release/e2e" "$tree/e2e"
    fi
    echo "$tree"
}
a_tree=$(build "$a_rev")
b_tree=$(build "$b_rev")
log=target/ab/$(basename "$a_tree")-$(basename "$b_tree")-s$seed-$(IFS=+; echo "${workloads[*]}").log
: > "$log"
echo "A = $a_rev ($(basename "$a_tree")), B = $b_rev ($(basename "$b_tree")), $pairs pairs, seed $seed, ${seconds} s runs; log $log"

# One run: the detail line (spreads and parts) tagged with workload, pair
# and side. A run whose checks fail still reports; its `failed` count shows.
run() {
    local side=$1 tree=$2 w=$3 i=$4 out
    out=$(cd "$tree/src" && "$tree/e2e" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) || true
    echo "$w $i $side $(grep '^detail ' <<<"$out" | tail -n 1 | cut -d' ' -f2-)" >> "$log"
}
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run A "$a_tree" "$w" "$i"
            run B "$b_tree" "$w" "$i"
        else
            run B "$b_tree" "$w" "$i"
            run A "$a_tree" "$w" "$i"
        fi
        echo "  $w pair $i/$pairs done" >&2
    done
done

python3 - "$log" "$steal_gap" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
steal_gap = int(sys.argv[2])
runs = {}  # (workload, pair, side) -> detail object
for line in open(sys.argv[1]):
    w, pair, side, rest = line.rstrip("\n").split(" ", 3)
    runs[(w, int(pair), side)] = json.loads(rest) if rest else None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

def verdict(pv, lower):
    """Medians, quartiles, B's wins and the claim rule over (A, B) pairs."""
    a = [x for x, _ in pv]
    b = [y for _, y in pv]
    ma, mb = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in pv)
    gain = (ma - mb) if lower else (mb - ma)
    claim = wins >= 0.9 * len(pv) and gain > a3 - a1
    return ma, mb, (a1, a3), (b1, b3), wins, claim

for w in dict.fromkeys(k[0] for k in runs):
    pairs = sorted({k[1] for k in runs if k[0] == w})
    got = {(p, s): runs.get((w, p, s)) for p in pairs for s in "AB"}
    broken = [f"{s}{p}" for (p, s), d in got.items() if d is None]
    failed = {s: sum(d["failed"] for (p, t), d in got.items() if t == s and d) for s in "AB"}
    print(f"\n{w}: {len(pairs)} pairs, failed A {failed['A']} B {failed['B']}"
          + (f", runs without a result: {' '.join(broken)}" if broken else ""))
    complete = [p for p in pairs if got[(p, "A")] and got[(p, "B")]]
    steal = {(p, s): got[(p, s)]["steal_ticks"] for p in complete for s in "AB"}
    marked = {p for p in complete if abs(steal[(p, "A")] - steal[(p, "B")]) > steal_gap}
    print("  steal ticks A/B: " + "  ".join(
        f"{p}: {steal[(p, 'A')]}/{steal[(p, 'B')]}{'*' if p in marked else ''}" for p in complete))
    print(f"  * = sides differ by more than {steal_gap} steal ticks: {len(marked)} of {len(complete)} pairs marked")
    names = [n for n in next(d for d in got.values() if d)["metrics"]
             if n.split(".")[0] in better]
    print(f"  {'metric':<28} {'A median [q1, q3]':>28} {'B median [q1, q3]':>28} {'B/A':>7}"
          f" {'B wins':>7} {'ratios':>13}  {'verdict':<9} unmarked pairs")
    for name in names:
        lower = better[name.split(".")[0]] == "lower"
        value = lambda p, s: got[(p, s)]["metrics"][name]["value"]
        pv = [(value(p, "A"), value(p, "B")) for p in complete]
        if not pv:
            continue
        ma, mb, (a1, a3), (b1, b3), wins, claim = verdict(pv, lower)
        ratios = [y / x for x, y in pv if x]
        fmt = lambda m, lo, hi: f"{m:.4g} [{lo:.4g}, {hi:.4g}]"
        span = f"{min(ratios):.2f}-{max(ratios):.2f}" if ratios else "-"
        kept = [(x, y) for p, (x, y) in zip(complete, pv) if p not in marked]
        if kept:
            *_, kept_wins, kept_claim = verdict(kept, lower)
            unmarked = f"{'claim' if kept_claim else 'no claim'} ({kept_wins}/{len(kept)} wins)"
        else:
            unmarked = "-"
        print(f"  {name:<28} {fmt(ma, a1, a3):>28} {fmt(mb, b1, b3):>28} {mb / ma if ma else float('nan'):>7.3f}"
              f" {wins:>4}/{len(pv):<2} {span:>13}  {'claim' if claim else 'no claim':<9} {unmarked}")
PY
