#!/usr/bin/env bash
# Non-test library lines, on one rule: every .rs file under crates/*/src
# and src/, outside crates/bench/src/bin/e2e (the benchmark, a workspace of
# its own), counted up to its `#[cfg(test)] mod tests` (a file without one
# counts whole; a `#[cfg(test)]` on anything else is counted). Prints the
# lines per crate (`root` is the root package's src/) and the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/e2e/*' -print0 |
    sort -z | xargs -0 awk '
        function crate(path, parts) {
            split(path, parts, "/")
            return parts[1] == "crates" ? parts[2] : "root"
        }
        FNR == 1 { done = 0; held = 0 }
        done { next }
        {
            if (held) {
                held = 0
                if ($0 ~ /^mod tests( |\{|;|$)/) { done = 1; next }
                lines[crate(FILENAME)]++
            }
            if ($0 ~ /^#\[cfg\(test\)\][ \t]*$/) { held = 1; next }
            lines[crate(FILENAME)]++
        }
        END {
            for (c in lines) {
                printf "%-12s %7d\n", c, lines[c] | "sort"
                total += lines[c]
            }
            close("sort")
            printf "%-12s %7d\n", "total", total
        }
    '
