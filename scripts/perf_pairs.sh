#!/usr/bin/env bash
# Interleaved speed comparison of two pre-built trees with perfbench.
#
#   scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N SECONDS SEED0
#
# Runs N pairs of `perfbench --workload WORKLOAD --seconds SECONDS`, one
# run from each tree per pair, both with seed SEED0 + i for pair i. The
# order alternates (parent first in odd pairs, change first in even
# ones), so a drift of the host over time lands on both sides. Each run
# starts in its own tree, where perfbench keeps its scratch journals.
#
# Each tree must already hold a release perfbench binary, for example
# from `cargo build --release --offline --manifest-path
# perfbench/Cargo.toml` run inside it. The script builds nothing and
# changes nothing under perfbench/.
#
# Prints one line per run (wall_s, correct, failed), then per side the
# median and quartiles of wall_s, the change/parent ratio of medians and
# the number of pairs the change won. Exits non-zero if any run was not
# correct or had failed operations.
set -euo pipefail

if [ $# -ne 6 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N SECONDS SEED0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5 seed0=$6

find_bin() {
    local dir=$1 b
    for b in perfbench/target/release/perfbench .bench_build/release/perfbench \
        target/release/perfbench; do
        if [ -x "$dir/$b" ]; then
            echo "$dir/$b"
            return
        fi
    done
    echo "no release perfbench binary under $dir (build it there first)" >&2
    exit 2
}
parent_bin=$(find_bin "$parent")
change_bin=$(find_bin "$change")

# run SIDE DIR BIN SEED: one perfbench run; prints "wall_s correct failed".
run() {
    local dir=$2 bin=$3 seed=$4 line
    line=$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" | tail -n 1)
    local wall correct failed
    wall=$(sed -n 's/.*"wall_s":{"value":\([^,}]*\).*/\1/p' <<<"$line")
    correct=$(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' <<<"$line")
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$line")
    echo "${wall:-nan} ${correct:-missing} ${failed:-missing}"
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
bad=0
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then
            out=$(run parent "$parent" "$parent_bin" "$seed")
        else
            out=$(run change "$change" "$change_bin" "$seed")
        fi
        read -r wall correct failed <<<"$out"
        printf 'pair %2d seed %-6s %-6s wall_s %-12s correct %-5s failed %s\n' \
            "$i" "$seed" "$side" "$wall" "$correct" "$failed"
        echo "$i $side $wall" >>"$results"
        if [ "$correct" != true ] || [ "$failed" != 0 ]; then bad=1; fi
    done
done

awk '
function quantile(v, n, p,    h, lo) {
    h = (n - 1) * p
    lo = int(h)
    return (lo + 1 < n) ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
}
function sortv(v, n,    i, j, t) {
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
}
{ w[$2, $1] = $3; if ($2 == "parent") p[np++] = $3; else c[nc++] = $3 }
END {
    sortv(p, np); sortv(c, nc)
    for (i = 1; i <= np; i++) if (w["change", i] < w["parent", i]) wins++
    pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
    printf "parent wall_s median %.4f quartiles %.4f-%.4f\n", pm, quantile(p, np, 0.25), quantile(p, np, 0.75)
    printf "change wall_s median %.4f quartiles %.4f-%.4f\n", cm, quantile(c, nc, 0.25), quantile(c, nc, 0.75)
    printf "change/parent median ratio %.3f; change won %d of %d pairs\n", cm / pm, wins, np
}' "$results"

if [ "$bad" -ne 0 ]; then
    echo "some runs were not correct or had failed operations" >&2
    exit 1
fi
