#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test --workspace -q

echo "== cargo test -q -p crow-sim (shadow protocol validator attached) =="
CROW_VALIDATE=1 cargo test -q -p crow-sim

echo "== benchmark build + tests (perfbench, its own workspace) =="
# perfbench compiles against crates/* by path but sits outside this
# workspace, so nothing above builds it: removing a public name it uses
# would otherwise break the benchmark unnoticed.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== cargo clippy unwrap audit (library code, tests exempt) =="
cargo clippy --lib -p crow-dram -p crow-mem -p crow-cpu -p crow-core -p crow-sim -- \
    -D clippy::unwrap_used

echo "== scheduler perf gate (counter-based, deterministic) =="
# Indexed vs. linear FR-FCFS on the random-access stress trace: same
# architectural stats, strictly fewer candidates scanned, and scanned
# per pick below a fixed bound. Counters only — no wall-clock flake.
cargo build --release -p crow-bench --bin sched_gate
target/release/sched_gate

echo "== sampling gate (interval sampling: accuracy, speedup, determinism) =="
# Statistical interval sampling contracts: sampled IPC within 2% of the
# full run on every bench-suite case at 2M insts/core under the default
# plan; >=5x wall-clock speedup on the memory-bound mcf/random cases at
# 6M under a stretched fast-forward (CROW-8/random asserts speedup only
# — its long-FF restore-model drift is documented); and the sampled
# report bit-identical across engine x scheduler for a fixed seed/plan.
cargo build --release -p crow-bench --bin sampling_gate
target/release/sampling_gate

echo "== hammer gate (attack corrupts unmitigated, CROW suppresses) =="
# RowHammer attack-scenario contracts: an unmitigated saturating
# double-sided attack produces live flips, CROW detects and fully
# suppresses a moderate-intensity attack (flips land only in abandoned
# physical rows), both runs are validator-clean, and the flipping run
# is bit-identical across naive and event-driven engines.
cargo build --release -p crow-bench --bin hammer_gate
target/release/hammer_gate

echo "== serve gate (chaos-soak the simulation service) =="
# Boots the real crow-serve binary on a Unix socket and drives it with
# concurrent clients: distinct jobs, duplicate jobs (must collapse onto
# one simulation), malformed and oversized requests (structured errors,
# connection survives), repeat requests (zero re-simulated cycles),
# SIGTERM (graceful drain, every worker joined, nothing abandoned) and
# SIGKILL mid-job (restart over the same journal answers finished jobs
# byte-identically with zero re-runs; only the killed job re-simulates).
cargo build --release -p crow-bench --bin crow-serve --bin serve_gate
target/release/serve_gate

echo "== supervise gate (poison-job storm vs process isolation) =="
# Boots crow-serve with CROW_SERVE_ISOLATION=process and chaos enabled:
# a crash-looping fingerprint trips the circuit breaker and every
# duplicate is quarantined without re-execution, healthy jobs
# interleaved with the storm complete, a wedged child is deadline-killed
# (structured timeout) and a memory bomb is RSS-killed (structured
# resource-limit), the drain is clean, and a /proc sweep proves zero
# leaked --job-runner children.
cargo build --release -p crow-bench --bin crow-serve --bin supervise_gate
target/release/supervise_gate

echo "== results check (bench all reproduces results/ byte for byte) =="
# Regenerates every figure and table in a fresh directory with no CROW_*
# knob set, so the campaign journals start empty and nothing resumes,
# then diffs the output against the committed results/ (journals
# excluded). Any drift fails: a speed change must leave every report
# byte-identical, and a change that moves a figure must commit the
# regenerated results/ with it.
cargo build --release -p crow-bench --bin all
repo=$(pwd)
results_tmp=$(mktemp -d)
trap 'rm -rf "$results_tmp"' EXIT
(
    cd "$results_tmp"
    for v in $(compgen -e | grep '^CROW_' || true); do unset "$v"; done
    "$repo/target/release/all" >/dev/null
)
diff -r -x campaign "$results_tmp/results" results

echo "All checks passed."
