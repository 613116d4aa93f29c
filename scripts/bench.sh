#!/usr/bin/env bash
# Simulation-throughput benchmark runner (PR 4, extended in PR 5/6/7/9/10).
#
# Builds the release tree, compiles the criterion benches (compile-check
# only — the wall-clock numbers come from the dedicated binary below), and
# runs the `throughput` binary, which writes machine-readable rates to
# BENCH_pr12.json (override the path with the first non-flag argument).
# PR 9 adds the sampled-vs-full pair on the longest workload: the binary
# fails if sampled simulation falls below a 5x wall-clock speedup over
# full detail or its IPC estimate drifts past the declared 2% bound.
# PR 10 adds the threaded-lockstep row (the six-config sweep fanned out
# across timing threads) with host context (logical cores, thread budget)
# in the report header; on a ≥4-core host the binary fails if the threaded
# row falls below 2x the serial lockstep rate, and --compare warns when
# the baseline came from a host with a different core count.
# The functional traffic row (Table 3 on twolf: emulator plus stack cache
# and SVF, no timing model) tracks the functional tables, and the report
# records the fan-out gate's state ("unarmed: needs 4 cores, host has N"
# on smaller hosts).
#
# Usage: scripts/bench.sh [output.json] [--quick] [--compare BASE.json]
#
#   --quick              smoke-gate sampling (one run per benchmark); used
#                        by scripts/check.sh
#   --compare BASE.json  print per-benchmark deltas vs a previous report
#                        and exit nonzero if any benchmark present in both
#                        regressed by more than 20%; benchmarks absent from
#                        the baseline print as "new", baseline benchmarks
#                        absent from this run print as "missing" — neither
#                        fails the gate, so reports can add, rename, or
#                        retire benchmarks against an older baseline
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo bench --workspace --no-run
cargo run --release -p svf-bench --bin throughput -- "$@"
