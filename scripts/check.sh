#!/usr/bin/env bash
# Full local gate: release build, the complete test suite (release mode also
# enables the timing-heavy figure-shape tests), the end-to-end benchmark's
# tests against its committed lock file, compile-checked benchmarks, the
# CLI and experiment smokes (64-bit cache tags, bad input, sampling,
# sweeps, threaded lockstep, crash-resume, the shared timing plan),
# warning-free rustdoc, warning-free clippy across every target (benches
# included), and last a quick throughput smoke gate against the committed
# baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo test --workspace --release -q
# The harness unit tests share process-global caches (compile memo,
# quarantine, fault plan) across concurrent test threads; repeat them so a
# test that races another's global state fails here instead of flaking later.
for _ in 1 2 3 4 5; do
    cargo test -q -p svf-harness --lib
done
# Golden snapshots once more on a single test thread: the threaded-lockstep
# golden test spawns its own timing threads (fanout 1/2/4/8), and running it
# without harness-level parallelism proves bit-identity isn't an artifact of
# the test runner's own scheduling.
RUST_TEST_THREADS=1 cargo test --release -q --test golden_stats
# The end-to-end benchmark package (e2e-bench/, its own workspace) calls the
# simulator's public API; building and testing it here turns an API change
# it depends on into a check failure instead of a broken benchmark run.
# `--locked`: a change that would rewrite e2e-bench/Cargo.lock fails here
# instead of quietly editing the benchmark's files.
cargo test --release --offline --locked -q --manifest-path e2e-bench/Cargo.toml
cargo bench --workspace --no-run
smoke_out="$(mktemp /tmp/svf-bench-smoke.XXXXXX.json)"
smoke_dir="$(mktemp -d /tmp/svf-smoke.XXXXXX)"
trap 'rm -rf "$smoke_out" "$smoke_dir"' EXIT
# The small program the bad-input smoke below runs.
cat > "$smoke_dir/smoke.c" <<'EOF'
int work(int n) {
    int buf[8];
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) buf[i] = i * n;
    for (int i = 0; i < 8; i = i + 1) s = s + buf[i];
    return s;
}
int main() {
    int total = 0;
    for (int it = 0; it < 100; it = it + 1) total = total + work(it) % 997;
    print(total);
    return 0;
}
EOF
# 64-bit cache tag smoke: a hand-written program that stores to and loads
# from 2^50 and up. Caches hold tags in 32-bit words until one reaches
# 2^30; a Table 2 DL1 or L2 tag is the address shifted right by 14 or 17
# bits, so the first reference there converts both caches to 64-bit words
# mid-run, and every one of the 600 high references must reach the DL1.
cat > "$smoke_dir/high.s" <<'EOF'
main:
    li $t3, 0x4000000000000
    li $t0, 200
.loop:
    stq $t0, 0($t3)
    ldq $t1, 0($t3)
    addq $t2, $t1, $t2
    stq $t2, 8($t3)
    lda $t3, 64($t3)
    subq $t0, 1, $t0
    bne $t0, .loop
    mov $t2, $a0
    putint
    halt
EOF
cargo run --release --quiet --bin svf-sim -- "$smoke_dir/high.s" --compare \
    > "$smoke_dir/high.txt"
grep -q 'DL1: 600 accesses' "$smoke_dir/high.txt" \
    || { echo "high-address smoke: the DL1 missed the 600 high references" >&2; exit 1; }
echo "64-bit cache tag smoke: all 600 high references reach the DL1"
# Bad-input smoke: a machine the simulator cannot build, or a sampling
# plan it cannot schedule, must be a named error with exit 1, never a
# panic. A 3 KB DL1 has no power-of-two set count; a 2000-entry IFQ plus
# a 16-wide fetch group overflows the 1024-record lockstep window; a
# random-mode period above u64::MAX / 2 would overflow the schedule's
# spacing arithmetic.
for bad in "--config|wide16+dl1_bytes=3k|dl1" \
    "--config|wide16+ifq_size=2000|lockstep window" \
    "--sample|mode=random,seed=1,period=18000000000000000000,interval=1k|period"; do
    flag="${bad%%|*}"
    rest="${bad#*|}"
    value="${rest%%|*}"
    want="${rest#*|}"
    bad_status=0
    cargo run --release --quiet --bin svf-sim -- "$smoke_dir/smoke.c" \
        "$flag" "$value" > /dev/null 2> "$smoke_dir/bad-config.err" || bad_status=$?
    if [ "$bad_status" -ne 1 ] || ! grep -q "$want" "$smoke_dir/bad-config.err" \
        || grep -q 'panicked' "$smoke_dir/bad-config.err"; then
        echo "bad-input smoke ($flag $value): want exit 1 naming $want, got $bad_status:" >&2
        cat "$smoke_dir/bad-config.err" >&2
        exit 1
    fi
done
echo "bad-input smoke: all three rejected with named errors"
# Sampled-simulation smoke: the same program once in full detail and once
# under a seeded random sampling plan, through the real CLI. The estimate
# must land within 2% IPC of the full run while paying detailed cost for
# well under half the instructions. (The per-workload error-bound
# validation lives in tests/sampling.rs and the bench gate; this checks
# the --sample plumbing end to end.)
cat > "$smoke_dir/sampling.c" <<'EOF'
int work(int n) {
    int buf[8];
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) buf[i] = i * n;
    for (int i = 0; i < 8; i = i + 1) s = s + buf[i];
    return s;
}
int main() {
    int total = 0;
    for (int it = 0; it < 2000; it = it + 1) total = total + work(it) % 997;
    print(total);
    return 0;
}
EOF
cargo run --release --quiet --bin svf-sim -- "$smoke_dir/sampling.c" \
    > "$smoke_dir/sampling-full.txt"
cargo run --release --quiet --bin svf-sim -- "$smoke_dir/sampling.c" \
    --sample mode=random,seed=1,period=40k,interval=5k,warmup=4k,ramp=1k,tail=500 \
    > "$smoke_dir/sampling-est.txt"
full_ipc=$(awk -F 'IPC ' '/^\[/ {print $2}' "$smoke_dir/sampling-full.txt")
samp_ipc=$(awk -F 'IPC ' '/^\[/ {print $2}' "$smoke_dir/sampling-est.txt")
awk -v s="$samp_ipc" -v f="$full_ipc" 'BEGIN {
    err = (s - f) / f; if (err < 0) err = -err
    if (err > 0.02) { printf "sampling smoke: IPC error %.4f exceeds 2%% (sampled %s vs full %s)\n", err, s, f; exit 1 }
}' || exit 1
grep '^--- SAMPLED' "$smoke_dir/sampling-est.txt" | awk '{
    for (i = 1; i <= NF; i++) {
        if ($i ~ /^detailed=/) { d = $i; sub("detailed=", "", d) }
        if ($i == "of") t = $(i + 1)
    }
    if (!(d > 0 && 2 * d < t)) { printf "sampling smoke: detailed %s of %s insts is not under half\n", d, t; exit 1 }
}' || exit 1
echo "sampling smoke: sampled IPC $samp_ipc within 2% of full $full_ipc"
# Design-space sweep smoke: an 8-point grid over one workload must run
# end-to-end with exactly ONE workload compile (the memo cache + lockstep
# batching contract of the sweep driver) and emit a well-formed Pareto CSV.
cat > "$smoke_dir/sweep.toml" <<'EOF'
name = "check-smoke"
base = "svf"
workload = "mcf"
[axes]
svf_bytes = [1k, 2k, 4k, 8k]
stack_ports = [1, 2]
EOF
cargo run --release --quiet -p svf-experiments -- \
    --sweep "$smoke_dir/sweep.toml" --csv "$smoke_dir/sweep" \
    | tee "$smoke_dir/sweep.out"
grep -q 'compiles=1' "$smoke_dir/sweep.out" \
    || { echo "sweep smoke: expected exactly one workload compile" >&2; exit 1; }
head -1 "$smoke_dir/sweep/pareto.csv" | grep -q '^point,svf_bytes,stack_ports,ipc,cost_bytes$' \
    || { echo "sweep smoke: malformed pareto.csv header" >&2; exit 1; }
[ "$(wc -l < "$smoke_dir/sweep/points.csv")" -eq 9 ] \
    || { echo "sweep smoke: points.csv should have 8 rows + header" >&2; exit 1; }
echo "sweep smoke: 8 configs, one compile, well-formed pareto.csv"
# Threaded-lockstep smoke: the same 8-config sweep under a thread budget
# (job workers + intra-batch timing fan-out) must emit byte-identical CSVs
# to the serial run above — the bit-identity contract of the PR 10 fan-out,
# checked end to end through the real sweep driver.
# `--jobs 2` pins two workers on any host, so the batch plan cuts the one
# program's 8 jobs into four lockstep batches of two.
cargo run --release --quiet -p svf-experiments -- \
    --sweep "$smoke_dir/sweep.toml" --csv "$smoke_dir/sweep-mt" --jobs 2 --threads 8 \
    > "$smoke_dir/sweep-mt.out"
for f in points.csv pareto.csv; do
    cmp "$smoke_dir/sweep/$f" "$smoke_dir/sweep-mt/$f" \
        || { echo "threaded-lockstep smoke: $f differs from the serial run" >&2; exit 1; }
done
echo "threaded-lockstep smoke: --threads 8 CSVs byte-identical to serial"
# Crash-resume smoke: the same sweep with a result sink, killed mid-run by
# a planted abort (the in-process kill -9), must resume from the sink and
# finish with points.csv/pareto.csv byte-identical to the fault-free run
# above; a third run must resume every point from the content-keyed sink. At
# `--jobs 2` the seven clean jobs run as split lockstep batches, and the
# aborting job, isolated, runs only after the last of them is stored.
if SVF_FAULT_PLAN="abort@4" cargo run --release --quiet -p svf-experiments -- \
    --sweep "$smoke_dir/sweep.toml" --csv "$smoke_dir/crash" --out "$smoke_dir/crash-runs" \
    --jobs 2
then
    echo "crash-resume smoke: planted abort did not kill the sweep" >&2; exit 1
fi
[ "$(ls "$smoke_dir/crash-runs/check-smoke-r0" | wc -l)" -eq 7 ] \
    || { echo "crash-resume smoke: crash should leave the 7 clean jobs stored" >&2; exit 1; }
cargo run --release --quiet -p svf-experiments -- \
    --sweep "$smoke_dir/sweep.toml" --csv "$smoke_dir/crash" --out "$smoke_dir/crash-runs" \
    --jobs 2 > "$smoke_dir/resume.out"
for f in points.csv pareto.csv; do
    cmp "$smoke_dir/sweep/$f" "$smoke_dir/crash/$f" \
        || { echo "crash-resume smoke: $f differs from the fault-free run" >&2; exit 1; }
done
# (to a file first: grep -q would close the pipe early and panic the binary)
cargo run --release --quiet -p svf-experiments -- \
    --sweep "$smoke_dir/sweep.toml" --csv "$smoke_dir/crash" --out "$smoke_dir/crash-runs" \
    --jobs 2 > "$smoke_dir/resume-all.out"
grep -q 'resumed=8' "$smoke_dir/resume-all.out" \
    || { echo "crash-resume smoke: sink did not resume all 8 points" >&2; exit 1; }
echo "crash-resume smoke: killed sweep resumed to byte-identical CSVs"
# One-timing-plan smoke: `all --scale test` asks for 324 timing jobs
# (Figures 5-9), but only 240 distinct (program, machine) results, so the
# shared `timing` run directory must hold exactly 240 files. A second run
# must resume every one of them and print byte-identical tables.
cargo run --release --quiet -p svf-experiments -- all --scale test \
    --out "$smoke_dir/all-runs" > "$smoke_dir/all.out" 2> "$smoke_dir/all.err"
[ "$(ls "$smoke_dir/all-runs/timing" | wc -l)" -eq 240 ] \
    || { echo "timing-plan smoke: expected 240 distinct results under timing/" >&2; exit 1; }
cargo run --release --quiet -p svf-experiments -- all --scale test \
    --out "$smoke_dir/all-runs" > "$smoke_dir/all-again.out" 2> "$smoke_dir/all-again.err"
cmp "$smoke_dir/all.out" "$smoke_dir/all-again.out" \
    || { echo "timing-plan smoke: resumed tables differ from the first run" >&2; exit 1; }
grep -q '\[timing\] 240/240 jobs.*(240 resumed)  (shared=84)' "$smoke_dir/all-again.err" \
    || { echo "timing-plan smoke: second run did not resume every job" >&2; exit 1; }
echo "timing-plan smoke: 324 jobs stored 240 results, all resumed on the second run"
# Rustdoc gate: a broken or private intra-doc link (say, to a deleted entry
# point) fails here instead of rotting in the published docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo clippy --workspace --all-targets -- -D warnings
# Throughput smoke gate: a few quick runs per benchmark, compared against
# the committed baseline. Quick sampling is noisy (20-30% machine-wide
# swings on a shared box), so this catches collapses (the binary flags
# >50% drops in --quick mode), not drifts — scripts/bench.sh does the
# tracking-quality measurement with the strict 20% gate. The report goes to a scratch file so
# the committed BENCH_*.json only change when bench.sh is run on purpose. (The
# baseline stays BENCH_pr10.json: BENCH_pr12.json and BENCH_pr15.json were
# taken on a shared host whose untouched rows read 10-50% below it, and rows
# they add show as "new" against the older report.)
# (The binary also asserts the sampled-vs-full contract: 5x speedup, 2% IPC.)
# It runs last, so a failing gate (a collapse, or the sampled-vs-full
# floor on a slow host) cannot hide a broken smoke or a clippy warning.
cargo run --release -p svf-bench --bin throughput -- "$smoke_out" --quick --compare BENCH_pr10.json
