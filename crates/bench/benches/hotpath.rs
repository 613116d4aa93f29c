//! Hot-path benchmarks for the per-cycle simulator loop (PR 4).
//!
//! These cover the paths the flat-structure rewrite targets: whole-program
//! pipeline simulation on the spill-heavy stack kernel (dispatch-time issue
//! reservation, alias table, §3.2 squash check), functional emulation
//! (page-arena memory with the translation cache, record-free stepping),
//! and a Figure 5-style sweep point. The `throughput` binary measures the same paths with wall-clock
//! rates and JSON output; these benches make them visible to
//! `cargo bench hotpath` alongside the rest of the suite.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use svf_bench::stack_kernel;
use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_emu::Emulator;
use svf_workloads::Scale;

/// Baseline 16-wide pipeline over the stack kernel: exercises the issue
/// reservation ring and the D-cache port model under port pressure.
fn pipeline_baseline(c: &mut Criterion) {
    let program = stack_kernel();
    c.bench_function("hotpath/pipeline-16wide-stack-kernel", |b| {
        b.iter(|| {
            let stats = Simulator::new(CpuConfig::wide16()).run(&program, u64::MAX);
            black_box(stats.cycles)
        });
    });
}

/// SVF-morphing pipeline over the stack kernel: exercises the alias table
/// (sp/other split), morphed-load forwarding, and the §3.2 squash events.
fn pipeline_svf(c: &mut Criterion) {
    let program = stack_kernel();
    let mut cfg = CpuConfig::wide16().with_ports(2, 2);
    cfg.stack_engine = StackEngine::Svf;
    c.bench_function("hotpath/pipeline-svf-stack-kernel", |b| {
        b.iter(|| {
            let stats = Simulator::new(cfg.clone()).run(&program, u64::MAX);
            black_box(stats.cycles)
        });
    });
}

/// Functional emulation of a pointer-chasing workload: exercises the page
/// arena, the direct-mapped translation cache, and the record-free
/// `Emulator::run` step path.
fn emulator_run(c: &mut Criterion) {
    let program = svf_workloads::workload("gap")
        .expect("gap workload exists")
        .compile(Scale::Test)
        .expect("compiles");
    c.bench_function("hotpath/emulator-gap", |b| {
        b.iter(|| {
            let mut emu = Emulator::new(&program);
            emu.run(u64::MAX).expect("runs");
            black_box(emu.steps())
        });
    });
}

/// One Figure 5 sweep point (bzip2, base vs. SVF): the shape the
/// experiment harness runs thousands of times.
fn fig5_sweep_point(c: &mut Criterion) {
    let program = svf_workloads::workload("bzip2")
        .expect("bzip2 workload exists")
        .compile(Scale::Test)
        .expect("compiles");
    let base = CpuConfig::wide16();
    let mut svf = CpuConfig::wide16().with_ports(2, 2);
    svf.stack_engine = StackEngine::Svf;
    c.bench_function("hotpath/fig5-point-bzip2", |b| {
        b.iter(|| {
            let b_cycles = Simulator::new(base.clone()).run(&program, u64::MAX).cycles;
            let s_cycles = Simulator::new(svf.clone()).run(&program, u64::MAX).cycles;
            black_box((b_cycles, s_cycles))
        });
    });
}

/// Lockstep fan-out (PR 6): one shared functional stream feeding 1/2/4/8
/// timing models over the stack kernel. Scaling short of linear time is
/// the amortization win — functional execution, fact extraction, and the
/// rename/alias chains are paid once per stream instead of once per model.
fn lockstep_fanout(c: &mut Criterion) {
    let program = stack_kernel();
    let pool = svf_bench::sweep_configs();
    let mut group = c.benchmark_group("hotpath/lockstep-fanout");
    for n in [1usize, 2, 4, 8] {
        let configs: Vec<CpuConfig> =
            (0..n).map(|i| pool[i % pool.len()].clone()).collect();
        group.bench_function(format!("{n}-models"), |b| {
            b.iter(|| {
                let stats = svf_cpu::run_lockstep(&configs, &program, u64::MAX);
                black_box(stats.iter().map(|s| s.cycles).sum::<u64>())
            });
        });
    }
    group.finish();
}

/// Threaded lockstep (PR 10): the six golden configurations over one shared
/// stream, advanced by 1/2/4/8 timing threads. On a multi-core box the
/// curve shows the fan-out win on top of the PR 6 amortization; on one core
/// it shows the (bounded) barrier overhead of oversubscription — either
/// way the statistics are bit-identical to serial, pinned by the golden
/// suite.
fn lockstep_threads(c: &mut Criterion) {
    let program = stack_kernel();
    let configs = svf_bench::sweep_configs();
    let mut group = c.benchmark_group("hotpath/lockstep-fanout");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("{threads}-threads"), |b| {
            b.iter(|| {
                let stats = svf_cpu::run_lockstep_fanout(&configs, &program, u64::MAX, threads);
                black_box(stats.iter().map(|s| s.cycles).sum::<u64>())
            });
        });
    }
    group.finish();
}

/// The flattened set-associative cache alone: shift/mask indexing,
/// MRU-first probe over one recency-ordered block per set,
/// miss/evict/writeback path.
fn cache_probe(c: &mut Criterion) {
    c.bench_function("hotpath/cache-probe", |b| {
        b.iter(|| black_box(svf_bench::cache_probe(black_box(100_000))));
    });
}

/// The flattened gshare predictor alone: pattern table, linear-probe BTB,
/// ring return-address stack.
fn predictor(c: &mut Criterion) {
    c.bench_function("hotpath/predictor", |b| {
        b.iter(|| black_box(svf_bench::predictor_churn(black_box(100_000))));
    });
}

criterion_group!(
    hotpath,
    pipeline_baseline,
    pipeline_svf,
    emulator_run,
    fig5_sweep_point,
    lockstep_fanout,
    lockstep_threads,
    cache_probe,
    predictor
);
criterion_main!(hotpath);
