//! Simulation-throughput tracker: measures the hot paths (functional
//! emulation, the functional traffic simulation behind Tables 3 and 4,
//! cycle-level pipeline, a fig5-style sweep point, and the cache/predictor
//! microbenchmarks) in real units (Minst/s, Mcyc/s, …) and writes a JSON
//! report, so the performance trajectory of the simulator is tracked commit
//! over commit.
//!
//! Usage: `throughput [OUT.json] [--quick] [--compare BASE.json]`
//! (default out `BENCH_pr12.json`; see `scripts/bench.sh`).
//!
//! The report header records host context (`logical_cores`, the
//! `thread_budget` the threaded rows used): thread-budget rows are only
//! comparable between hosts with the same core count, so `--compare`
//! warns — without failing — when the baseline's header disagrees (or
//! predates the header). The `fanout_gate` field says whether the ≥2×
//! threaded-lockstep gate was armed on this host, and with what result.
//!
//! * `--quick` — shorter sampling windows: a smoke gate for
//!   `scripts/check.sh`, not a tracking-quality measurement. Its
//!   regression floor is 50% (collapse detection) instead of the tracking
//!   run's 20%, because short samples on a shared box routinely swing
//!   20–30% machine-wide.
//! * `--compare BASE.json` — print per-benchmark deltas against a previous
//!   report and **exit nonzero** if any benchmark present in both runs
//!   regressed by more than 20%. Benchmarks absent from the baseline are
//!   reported as *new*, and baseline benchmarks absent from this run as
//!   *missing* — neither fails the gate, so reports can add, rename, or
//!   retire benchmarks against an older baseline without erroring. The
//!   baseline is read before the output file is written, so comparing a
//!   run against its own output path sees the previous run's rates.
//!
//! Wall-clock sampling: each benchmark repeats until both a minimum time
//! and a minimum repetition count are reached, then reports the *best*
//! rate observed (least-noise estimate, the same convention perf-tracking
//! suites use).

use std::process::ExitCode;
use std::time::Instant;

use svf_bench::{cache_probe, predictor_churn, simulate, stack_kernel};
use svf_cpu::{CpuConfig, StackEngine};
use svf_emu::Emulator;
use svf_experiments::traffic::traffic_run;

/// One measured benchmark: name, work metric per run, best rate.
struct Row {
    name: &'static str,
    unit: &'static str,
    /// Simulated work per run (cycles or instructions).
    work_per_run: u64,
    /// Best observed rate in mega-units per second.
    best_rate: f64,
    runs: usize,
}

/// Repeats `f` (which returns simulated work units) until `min_secs` and
/// `min_runs` are both satisfied; returns the best per-run rate seen.
fn measure(
    name: &'static str,
    unit: &'static str,
    min_secs: f64,
    min_runs: usize,
    mut f: impl FnMut() -> u64,
) -> Row {
    // One untimed warm-up run.
    let mut work_per_run = f();
    let started = Instant::now();
    let mut best_rate = 0.0f64;
    let mut runs = 0;
    while started.elapsed().as_secs_f64() < min_secs || runs < min_runs {
        let t0 = Instant::now();
        work_per_run = f();
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        best_rate = best_rate.max(work_per_run as f64 / 1e6 / dt);
        runs += 1;
    }
    eprintln!("{name:<34} {best_rate:9.2} {unit} ({runs} runs)");
    Row { name, unit, work_per_run, best_rate, runs }
}

/// Per-benchmark deltas vs. a baseline report (parsing and ratio rules
/// live in `svf_bench`, unit-tested there). Returns the benchmarks
/// (present in both) that fell below `floor` (0.80 for tracking runs;
/// 0.50 in `--quick` mode, whose short samples on a shared box see
/// 20–30% machine-wide swings — the smoke gate catches collapses, the
/// tracking run catches drifts).
fn compare(rows: &[Row], baseline_path: &str, baseline: &str, floor: f64) -> Vec<String> {
    let base = svf_bench::parse_rates(baseline);
    eprintln!("\ncomparison vs {baseline_path}:");
    let mut regressions = Vec::new();
    for r in rows {
        match svf_bench::rate_ratio(&base, r.name, r.best_rate) {
            Some(ratio) => {
                eprintln!(
                    "{:<34} {:9.2} -> {:9.2} {:<8} ({ratio:5.2}x)",
                    r.name,
                    r.best_rate / ratio,
                    r.best_rate,
                    r.unit
                );
                if ratio < floor {
                    regressions.push(format!("{} ({ratio:.2}x)", r.name));
                }
            }
            None => {
                eprintln!("{:<34} {:>9} -> {:9.2} {:<8} (new)", r.name, "-", r.best_rate, r.unit);
            }
        }
    }
    // Benchmarks the baseline tracked but this run did not produce:
    // surfaced so a silent drop is visible, but never a gate failure
    // (renames and retirements are normal report evolution).
    let current: Vec<&str> = rows.iter().map(|r| r.name).collect();
    for name in svf_bench::missing_from(&base, &current) {
        eprintln!("{name:<34} {:>9} -> {:>9} (missing: not in this run)", "?", "-");
    }
    regressions
}

fn main() -> ExitCode {
    let mut out = "BENCH_pr12.json".to_string();
    let mut quick = false;
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--compare" => {
                compare_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--compare needs a BASE.json argument");
                    std::process::exit(2);
                }));
            }
            _ => out = a,
        }
    }
    // Read the baseline up front: comparing against the output path (a
    // natural thing to do run-over-run) must see the *previous* run's
    // rates, not the file this run is about to write.
    let baseline = compare_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        (path.clone(), text)
    });
    // Quick mode: a handful of timed runs per benchmark, no minimum
    // window — a smoke gate (does it run, is it within 20% of terrible),
    // not a measurement. Best-of-5 rather than a single run: the pipeline
    // benchmarks speed up noticeably over their first few repetitions
    // (page-cache/allocator/hugepage warm-up), and the tracked baselines
    // are best-of-N, so a one-shot sample regularly lands >20% low on a
    // healthy build.
    let scale = |secs: f64, runs: usize| if quick { (0.0, 5) } else { (secs, runs) };

    // Host context for the report header: thread-budget rows are only
    // comparable between hosts with the same core count.
    let logical_cores =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let thread_budget = logical_cores.min(6);

    let kernel = stack_kernel();
    let gap = svf_bench::compile(svf_workloads::workload("gap").expect("exists"));
    let bzip2 = svf_bench::compile(svf_workloads::workload("bzip2").expect("exists"));
    let twolf = svf_bench::compile(svf_workloads::workload("twolf").expect("exists"));
    let twolf_insts = {
        let mut emu = Emulator::new(&twolf);
        emu.run(u64::MAX).expect("runs");
        emu.steps()
    };

    let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
    svf_cfg.stack_engine = StackEngine::svf_8kb();
    let base_cfg = CpuConfig::wide16();
    let sweep_base = CpuConfig::wide16().with_ports(2, 0);
    let sweep = svf_bench::sweep_configs();
    // The validated twolf plan from tests/sampling.rs (keep in sync).
    let twolf_plan = svf_cpu::SampleSpec::parse(
        "mode=random,seed=3,period=60k,interval=5k,warmup=6k,ramp=1k,tail=500",
    )
    .expect("plan parses");

    let (s1, r1) = scale(1.0, 5);
    let (s2, r2) = scale(1.5, 5);
    let (s3, r3) = scale(1.5, 3);
    let (s4, r4) = scale(0.5, 5);
    let micro_n: u64 = if quick { 200_000 } else { 2_000_000 };
    let rows = [
        measure("emulator/gap", "Minst/s", s1, r1, || {
            let mut emu = Emulator::new(&gap);
            emu.run(u64::MAX).expect("runs");
            emu.steps()
        }),
        // The functional traffic simulation behind Table 3 (stack cache vs
        // SVF at 8 KB): emulation plus both structures, no timing model.
        measure("functional/traffic-twolf", "Minst/s", s1, r1, || {
            std::hint::black_box(traffic_run(&twolf, 8 << 10, None));
            twolf_insts
        }),
        measure("pipeline-16wide/stack-kernel", "Mcyc/s", s2, r2, || {
            simulate(&base_cfg, &kernel).cycles
        }),
        measure("pipeline-svf-2p2/stack-kernel", "Mcyc/s", s2, r2, || {
            simulate(&svf_cfg, &kernel).cycles
        }),
        // A fig5-style sweep point: one workload under the paper's baseline
        // and SVF configurations, exactly what the experiment drivers run
        // thousands of times.
        measure("sweep/fig5-point-bzip2", "Mcyc/s", s3, r3, || {
            simulate(&sweep_base, &bzip2).cycles + simulate(&svf_cfg, &bzip2).cycles
        }),
        // The PR 6 headline pair: the six-configuration golden sweep over
        // one workload, first as six independent simulations (six
        // functional re-executions), then batched over one shared record
        // stream. The simulated work is identical, so the rate gap is the
        // lockstep speedup.
        measure("sweep/6cfg-bzip2-per-config", "Mcyc/s", s3, r3, || {
            sweep.iter().map(|cfg| simulate(cfg, &bzip2).cycles).sum()
        }),
        measure("sweep/6cfg-bzip2-lockstep", "Mcyc/s", s3, r3, || {
            svf_cpu::run_lockstep(&sweep, &bzip2, u64::MAX).iter().map(|s| s.cycles).sum()
        }),
        // The PR 10 headline: the same batched sweep with its six timing
        // models fanned out across worker threads (one per model, capped
        // at the host's logical cores). Identical simulated work and
        // bit-identical statistics, so the rate gap against the serial
        // lockstep row is the fan-out speedup — an honest number for
        // whatever host wrote the report (its core count is in the
        // header); the ≥2x gate below only arms on a ≥4-core host.
        measure("sweep/6cfg-bzip2-lockstep-mt", "Mcyc/s", s3, r3, || {
            svf_cpu::run_lockstep_fanout(&sweep, &bzip2, u64::MAX, thread_budget)
                .iter()
                .map(|s| s.cycles)
                .sum()
        }),
        // The PR 9 headline pair: the longest workload simulated in full
        // detail, then under the validated sampling plan from
        // tests/sampling.rs (2% IPC bound at ~12% detailed). Both rows
        // report whole-program Minst/s over the same instruction count,
        // so their rate ratio IS the wall-clock speedup of sampling.
        measure("sampled/twolf-full-detail", "Minst/s", s3, r3, || {
            simulate(&base_cfg, &twolf).committed
        }),
        measure("sampled/twolf-sampled", "Minst/s", s3, r3, || {
            svf_cpu::run_sampled(std::slice::from_ref(&base_cfg), &twolf, u64::MAX, &twolf_plan)
                .pop()
                .expect("one config in, one estimate out")
                .stats
                .committed
        }),
        // The flattened substructures alone.
        measure("micro/cache-probe", "Macc/s", s4, r4, || cache_probe(micro_n)),
        measure("micro/predictor", "Mbr/s", s4, r4, || predictor_churn(micro_n)),
    ];

    // The sampled-vs-full contract behind the pair above, checked on every
    // bench run: the estimate must stay within its declared 2% IPC bound
    // (deterministic, so an exact contract) and the speedup must clear 5x
    // (a wall-clock ratio of two rates from the same process, so machine
    // noise largely cancels even in --quick mode).
    let rate = |name: &str| {
        rows.iter().find(|r| r.name == name).map(|r| r.best_rate).expect("row exists")
    };
    let speedup = rate("sampled/twolf-sampled") / rate("sampled/twolf-full-detail");
    let full = simulate(&base_cfg, &twolf);
    let est = svf_cpu::run_sampled(std::slice::from_ref(&base_cfg), &twolf, u64::MAX, &twolf_plan)
        .pop()
        .expect("one config in, one estimate out");
    let ipc_err = svf_cpu::relative_error(est.stats.ipc(), full.ipc());
    eprintln!(
        "sampled-vs-full/twolf: speedup {speedup:.2}x, IPC error {:.4} \
         ({} detailed of {} insts)",
        ipc_err, est.detailed_insts, est.total_insts
    );
    if ipc_err > 0.02 {
        eprintln!("SAMPLING ERROR: twolf IPC error {ipc_err:.4} exceeds the 2% bound");
        return ExitCode::FAILURE;
    }
    if speedup < 5.0 {
        eprintln!("SAMPLING SPEEDUP: {speedup:.2}x is below the 5x floor");
        return ExitCode::FAILURE;
    }

    // The PR 10 fan-out contract: on a host with enough cores to actually
    // fan out (≥4), the threaded lockstep row must clear 2x the serial
    // lockstep rate. On smaller hosts the row is still measured and
    // recorded (the honest number for this box, core count in the header)
    // but the gate stays disarmed — oversubscribed barriers cannot speed
    // anything up.
    let mt_speedup = rate("sweep/6cfg-bzip2-lockstep-mt") / rate("sweep/6cfg-bzip2-lockstep");
    eprintln!(
        "lockstep-mt/bzip2: {mt_speedup:.2}x over serial lockstep \
         ({thread_budget} threads on {logical_cores} logical cores)"
    );
    let (fanout_gate, fanout_ok) = svf_bench::fanout_gate(logical_cores, mt_speedup);
    eprintln!("fan-out gate: {fanout_gate}");
    if !fanout_ok {
        eprintln!("FANOUT SPEEDUP: {fanout_gate}");
        return ExitCode::FAILURE;
    }

    let mut json = String::from("{\n  \"suite\": \"svf-throughput\",\n");
    json.push_str(&format!(
        "  \"host\": {{\"logical_cores\": {logical_cores}, \"thread_budget\": {thread_budget}}},\n"
    ));
    json.push_str(&format!("  \"fanout_gate\": \"{fanout_gate}\",\n"));
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"rate\": {:.3}, \
             \"work_per_run\": {}, \"runs\": {}}}{}\n",
            r.name,
            r.unit,
            r.best_rate,
            r.work_per_run,
            r.runs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("wrote {out}");

    if let Some((path, baseline)) = baseline {
        // Different core counts make the thread-budget rows incomparable;
        // warn (the serial rows still compare fine) rather than fail.
        match svf_bench::parse_logical_cores(&baseline) {
            Some(base_cores) if base_cores != logical_cores as u64 => {
                eprintln!(
                    "WARNING: baseline {path} was taken on {base_cores} logical cores, \
                     this host has {logical_cores}; threaded rows are not comparable"
                );
            }
            None => {
                eprintln!(
                    "WARNING: baseline {path} has no host header (pre-PR10); \
                     core counts may differ"
                );
            }
            Some(_) => {}
        }
        let floor = if quick { 0.50 } else { 0.80 };
        let regressions = compare(&rows, &path, &baseline, floor);
        if !regressions.is_empty() {
            eprintln!(
                "\nREGRESSION (>{:.0}% below baseline): {}",
                100.0 * (1.0 - floor),
                regressions.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
