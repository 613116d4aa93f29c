//! Command-line experiment runner.
//!
//! ```text
//! svf-experiments <experiment> [--scale test|small|full] [--csv DIR]
//!                              [--jobs N] [--threads T] [--out DIR]
//!                              [--no-lockstep] [--timeout SECS] [--retries N]
//!                              [--sample SPEC]
//! svf-experiments --sweep SPEC.toml [--csv DIR] [--jobs N] [--threads T]
//!                                   [--no-lockstep]
//! svf-experiments --list-configs
//! experiments: fig1 fig2 fig3 fig5 fig6 fig7 fig8 fig9 table1 table2
//!              table3 table4 ablation-* partial-word all
//! --csv DIR      additionally writes each result table as DIR/<id>[.n].csv
//!                (for --sweep: DIR/points.csv and DIR/pareto.csv)
//! --jobs N       simulate N jobs in parallel (default: all hardware threads)
//! --threads T    unified thread budget: the run occupies at most T threads,
//!                split between job workers and intra-batch timing fan-out
//!                (jobs × fanout ≤ T). A worker that runs out of batches
//!                donates its seat; the next batch another worker starts
//!                (a retry or bisection half included) may claim it, while
//!                batches already running keep their fan-out. Without it,
//!                batches advance their pipelines serially on their worker
//!                thread. Results are bit-identical at any fan-out.
//! --out DIR      result sink: DIR/<experiment>/<content-key>.csv, keyed by
//!                program, machine config, sampling plan and simulator
//!                version; jobs (sweep points included) whose result file
//!                exists are resumed instead of re-simulated
//! --no-lockstep  simulate each job against its own emulator instead of
//!                batching jobs that share a program over one functional
//!                stream (bit-identical either way; for A/B timing)
//! --timeout SECS per-attempt watchdog: an attempt exceeding the limit is
//!                abandoned as a (retryable) timeout instead of hanging the run
//! --retries N    total attempts per job for retryable failures (default 3)
//! --sample SPEC  sampled simulation: run each program functionally end to
//!                end, pay detailed cost only in the plan's measured
//!                intervals, and report the stratified whole-run estimate.
//!                SPEC is comma-separated key=value pairs: period, interval,
//!                warmup, ramp, tail, intervals (max count), mode
//!                (periodic|random), seed; counts accept k/m suffixes;
//!                empty string = defaults. Composes with --sweep, --out
//!                (use a sampled-only directory), and lockstep batching.
//! --sweep SPEC   run a design-space sweep from a TOML spec (grid, random,
//!                or greedy Pareto search — see EXPERIMENTS.md); prints the
//!                frontier and writes points.csv/pareto.csv
//! --list-configs print the named config presets and their overlays
//! ```

use std::time::Instant;

use svf_experiments::{
    ablations, partial_word, fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, tables, traffic, Scale,
};

/// Every experiment name `run_one` accepts, for usage and error messages.
const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "table4",
    "ablation-size",
    "ablation-squash",
    "ablation-codegen",
    "ablations",
    "partial-word",
    "all",
];

fn usage() -> ! {
    eprintln!(
        "usage: svf-experiments <experiment> [--scale test|small|full] [--csv DIR] [--jobs N] [--threads T] [--out DIR] [--no-lockstep] [--timeout SECS] [--retries N] [--sample SPEC]\n\
         \u{20}      svf-experiments --sweep SPEC.toml [--csv DIR] [--jobs N] [--threads T] [--no-lockstep]\n\
         \u{20}      svf-experiments --list-configs\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// Exits with a specific complaint (rather than the generic usage text).
fn fail(msg: &str) -> ! {
    eprintln!("svf-experiments: {msg}");
    std::process::exit(2);
}

fn required_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| fail(&format!("{flag} requires a value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale = Scale::Small;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut out_dir: Option<String> = None;
    let mut lockstep = true;
    let mut timeout: Option<f64> = None;
    let mut retries: Option<u32> = None;
    let mut sweep_spec: Option<String> = None;
    let mut sample: Option<svf_cpu::SampleSpec> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-lockstep" => lockstep = false,
            "--list-configs" => {
                print!("{}", svf_configspace::registry::listing());
                return;
            }
            "--sweep" => sweep_spec = Some(required_value(&mut it, "--sweep")),
            "--scale" => {
                scale = match required_value(&mut it, "--scale").as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => fail(&format!("--scale must be test|small|full, got {other:?}")),
                };
            }
            "--csv" => csv_dir = Some(required_value(&mut it, "--csv")),
            "--out" => out_dir = Some(required_value(&mut it, "--out")),
            "--jobs" => {
                let v = required_value(&mut it, "--jobs");
                jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => fail(&format!("--jobs must be a positive integer, got {v:?}")),
                };
            }
            "--threads" => {
                let v = required_value(&mut it, "--threads");
                threads = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => fail(&format!("--threads must be a positive integer, got {v:?}")),
                };
            }
            "--timeout" => {
                let v = required_value(&mut it, "--timeout");
                timeout = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => Some(s),
                    _ => fail(&format!("--timeout must be positive seconds, got {v:?}")),
                };
            }
            "--retries" => {
                let v = required_value(&mut it, "--retries");
                retries = match v.parse::<u32>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => fail(&format!("--retries must be a positive integer, got {v:?}")),
                };
            }
            "--sample" => {
                let v = required_value(&mut it, "--sample");
                sample = match svf_cpu::SampleSpec::parse(&v) {
                    Ok(spec) => Some(spec),
                    Err(e) => fail(&format!("--sample: {e}")),
                };
            }
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag}")),
            name if which.is_none() => which = Some(name.to_string()),
            extra => fail(&format!("unexpected argument {extra:?}")),
        }
    }
    if sweep_spec.is_none() {
        let Some(which) = &which else { usage() };
        if !EXPERIMENTS.contains(&which.as_str()) {
            fail(&format!("unknown experiment {which:?} (valid: {})", EXPERIMENTS.join(", ")));
        }
    } else if which.is_some() {
        fail("--sweep takes a spec file, not an experiment name");
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("svf-experiments: cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }

    // Every figure/table driver routes its simulations through the global
    // harness, so `--jobs`/`--out` are installed exactly once, here.
    let mut harness =
        svf_harness::Harness::parallel().with_progress(true).with_lockstep(lockstep);
    if let Some(n) = jobs {
        harness = harness.with_workers(n);
    }
    if let Some(t) = threads {
        harness = harness.with_threads(t);
    }
    if let Some(dir) = &out_dir {
        harness = harness.with_out_dir(dir);
    }
    if let Some(secs) = timeout {
        harness = harness.with_timeout(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(n) = retries {
        harness = harness.with_retries(n);
    }
    if let Some(spec) = sample {
        harness = harness.with_sample(spec);
    }
    svf_harness::configure(harness);

    if let Some(spec_path) = sweep_spec {
        run_sweep_file(&spec_path, csv_dir.as_deref());
        return;
    }

    let which = which.expect("checked above");
    let start = Instant::now();
    run_one(&which, scale, csv_dir.as_deref());
    eprintln!("[{} completed in {:.1}s]", which, start.elapsed().as_secs_f64());
}

/// Loads a sweep spec, runs it on the global harness, prints the frontier,
/// and writes `points.csv`/`pareto.csv` (to `--csv DIR`, default
/// `target/sweep/<name>`).
fn run_sweep_file(spec_path: &str, csv_dir: Option<&str>) {
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {spec_path}: {e}")));
    let spec = svf_configspace::SweepSpec::from_toml(&text)
        .unwrap_or_else(|e| fail(&format!("{spec_path}: {e}")));
    let start = Instant::now();
    let outcome = svf_experiments::run_sweep_on_global(&spec)
        .unwrap_or_else(|e| fail(&format!("sweep {}: {e}", spec.name)));
    let dir = csv_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/sweep").join(&spec.name));
    let (points_csv, pareto_csv) = svf_harness::sweep::write_csv(&spec, &outcome, &dir)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", dir.display())));
    println!("{}", outcome.summary);
    println!("pareto frontier (ascending cost):");
    for &i in &outcome.frontier {
        let p = &outcome.points[i];
        println!("  {:>8} B  IPC {:.4}  {}", p.cost_bytes, p.ipc(), p.label);
    }
    println!("wrote {} and {}", points_csv.display(), pareto_csv.display());
    eprintln!("[sweep {} completed in {:.1}s]", spec.name, start.elapsed().as_secs_f64());
}

/// Prints a table and optionally mirrors it to `DIR/<id>.csv`.
fn emit(table: &svf_experiments::ExpTable, id: &str, csv_dir: Option<&str>) {
    println!("{table}");
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{id}.csv");
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("svf-experiments: cannot write {path}: {e}");
        }
    }
}

fn run_one(which: &str, scale: Scale, csv: Option<&str>) {
    match which {
        "fig1" => emit(&fig1::run(scale), "fig1", csv),
        "fig2" => emit(&fig2::run(scale), "fig2", csv),
        "fig3" => emit(&fig3::run(scale), "fig3", csv),
        "fig5" => emit(&fig5::run_fig(scale), "fig5", csv),
        "fig6" => emit(&fig6::run_fig(scale), "fig6", csv),
        "fig7" => emit(&fig7::run_fig(scale), "fig7", csv),
        "fig8" => emit(&fig8::run_fig(scale), "fig8", csv),
        "fig9" => emit(&fig9::run_fig(scale), "fig9", csv),
        "table1" => emit(&tables::table1(), "table1", csv),
        "table2" => emit(&tables::table2(), "table2", csv),
        "table3" => {
            for (i, t) in traffic::table3(scale).iter().enumerate() {
                emit(t, &format!("table3.{}kb", 2u32 << i), csv);
            }
        }
        "table4" => emit(&traffic::table4(scale), "table4", csv),
        "partial-word" => emit(&partial_word::run_experiment(scale), "partial-word", csv),
        "ablation-size" => emit(&ablations::size_sweep(scale), "ablation-size", csv),
        "ablation-squash" => {
            emit(&ablations::squash_sensitivity(scale), "ablation-squash", csv);
        }
        "ablation-codegen" => emit(&ablations::code_quality(scale), "ablation-codegen", csv),
        "ablations" => {
            emit(&ablations::size_sweep(scale), "ablation-size", csv);
            emit(&ablations::squash_sensitivity(scale), "ablation-squash", csv);
            emit(&ablations::code_quality(scale), "ablation-codegen", csv);
        }
        "all" => {
            for exp in [
                "table1", "table2", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
                "fig9", "table3", "table4",
            ] {
                let t = Instant::now();
                run_one(exp, scale, csv);
                eprintln!("[{} done in {:.1}s]", exp, t.elapsed().as_secs_f64());
            }
        }
        other => fail(&format!("unknown experiment {other:?} (valid: {})", EXPERIMENTS.join(", "))),
    }
}
