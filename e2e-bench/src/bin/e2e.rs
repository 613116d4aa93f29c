//! `e2e` — runs one benchmark workload, or compares two sets of runs.
//!
//! ```text
//! e2e --workload W [--seed N] [--seconds S] [--trace [0|1]] [--jsonl FILE]
//! e2e compare BASE.jsonl NEW.jsonl
//! ```
//!
//! A run sets the workload up, warms it up, then repeats its unit of work
//! for `--seconds`, setting the workload up again after every rep.
//! `setup_s` is the median set-up time; `sim_minst_per_s` comes from the
//! fastest rep. Every rep does identical, deterministic work, so on a
//! shared host the fastest one is the code's own cost and slower ones add
//! interference: over consecutive 20 s windows on a shared 2-vCPU host,
//! the fastest rep varied by 2% and the median rep by 10%.
//!
//! A run prints a summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace` the per-layer ones). `--jsonl
//! FILE` also appends the result, tagged with workload and seed, for
//! `e2e compare`. The exit code is 0 only if every correctness check
//! passed.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use svf_e2e_bench::compare::{judge, pair_by_seed, parse_records, values, Verdict};
use svf_e2e_bench::json::quote;
use svf_e2e_bench::run::{self, secs_since, Kind, Rep};
use svf_e2e_bench::stats::median;
use svf_e2e_bench::table::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use svf_e2e_bench::trace::{self, At, Tracer, GLUE};

const USAGE: &str =
    "usage: e2e --workload W [--seed N] [--seconds S] [--trace [0|1]] [--jsonl FILE]\n       \
                     e2e compare BASE.jsonl NEW.jsonl";

/// Set-ups before the first rep; one more follows every timed rep, and
/// `setup_s` is the median of them all.
const SETUPS: usize = 5;
/// Untimed warm-up before the measured window (at least one rep).
const WARMUP_S: f64 = 2.0;
/// Fewest timed reps a run reports, however long they take.
const MIN_REPS: usize = 3;
/// Lowest acceptable `trace.coverage`.
const MIN_COVERAGE: f64 = 0.95;

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    jsonl: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut kind = None;
        let (mut seed, mut seconds, mut trace, mut jsonl) = (1, 20.0, false, None);
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    kind = Some(Kind::from_name(&w).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {w:?} (have: {})", names.join(", "))
                    })?);
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                "--trace" => {
                    trace = it
                        .next_if(|v| *v == "0" || *v == "1")
                        .is_none_or(|v| v == "1");
                }
                "--jsonl" => jsonl = Some(PathBuf::from(value("--jsonl")?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        Ok(Opts {
            kind,
            seed,
            seconds,
            trace,
            jsonl,
        })
    }
}

/// What a run measured and found.
struct Outcome {
    metrics: Vec<(&'static Metric, f64)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp_dir = run::target_dir()
        .join("bench-tmp")
        .join(std::process::id().to_string());
    let outcome = if opts.trace {
        traced(&opts, &tmp_dir)
    } else {
        timed(&opts, &tmp_dir)
    };
    std::fs::remove_dir_all(&tmp_dir).ok();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {}: {e}", opts.kind.name());
            return ExitCode::FAILURE;
        }
    };
    report(&opts, &outcome)
}

/// The set-up, warm-up, timed-window run behind the end-to-end metrics.
fn timed(opts: &Opts, tmp_dir: &Path) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let s = run::setup(opts.kind, opts.seed);
        setup_times.push(secs_since(t));
        s
    };
    for _ in 1..SETUPS {
        set_up()?;
    }
    let setup = set_up()?;

    let mut reps: Vec<Rep> = Vec::new();
    let warm = Instant::now();
    while reps.is_empty() || secs_since(warm) < WARMUP_S {
        reps.push(run::rep(&setup, tmp_dir, reps.len()));
    }
    let warmups = reps.len();
    let mut walls = Vec::new();
    let window = Instant::now();
    while walls.len() < MIN_REPS || secs_since(window) < opts.seconds {
        let t = Instant::now();
        let r = run::rep(&setup, tmp_dir, reps.len());
        walls.push(secs_since(t));
        reps.push(r);
        set_up()?;
    }

    let problems = run::check_reps(&setup, &reps);
    let insts = run::unit_insts(&setup, &reps[0]) as f64;
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let values = [
        median(&setup_times),
        insts / best / 1e6,
        run::peak_rss_mb()?,
    ];
    Ok(Outcome {
        metrics: END_TO_END.iter().zip(values).collect(),
        attempted: reps.iter().map(|r| r.jobs).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        problems,
        notes: vec![format!(
            "{:.1} Minst per rep; {} timed reps, fastest {best:.4} s, median {:.4} s; {warmups} warm-up; {} set-ups",
            insts / 1e6,
            walls.len(),
            median(&walls),
            setup_times.len(),
        )],
    })
}

/// The traced run behind the per-layer metrics: one rep through the
/// public entry point, then traced passes over every layer until
/// `--seconds` have gone by.
fn traced(opts: &Opts, tmp_dir: &Path) -> Result<Outcome, String> {
    let setup = run::setup(opts.kind, opts.seed)?;
    let t = Tracer::new();
    let root = At {
        parent: None,
        thread: 0,
        job: None,
    };
    let mut passes = Vec::new();
    let mut problems = Vec::new();
    let entry = t.span(root, "trace", GLUE, |id| {
        let entry = t.span(root.under(id), "entry", "entry", |_| {
            (run::rep(&setup, tmp_dir, 0), 0)
        });
        let window = Instant::now();
        // Start another pass only if it should end inside the window.
        while passes.is_empty()
            || secs_since(window) * (1.0 + 1.0 / passes.len() as f64) <= opts.seconds
        {
            match run::traced_pass(&setup, &t, id, tmp_dir) {
                Ok(pass) => passes.push(pass),
                Err(e) => {
                    problems.push(e);
                    break;
                }
            }
        }
        (entry, 0)
    });
    let failed_passes = problems.len();

    let spans = t.spans();
    let coverage = trace::coverage(&spans);
    let entry_s = spans
        .iter()
        .find(|s| s.name == "entry")
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
    let path = run::target_dir().join("bench-trace").join(format!(
        "{}-s{}.json",
        opts.kind.name(),
        opts.seed
    ));
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, trace::to_json(opts.kind.name(), opts.seed, &spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    problems.extend(run::check_reps(&setup, std::slice::from_ref(&entry)));
    if passes.windows(2).any(|w| w[0].1 != w[1].1) {
        problems.push("model counters differ between traced passes".to_string());
    }
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "trace.coverage {coverage:.3} is below {MIN_COVERAGE}"
        ));
    }
    let mut notes = vec![format!(
        "{} traced passes, trace written to {}",
        passes.len(),
        path.display()
    )];
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < run::THREADS {
        notes.push(format!(
            "cpu.fanout*: unresolved: needs {} cores, host has {cores}",
            run::THREADS
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "trace.coverage" => coverage,
                "trace.entry_s" => entry_s,
                "harness.compiles" => entry.compiles as f64,
                name => {
                    let per_pass: Vec<f64> = passes
                        .iter()
                        .map(|(p, _)| *p.get(name).unwrap_or_else(|| panic!("pass has no {name}")))
                        .collect();
                    median(&per_pass)
                }
            };
            (m, v)
        })
        .collect();
    // The entry rep's jobs plus one operation per traced pass.
    Ok(Outcome {
        metrics,
        attempted: entry.jobs + passes.len() + failed_passes,
        failed: entry.failed + failed_passes,
        problems,
        notes,
    })
}

/// Prints the summary and the result line; appends the JSONL record.
fn report(opts: &Opts, o: &Outcome) -> ExitCode {
    let broken: Vec<&str> = o
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(m, _)| m.name)
        .collect();
    let correct = o.problems.is_empty() && broken.is_empty();
    eprintln!(
        "{} seed {}: {}",
        opts.kind.name(),
        opts.seed,
        o.notes.join("; ")
    );
    for (m, v) in &o.metrics {
        eprintln!("  {:<24} {v:>14.6} {}", m.name, m.unit);
    }
    for p in &o.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    if !broken.is_empty() {
        eprintln!("  CHECK FAILED: not a finite number: {}", broken.join(", "));
    }
    let mut metrics = String::new();
    for (i, (m, v)) in o.metrics.iter().enumerate() {
        // JSON has no NaN or infinity; such a value already failed the run.
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {v}, \"unit\": {}}}",
            quote(m.name),
            quote(m.unit)
        );
    }
    let body = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}",
        o.attempted.max(1),
        o.failed
    );
    if let Some(path) = &opts.jsonl {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {body}}}\n",
            quote(opts.kind.name()),
            opts.seed,
            opts.trace
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("e2e: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{{body}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `e2e compare BASE.jsonl NEW.jsonl`: one row per (workload, metric).
/// Exits 1 if any end-to-end metric regressed beyond its bound.
fn compare_main(args: &[String]) -> ExitCode {
    let [base_path, new_path] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_records(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<23} {:>32} {:>32} {:>7} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "wins", "spread"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let (b, n) = (values(&base, w.name, m.name), values(&new, w.name, m.name));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let pairs = pair_by_seed(&base, &new, w.name, m.name);
            let j = judge(&b, &n, &pairs, m.better, m.bound);
            regressed |= j.verdict == Verdict::Regression;
            let side = |med: f64, (q1, q3): (f64, f64)| format!("{med:.5} [{q1:.5}, {q3:.5}]");
            println!(
                "{:<15} {:<23} {:>32} {:>32} {:>7} {:>6.1}%  {}",
                w.name,
                m.name,
                side(j.base_median, j.base_quartiles),
                side(j.new_median, j.new_quartiles),
                format!("{}/{}", j.wins, j.pairs),
                100.0 * j.base_spread,
                j.verdict.label()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
