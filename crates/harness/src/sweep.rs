//! Design-space sweep execution: expand a [`SweepSpec`] into jobs, run
//! them through the harness (one compile per workload via the memo cache,
//! one functional stream per lockstep batch of a workload's points), and
//! reduce the results to a Pareto frontier of IPC versus dedicated
//! stack-storage cost.
//!
//! The spec (crate `svf-configspace`) owns the sweep's *geometry* — axes,
//! index vectors, neighbourhoods; this module owns *execution*. Grid and
//! random sweeps evaluate a fixed point set in one batch. Pareto sweeps run
//! the greedy loop: evaluate the seed points, compute the frontier, enqueue
//! the unevaluated ±1-axis neighbours of frontier points, repeat for
//! `rounds` rounds or until no neighbour is new.
//!
//! Every evaluated point lands in `points.csv` (one row per point ×
//! workload, plus the axis columns); the frontier lands in `pareto.csv`
//! (aggregate IPC, cost, and the axis columns). Cost is
//! [`svf_configspace::stack_structure_bytes`]; IPC aggregates as total
//! committed instructions over total cycles across the spec's workloads.
//!
//! # Crash-safe resume
//!
//! Sweeps resume through the harness's result sink like any other run:
//! every point of a batch is submitted, and with an output directory each
//! job whose content-keyed result file exists loads instead of
//! simulating. A sweep killed mid-run — even `kill -9` — restarts with
//! only its missing jobs; because the sink stores exact integer counters,
//! the resumed sweep's `points.csv` and `pareto.csv` are byte-identical to
//! an uninterrupted run's. Delete the output directory to force a clean
//! re-evaluation.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use svf_configspace::SweepSpec;
use svf_cpu::CpuConfig;
use svf_workloads::Scale;

use crate::sink::atomic_write;
use crate::{memo, Experiment, Harness, ProgramSpec};

/// One evaluated sweep point: a config (an index vector into the spec's
/// axes) with its per-workload and aggregate results.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Index into each axis, in axis order.
    pub index: Vec<usize>,
    /// Human label (`"svf_bytes=1024 stack_ports=2"`).
    pub label: String,
    /// The machine at this point.
    pub config: CpuConfig,
    /// `(workload, cycles, committed)` per workload, in spec order.
    pub runs: Vec<(String, u64, u64)>,
    /// Stack-structure hardware cost in bytes (the Pareto cost axis).
    pub cost_bytes: u64,
}

impl SweepPoint {
    /// Aggregate IPC: total committed instructions over total cycles.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let cycles: u64 = self.runs.iter().map(|r| r.1).sum();
        let committed: u64 = self.runs.iter().map(|r| r.2).sum();
        if cycles == 0 {
            0.0
        } else {
            committed as f64 / cycles as f64
        }
    }
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec's name.
    pub name: String,
    /// Every evaluated point, in evaluation order.
    pub points: Vec<SweepPoint>,
    /// Indices into `points` on the Pareto frontier (max IPC, min cost),
    /// sorted by ascending cost.
    pub frontier: Vec<usize>,
    /// Workload compilations performed during the sweep (memo-cache delta;
    /// one per workload not already cached when the sweep started).
    pub compiles: u64,
    /// Total timing simulations run.
    pub jobs: usize,
    /// Points whose every job resumed from the result sink.
    pub resumed: usize,
    /// One human summary line (includes `compiles=N` for smoke gates).
    pub summary: String,
}

/// Parses the spec's scale name.
fn parse_scale(name: &str) -> Result<Scale, String> {
    match name {
        "test" => Ok(Scale::Test),
        "small" => Ok(Scale::Small),
        other => Err(format!("scale must be test|small, got {other:?}")),
    }
}

/// Runs a sweep spec to completion under `harness`'s execution policy.
///
/// Jobs are grouped by workload (the memo key), so each workload compiles
/// once per process and — with lockstep enabled, the default — runs one
/// functional stream per batch; the harness's batch plan cuts a workload's
/// points into as few batches as keep its workers balanced.
///
/// # Errors
///
/// Propagates spec-geometry errors (over-cap expansions, bad scale names)
/// and any failed job (unknown workloads, diverging simulations) with the
/// harness's full failure listing.
pub fn run_sweep(spec: &SweepSpec, harness: &Harness) -> Result<SweepOutcome, String> {
    let scale = parse_scale(&spec.scale)?;
    // A spec's `[sampling]` section overrides the harness's plan for this
    // sweep only. The plan is part of each result's content key, so a
    // sampled sweep never resumes full results, nor the other way round.
    let sampled_harness;
    let harness = match spec.sampling {
        Some(plan) => {
            sampled_harness = harness.clone().with_sample(plan);
            &sampled_harness
        }
        None => harness,
    };
    // Likewise the top-level `threads` key: the spec's unified thread
    // budget (job workers + intra-batch timing fan-out) wins for this
    // sweep only. Results are bit-identical at any fan-out, so the
    // override never changes what resumes.
    let budgeted_harness;
    let harness = match spec.threads {
        Some(total) => {
            budgeted_harness =
                harness.clone().with_threads(usize::try_from(total).unwrap_or(usize::MAX));
            &budgeted_harness
        }
        None => harness,
    };
    let compiles_before = memo::compile_count();
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut resumed = 0usize;
    let mut rounds_run = 0u64;

    match spec.mode {
        svf_configspace::Mode::Grid => {
            let batch = spec.grid_indices()?;
            evaluate(spec, harness, scale, batch, &mut points, &mut seen, 0, &mut resumed)?;
        }
        svf_configspace::Mode::Random => {
            let batch = spec.random_indices()?;
            evaluate(spec, harness, scale, batch, &mut points, &mut seen, 0, &mut resumed)?;
        }
        svf_configspace::Mode::Pareto => {
            let mut batch = spec.pareto_seed_indices()?;
            for round in 0..=spec.rounds {
                let budget = (spec.max_points as usize).saturating_sub(points.len());
                if budget == 0 || batch.is_empty() {
                    break;
                }
                batch.truncate(budget);
                evaluate(spec, harness, scale, batch, &mut points, &mut seen, round, &mut resumed)?;
                rounds_run = round;
                // Next round: the unevaluated neighbours of today's frontier.
                batch = frontier_of(&points)
                    .into_iter()
                    .flat_map(|p| spec.neighbors(&points[p].index))
                    .filter(|idx| !seen.contains(idx))
                    .collect::<HashSet<_>>()
                    .into_iter()
                    .collect();
                batch.sort_unstable();
            }
        }
    }

    let frontier = frontier_of(&points);
    let compiles = memo::compile_count() - compiles_before;
    let jobs = points.iter().map(|p| p.runs.len()).sum();
    let mut summary = format!(
        "[sweep {}] {} points  {} jobs  compiles={compiles}  frontier={}",
        spec.name,
        points.len(),
        jobs,
        frontier.len(),
    );
    if resumed > 0 {
        let _ = write!(summary, "  resumed={resumed}");
    }
    if spec.mode == svf_configspace::Mode::Pareto {
        let _ = write!(summary, "  rounds={rounds_run}");
        if points.len() as u64 >= spec.max_points {
            let _ = write!(summary, "  (stopped at max_points={})", spec.max_points);
        }
    }
    Ok(SweepOutcome { name: spec.name.clone(), points, frontier, compiles, jobs, resumed, summary })
}

/// Evaluates one batch of index vectors: builds the workload-major
/// experiment over every new point, runs it (the sink resumes finished
/// jobs), and appends one [`SweepPoint`] per vector in batch order.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    spec: &SweepSpec,
    harness: &Harness,
    scale: Scale,
    batch: Vec<Vec<usize>>,
    points: &mut Vec<SweepPoint>,
    seen: &mut HashSet<Vec<usize>>,
    round: u64,
    resumed: &mut usize,
) -> Result<(), String> {
    let batch: Vec<Vec<usize>> = batch.into_iter().filter(|idx| seen.insert(idx.clone())).collect();
    if batch.is_empty() {
        return Ok(());
    }
    let configs = batch.iter().map(|idx| spec.config_at(idx)).collect::<Result<Vec<_>, _>>()?;
    // Workload-major, so results reassemble row-major: [workload][point].
    let mut exp = Experiment::new(format!("{}-r{round}", spec.name));
    for workload in &spec.workloads {
        for (idx, cfg) in batch.iter().zip(&configs) {
            exp.push(
                ProgramSpec::workload(workload, scale),
                &format!("p{}", point_slug(idx)),
                cfg.clone(),
            );
        }
    }
    let report = harness.run(&exp);
    let stats = report.try_stats()?;
    let n = batch.len();
    for (b, (index, config)) in batch.into_iter().zip(configs).enumerate() {
        let jobs = (0..spec.workloads.len()).map(|w| w * n + b);
        if jobs.clone().all(|j| report.jobs[j].outcome.is_resumed()) {
            *resumed += 1;
        }
        let runs = jobs
            .zip(&spec.workloads)
            .map(|(j, name)| (name.clone(), stats[j].cycles, stats[j].committed))
            .collect();
        points.push(SweepPoint {
            label: spec.label_at(&index),
            cost_bytes: svf_configspace::stack_structure_bytes(&config),
            index,
            config,
            runs,
        });
    }
    Ok(())
}

/// A stable, filesystem-safe slug for an index vector (`3-0-2`).
fn point_slug(idx: &[usize]) -> String {
    idx.iter().map(ToString::to_string).collect::<Vec<_>>().join("-")
}

/// The Pareto frontier over (maximize IPC, minimize cost): indices of
/// points no other point dominates, sorted by ascending cost then
/// descending IPC. Duplicate (ipc, cost) points keep only the first.
#[must_use]
pub fn frontier_of(points: &[SweepPoint]) -> Vec<usize> {
    let mut frontier: Vec<usize> = Vec::new();
    'candidates: for (i, p) in points.iter().enumerate() {
        let (ipc, cost) = (p.ipc(), p.cost_bytes);
        for (j, q) in points.iter().enumerate() {
            let better = q.ipc() > ipc || q.cost_bytes < cost;
            let no_worse = q.ipc() >= ipc && q.cost_bytes <= cost;
            let duplicate = j < i && q.ipc() == ipc && q.cost_bytes == cost;
            if (no_worse && better) || duplicate {
                continue 'candidates;
            }
        }
        frontier.push(i);
    }
    frontier.sort_by(|&a, &b| {
        points[a]
            .cost_bytes
            .cmp(&points[b].cost_bytes)
            .then(points[b].ipc().total_cmp(&points[a].ipc()))
    });
    frontier
}

/// Writes `points.csv` (one row per point × workload) and `pareto.csv`
/// (one row per frontier point, aggregate IPC) under `dir`, creating it.
/// Returns the two paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    spec: &SweepSpec,
    outcome: &SweepOutcome,
    dir: &Path,
) -> io::Result<(PathBuf, PathBuf)> {
    fs::create_dir_all(dir)?;
    let axis_cols =
        spec.axes.iter().map(|a| a.field.clone()).collect::<Vec<_>>().join(",");

    let mut points = format!("point,workload,{axis_cols},cycles,committed,ipc,cost_bytes\n");
    for p in &outcome.points {
        let axes = axis_values(spec, p);
        for (workload, cycles, committed) in &p.runs {
            let ipc = if *cycles == 0 { 0.0 } else { *committed as f64 / *cycles as f64 };
            let _ = writeln!(
                points,
                "p{},{workload},{axes},{cycles},{committed},{ipc:.4},{}",
                point_slug(&p.index),
                p.cost_bytes,
            );
        }
    }
    let points_path = dir.join("points.csv");
    atomic_write(&points_path, &points)?;

    let mut pareto = format!("point,{axis_cols},ipc,cost_bytes\n");
    for &i in &outcome.frontier {
        let p = &outcome.points[i];
        let _ = writeln!(
            pareto,
            "p{},{},{:.4},{}",
            point_slug(&p.index),
            axis_values(spec, p),
            p.ipc(),
            p.cost_bytes,
        );
    }
    let pareto_path = dir.join("pareto.csv");
    atomic_write(&pareto_path, &pareto)?;
    Ok((points_path, pareto_path))
}

/// The point's value on each axis, comma-joined in axis order.
fn axis_values(spec: &SweepSpec, p: &SweepPoint) -> String {
    spec.axes
        .iter()
        .zip(&p.index)
        .map(|(a, &i)| a.values[i].to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: Vec<usize>, cycles: u64, committed: u64, cost: u64) -> SweepPoint {
        SweepPoint {
            index,
            label: String::new(),
            config: CpuConfig::wide16(),
            runs: vec![("w".to_string(), cycles, committed)],
            cost_bytes: cost,
        }
    }

    #[test]
    fn frontier_drops_dominated_and_duplicate_points() {
        let points = vec![
            point(vec![0], 100, 200, 0),    // ipc 2.0, cost 0 — frontier
            point(vec![1], 100, 300, 1024), // ipc 3.0, cost 1k — frontier
            point(vec![2], 100, 250, 2048), // dominated by #1 (less ipc, more cost)
            point(vec![3], 100, 300, 1024), // duplicate of #1
            point(vec![4], 100, 400, 4096), // ipc 4.0, cost 4k — frontier
        ];
        assert_eq!(frontier_of(&points), vec![0, 1, 4], "sorted by ascending cost");
    }

    #[test]
    fn frontier_of_empty_is_empty() {
        assert!(frontier_of(&[]).is_empty());
    }

    #[test]
    fn aggregate_ipc_sums_workloads() {
        let mut p = point(vec![0], 100, 150, 0);
        p.runs.push(("x".to_string(), 100, 250));
        assert!((p.ipc() - 2.0).abs() < 1e-12, "(150+250)/(100+100)");
        let empty = SweepPoint {
            index: vec![],
            label: String::new(),
            config: CpuConfig::wide16(),
            runs: vec![],
            cost_bytes: 0,
        };
        assert_eq!(empty.ipc(), 0.0, "no division by zero");
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(parse_scale("test").unwrap(), Scale::Test);
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert!(parse_scale("ref").is_err());
    }

    #[test]
    fn point_slugs_are_stable() {
        assert_eq!(point_slug(&[3, 0, 2]), "3-0-2");
        assert_eq!(point_slug(&[]), "");
    }
}
