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
//! When the harness has an output directory, every *completed point* is
//! journaled to `<out>/<spec-name>.journal/p<slug>.csv` (atomically, via
//! temp-file rename) the moment its batch finishes. A sweep killed
//! mid-run — even `kill -9` — restarts by loading journaled points instead
//! of re-simulating them; because the journal stores the exact integer
//! `(cycles, committed)` pairs, the resumed sweep's `points.csv` and
//! `pareto.csv` are byte-identical to an uninterrupted run's. Delete the
//! journal directory to force a clean re-evaluation.

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
    /// Points loaded from the crash-resume journal instead of simulated.
    pub resumed: usize,
    /// One human summary line (includes `compiles=N` for smoke gates).
    pub summary: String,
}

/// The sweep's crash-resume journal: one tiny CSV per completed point under
/// `<out>/<spec-name>.journal/`, holding the exact integer results per
/// workload. Written atomically as each batch completes, so the journal is
/// valid at every instant — the resume protocol for sweeps, one level above
/// the harness's per-job sink.
#[derive(Debug)]
struct Journal {
    dir: PathBuf,
    workloads: Vec<String>,
}

const JOURNAL_HEADER: &str = "workload,cycles,committed";

impl Journal {
    fn create(root: &Path, spec: &SweepSpec) -> io::Result<Journal> {
        let dir = root.join(format!("{}.journal", spec.name));
        fs::create_dir_all(&dir)?;
        Ok(Journal { dir, workloads: spec.workloads.clone() })
    }

    fn point_path(&self, idx: &[usize]) -> PathBuf {
        self.dir.join(format!("p{}.csv", point_slug(idx)))
    }

    /// Loads one journaled point's runs, validating that the file matches
    /// this spec's workload list exactly (names, order, count). Any
    /// mismatch or damage reads as "not journaled" — the point re-runs and
    /// the rewrite repairs the file.
    fn load(&self, idx: &[usize]) -> Option<Vec<(String, u64, u64)>> {
        let text = fs::read_to_string(self.point_path(idx)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != JOURNAL_HEADER {
            return None;
        }
        let mut runs = Vec::with_capacity(self.workloads.len());
        for want in &self.workloads {
            let line = lines.next()?;
            let mut cols = line.split(',');
            let workload = cols.next()?;
            if workload != want {
                return None;
            }
            let cycles: u64 = cols.next()?.parse().ok()?;
            let committed: u64 = cols.next()?.parse().ok()?;
            if cols.next().is_some() {
                return None;
            }
            runs.push((workload.to_string(), cycles, committed));
        }
        if lines.next().is_some() {
            return None;
        }
        Some(runs)
    }

    /// Journals one completed point. A failed write costs only resumability
    /// (the point re-simulates next run), so it warns rather than erroring.
    fn store(&self, idx: &[usize], runs: &[(String, u64, u64)]) {
        let mut text = format!("{JOURNAL_HEADER}\n");
        for (workload, cycles, committed) in runs {
            let _ = writeln!(text, "{workload},{cycles},{committed}");
        }
        let path = self.point_path(idx);
        if let Err(e) = atomic_write(&path, &text) {
            eprintln!("svf-harness: cannot journal {}: {e}", path.display());
        }
    }
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
    // sweep only — the journal stores the extrapolated integers, so resume
    // works unchanged (but don't mix sampled and full journals in one
    // output directory).
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
    // override never changes what the journal resumes to.
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
    // The journal rides the harness's sink root: no sink, no resume.
    let journal = match harness.out_dir() {
        Some(root) => Some(
            Journal::create(root, spec)
                .map_err(|e| format!("cannot create sweep journal under {}: {e}", root.display()))?,
        ),
        None => None,
    };
    let journal = journal.as_ref();
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut resumed = 0usize;
    let mut rounds_run = 0u64;

    match spec.mode {
        svf_configspace::Mode::Grid => {
            let batch = spec.grid_indices()?;
            evaluate(spec, harness, scale, batch, &mut points, &mut seen, 0, journal, &mut resumed)?;
        }
        svf_configspace::Mode::Random => {
            let batch = spec.random_indices()?;
            evaluate(spec, harness, scale, batch, &mut points, &mut seen, 0, journal, &mut resumed)?;
        }
        svf_configspace::Mode::Pareto => {
            let mut batch = spec.pareto_seed_indices()?;
            for round in 0..=spec.rounds {
                let budget = (spec.max_points as usize).saturating_sub(points.len());
                if budget == 0 || batch.is_empty() {
                    break;
                }
                batch.truncate(budget);
                evaluate(
                    spec,
                    harness,
                    scale,
                    batch,
                    &mut points,
                    &mut seen,
                    round,
                    journal,
                    &mut resumed,
                )?;
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

/// Evaluates one batch of index vectors: loads journaled points, builds the
/// workload-major experiment over the *fresh* points only, runs it, appends
/// one [`SweepPoint`] per vector (in batch order, journaled or not, so the
/// resulting point list is identical to an uninterrupted run's), and
/// journals every fresh completion.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    spec: &SweepSpec,
    harness: &Harness,
    scale: Scale,
    batch: Vec<Vec<usize>>,
    points: &mut Vec<SweepPoint>,
    seen: &mut HashSet<Vec<usize>>,
    round: u64,
    journal: Option<&Journal>,
    resumed: &mut usize,
) -> Result<(), String> {
    let batch: Vec<Vec<usize>> = batch.into_iter().filter(|idx| seen.insert(idx.clone())).collect();
    if batch.is_empty() {
        return Ok(());
    }
    // Split the batch into points the journal already holds and points that
    // still need simulation.
    let journaled: Vec<Option<Vec<(String, u64, u64)>>> =
        batch.iter().map(|idx| journal.and_then(|j| j.load(idx))).collect();
    let fresh: Vec<usize> =
        (0..batch.len()).filter(|&b| journaled[b].is_none()).collect();
    // Workload-major so each workload's jobs are contiguous — they form one
    // lockstep group either way (grouping is by memo key), but contiguity
    // keeps result reassembly simple: row-major [workload][fresh point].
    let mut fresh_runs: Vec<Vec<(String, u64, u64)>> = Vec::new();
    if !fresh.is_empty() {
        let mut exp = Experiment::new(format!("{}-r{round}", spec.name));
        let mut configs = Vec::with_capacity(fresh.len());
        for &b in &fresh {
            configs.push(spec.config_at(&batch[b])?);
        }
        for workload in &spec.workloads {
            for (&b, cfg) in fresh.iter().zip(&configs) {
                exp.push(
                    ProgramSpec::workload(workload, scale),
                    &format!("p{}", point_slug(&batch[b])),
                    cfg.clone(),
                );
            }
        }
        let report = harness.run(&exp);
        let stats = report.try_stats()?;
        for (f, &b) in fresh.iter().enumerate() {
            let runs: Vec<(String, u64, u64)> = spec
                .workloads
                .iter()
                .enumerate()
                .map(|(w, name)| {
                    let s = stats[w * fresh.len() + f];
                    (name.clone(), s.cycles, s.committed)
                })
                .collect();
            if let Some(j) = journal {
                j.store(&batch[b], &runs);
            }
            fresh_runs.push(runs);
        }
    }
    let mut fresh_runs = fresh_runs.into_iter();
    for (b, idx) in batch.iter().enumerate() {
        let runs = match &journaled[b] {
            Some(runs) => {
                *resumed += 1;
                runs.clone()
            }
            None => fresh_runs.next().expect("one runs vector per fresh point"),
        };
        let config = spec.config_at(idx)?;
        points.push(SweepPoint {
            index: idx.clone(),
            label: spec.label_at(idx),
            cost_bytes: svf_configspace::stack_structure_bytes(&config),
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

    #[test]
    fn journal_round_trips_exact_integers() {
        let dir = std::env::temp_dir()
            .join(format!("svf-sweep-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let j = Journal {
            dir: dir.clone(),
            workloads: vec!["gcc".to_string(), "vortex".to_string()],
        };
        assert!(j.load(&[1, 2]).is_none(), "nothing journaled yet");
        let runs = vec![
            ("gcc".to_string(), 123_456_789_012_345, 987_654_321),
            ("vortex".to_string(), 42, 7),
        ];
        j.store(&[1, 2], &runs);
        assert_eq!(j.load(&[1, 2]), Some(runs), "exact u64 round trip");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_rejects_workload_mismatch_and_damage() {
        let dir = std::env::temp_dir()
            .join(format!("svf-sweep-journal-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let j = Journal { dir: dir.clone(), workloads: vec!["gcc".to_string()] };
        j.store(&[0], &[("gcc".to_string(), 10, 5)]);
        // A spec with different workloads must not resume this point.
        let other = Journal { dir: dir.clone(), workloads: vec!["vortex".to_string()] };
        assert!(other.load(&[0]).is_none(), "workload mismatch rejected");
        let extra =
            Journal { dir: dir.clone(), workloads: vec!["gcc".to_string(), "x".to_string()] };
        assert!(extra.load(&[0]).is_none(), "missing rows rejected");
        fs::write(j.point_path(&[0]), "garbage\n").expect("write");
        assert!(j.load(&[0]).is_none(), "damaged header rejected");
        fs::remove_dir_all(&dir).ok();
    }
}
