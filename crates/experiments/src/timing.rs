//! The one timing plan behind every cycle-simulated table.
//!
//! Figures 5–9, the ablations and partial-word each declare a [`Driver`]:
//! the jobs the table reads, in order, and how it renders them. [`run`]
//! pushes every requested driver into one experiment named `timing`, runs
//! it once on the global harness, and hands each driver its slice of the
//! report. Figure 6's "SVF 2 ports" is Figures 7–9's "SVF (2+2)", but the
//! harness attempts each content key once: labels are presentation only.

use svf_cpu::{CpuConfig, SimStats};
use svf_harness::{Experiment, ProgramSpec};
use svf_workloads::{all, Scale};

use crate::table::ExpTable;
use crate::{ablations, fig5, fig6, fig7, fig8, fig9, geomean, partial_word};

/// The figure commands `all` renders from one timing run, in print order.
pub const FIGURES: [&str; 5] = ["fig5", "fig6", "fig7", "fig8", "fig9"];

/// The ablation commands `ablations` renders from one timing run.
pub const ABLATIONS: [&str; 3] = ["ablation-size", "ablation-squash", "ablation-codegen"];

/// Renders a table from its driver's job statistics, in push order.
type Render = Box<dyn FnOnce(&[SimStats]) -> ExpTable>;

/// One timing table: its jobs and how it renders them.
pub struct Driver {
    jobs: Vec<(ProgramSpec, String, CpuConfig)>,
    render: Render,
}

impl Driver {
    /// A driver with no jobs yet; `render` receives the statistics of the
    /// jobs [`Driver::push`] adds, in push order.
    pub fn new(render: impl FnOnce(&[SimStats]) -> ExpTable + 'static) -> Driver {
        Driver { jobs: Vec::new(), render: Box::new(render) }
    }

    /// Appends one job. `label` names the machine in progress and failure
    /// lines only.
    pub fn push(&mut self, program: ProgramSpec, label: &str, config: CpuConfig) {
        self.jobs.push((program, label.to_string(), config));
    }

    /// The registered workloads named in `benches` (all of them for
    /// `None`) crossed with `configs`, workload-major and in registry
    /// (paper Table 1) order; `render` receives one `(bench, stats in
    /// config order)` row per workload.
    pub fn matrix(
        configs: &[(impl AsRef<str>, CpuConfig)],
        scale: Scale,
        benches: Option<&[&str]>,
        render: impl FnOnce(Vec<(String, &[SimStats])>) -> ExpTable + 'static,
    ) -> Driver {
        let names: Vec<&str> =
            all().iter().map(|w| w.name).filter(|n| benches.is_none_or(|b| b.contains(n))).collect();
        let mut jobs = Vec::new();
        for name in &names {
            for (label, config) in configs {
                let label = label.as_ref().to_string();
                jobs.push((ProgramSpec::workload(name, scale), label, config.clone()));
            }
        }
        let width = configs.len();
        let render = move |stats: &[SimStats]| {
            render(names.iter().map(ToString::to_string).zip(stats.chunks(width)).collect())
        };
        Driver { jobs, render: Box::new(render) }
    }

    /// Renders this driver's table alone through [`run`] (panicking as it
    /// does).
    #[must_use]
    pub fn run(self) -> ExpTable {
        run(vec![self]).pop().expect("one driver renders one table")
    }
}

/// A table of speedups, one row per workload plus a geometric-mean
/// `average` row. `speedups` maps a workload's statistics (in config
/// order) to its speedup cells, one per header after `bench`.
pub(crate) fn speedup_table(
    title: &str,
    headers: &[&str],
    rows: Vec<(String, &[SimStats])>,
    speedups: impl Fn(&[SimStats]) -> Vec<f64>,
) -> ExpTable {
    let mut t = ExpTable::new(title, headers);
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); headers.len() - 1];
    for (bench, stats) in rows {
        let mut cells = vec![bench];
        for (col, x) in speedups(stats).into_iter().enumerate() {
            per_col[col].push(x);
            cells.push(format!("{x:.3}x"));
        }
        t.row(cells);
    }
    let mut avg = vec!["average".to_string()];
    avg.extend(per_col.iter().map(|col| format!("{:.3}x", geomean(col))));
    t.row(avg);
    t
}

/// Each configuration's speedup over the first (the baseline).
pub(crate) fn over_first(stats: &[SimStats]) -> Vec<f64> {
    stats[1..].iter().map(|s| s.speedup_over(&stats[0])).collect()
}

/// The timing driver a command names: `fig5`–`fig9`, the three
/// `ablation-*` commands or `partial-word`; `None` for any other name.
#[must_use]
pub fn driver(id: &str, scale: Scale) -> Option<Driver> {
    Some(match id {
        "fig5" => fig5::driver(scale),
        "fig6" => fig6::driver(scale),
        "fig7" => fig7::driver(scale),
        "fig8" => fig8::driver(scale),
        "fig9" => fig9::driver(scale),
        "ablation-size" => ablations::size_sweep(scale),
        "ablation-squash" => ablations::squash_sensitivity(scale),
        "ablation-codegen" => ablations::code_quality(scale),
        "partial-word" => partial_word::driver(scale),
        _ => return None,
    })
}

/// Runs every driver's jobs as one `timing` experiment on
/// [`svf_harness::global`] and renders each driver's table, in order.
///
/// # Panics
///
/// Panics with the full failure list if any job fails.
#[must_use]
pub fn run(drivers: Vec<Driver>) -> Vec<ExpTable> {
    let report = svf_harness::global().run(&experiment(&drivers));
    let stats: Vec<SimStats> = report.stats().into_iter().cloned().collect();
    let mut rest = stats.as_slice();
    drivers
        .into_iter()
        .map(|d| {
            let (mine, after) = rest.split_at(d.jobs.len());
            rest = after;
            (d.render)(mine)
        })
        .collect()
}

/// Every driver's jobs, in driver order, as the one `timing` experiment.
fn experiment(drivers: &[Driver]) -> Experiment {
    let mut exp = Experiment::new("timing");
    for (program, label, config) in drivers.iter().flat_map(|d| &d.jobs) {
        exp.push(program.clone(), label, config.clone());
    }
    exp
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::path::PathBuf;

    use svf_cpu::Simulator;
    use svf_harness::RunDir;
    use svf_workloads::workload;

    use super::*;

    #[test]
    fn matrix_rows_follow_the_registry_order() {
        let configs = [("only", CpuConfig::wide4())];
        // A scrambled subset: rows come back in Table 1 order.
        let subset: &[&str] = &["vortex", "eon", "gcc"];
        let d = Driver::matrix(&configs, Scale::Test, Some(subset), |_| ExpTable::new("-", &[]));
        let rows: Vec<String> = d.jobs.iter().map(|(p, _, _)| p.label()).collect();
        assert_eq!(rows, ["eon", "gcc", "vortex"]);
    }

    #[test]
    fn every_timing_command_names_a_driver() {
        for id in FIGURES.iter().chain(&ABLATIONS).chain(&["partial-word"]) {
            assert!(driver(id, Scale::Test).is_some(), "{id}");
        }
        assert!(driver("fig1", Scale::Test).is_none(), "functional tables are not timing drivers");
    }

    #[test]
    fn figures_and_ablations_repeat_machines_the_plan_simulates_once() {
        // Distinct result files = distinct content keys = jobs simulated.
        let root = std::env::temp_dir().join(format!("svf-timing-keys-{}", std::process::id()));
        let sink = RunDir::create(&root, "timing").expect("run dir");
        let counts = |ids: &[&str]| {
            let drivers: Vec<Driver> =
                ids.iter().map(|id| driver(id, Scale::Test).expect("timing command")).collect();
            let exp = experiment(&drivers);
            let keys: HashSet<PathBuf> = exp.jobs().iter().map(|j| sink.job_path(j)).collect();
            (exp.len(), keys.len())
        };
        assert_eq!(counts(&FIGURES), (324, 240), "all: fig5-fig9 jobs vs distinct results");
        assert_eq!(counts(&ABLATIONS), (148, 116), "ablations: jobs vs distinct results");
        std::fs::remove_dir_all(&root).ok();
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn plan_rows_match_direct_runs() {
        let configs = [("4-wide", CpuConfig::wide4()), ("8-wide", CpuConfig::wide8())];
        let render = |rows: Vec<(String, &[SimStats])>| {
            let mut t = ExpTable::new("stats", &["bench", "4-wide", "8-wide"]);
            for (bench, stats) in rows {
                t.row(vec![bench, stats[0].to_csv_row(), stats[1].to_csv_row()]);
            }
            t
        };
        // Two drivers in one plan, the second a repeat of the first: each
        // renders from its own slice, and both equal direct simulation.
        let tables = run(vec![
            Driver::matrix(&configs, Scale::Test, None, render),
            Driver::matrix(&configs, Scale::Test, None, render),
        ]);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0], tables[1]);
        assert_eq!(tables[0].rows.len(), all().len());
        let row = &tables[0].rows[0];
        let program = workload(&row[0]).expect("exists").compile(Scale::Test).expect("compiles");
        for ((label, config), cell) in configs.iter().zip(&row[1..]) {
            let direct = Simulator::new(config.clone()).run(&program, u64::MAX);
            assert_eq!(*cell, direct.to_csv_row(), "{label}");
        }
    }
}
