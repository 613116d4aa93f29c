//! Shared timing-run helpers for the performance figures.
//!
//! [`compile`] and [`run`] are the single-job primitives (one program, one
//! configuration, one simulation). Everything that sweeps a matrix of
//! configurations goes through [`matrix`]/[`matrix_for`], which expand to
//! an [`Experiment`](svf_harness::Experiment) and execute it on the
//! process-global [`svf_harness`] worker pool — `--jobs`/`--out` on the
//! CLI reach every figure through that one seam.

use svf_cpu::{CpuConfig, SimStats, Simulator};
use svf_harness::Experiment;
use svf_isa::Program;
use svf_workloads::{Scale, Workload};

/// Compiles a workload once (programs are reused across configurations so
/// every configuration sees the identical instruction stream).
///
/// # Panics
///
/// Panics if the template fails to compile (covered by workload tests).
#[must_use]
pub fn compile(w: &Workload, scale: Scale) -> Program {
    w.compile(scale).expect("workload compiles")
}

/// Runs one configuration on a pre-compiled program.
#[must_use]
pub fn run(cfg: &CpuConfig, program: &Program) -> SimStats {
    Simulator::new(cfg.clone()).run(program, u64::MAX)
}

/// Executes an already-built experiment on the process-global harness and
/// reassembles it into `(bench, stats-per-config)` rows.
///
/// # Panics
///
/// Panics with the full failure list if any job fails — the historical
/// contract of the serial runners, which aborted on the first failure.
#[must_use]
pub fn run_rows(exp: &Experiment, configs_per_row: usize) -> Vec<(String, Vec<SimStats>)> {
    svf_harness::global()
        .run(exp)
        .rows(configs_per_row)
        .into_iter()
        .map(|(bench, stats)| (bench, stats.into_iter().cloned().collect()))
        .collect()
}

/// Runs a set of labelled configurations over every workload, returning
/// `(bench, Vec<SimStats in config order>)` rows. The baseline for speedup
/// computations is by convention the first configuration.
///
/// `name` names the experiment's run directory when a result sink is
/// configured, so it must be stable per figure.
///
/// # Panics
///
/// Panics if any job fails (compile error or diverging simulation).
#[must_use]
pub fn matrix(
    name: &str,
    configs: &[(&str, CpuConfig)],
    scale: Scale,
) -> Vec<(String, Vec<SimStats>)> {
    run_rows(&Experiment::matrix(name, configs, scale), configs.len())
}

/// [`matrix`] restricted to a subset of benchmarks (rows keep the registry
/// order of `svf_workloads::all`, not the order of `benches`).
///
/// # Panics
///
/// Panics if any job fails.
#[must_use]
pub fn matrix_for(
    name: &str,
    configs: &[(&str, CpuConfig)],
    scale: Scale,
    benches: &[&str],
) -> Vec<(String, Vec<SimStats>)> {
    run_rows(&Experiment::matrix_for(name, configs, scale, benches), configs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::workload;

    #[test]
    fn identical_config_identical_cycles() {
        let p = compile(workload("gap").expect("exists"), Scale::Test);
        let a = run(&CpuConfig::wide8(), &p);
        let b = run(&CpuConfig::wide8(), &p);
        assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
        assert_eq!(a.committed, b.committed);
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn matrix_rows_match_direct_runs() {
        let configs = [("4-wide", CpuConfig::wide4()), ("8-wide", CpuConfig::wide8())];
        let rows = matrix("runner-test", &configs, Scale::Test);
        assert_eq!(rows.len(), svf_workloads::all().len());
        let (bench, stats) = &rows[0];
        let program = compile(workload(bench).expect("exists"), Scale::Test);
        assert_eq!(stats[0].cycles, run(&configs[0].1, &program).cycles);
        assert_eq!(stats[1].cycles, run(&configs[1].1, &program).cycles);
    }
}
