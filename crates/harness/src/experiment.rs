//! Deterministic expansion of an experiment into a job list.

use svf_cpu::CpuConfig;
use svf_workloads::{all, Scale};

use crate::job::{Job, ProgramSpec};

/// A named, ordered list of jobs. Job ids index into the order and results
/// are reassembled in it — so the same definition always produces the same
/// output regardless of worker count. Result files do not depend on it:
/// they are named by content key (see [`crate::RunDir`]).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment name; also the run-directory subfolder for its results.
    pub name: String,
    jobs: Vec<Job>,
}

impl Experiment {
    /// An empty experiment.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Experiment {
        Experiment { name: name.into(), jobs: Vec::new() }
    }

    /// Appends one job and returns its id.
    pub fn push(&mut self, program: ProgramSpec, config_label: &str, config: CpuConfig) -> usize {
        let id = self.jobs.len();
        self.jobs.push(Job { id, program, config_label: config_label.to_string(), config });
        id
    }

    /// The jobs, in id order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the experiment has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The standard figure-driver shape: every registered workload crossed
    /// with every labelled configuration, workload-major (all configurations
    /// of `bzip2`, then all of `crafty`, …). Reassemble with chunks of
    /// `configs.len()`.
    #[must_use]
    pub fn matrix(name: &str, configs: &[(&str, CpuConfig)], scale: Scale) -> Experiment {
        let benches: Vec<&str> = all().iter().map(|w| w.name).collect();
        Experiment::matrix_for(name, configs, scale, &benches)
    }

    /// [`Experiment::matrix`] restricted to a subset of workloads. The
    /// subset is applied as a filter over the registry, so rows keep the
    /// registry (paper Table 1) order whatever order `benches` is given in.
    #[must_use]
    pub fn matrix_for(
        name: &str,
        configs: &[(&str, CpuConfig)],
        scale: Scale,
        benches: &[&str],
    ) -> Experiment {
        let mut exp = Experiment::new(name);
        for w in all() {
            if !benches.contains(&w.name) {
                continue;
            }
            for (label, cfg) in configs {
                exp.push(ProgramSpec::workload(w.name, scale), label, cfg.clone());
            }
        }
        exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_workload_major_and_deterministic() {
        let cfgs = [("a", CpuConfig::wide4()), ("b", CpuConfig::wide8())];
        let exp = Experiment::matrix("demo", &cfgs, Scale::Test);
        assert_eq!(exp.len(), all().len() * 2);
        assert_eq!(exp.jobs()[0].program.label(), "bzip2");
        assert_eq!(exp.jobs()[0].config_label, "a");
        assert_eq!(exp.jobs()[1].program.label(), "bzip2");
        assert_eq!(exp.jobs()[1].config_label, "b");
        assert_eq!(exp.jobs()[2].program.label(), "crafty");
        let again = Experiment::matrix("demo", &cfgs, Scale::Test);
        let keys: Vec<_> = exp.jobs().iter().map(Job::key).collect();
        let again_keys: Vec<_> = again.jobs().iter().map(Job::key).collect();
        assert_eq!(keys, again_keys, "expansion must be deterministic");
    }

    #[test]
    fn matrix_for_keeps_registry_order() {
        let cfgs = [("only", CpuConfig::wide4())];
        // Deliberately scrambled subset: rows must come back in Table 1 order.
        let exp = Experiment::matrix_for("demo", &cfgs, Scale::Test, &["vortex", "eon", "gcc"]);
        let rows: Vec<_> = exp.jobs().iter().map(|j| j.program.label()).collect();
        assert_eq!(rows, ["eon", "gcc", "vortex"]);
    }
}
