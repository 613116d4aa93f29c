//! The unit of orchestrated work: one `(program, configuration)` timing
//! simulation, and what came out of it.

use std::borrow::Cow;
use std::time::Duration;

use svf_cpu::{CpuConfig, SimStats};
use svf_isa::Program;
use svf_workloads::{workload, Scale};

use crate::error::JobError;

/// How a job obtains its program. Compilation is **memoized process-wide**
/// (see [`crate::compile_count`]): the first job to need a spec compiles it
/// on its worker thread and every other job sharing that spec — across
/// configurations, workers, and experiments — reuses the same
/// `Arc<Program>`. A failing or panicking compilation poisons only that
/// spec's cache entry: every sharing job fails with the same message, and
/// unrelated jobs are untouched, exactly like a diverging simulation.
#[derive(Debug, Clone)]
pub enum ProgramSpec {
    /// A registered benchmark kernel, optionally with a named input
    /// (`None` selects the kernel's default input).
    Workload {
        /// Kernel name as registered in `svf-workloads` (`"gcc"`, …).
        name: String,
        /// Named input from the kernel's Table 1 list, or `None`.
        input: Option<String>,
        /// Problem size.
        scale: Scale,
    },
    /// Ad-hoc MiniC source (used by the code-quality ablation and the
    /// partial-word extension, whose programs are not registry kernels).
    Source {
        /// Short label used in display names and progress output; not
        /// part of the program's identity.
        label: String,
        /// The MiniC source text.
        source: String,
        /// Compile with register promotion (`false` reproduces the naive,
        /// spill-everything code generator).
        regalloc: bool,
    },
}

impl ProgramSpec {
    /// A workload at its default input.
    #[must_use]
    pub fn workload(name: &str, scale: Scale) -> ProgramSpec {
        ProgramSpec::Workload { name: name.to_string(), input: None, scale }
    }

    /// A workload at a specific named input.
    #[must_use]
    pub fn workload_input(name: &str, input: &str, scale: Scale) -> ProgramSpec {
        ProgramSpec::Workload { name: name.to_string(), input: Some(input.to_string()), scale }
    }

    /// Ad-hoc source with the default (optimizing) code generator.
    #[must_use]
    pub fn source(label: &str, source: impl Into<String>) -> ProgramSpec {
        ProgramSpec::source_with(label, source, true)
    }

    /// Ad-hoc source with explicit register-promotion choice.
    #[must_use]
    pub fn source_with(label: &str, source: impl Into<String>, regalloc: bool) -> ProgramSpec {
        ProgramSpec::Source { label: label.to_string(), source: source.into(), regalloc }
    }

    /// Human-readable program label (`"gcc"`, `"bzip2.program"`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ProgramSpec::Workload { name, input: None, .. } => name.clone(),
            ProgramSpec::Workload { name, input: Some(i), .. } => format!("{name}.{i}"),
            ProgramSpec::Source { label, .. } => label.clone(),
        }
    }

    /// The MiniC source text this spec compiles, and whether register
    /// promotion is on. This is the program's identity: [`ProgramSpec::compile`]
    /// compiles exactly this, and the result sink's content key hashes it
    /// (a `Source` label is presentation only).
    ///
    /// # Errors
    ///
    /// Unknown workload or input names.
    pub fn minic(&self) -> Result<(Cow<'_, str>, bool), String> {
        match self {
            ProgramSpec::Workload { name, input, scale } => {
                let w = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                let input = match input {
                    None => w.default_input(),
                    Some(i) => *w
                        .inputs
                        .iter()
                        .find(|inp| inp.name == i)
                        .ok_or_else(|| format!("workload {name:?} has no input {i:?}"))?,
                };
                Ok((Cow::Owned(w.source_with_input(*scale, input)), true))
            }
            ProgramSpec::Source { source, regalloc, .. } => Ok((Cow::Borrowed(source), *regalloc)),
        }
    }

    /// Compiles the program this spec describes, unconditionally (no
    /// memoization — the harness compiles its jobs through the
    /// process-global cache instead, see [`crate::compile_count`]; use this
    /// for one-off compiles that must not be retained).
    ///
    /// # Errors
    ///
    /// Unknown workload/input names and compiler errors are reported as
    /// strings; the harness turns them into [`JobOutcome::Failed`].
    pub fn compile(&self) -> Result<Program, String> {
        let (source, regalloc) = self.minic()?;
        svf_cc::compile_to_program_with(&source, svf_cc::Options { regalloc, ..Default::default() })
            .map_err(|e| format!("{}: {e}", self.label()))
    }
}

/// One schedulable unit: a program under one machine configuration.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the experiment's deterministic job list; results are
    /// reassembled in `id` order, so parallel output is identical to serial.
    pub id: usize,
    /// What to run.
    pub program: ProgramSpec,
    /// Configuration label (`"SVF 2 ports"`, …).
    pub config_label: String,
    /// The machine configuration.
    pub config: CpuConfig,
}

impl Job {
    /// Display name of this job inside its experiment,
    /// `<id>-<program>-<config>`, used in progress and failure lines. It
    /// names nothing on disk: a result is identified by its content key
    /// (see [`crate::RunDir`]), never by its position or labels.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{:04}-{}-{}", self.id, slug(&self.program.label()), slug(&self.config_label))
    }
}

/// Lowercases and maps non-alphanumeric runs to single dashes.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut dash = true; // suppress a leading dash
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash {
            out.push('-');
            dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    out
}

/// Terminal state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Simulated in this run.
    Completed(SimStats),
    /// Loaded from a previous run's result file in the run directory.
    Resumed(SimStats),
    /// The job failed after exhausting its retry budget; the classified
    /// [`JobError`] explains how.
    Failed(JobError),
}

impl JobOutcome {
    /// The statistics, if the job succeeded (fresh or resumed).
    #[must_use]
    pub fn stats(&self) -> Option<&SimStats> {
        match self {
            JobOutcome::Completed(s) | JobOutcome::Resumed(s) => Some(s),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The classified failure, if the job failed.
    #[must_use]
    pub fn failure(&self) -> Option<&JobError> {
        match self {
            JobOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this outcome was loaded from the run directory.
    #[must_use]
    pub fn is_resumed(&self) -> bool {
        matches!(self, JobOutcome::Resumed(_))
    }
}

/// Outcome plus observability data for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's [`Job::key`].
    pub key: String,
    /// The program's human-readable label ([`ProgramSpec::label`]).
    pub program_label: String,
    /// The configuration label the job was defined with.
    pub config_label: String,
    /// What happened.
    pub outcome: JobOutcome,
    /// Wall-clock time the worker spent on the job (near zero for resumed
    /// jobs).
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("SVF (2+2) no_squash"), "svf-2-2-no-squash");
        assert_eq!(slug("bzip2.program"), "bzip2-program");
        assert_eq!(slug("--weird--"), "weird");
    }

    #[test]
    fn job_keys_are_stable_and_ordered() {
        let job = Job {
            id: 7,
            program: ProgramSpec::workload("gcc", Scale::Test),
            config_label: "base (2+0)".to_string(),
            config: CpuConfig::wide4(),
        };
        assert_eq!(job.key(), "0007-gcc-base-2-0");
    }

    #[test]
    fn unknown_workload_is_a_failure_not_a_panic() {
        let spec = ProgramSpec::workload("no-such-kernel", Scale::Test);
        let err = spec.compile().expect_err("must fail");
        assert!(err.contains("no-such-kernel"), "{err}");
        let spec = ProgramSpec::workload_input("gcc", "no-such-input", Scale::Test);
        assert!(spec.compile().is_err());
    }

    #[test]
    fn source_spec_compiles_and_labels() {
        let spec = ProgramSpec::source("tiny", "int main() { print(1); return 0; }");
        assert_eq!(spec.label(), "tiny");
        assert!(spec.compile().is_ok());
        let bad = ProgramSpec::source("broken", "int main( {");
        assert!(bad.compile().is_err());
    }
}
