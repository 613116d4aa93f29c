//! Orchestration contracts: parallel runs are bit-identical to serial runs,
//! a panicking job is isolated from its siblings, and interrupted runs
//! resume from the run directory.

use std::fs;
use std::path::PathBuf;

use svf_cpu::{CpuConfig, StackEngine};
use svf_harness::{Experiment, Harness, JobOutcome, ProgramSpec};
use svf_workloads::Scale;

/// A small kernel that keeps even debug-build cycle simulation quick.
const TINY: &str = "
int work(int n) {
    int buf[16];
    int s = 0;
    for (int i = 0; i < 16; i = i + 1) buf[i] = i * n;
    for (int i = 0; i < 16; i = i + 1) s = s + buf[i];
    return s;
}
int main() {
    int total = 0;
    for (int it = 0; it < 300; it = it + 1) total = total + work(it) % 997;
    print(total);
    return 0;
}";

fn tiny_experiment(name: &str) -> Experiment {
    let mut svf = CpuConfig::wide16().with_ports(2, 2);
    svf.stack_engine = StackEngine::Svf;
    let mut exp = Experiment::new(name);
    for (label, cfg) in [
        ("4-wide", CpuConfig::wide4()),
        ("8-wide", CpuConfig::wide8()),
        ("16-wide", CpuConfig::wide16()),
        ("svf-2p", svf),
    ] {
        exp.push(ProgramSpec::source("tiny", TINY), label, cfg);
    }
    exp
}

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("svf-harness-it-{tag}-{}", std::process::id()))
}

#[test]
fn parallel_results_are_identical_to_serial() {
    let exp = tiny_experiment("determinism");
    let serial = Harness::serial().run(&exp);
    let wide = Harness::parallel().with_workers(4).run(&exp);
    let a = serial.stats();
    let b = wide.stats();
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x.cycles, y.cycles, "job {i}: cycles must not depend on worker count");
        assert_eq!(x.committed, y.committed, "job {i}");
        assert_eq!(*x, *y, "job {i}: full statistics must be bit-identical");
    }
    // Different configurations did produce different work, so the equality
    // above is not vacuous.
    assert_ne!(a[0].cycles, a[2].cycles, "4-wide vs 16-wide must differ");
}

#[test]
fn failing_job_is_isolated_from_siblings() {
    let mut exp = tiny_experiment("isolation");
    // A compile-time failure and a (caught) unknown-workload failure, mixed
    // into healthy jobs at definition time.
    exp.push(ProgramSpec::source("broken", "int main( {"), "4-wide", CpuConfig::wide4());
    exp.push(ProgramSpec::workload("no-such-kernel", Scale::Test), "4-wide", CpuConfig::wide4());
    let report = Harness::parallel().with_workers(4).run(&exp);
    assert_eq!(report.jobs.len(), 6);
    let failed: Vec<usize> = report
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.outcome.failure().is_some())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![4, 5], "exactly the two bad jobs fail");
    for j in &report.jobs[..4] {
        assert!(j.outcome.stats().is_some(), "healthy siblings complete: {}", j.key);
    }
    let err = report.try_stats().expect_err("try_stats reports failures");
    assert!(err.contains("2 job(s) failed"), "{err}");
}

#[test]
fn shared_failing_spec_fails_every_sharing_job_identically() {
    // One broken spec under three configurations: the memoized compile is
    // attempted once, the poisoned entry fails all three sharers with the
    // very same message, and the unrelated healthy job is untouched.
    let broken = ProgramSpec::source("shared-broken", "int main( {");
    let mut exp = Experiment::new("shared-failure");
    for (label, cfg) in [
        ("4-wide", CpuConfig::wide4()),
        ("8-wide", CpuConfig::wide8()),
        ("16-wide", CpuConfig::wide16()),
    ] {
        exp.push(broken.clone(), label, cfg);
    }
    exp.push(ProgramSpec::source("shared-healthy", TINY), "4-wide", CpuConfig::wide4());
    let report = Harness::parallel().with_workers(4).run(&exp);
    let msgs: Vec<String> = report.jobs[..3]
        .iter()
        .map(|j| {
            j.outcome.failure().unwrap_or_else(|| panic!("{} must fail", j.key)).to_string()
        })
        .collect();
    assert!(msgs[0].contains("shared-broken"), "message names the program: {}", msgs[0]);
    assert!(msgs.windows(2).all(|w| w[0] == w[1]), "identical message for every sharer: {msgs:?}");
    assert!(report.jobs[3].outcome.stats().is_some(), "unrelated job completes");
}

#[test]
fn panicking_simulation_reports_failed() {
    // A zero-width machine can never commit, so the pipeline's deadlock
    // assertion fires mid-simulation; the harness must catch the panic and
    // let the sibling job complete.
    let mut exp = Experiment::new("panic");
    exp.push(ProgramSpec::source("ok", TINY), "4-wide", CpuConfig::wide4());
    let stuck = CpuConfig { width: 0, ..CpuConfig::wide4() };
    exp.push(ProgramSpec::source("stuck", TINY), "0-wide", stuck);
    let report = Harness::parallel().with_workers(2).run(&exp);
    assert!(report.jobs[0].outcome.stats().is_some(), "healthy job completes");
    match &report.jobs[1].outcome {
        JobOutcome::Failed(msg) => {
            assert!(msg.to_string().contains("deadlock"), "panic message survives: {msg}");
        }
        other => panic!("deadlocked job must fail, got {other:?}"),
    }
}

#[test]
fn lockstep_and_per_job_execution_are_bit_identical() {
    // The tiny experiment is one program under four configurations — a
    // single lockstep group sharing one functional stream vs. four
    // independent emulator runs must not differ in any counter.
    let exp = tiny_experiment("lockstep-identity");
    let batched = Harness::serial().with_lockstep(true).run(&exp);
    let solo = Harness::serial().with_lockstep(false).run(&exp);
    for ((a, b), job) in batched.stats().iter().zip(solo.stats()).zip(exp.jobs()) {
        assert_eq!(*a, b, "{}: lockstep changed simulated behaviour", job.key());
    }
}

#[test]
fn diverging_config_inside_a_lockstep_group_is_isolated() {
    // A zero-width machine deadlocks the pipeline mid-batch. The group
    // panics as a whole, is bisected down to batches of one, and only the
    // diverging configuration reports failure.
    let mut exp = Experiment::new("lockstep-isolation");
    exp.push(ProgramSpec::source("shared", TINY), "4-wide", CpuConfig::wide4());
    exp.push(
        ProgramSpec::source("shared", TINY),
        "0-wide",
        CpuConfig { width: 0, ..CpuConfig::wide4() },
    );
    exp.push(ProgramSpec::source("shared", TINY), "16-wide", CpuConfig::wide16());
    let report = Harness::parallel().with_lockstep(true).run(&exp);
    assert!(report.jobs[0].outcome.stats().is_some(), "healthy sibling completes");
    assert!(report.jobs[2].outcome.stats().is_some(), "healthy sibling completes");
    match &report.jobs[1].outcome {
        JobOutcome::Failed(msg) => {
            assert!(msg.to_string().contains("deadlock"), "panic message survives: {msg}");
        }
        other => panic!("deadlocked job must fail, got {other:?}"),
    }
}

#[test]
fn interrupted_runs_resume_from_the_run_dir() {
    let root = tmp_root("resume");
    fs::remove_dir_all(&root).ok();
    let exp = tiny_experiment("resume");
    let harness = Harness::parallel().with_workers(2).with_out_dir(&root);

    let first = harness.run(&exp);
    assert_eq!(first.resumed(), 0, "a cold run simulates everything");
    let dir = root.join("resume");
    let files: Vec<_> = fs::read_dir(&dir).expect("run dir").collect();
    assert_eq!(files.len(), 4, "one result file per job");

    // Simulate an interrupted run: drop one job's result.
    let victim = dir.join(format!("{}.csv", exp.jobs()[1].key()));
    fs::remove_file(&victim).expect("remove one result");
    let second = harness.run(&exp);
    assert_eq!(second.resumed(), 3, "only the missing job re-runs");
    for (a, b) in first.stats().iter().zip(second.stats()) {
        assert_eq!(**a, *b, "resumed results equal simulated results");
    }

    // Deleting the run dir forces a clean rerun.
    fs::remove_dir_all(&root).ok();
    let third = harness.run(&exp);
    assert_eq!(third.resumed(), 0);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn csv_sinks_are_byte_identical_across_worker_counts() {
    let root_serial = tmp_root("csv-j1");
    let root_parallel = tmp_root("csv-j4");
    fs::remove_dir_all(&root_serial).ok();
    fs::remove_dir_all(&root_parallel).ok();
    let exp = tiny_experiment("csv-determinism");

    let _ = Harness::serial().with_out_dir(&root_serial).run(&exp);
    let _ = Harness::parallel().with_workers(4).with_out_dir(&root_parallel).run(&exp);

    let read_files = |root: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let dir = root.join("csv-determinism");
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .expect("run dir exists")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().into_string().expect("utf-8 file name");
                let bytes = fs::read(e.path()).expect("result file reads");
                (name, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let serial_files = read_files(&root_serial);
    let parallel_files = read_files(&root_parallel);

    assert_eq!(serial_files.len(), exp.jobs().len(), "one CSV per job");
    let names = |fs: &[(String, Vec<u8>)]| -> Vec<String> {
        fs.iter().map(|(n, _)| n.clone()).collect()
    };
    assert_eq!(names(&serial_files), names(&parallel_files), "same file set");
    for ((name, a), (_, b)) in serial_files.iter().zip(&parallel_files) {
        assert!(!a.is_empty(), "{name}: result file is non-empty");
        assert_eq!(a, b, "{name}: sink bytes must not depend on worker count");
    }

    fs::remove_dir_all(&root_serial).ok();
    fs::remove_dir_all(&root_parallel).ok();
}

/// The ISSUE-level contract on real workloads: the full experiment matrix
/// at `Scale::Test` gives identical per-job `cycles`/`committed` at 1 and 4
/// workers. Timing-heavy, so release-only like the figure-shape tests.
#[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
#[test]
fn workload_matrix_deterministic_across_worker_counts() {
    let mut svf = CpuConfig::wide16().with_ports(2, 2);
    svf.stack_engine = StackEngine::Svf;
    let configs =
        [("base", CpuConfig::wide16().with_ports(2, 0)), ("svf-2p", svf)];
    let exp = Experiment::matrix("matrix-determinism", &configs, Scale::Test);
    let serial = Harness::serial().run(&exp);
    let wide = Harness::parallel().with_workers(4).run(&exp);
    for ((a, b), job) in serial.stats().iter().zip(wide.stats()).zip(exp.jobs()) {
        assert_eq!(a.cycles, b.cycles, "{}", job.key());
        assert_eq!(a.committed, b.committed, "{}", job.key());
    }
}
