//! Orchestration contracts: parallel runs are bit-identical to serial runs,
//! a panicking job is isolated from its siblings, interrupted runs resume
//! from the run directory, a result is identified by its content (an
//! edited, relabelled, reordered or differently sampled machine resumes
//! exactly when its content key matches), and the batch plan's split of a
//! program's jobs across workers changes neither results, compiles nor
//! what a crash leaves stored.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use svf_cpu::{CpuConfig, SampleSpec, StackEngine};
use svf_harness::{compile_count, Experiment, Harness, JobOutcome, ProgramSpec, RunDir};
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

/// [`TINY`] made distinct by a trailing comment: a diverging machine is
/// quarantined by content key, so tests that must each see the divergence
/// inside a batch need programs of their own.
fn tagged(tag: &str) -> String {
    format!("{TINY}\n// {tag}\n")
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
    exp.push(ProgramSpec::source("stuck", tagged("stuck")), "0-wide", stuck);
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
    let shared = ProgramSpec::source("shared", tagged("shared"));
    let mut exp = Experiment::new("lockstep-isolation");
    exp.push(shared.clone(), "4-wide", CpuConfig::wide4());
    exp.push(shared.clone(), "0-wide", CpuConfig { width: 0, ..CpuConfig::wide4() });
    exp.push(shared, "16-wide", CpuConfig::wide16());
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
    let victim = RunDir::create(&root, "resume").expect("run dir").job_path(&exp.jobs()[1]);
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

/// Which jobs of `report` resumed, in job-id order.
fn resumed_mask(report: &svf_harness::RunReport) -> Vec<bool> {
    report.jobs.iter().map(|j| j.outcome.is_resumed()).collect()
}

#[test]
fn edited_config_under_the_same_label_re_simulates_only_that_job() {
    let root = tmp_root("edit");
    fs::remove_dir_all(&root).ok();
    let harness = Harness::parallel().with_workers(2).with_out_dir(&root);
    let exp = tiny_experiment("edit");
    let _ = harness.run(&exp);

    // Same labels, same order; only job 2's machine changed.
    let mut edited = Experiment::new("edit");
    for job in exp.jobs() {
        let mut cfg = job.config.clone();
        if job.id == 2 {
            cfg.ruu_size += 8;
        }
        edited.push(job.program.clone(), &job.config_label, cfg);
    }
    let second = harness.run(&edited);
    assert_eq!(resumed_mask(&second), [true, true, false, true], "only the edit re-runs");
    let fresh = Harness::serial().run(&edited);
    assert_eq!(second.stats(), fresh.stats(), "the edited machine's own stats, not stale ones");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn relabelled_and_reordered_machines_resume_their_own_results() {
    let root = tmp_root("relabel");
    fs::remove_dir_all(&root).ok();
    let harness = Harness::parallel().with_workers(2).with_out_dir(&root);
    let exp = tiny_experiment("relabel");
    let first = harness.run(&exp);

    // The same machines and program, renamed and in reverse order.
    let mut shuffled = Experiment::new("relabel");
    for job in exp.jobs().iter().rev() {
        let program = ProgramSpec::source("tiny-renamed", TINY);
        shuffled.push(program, &format!("renamed-{}", job.id), job.config.clone());
    }
    let second = harness.run(&shuffled);
    assert_eq!(second.resumed(), 4, "no machine re-simulates");
    for (a, b) in first.stats().iter().rev().zip(second.stats()) {
        assert_eq!(**a, *b, "each job resumes its own machine's stats");
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn sampled_and_full_runs_share_one_out_dir_without_cross_resuming() {
    let root = tmp_root("sampled-full");
    fs::remove_dir_all(&root).ok();
    let plan = SampleSpec::parse("mode=random,seed=7,period=10k,interval=2k,warmup=1k,ramp=500")
        .expect("plan parses");
    let full = Harness::parallel().with_workers(2).with_out_dir(&root);
    let sampled = full.clone().with_sample(plan);
    let exp = tiny_experiment("sampled-full");

    let first = sampled.run(&exp);
    assert_eq!(first.resumed(), 0);
    let exact = full.run(&exp);
    assert_eq!(exact.resumed(), 0, "a full run resumes no sampled estimate");
    assert_eq!(exact.stats(), Harness::serial().run(&exp).stats(), "full stats are exact");
    let again = sampled.run(&exp);
    assert_eq!(again.resumed(), 4, "a second sampled run resumes everything");
    assert_eq!(again.stats(), first.stats());
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

/// `programs` × `configs` distinct healthy machines, program-major.
fn split_experiment(name: &str, programs: &[&str], configs: usize) -> Experiment {
    let widths = [CpuConfig::wide4(), CpuConfig::wide8(), CpuConfig::wide16()];
    let mut exp = Experiment::new(name);
    for (p, label) in programs.iter().enumerate() {
        let source = TINY.replace("% 997", &format!("% {}", 997 - 2 * p));
        for c in 0..configs {
            let mut cfg = widths[c % widths.len()].clone();
            cfg.ruu_size += c;
            exp.push(ProgramSpec::source(label, source.clone()), &format!("cfg{c}"), cfg);
        }
    }
    exp
}

/// Re-runs the named test of this binary in a child process with
/// `SVF_SPLIT_CHILD` set (plus `env`), and returns whether it succeeded.
/// Used where a test needs the process to itself: an exact process-global
/// compile count, or a planted abort.
fn run_child(test: &str, env: &[(&str, &str)]) -> bool {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", test, "--nocapture"]).env("SVF_SPLIT_CHILD", "1");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.status().expect("spawn child").success()
}

#[test]
fn split_groups_match_serial_and_compile_each_program_once() {
    if std::env::var_os("SVF_SPLIT_CHILD").is_none() {
        // Alone in its process, so no other test moves the compile count.
        let name = "split_groups_match_serial_and_compile_each_program_once";
        assert!(run_child(name, &[]), "child run failed");
        return;
    }
    // 2 programs x 8 configs at 2 workers: 16 fresh jobs cap pieces at 4,
    // so each program's 8 jobs run as two concurrent lockstep batches.
    let exp = split_experiment("split-compiles", &["split-a", "split-b"], 8);
    let before = compile_count();
    let split = Harness::parallel().with_workers(2).run(&exp);
    assert_eq!(compile_count() - before, 2, "one compile per program, not per piece");
    let serial = Harness::serial().run(&exp);
    for ((a, b), job) in split.stats().iter().zip(serial.stats()).zip(exp.jobs()) {
        assert_eq!(*a, b, "{}: a split batch changed the statistics", job.key());
    }
}

#[test]
fn abort_after_a_split_group_leaves_every_clean_job_stored() {
    let name = "abort_after_a_split_group_leaves_every_clean_job_stored";
    let exp = split_experiment("split-abort", &["split-abort"], 8);
    if let Ok(dir) = std::env::var("SVF_SPLIT_OUT") {
        let _ = Harness::parallel().with_workers(2).with_out_dir(&dir).run(&exp);
        // Reached only if the planted abort failed to fire.
        std::process::exit(0);
    }
    let root = tmp_root("split-abort");
    fs::remove_dir_all(&root).ok();
    let out = root.to_str().expect("utf-8 temp path");
    // Job 4 aborts the process. It runs as its group's tail, after the
    // four pieces holding the other seven jobs have stored their results.
    let ok = run_child(name, &[("SVF_SPLIT_OUT", out), ("SVF_FAULT_PLAN", "abort@4")]);
    assert!(!ok, "the planted abort must kill the child");
    let mut stored: Vec<PathBuf> = fs::read_dir(root.join("split-abort"))
        .expect("run dir exists after the crash")
        .map(|e| e.expect("entry").path())
        .collect();
    stored.sort();
    let sink = RunDir::create(&root, "split-abort").expect("run dir");
    let mut clean: Vec<PathBuf> =
        [0, 1, 2, 3, 5, 6, 7].iter().map(|&i| sink.job_path(&exp.jobs()[i])).collect();
    clean.sort();
    assert_eq!(stored, clean, "every job but the aborting 4 is stored");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn utilization_is_reported_and_bounded() {
    let exp = split_experiment("utilization", &["util-a", "util-b"], 4);
    for workers in [1, 2, 4] {
        let report = Harness::parallel().with_workers(workers).run(&exp);
        let util = report.utilization();
        assert!(util > 0.0 && util <= 1.0, "{workers} workers: util {util} outside (0, 1]");
        assert_eq!(report.worker_busy.len(), workers, "one busy time per worker");
        assert!(report.summary.contains("(util "), "{}", report.summary);
    }
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
