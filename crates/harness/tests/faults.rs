//! Fault-tolerance contracts, driven by the deterministic `SVF_FAULT_PLAN`
//! injection hook: panic storms fail the same slots at every worker count,
//! retryable faults recover within the retry budget, the watchdog turns
//! hangs into timeouts, a diverging lockstep member is bisected out and
//! quarantined with results bit-identical to `--no-lockstep`, and a run
//! killed mid-flight (`abort`, the in-process `kill -9`) resumes without
//! recomputing any completed job.
//!
//! The fault plan is process-global state, so every test that arms one
//! holds [`PLAN_GATE`] for its arm→run→disarm window.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use svf_cpu::{CpuConfig, SampleSpec};
use svf_harness::{
    install_fault_plan, Experiment, Harness, JobError, JobOutcome, ProgramSpec, RunDir,
};

/// Serializes arm→run→disarm windows across tests in this binary.
static PLAN_GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with `plan` armed, disarming afterwards even if `f` panics
/// (a poisoned gate would cascade into unrelated tests otherwise).
fn with_plan<R>(plan: &str, f: impl FnOnce() -> R) -> R {
    let _gate = PLAN_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    install_fault_plan(plan);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    install_fault_plan("");
    result.unwrap_or_else(|p| std::panic::resume_unwind(p))
}

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
    for (int it = 0; it < 200; it = it + 1) total = total + work(it) % 997;
    print(total);
    return 0;
}";

/// [`TINY`] made distinct by a trailing comment. The quarantine keys on a
/// job's content (source text, config, sampling plan), so a program per
/// test keeps the process-global memo cache and lockstep quarantine from
/// coupling tests to each other.
fn tagged(tag: &str) -> ProgramSpec {
    ProgramSpec::source(tag, format!("{TINY}\n// {tag}\n"))
}

/// One program under `n` distinct healthy configurations.
fn healthy_experiment(tag: &str, n: usize) -> Experiment {
    let mut exp = Experiment::new(tag);
    let widths = [CpuConfig::wide4(), CpuConfig::wide8(), CpuConfig::wide16()];
    for i in 0..n {
        let mut cfg = widths[i % widths.len()].clone();
        cfg.ruu_size += i; // distinct configs, same behaviourally-healthy machine
        exp.push(tagged(tag), &format!("cfg{i}"), cfg);
    }
    exp
}

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("svf-harness-faults-{tag}-{}", std::process::id()))
}

#[test]
fn panic_storm_fails_identical_slots_at_every_worker_count() {
    let exp = healthy_experiment("storm", 6);
    with_plan("", || {
        // Reference: a fault-free run (any worker count; they are identical
        // by the determinism contract).
        let clean = Harness::serial().run(&exp);
        assert!(clean.failures().is_empty(), "{}", clean.summary);
        let clean_stats: Vec<_> = clean.stats().into_iter().cloned().collect();

        for workers in [1, 2, 4, 8] {
            install_fault_plan("panic@1,panic@4");
            // One attempt: the injected panic must surface, not recover.
            let report =
                Harness::parallel().with_workers(workers).with_retries(1).run(&exp);
            for (i, job) in report.jobs.iter().enumerate() {
                match (&job.outcome, i) {
                    (JobOutcome::Failed(e), 1 | 4) => {
                        assert!(
                            matches!(e, JobError::Injected { retryable: true, .. }),
                            "job {i} at {workers} workers: classified injected, got {e:?}"
                        );
                    }
                    (JobOutcome::Completed(s), _) => {
                        assert_eq!(
                            *s, clean_stats[i],
                            "job {i} at {workers} workers: survivors bit-identical"
                        );
                    }
                    (outcome, _) => {
                        panic!("job {i} at {workers} workers: unexpected {outcome:?}")
                    }
                }
            }
        }
    });
}

#[test]
fn retryable_faults_recover_and_match_the_clean_run() {
    let exp = healthy_experiment("recover", 4);
    with_plan("", || {
        let clean = Harness::serial().run(&exp);
        let clean_stats: Vec<_> = clean.stats().into_iter().cloned().collect();

        // Injected panics and I/O faults fire once and are retryable: with
        // the default 3-attempt budget every job must settle successfully.
        install_fault_plan("panic@0,io@2");
        let report = Harness::serial().run(&exp);
        assert!(report.failures().is_empty(), "all recovered: {}", report.summary);
        for (i, s) in report.stats().iter().enumerate() {
            assert_eq!(**s, clean_stats[i], "job {i}: recovery is bit-identical");
        }
        assert!(report.summary.contains("retried"), "retries are visible: {}", report.summary);
    });
}

#[test]
fn sampled_runs_recover_from_faults_like_full_runs() {
    // Faulted jobs leave the shared batch and run as sampled batches of
    // one; recovery must match a clean sampled run bit for bit, and a hang
    // must trip the watchdog and retry exactly as a full run does.
    let spec = SampleSpec::parse("mode=random,seed=7,period=10k,interval=2k,warmup=1k,ramp=500")
        .expect("plan parses");
    let exp = healthy_experiment("sampled-faults", 4);
    with_plan("", || {
        let clean = Harness::serial().with_sample(spec).run(&exp);
        let clean_stats: Vec<_> = clean.stats().into_iter().cloned().collect();
        assert!(clean.summary.contains("sampled"), "sampled for real: {}", clean.summary);

        install_fault_plan("panic@0,io@2");
        let report = Harness::serial().with_sample(spec).run(&exp);
        assert!(report.failures().is_empty(), "all recovered: {}", report.summary);
        for (i, s) in report.stats().iter().enumerate() {
            assert_eq!(**s, clean_stats[i], "job {i}: sampled recovery is bit-identical");
        }
        assert!(report.summary.contains("retried"), "{}", report.summary);

        install_fault_plan("hang@1:60000");
        let report = Harness::serial()
            .with_sample(spec)
            .with_timeout(Duration::from_millis(250))
            .with_retries(2)
            .run(&exp);
        assert!(report.failures().is_empty(), "retry recovered: {}", report.summary);
        assert_eq!(report.stats()[1], &clean_stats[1], "post-timeout retry is bit-identical");
        assert!(report.summary.contains("timed out"), "{}", report.summary);
        assert!(report.summary.contains("retried"), "{}", report.summary);
    });
}

#[test]
fn a_compile_error_is_final_despite_retry_budget() {
    let mut exp = Experiment::new("compile-error");
    exp.push(ProgramSpec::source("broken", "int main() { return 0 }"), "cfg0", CpuConfig::wide4());
    exp.push(tagged("compile-error-sibling"), "cfg1", CpuConfig::wide8());
    let report = Harness::serial().with_retries(5).run(&exp);
    match report.jobs[0].outcome.failure() {
        Some(e @ JobError::Compile(_)) => assert!(!e.retryable(), "compile errors are final"),
        other => panic!("expected Compile, got {other:?}"),
    }
    assert!(report.jobs[1].outcome.stats().is_some(), "sibling unaffected");
    assert!(!report.summary.contains("retried"), "no retry burned: {}", report.summary);
}

#[test]
fn watchdog_turns_a_hang_into_a_timeout_then_retry_recovers() {
    let exp = healthy_experiment("hang", 2);
    with_plan("hang@1:60000", || {
        // Attempt 1 sleeps 60s inside the job; the 250ms watchdog abandons
        // it. The entry is consumed, so the retry runs clean.
        let report = Harness::serial()
            .with_timeout(Duration::from_millis(250))
            .with_retries(2)
            .run(&exp);
        assert!(report.failures().is_empty(), "retry recovered: {}", report.summary);
        assert!(report.summary.contains("timed out"), "{}", report.summary);
        assert!(report.summary.contains("retried"), "{}", report.summary);
    });
}

#[test]
fn exhausted_watchdog_reports_timeout() {
    let exp = healthy_experiment("hang-final", 1);
    with_plan("hang@0:60000", || {
        let report = Harness::serial()
            .with_timeout(Duration::from_millis(150))
            .with_retries(1)
            .run(&exp);
        match report.jobs[0].outcome.failure() {
            Some(JobError::Timeout { millis }) => assert_eq!(*millis, 150),
            other => panic!("expected Timeout, got {other:?}"),
        }
    });
}

#[test]
fn quarantined_lockstep_batch_matches_no_lockstep_bit_for_bit() {
    // One diverging member (a zero-width machine deadlocks the pipeline)
    // among healthy sharers of one program. Lockstep bisects the batch,
    // quarantines the diverging member, and the surviving members'
    // statistics must equal the per-job (`--no-lockstep`) run exactly.
    let build = |tag: &str| {
        let mut exp = Experiment::new(tag);
        exp.push(tagged("quarantine"), "4-wide", CpuConfig::wide4());
        exp.push(tagged("quarantine"), "8-wide", CpuConfig::wide8());
        exp.push(
            tagged("quarantine"),
            "0-wide",
            CpuConfig { width: 0, ..CpuConfig::wide4() },
        );
        exp.push(tagged("quarantine"), "16-wide", CpuConfig::wide16());
        exp
    };
    with_plan("", || {
        let lockstep = Harness::parallel().with_lockstep(true).run(&build("q-lockstep"));
        let solo = Harness::parallel().with_lockstep(false).run(&build("q-solo"));
        for i in [0, 1, 3] {
            let a = lockstep.jobs[i].outcome.stats().expect("lockstep survivor");
            let b = solo.jobs[i].outcome.stats().expect("solo survivor");
            assert_eq!(a, b, "job {i}: quarantined batch diverged from per-job run");
        }
        for report in [&lockstep, &solo] {
            match report.jobs[2].outcome.failure() {
                Some(JobError::Panic(m)) => {
                    assert!(m.contains("deadlock"), "real divergence classified: {m}");
                }
                other => panic!("diverging member must panic, got {other:?}"),
            }
        }
        // The member is now quarantined: re-running the same lockstep
        // experiment runs it as a batch of one and reproduces the
        // identical outcome (nothing poisons the healthy batch).
        let again = Harness::parallel().with_lockstep(true).run(&build("q-lockstep-2"));
        for i in [0, 1, 3] {
            assert_eq!(
                again.jobs[i].outcome.stats(),
                lockstep.jobs[i].outcome.stats(),
                "job {i}: quarantined re-run identical"
            );
        }
        assert!(again.jobs[2].outcome.failure().is_some());
    });
}

#[test]
fn threaded_lockstep_quarantines_a_panicking_pipeline_thread_like_serial() {
    // Same diverging-member shape as the serial quarantine test, but under
    // a thread budget wide enough that the batch fans its pipelines out
    // across worker threads. The zero-width machine deadlocks on one of
    // those timing threads; its panic must cross the fan-out boundary with
    // the original payload, drive the same bisection, and quarantine the
    // same member — with survivors bit-identical to the serial path.
    let build = |tag: &str| {
        let mut exp = Experiment::new(tag);
        exp.push(tagged("mt-quarantine"), "4-wide", CpuConfig::wide4());
        exp.push(tagged("mt-quarantine"), "8-wide", CpuConfig::wide8());
        exp.push(
            tagged("mt-quarantine"),
            "0-wide",
            CpuConfig { width: 0, ..CpuConfig::wide4() },
        );
        exp.push(tagged("mt-quarantine"), "16-wide", CpuConfig::wide16());
        exp
    };
    with_plan("", || {
        // One job worker + a budget of 8: the 4-wide batch claims 3 extra
        // timing threads, so the divergence fires on a fanned-out thread.
        let threaded = Harness::parallel()
            .with_workers(1)
            .with_threads(8)
            .with_lockstep(true)
            .run(&build("mt-q-threaded"));
        let serial = Harness::parallel().with_lockstep(true).run(&build("mt-q-serial"));
        for i in [0, 1, 3] {
            let a = threaded.jobs[i].outcome.stats().expect("threaded survivor");
            let b = serial.jobs[i].outcome.stats().expect("serial survivor");
            assert_eq!(a, b, "job {i}: threaded quarantine diverged from serial");
        }
        for report in [&threaded, &serial] {
            match report.jobs[2].outcome.failure() {
                Some(JobError::Panic(m)) => {
                    assert!(m.contains("deadlock"), "original payload crossed threads: {m}");
                }
                other => panic!("diverging member must panic, got {other:?}"),
            }
        }
        // The quarantine record is shared machinery: a threaded re-run
        // runs the member as a batch of one exactly like serial.
        let again = Harness::parallel()
            .with_workers(1)
            .with_threads(8)
            .with_lockstep(true)
            .run(&build("mt-q-threaded-2"));
        for i in [0, 1, 3] {
            assert_eq!(
                again.jobs[i].outcome.stats(),
                threaded.jobs[i].outcome.stats(),
                "job {i}: threaded quarantined re-run identical"
            );
        }
        assert!(again.jobs[2].outcome.failure().is_some());
    });
}

/// The experiment for the kill-and-resume test: two programs × two configs.
/// Program-major job ids — group A is jobs 0/1, group B is jobs 2/3 — so a
/// serial run finishes (and stores) all of group A before the planned
/// `abort@2` kills the process at the start of group B.
fn crash_experiment() -> Experiment {
    let other = TINY.replace("% 997", "% 991");
    let mut exp = Experiment::new("crash-resume");
    exp.push(ProgramSpec::source("crash-a", TINY), "4-wide", CpuConfig::wide4());
    exp.push(ProgramSpec::source("crash-a", TINY), "8-wide", CpuConfig::wide8());
    exp.push(ProgramSpec::source("crash-b", other.clone()), "4-wide", CpuConfig::wide4());
    exp.push(ProgramSpec::source("crash-b", other), "8-wide", CpuConfig::wide8());
    exp
}

#[test]
fn killed_run_resumes_without_recomputing_completed_jobs() {
    // Child mode: re-executed by the parent below with a result sink and an
    // `abort@2` fault plan in the environment — dies mid-run by design.
    if let Ok(dir) = std::env::var("SVF_CRASH_CHILD") {
        let _ = Harness::serial().with_out_dir(&dir).run(&crash_experiment());
        // Reached only if the plan failed to fire; the parent asserts on
        // the abnormal exit, so exiting cleanly here fails the test.
        std::process::exit(0);
    }

    let root = tmp_root("crash");
    fs::remove_dir_all(&root).ok();
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(&exe)
        .args(["--exact", "killed_run_resumes_without_recomputing_completed_jobs"])
        .env("SVF_CRASH_CHILD", &root)
        .env("SVF_FAULT_PLAN", "abort@2")
        .status()
        .expect("spawn child");
    assert!(!status.success(), "the planned abort must kill the child");

    // The crash left exactly group A's results — written atomically, so
    // both files are complete and loadable.
    let dir = root.join("crash-resume");
    let mut survivors: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("run dir exists after the crash")
        .map(|e| e.expect("entry").path())
        .collect();
    survivors.sort();
    assert_eq!(survivors.len(), 2, "group A stored before the abort: {survivors:?}");
    let sink = RunDir::create(&root, "crash-resume").expect("run dir");
    let mut group_a: Vec<PathBuf> =
        crash_experiment().jobs()[..2].iter().map(|j| sink.job_path(j)).collect();
    group_a.sort();
    assert_eq!(survivors, group_a, "exactly jobs 0 and 1 survived");

    // Resume in-process (this process has no fault plan armed): the two
    // completed jobs load from the sink, only group B simulates, and the
    // final results are bit-identical to an uninterrupted, sink-less run.
    with_plan("", || {
        let exp = crash_experiment();
        let resumed = Harness::serial().with_out_dir(&root).run(&exp);
        assert_eq!(resumed.resumed(), 2, "zero completed jobs recomputed");
        assert!(resumed.failures().is_empty(), "{}", resumed.summary);
        let clean = Harness::serial().run(&exp);
        for (i, (a, b)) in resumed.stats().iter().zip(clean.stats()).enumerate() {
            assert_eq!(**a, *b, "job {i}: resumed run differs from uninterrupted run");
        }
    });
    fs::remove_dir_all(&root).ok();
}
