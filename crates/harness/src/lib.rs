//! # svf-harness — parallel experiment orchestration
//!
//! The paper's evaluation is a large matrix of *(workload × machine
//! configuration)* cycle simulations. This crate turns that matrix into an
//! orchestrated run:
//!
//! 1. **Expansion** — an [`Experiment`] expands into a deterministic list
//!    of [`Job`]s (`{program, config_label, config}` units, ids in
//!    definition order).
//! 2. **Execution** — a [`Harness`] drains the job list across
//!    `std::thread` workers fed by a shared queue. A job whose content key
//!    (below) repeats an earlier job's in the same experiment is never
//!    attempted: it receives that job's outcome. Program compilation is
//!    **memoized process-wide** on the program's MiniC text: the first
//!    job needing a program compiles it, every other job sharing the text
//!    reuses the same `Arc<Program>` — a C-config × W-workload matrix
//!    performs W compilations, not C·W (see [`compile_count`]). With
//!    **lockstep batching** (the default, see [`Harness::with_lockstep`])
//!    the *functional execution* is shared the same way: jobs with the
//!    same program form one group, and a *batch plan* cuts each group's shared
//!    jobs into balanced lockstep batches driven by
//!    [`svf_cpu::simulate`] — at least two batches per worker, so no
//!    worker sits idle behind one long program — and the emulator runs
//!    once per batch instead of once per job, with bit-identical results.
//!    Every fresh job runs inside such a batch — a job that must run alone
//!    is a batch of one — and work runs under
//!    `catch_unwind`, so one diverging simulation reports as
//!    [`JobOutcome::Failed`] instead of killing the run (a panicking
//!    batch is bisected until the diverging job fails alone); a failing
//!    or panicking *compile* poisons only its cache entry, failing exactly
//!    the jobs that share the program, all with the same message.
//! 3. **Reassembly** — results come back in job-id order, making parallel
//!    output bit-identical to serial output (every simulation is itself
//!    deterministic).
//! 4. **Sinks & resume** — with an output directory configured, each job's
//!    [`SimStats`] is written to
//!    `<out>/<experiment>/<content-key>.csv` (atomically — temp file +
//!    rename; every `svf-experiments` figure command shares the
//!    experiment `timing`), and jobs whose result file already exists are
//!    *resumed* (loaded, not re-simulated). The content key hashes the
//!    program, the canonical config, the sampling plan and [`SIM_VERSION`]
//!    — never a label or position — so it is the one identity for resume,
//!    sweeps, duplicate jobs and the quarantine (see [`RunDir`]).
//!    Interrupted long runs — including runs killed mid-flight — pick up
//!    where they stopped; delete the directory to force a clean rerun. A
//!    result file that exists but is damaged is reported
//!    ([`JobError::CorruptResume`]) and the job re-runs, which repairs the
//!    file.
//! 5. **Fault tolerance** — every failure is classified as a [`JobError`]
//!    with principled retryability, and the [`RetryPolicy`] (see
//!    [`Harness::with_retries`] / [`Harness::with_timeout`]) bounds how
//!    hard the runner tries: retryable failures re-attempt with exponential
//!    backoff, and an optional per-attempt watchdog abandons hung attempts
//!    as [`JobError::Timeout`]. A lockstep batch that panics or hangs is
//!    **bisected**: the batch splits in half recursively until the
//!    offending job fails alone, and that job is *quarantined*
//!    (process-globally, by content key) so later runs in the
//!    process never batch it again — survivors keep sharing streams
//!    instead of all falling back to serial. The deterministic
//!    `SVF_FAULT_PLAN` hook (see [`install_fault_plan`]) injects panics,
//!    I/O errors, hangs and process aborts at chosen
//!    job ids to test all of this.
//!
//! 6. **Sampled simulation** — [`Harness::with_sample`] hands its plan to
//!    every batch's [`svf_cpu::simulate`] call (a batch of one included):
//!    the program runs functionally end to end and only the plan's measured
//!    intervals pay detailed cost, with the stratified whole-run estimate
//!    reported in the ordinary [`SimStats`] shape — so sinks, resume,
//!    retries, fault injection, and sweeps compose unchanged.
//!
//! A light observability surface rides along: per-job wall clock, and a
//! run-level progress line (jobs done/total, aggregate simulated Mcycles/s,
//! ETA, resumed/retried/timed-out/failed counts, and — for sampled runs —
//! the detailed vs fast-forwarded instruction split).
//!
//! # Example
//!
//! ```no_run
//! use svf_cpu::CpuConfig;
//! use svf_harness::{Experiment, Harness};
//! use svf_workloads::Scale;
//!
//! let exp = Experiment::matrix(
//!     "width-sweep",
//!     &[("4-wide", CpuConfig::wide4()), ("8-wide", CpuConfig::wide8())],
//!     Scale::Test,
//! );
//! let report = Harness::parallel().run(&exp);
//! for (job, stats) in report.jobs.iter().zip(report.stats()) {
//!     println!("{}: {} cycles", job.key, stats.cycles);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod experiment;
mod fault;
mod job;
mod memo;
mod plan;
mod pool;
mod progress;
mod sink;
pub mod sweep;

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use svf_cpu::{CpuConfig, RunOptions, SampleSpec, SampledStats, SimStats};
use svf_isa::Program;

pub use error::{JobError, RetryPolicy};
pub use experiment::Experiment;
pub use fault::install_fault_plan;
pub use job::{Job, JobOutcome, JobReport, ProgramSpec};
pub use memo::compile_count;
pub use pool::{parallel_map, FanoutClaim, ThreadBudget};
pub use sink::{atomic_write, RunDir, SIM_VERSION};
pub use sweep::{run_sweep, SweepOutcome, SweepPoint};

use error::retry;
use plan::Plan;
use progress::Progress;
use sink::JobKey;

/// Execution policy: how many workers, where results go, whether to narrate,
/// whether jobs sharing a program ride one functional stream, whether
/// simulations run sampled (detailed intervals over a functional
/// fast-forward) instead of fully detailed, and — with a thread budget —
/// how many threads the whole run may occupy across job workers *and*
/// intra-batch timing fan-out.
#[derive(Debug, Clone)]
pub struct Harness {
    workers: usize,
    threads: Option<usize>,
    out_dir: Option<PathBuf>,
    progress: bool,
    lockstep: bool,
    policy: RetryPolicy,
    sample: Option<SampleSpec>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::parallel()
    }
}

impl Harness {
    /// One worker per available hardware thread, no result sink, quiet.
    #[must_use]
    pub fn parallel() -> Harness {
        let workers = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Harness {
            workers,
            threads: None,
            out_dir: None,
            progress: false,
            lockstep: true,
            policy: RetryPolicy::default(),
            sample: None,
        }
    }

    /// A single worker (the job queue still runs, panic isolation included).
    #[must_use]
    pub fn serial() -> Harness {
        Harness::parallel().with_workers(1)
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Harness {
        self.workers = workers.max(1);
        self
    }

    /// Sets the unified thread budget (clamped to at least 1): the run may
    /// occupy at most `total` threads, split between job-level workers and
    /// intra-batch timing fan-out so that `jobs × fanout ≤ total`. Workers
    /// are capped at the budget; whatever the workers do not use funds a
    /// spare pool that lockstep batches claim extra timing threads from
    /// ([`svf_cpu::RunOptions::fanout`]) when they start. A worker that
    /// drains the job queue donates its seat to that pool, where only the
    /// *next* batch anyone claims can use it — a later piece of the batch
    /// plan, a retry or a bisection half; a batch already running keeps
    /// the fan-out it started with. Without a budget every batch advances
    /// its pipelines serially on its worker thread (fanout 1), the
    /// pre-budget behaviour.
    /// Results are bit-identical at any fanout (pinned by the workspace
    /// golden tests).
    #[must_use]
    pub fn with_threads(mut self, total: usize) -> Harness {
        self.threads = Some(total.max(1));
        self
    }

    /// Enables the result sink: per-job CSVs under `<dir>/<experiment>/`,
    /// which also makes runs resumable.
    #[must_use]
    pub fn with_out_dir(mut self, dir: impl Into<PathBuf>) -> Harness {
        self.out_dir = Some(dir.into());
        self
    }

    /// Enables the live progress line on stderr.
    #[must_use]
    pub fn with_progress(mut self, on: bool) -> Harness {
        self.progress = on;
        self
    }

    /// Enables or disables lockstep batching (on by default): jobs sharing
    /// a program (its MiniC text, see [`ProgramSpec::minic`]) form one
    /// group, which the batch plan cuts into contiguous batches of at most
    /// `⌈fresh jobs / (2 × workers)⌉`, each
    /// riding a single functional execution of the program
    /// ([`svf_cpu::simulate`]); off, every job is a batch of one that
    /// re-runs the emulator. Results are bit-identical either way (pinned
    /// by the workspace golden tests); lockstep does the functional work
    /// once per batch instead of once per job, and the cap keeps enough
    /// batches in the queue to balance the workers.
    #[must_use]
    pub fn with_lockstep(mut self, on: bool) -> Harness {
        self.lockstep = on;
        self
    }

    /// Sets the per-attempt watchdog: an attempt exceeding `limit` is
    /// abandoned as [`JobError::Timeout`] (retryable, so a transient hang
    /// gets another chance). The abandoned attempt's thread leaks until
    /// its simulation finishes — a genuinely hung job never does useful
    /// work again, so that is the acceptable cost of not hanging the run.
    /// Lockstep batches get the limit scaled by batch width.
    #[must_use]
    pub fn with_timeout(mut self, limit: Duration) -> Harness {
        self.policy.timeout = Some(limit);
        self
    }

    /// Sets the total attempts per job for retryable failures (clamped to
    /// at least 1; see [`JobError::retryable`] for which failures qualify).
    #[must_use]
    pub fn with_retries(mut self, attempts: u32) -> Harness {
        self.policy.attempts = attempts.max(1);
        self
    }

    /// Enables sampled simulation ([`svf_cpu::simulate`] under the plan):
    /// every job runs the program functionally end to end, pays detailed-simulation
    /// cost only inside the plan's measured intervals, and reports the
    /// stratified whole-run estimate as its [`SimStats`]. Each lockstep
    /// batch — a batch of one included — shares one sampled stream, so
    /// sampling composes with retries, bisection, fault injection, and
    /// sweeps exactly like full simulation. The plan is part of every
    /// result's content key, so sampled and full results can share one
    /// `--out` directory without either resuming the other.
    #[must_use]
    pub fn with_sample(mut self, spec: SampleSpec) -> Harness {
        self.sample = Some(spec);
        self
    }

    /// The active sampling plan, if any.
    #[must_use]
    pub fn sample(&self) -> Option<&SampleSpec> {
        self.sample.as_ref()
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The unified thread budget, if one was set.
    #[must_use]
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Runs every job of `exp` and reassembles the reports in job-id order.
    ///
    /// Each job's content key (see [`RunDir`]) is hashed once. A job whose
    /// key already appeared earlier in `exp` is never attempted: it
    /// receives its first occurrence's outcome — `Completed`, `Resumed` or
    /// `Failed` — under its own id and labels, and the summary line counts
    /// it as `shared=N`. A fault planned at such a duplicate's id therefore
    /// never fires. Jobs the sink already holds are resumed on the calling
    /// thread; the rest run through the batch plan (see
    /// [`Harness::with_lockstep`]).
    ///
    /// # Panics
    ///
    /// Panics only if a result sink was requested but its directory cannot
    /// be created — results would silently stop being resumable otherwise.
    #[must_use]
    pub fn run(&self, exp: &Experiment) -> RunReport {
        let started = Instant::now();
        let sink = self.out_dir.as_deref().map(|root| {
            RunDir::create(root, &exp.name)
                .unwrap_or_else(|e| panic!("cannot create run dir under {}: {e}", root.display()))
        });
        let sink = sink.as_ref();
        let jobs = exp.jobs();
        let sample = self.sample.as_ref();
        let keys: Vec<JobKey> = jobs.iter().map(|job| sink::job_key(job, sample)).collect();
        // `first[i]` is the earliest job with job i's content key; only
        // jobs that are their own first occurrence are attempted.
        let mut seen: HashMap<u128, usize> = HashMap::new();
        let first: Vec<usize> =
            keys.iter().enumerate().map(|(i, key)| *seen.entry(key.content).or_insert(i)).collect();
        let progress = Progress::new(&exp.name, seen.len(), self.progress);
        progress.record_shared(jobs.len() - seen.len());
        let slots: Vec<Mutex<Option<JobReport>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let deliver = |i: usize, report: JobReport| {
            let (cycles, resumed, failed) = match &report.outcome {
                JobOutcome::Completed(s) => (s.cycles, false, false),
                JobOutcome::Resumed(_) => (0, true, false),
                JobOutcome::Failed(_) => (0, false, true),
            };
            progress.record(cycles, resumed, failed);
            *slots[i].lock().expect("report slot") = Some(report);
        };
        // Resume what the sink already holds (re-running anything it
        // reports as corrupt); only the fresh jobs enter the plan.
        let fresh = |&i: &usize| match sink.map_or(Ok(None), |s| s.load_keyed(keys[i].content)) {
            Ok(Some(stats)) => {
                deliver(i, report_for(&jobs[i], JobOutcome::Resumed(stats), Duration::ZERO));
                false
            }
            Ok(None) => true,
            Err(e) => {
                // A damaged result file must not fail the job — re-running
                // the simulation rewrites (repairs) it.
                eprintln!("svf-harness: {}: {e}; re-running", jobs[i].key());
                true
            }
        };
        let fresh = (0..jobs.len()).filter(|&i| first[i] == i).filter(fresh);
        let fresh: Vec<(usize, u128)> = fresh.map(|i| (i, keys[i].program)).collect();
        let groups = plan::group_jobs(&fresh, self.lockstep);
        // With a thread budget the job workers are capped at the budget and
        // whatever they leave unused funds intra-batch timing fan-out;
        // without one, the budget has no spare and every batch runs serial.
        let workers = self.threads.map_or(self.workers, |t| self.workers.min(t));
        // Jobs with a planned fault or a quarantine record run as batches
        // of one, so their failure cannot poison a shared batch.
        let plan = Plan::new(
            groups,
            |i| fault::planned(jobs[i].id) || quarantined(keys[i].content),
            workers,
        );
        let workers = workers.clamp(1, plan.len().max(1));
        let budget = ThreadBudget::new(self.threads.unwrap_or(workers), workers);
        progress.set_parallelism(workers, 1);
        let worker_busy = plan.drain(workers, &budget, |batch| {
            let t0 = Instant::now();
            let results = run_batch(jobs, &keys, batch, &self.policy, &progress, sample, &budget);
            let wall = t0.elapsed() / u32::try_from(batch.len()).unwrap_or(u32::MAX);
            for (i, result) in results {
                let job = &jobs[i];
                if let (Some(sink), Ok(stats)) = (sink, &result) {
                    // A store that still fails only costs resumability (the
                    // job re-runs next time), so it warns rather than
                    // failing the job.
                    let store = || {
                        sink.store_keyed(keys[i].content, stats)
                            .map_err(|e| JobError::Io(e.to_string()))
                    };
                    if let Err(e) = retry(&self.policy, store, || {}) {
                        eprintln!("svf-harness: cannot store {}: {e}", job.key());
                    }
                }
                let outcome = result.map_or_else(JobOutcome::Failed, JobOutcome::Completed);
                deliver(i, report_for(job, outcome, wall));
            }
        });
        let mut reports: Vec<JobReport> = Vec::with_capacity(jobs.len());
        for (i, slot) in slots.into_iter().enumerate() {
            // Only repeats are unvisited; their first occurrence is earlier.
            let report = slot.into_inner().expect("report slot").unwrap_or_else(|| {
                report_for(&jobs[i], reports[first[i]].outcome.clone(), Duration::ZERO)
            });
            reports.push(report);
        }
        let mut report = RunReport {
            name: exp.name.clone(),
            jobs: reports,
            wall: started.elapsed(),
            worker_busy,
            summary: String::new(),
        };
        progress.set_utilization(report.utilization());
        report.summary = progress.finish();
        report
    }
}

/// Runs `members` — jobs sharing one program — as one lockstep batch:
/// compile once (memoized), then simulate every member configuration over
/// one shared stream. A batch of several that fails (a panic, an injected
/// fault, or a hang past the width-scaled watchdog) is **bisected**: each
/// half re-runs as its own batch, recursively, until the offending member
/// fails alone. Survivor halves keep sharing streams, so one bad
/// configuration costs `O(log n)` re-batches rather than degrading the
/// whole group to serial. A batch of one retries under the policy instead,
/// and a member whose final failure is a divergence or a hang is
/// quarantined so it never rides a shared batch again this process.
fn run_batch(
    jobs: &[Job],
    keys: &[JobKey],
    members: &[usize],
    policy: &RetryPolicy,
    progress: &Progress,
    sample: Option<&SampleSpec>,
    budget: &ThreadBudget,
) -> Vec<(usize, Result<SimStats, JobError>)> {
    let first = members[0];
    let program = match memo::compile_shared(&jobs[first].program, keys[first].program) {
        Ok(p) => p,
        // Compilation failed: every sharer fails with one message.
        Err(e) => return members.iter().map(|&i| (i, Err(e.clone()))).collect(),
    };
    let attempt = || {
        // Borrow spare budget threads for this attempt only; the claim is
        // released before any retry or bisection, which re-claim.
        let claim = budget.claim(members.len());
        let fanout = claim.fanout();
        progress.record_fanout(fanout);
        let attempted = attempt_lockstep(jobs, members, &program, policy.timeout, sample, fanout);
        match &attempted {
            // One schedule serves the whole batch: its first member's
            // coverage is every member's.
            Ok(runs) if sample.is_some() => {
                progress.record_sample(runs[0].detailed_insts, runs[0].fast_forwarded());
            }
            Err(JobError::Timeout { .. }) => progress.record_timeout(),
            _ => {}
        }
        attempted
    };
    let attempted = match members {
        [i] => {
            let attempted = retry(policy, attempt, || progress.record_retry());
            if matches!(attempted, Err(JobError::Panic(_) | JobError::Timeout { .. })) {
                quarantine(keys[*i].content);
            }
            attempted
        }
        _ => attempt(),
    };
    match (attempted, members) {
        (Ok(runs), _) => {
            members.iter().copied().zip(runs.into_iter().map(|s| Ok(s.stats))).collect()
        }
        (Err(e), [i]) => vec![(*i, Err(e))],
        (Err(_), _) => {
            let (a, b) = members.split_at(members.len() / 2);
            let mut out = run_batch(jobs, keys, a, policy, progress, sample, budget);
            out.extend(run_batch(jobs, keys, b, policy, progress, sample, budget));
            out
        }
    }
}

fn report_for(job: &Job, outcome: JobOutcome, wall: Duration) -> JobReport {
    JobReport {
        key: job.key(),
        config_label: job.config_label.clone(),
        outcome,
        wall,
    }
}

/// One lockstep-batch attempt over `members`, panic-caught, optionally
/// under a watchdog whose limit scales with the batch width (N jobs ride
/// one stream). The attempt first fires any `SVF_FAULT_PLAN` fault planned
/// for a member, so injected failures traverse exactly the machinery a
/// real one would, then runs the batch through [`svf_cpu::simulate`] over
/// one live stream, sampled under `sample` if given. `fanout` is the
/// number of timing threads the batch may spread its pipelines over;
/// results are bit-identical at any fanout, and a panic on any timing
/// thread surfaces here with its original payload. A functional fault
/// fails the attempt with the [`JobError::Panic`] text the kept wrappers'
/// panic produces, so bisection and quarantine treat it like a divergence.
fn attempt_lockstep(
    jobs: &[Job],
    members: &[usize],
    program: &Arc<Program>,
    timeout: Option<Duration>,
    sample: Option<&SampleSpec>,
    fanout: usize,
) -> Result<Vec<SampledStats>, JobError> {
    let ids: Vec<usize> = members.iter().map(|&i| jobs[i].id).collect();
    let configs: Vec<CpuConfig> = members.iter().map(|&i| jobs[i].config.clone()).collect();
    let program = Arc::clone(program);
    let sample = sample.copied();
    let work = move || {
        for id in ids {
            fault::fire(id)?;
        }
        let opts = RunOptions { max_insts: u64::MAX, fanout, sample };
        svf_cpu::simulate(&configs, &program, &opts).map_err(|e| {
            let during = if sample.is_some() { "sampled simulation" } else { "simulation" };
            JobError::Panic(format!("panicked: functional fault during {during}: {e}"))
        })
    };
    let Some(limit) = timeout else {
        return catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|p| Err(JobError::from_panic(p.as_ref())));
    };
    watchdog(limit * u32::try_from(members.len()).unwrap_or(u32::MAX), work)
}

/// Runs `work` on a helper thread and waits at most `limit` for its result.
/// On expiry the helper is *abandoned*, not killed (Rust has no safe thread
/// cancellation): it leaks until its simulation finishes or the process
/// exits. The channel send into a dropped receiver is a clean no-op.
fn watchdog<R: Send + 'static>(
    limit: Duration,
    work: impl FnOnce() -> Result<R, JobError> + Send + 'static,
) -> Result<R, JobError> {
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new().name("svf-watchdog-attempt".into()).spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|p| Err(JobError::from_panic(p.as_ref())));
        let _ = tx.send(result);
    });
    if let Err(e) = spawned {
        return Err(JobError::Io(format!("cannot spawn watchdog thread: {e}")));
    }
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => Err(JobError::Timeout {
            millis: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// The lockstep quarantine: content keys ([`RunDir`]) of jobs that
/// diverged or hung. Process-global for the same reason the memo cache is —
/// a later run in this process must not re-batch a known-bad member.
static QUARANTINE: OnceLock<Mutex<HashSet<u128>>> = OnceLock::new();

fn quarantined(content: u128) -> bool {
    QUARANTINE.get().is_some_and(|q| q.lock().expect("quarantine").contains(&content))
}

fn quarantine(content: u128) {
    QUARANTINE.get_or_init(Mutex::default).lock().expect("quarantine").insert(content);
}

/// Everything one [`Harness::run`] produced, in job-id order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The experiment name.
    pub name: String,
    /// Per-job reports, indexed by job id.
    pub jobs: Vec<JobReport>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
    /// Busy time of each job worker: the wall clock it spent running
    /// batches rather than waiting for the queue to drain.
    pub worker_busy: Vec<Duration>,
    /// The final throughput summary line (also printed when progress is on).
    pub summary: String,
}

impl RunReport {
    /// `(key, classified error)` for every failed job.
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, &JobError)> {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.failure().map(|m| (j.key.as_str(), m)))
            .collect()
    }

    /// Worker utilization: total worker busy time over `workers × wall`,
    /// in `[0, 1]`. The summary line prints it as `util`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.worker_busy.len() as f64;
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        if capacity > 0.0 {
            busy / capacity
        } else {
            0.0
        }
    }

    /// Number of jobs loaded from the run directory instead of simulated.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_resumed()).count()
    }

    /// All statistics in job-id order.
    ///
    /// # Errors
    ///
    /// Lists every failed job if any job failed.
    pub fn try_stats(&self) -> Result<Vec<&SimStats>, String> {
        let failures = self.failures();
        if !failures.is_empty() {
            let mut msg = format!("{}: {} job(s) failed:", self.name, failures.len());
            for (key, why) in failures {
                msg.push_str(&format!("\n  {key}: {why}"));
            }
            return Err(msg);
        }
        Ok(self.jobs.iter().filter_map(|j| j.outcome.stats()).collect())
    }

    /// All statistics in job-id order, for drivers that treat a failed
    /// simulation as fatal (the historical behaviour of the serial runners).
    ///
    /// # Panics
    ///
    /// Panics with the full failure list if any job failed.
    #[must_use]
    pub fn stats(&self) -> Vec<&SimStats> {
        self.try_stats().unwrap_or_else(|e| panic!("{e}"))
    }
}

static GLOBAL: OnceLock<Mutex<Harness>> = OnceLock::new();

/// Installs the process-wide harness used by [`global`] (the experiment
/// drivers route through it, so a CLI sets `--jobs`/`--out` once here).
pub fn configure(harness: Harness) {
    *GLOBAL.get_or_init(|| Mutex::new(Harness::parallel())).lock().expect("global harness") =
        harness;
}

/// The process-wide harness: whatever [`configure`] installed, or the
/// default parallel, sink-less, quiet policy.
#[must_use]
pub fn global() -> Harness {
    GLOBAL.get_or_init(|| Mutex::new(Harness::parallel())).lock().expect("global harness").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A functional fault comes back from `simulate` as an error, and the
    /// attempt reports it with exactly the text the kept wrappers' panic
    /// produces, so failure lines, retries and quarantine see no change.
    #[test]
    fn a_functional_fault_fails_with_the_wrappers_panic_text() {
        // An empty text segment: the first fetch leaves it.
        let program = Arc::new(Program::new());
        let config = CpuConfig::wide4();
        let jobs = [Job {
            id: usize::MAX,
            program: ProgramSpec::source("empty", ""),
            config_label: "wide4".into(),
            config: config.clone(),
        }];
        let plan = SampleSpec::parse("period=2k,interval=1k").expect("plan parses");
        let configs = [config];
        for sample in [None, Some(&plan)] {
            let attempted = attempt_lockstep(&jobs, &[0], &program, None, sample, 1);
            let panicked = catch_unwind(|| match sample {
                None => drop(svf_cpu::run_lockstep(&configs, &program, u64::MAX)),
                Some(spec) => drop(svf_cpu::run_sampled(&configs, &program, u64::MAX, spec)),
            })
            .expect_err("the wrapper panics on a functional fault");
            let want = JobError::from_panic(panicked.as_ref());
            assert!(matches!(want, JobError::Panic(ref m) if m.contains("functional fault")));
            assert_eq!(attempted.expect_err("the fault fails the attempt"), want);
        }
    }
}
