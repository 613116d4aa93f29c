//! Deterministic fault injection: the `SVF_FAULT_PLAN` hook.
//!
//! A fault plan is a comma-separated list of `<kind>@<job-id>` entries read
//! from the `SVF_FAULT_PLAN` environment variable (parsed once per
//! process). Each entry fires **exactly once**, at the first execution
//! attempt of the job whose in-experiment id matches — job ids are
//! deterministic (definition order), so a plan reproduces the same failure
//! sequence on every run at any worker count.
//!
//! | entry | effect | classified as |
//! |---|---|---|
//! | `panic@N` | panics inside the job (real unwinding) | `Injected{kind:"panic"}`, retryable |
//! | `io@N` | returns an I/O failure | [`JobError::Io`], retryable |
//! | `hang@N:MS` | sleeps `MS` ms (default 60000) inside the job | [`JobError::Timeout`] via the watchdog |
//! | `abort@N` | `std::process::abort()` — a crash with no cleanup, the in-process equivalent of `kill -9` | (process dies) |
//!
//! Jobs with a planned fault are kept out of shared lockstep batches and
//! run as a batch of one, so the fault flows through the full watchdog /
//! retry / classification machinery rather than poisoning a shared batch.
//!
//! The hook costs one relaxed atomic load per job when no fault is armed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::error::JobError;

/// Marker embedded in every injected panic payload so classification can
/// tell a planned fault from a real divergence.
pub(crate) const MARKER: &str = "[svf-fault]";

/// One planned fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Panic,
    Io,
    Hang(u64),
    Abort,
}

/// Remaining (job id, fault) entries; firing removes the entry. First
/// initialization parses `SVF_FAULT_PLAN`; [`install_fault_plan`] replaces
/// the entries wholesale.
static PLAN: OnceLock<Mutex<Vec<(usize, Kind)>>> = OnceLock::new();

/// Count of not-yet-fired entries, mirrored out of the mutex so the per-job
/// hook is one relaxed load when no fault is armed (the common case).
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn parse_entry(entry: &str) -> Result<(usize, Kind), String> {
    let (kind, at) = entry
        .split_once('@')
        .ok_or_else(|| format!("fault entry {entry:?} is not <kind>@<job-id>"))?;
    let (at, arg) = match at.split_once(':') {
        Some((at, arg)) => (at, Some(arg)),
        None => (at, None),
    };
    let id: usize =
        at.parse().map_err(|_| format!("fault entry {entry:?}: bad job id {at:?}"))?;
    let kind = match (kind, arg) {
        ("panic", None) => Kind::Panic,
        ("io", None) => Kind::Io,
        ("hang", None) => Kind::Hang(60_000),
        ("hang", Some(ms)) => Kind::Hang(
            ms.parse().map_err(|_| format!("fault entry {entry:?}: bad ms {ms:?}"))?,
        ),
        ("abort", None) => Kind::Abort,
        (k, _) => {
            return Err(format!("fault entry {entry:?}: unknown kind or stray argument for {k:?}"))
        }
    };
    Ok((id, kind))
}

fn parse_plan(text: &str) -> Result<Vec<(usize, Kind)>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(parse_entry)
        .collect()
}

fn entries() -> &'static Mutex<Vec<(usize, Kind)>> {
    PLAN.get_or_init(|| {
        let text = std::env::var("SVF_FAULT_PLAN").unwrap_or_default();
        let entries = parse_plan(&text)
            // A silently ignored fault plan would make a test vacuously
            // green — a bad plan must fail the run loudly.
            .unwrap_or_else(|e| panic!("SVF_FAULT_PLAN: {e}"));
        ARMED.store(entries.len(), Ordering::Relaxed);
        Mutex::new(entries)
    })
}

/// Installs a fault plan directly, bypassing the environment — the test
/// seam (tests within one binary cannot re-arm via the environment, which
/// is read once). Replaces any previous plan; install `""` to disarm.
/// Callers that share a process must serialize installs around the runs
/// that consume them.
#[doc(hidden)]
pub fn install_fault_plan(text: &str) {
    let parsed = parse_plan(text).unwrap_or_else(|e| panic!("install_fault_plan: {e}"));
    let mut entries = entries().lock().expect("fault plan");
    ARMED.store(parsed.len(), Ordering::Relaxed);
    *entries = parsed;
}

/// Whether any not-yet-fired fault targets job `id` (peek, no consumption).
/// The scheduler uses this to keep faulty jobs out of lockstep batches.
pub(crate) fn planned(id: usize) -> bool {
    // The fast path is only sound once the env has been parsed (which sets
    // ARMED); before that, fall through to `entries()` to initialize.
    if PLAN.get().is_some() && ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    entries().lock().expect("fault plan").iter().any(|&(i, _)| i == id)
}

/// Fires (and consumes) the fault planned for job `id`, if any: panics,
/// aborts, sleeps, or returns the planned error. A clean `Ok(())` means no
/// fault was planned or it already fired.
///
/// # Errors
///
/// The planned [`JobError`] for an `io` entry.
pub(crate) fn fire(id: usize) -> Result<(), JobError> {
    if PLAN.get().is_some() && ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    let kind = {
        let mut entries = entries().lock().expect("fault plan");
        let Some(pos) = entries.iter().position(|&(i, _)| i == id) else { return Ok(()) };
        let kind = entries.remove(pos).1;
        ARMED.store(entries.len(), Ordering::Relaxed);
        kind
    };
    match kind {
        Kind::Panic => panic!("{MARKER} planned panic at job {id}"),
        Kind::Io => Err(JobError::Io(format!("{MARKER} planned I/O fault at job {id}"))),
        Kind::Hang(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Kind::Abort => {
            eprintln!("{MARKER} planned abort at job {id}");
            std::process::abort()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests only exercise the parser — installing a live plan would
    // race with every other test in this binary that executes jobs.

    #[test]
    fn plans_parse() {
        let p = parse_plan("panic@3, io@5,hang@7:2000,abort@12").expect("parses");
        assert_eq!(
            p,
            vec![
                (3, Kind::Panic),
                (5, Kind::Io),
                (7, Kind::Hang(2000)),
                (12, Kind::Abort),
            ]
        );
        assert_eq!(parse_plan("hang@1").expect("parses"), vec![(1, Kind::Hang(60_000))]);
        assert!(parse_plan("").expect("empty ok").is_empty());
        assert!(parse_plan(" , ").expect("blank entries ok").is_empty());
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(parse_plan("panic").is_err(), "missing @id");
        assert!(parse_plan("panic@x").is_err(), "bad id");
        assert!(parse_plan("meteor@1").is_err(), "unknown kind");
        assert!(parse_plan("hang@1:soon").is_err(), "bad ms");
        assert!(parse_plan("io@1:5").is_err(), "io takes no argument");
    }
}
