//! Cross-job program memoization.
//!
//! A C-configuration × W-workload experiment matrix needs W distinct
//! programs but defines C·W jobs; before this cache every job compiled its
//! own program on the worker thread, so each workload was compiled C times.
//! The cache is **process-global** (experiments within one CLI invocation
//! share it) and keyed on the program half of a job's identity
//! (`JobKey::program` in `sink.rs`: the MiniC source text and
//! register-promotion flag), handing out [`Arc<Program>`] so the (also
//! shared, see `Program::decoded`) image is built exactly once per
//! distinct program — a `Workload` spec and a `Source` spec with the same
//! text included.
//!
//! # Failure isolation
//!
//! A failing or panicking compilation must fail **only the jobs that need
//! that program** — not the worker pool. Each cache entry is an
//! `Arc`-shared `OnceLock<Result<…>>` cell: the winning thread compiles inside
//! `get_or_init` with the panic caught and stored as the `Err` value
//! (poisoned-entry semantics). Every sharer — concurrent or later — then
//! observes the same `Err` with the same message, exactly as if it had
//! compiled the spec itself, and the cache's own mutex is never poisoned.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use svf_isa::Program;

use crate::error::JobError;
use crate::job::ProgramSpec;

/// One cache cell: settled exactly once, shared by every job with the spec.
#[derive(Default)]
struct Slot {
    program: OnceLock<Result<Arc<Program>, JobError>>,
    /// Compilations this slot performed. Unlike [`compile_count`], other
    /// specs compiling concurrently cannot move it.
    compiles: AtomicU64,
}

static CACHE: OnceLock<Mutex<HashMap<u128, Arc<Slot>>>> = OnceLock::new();

/// Count of actual MiniC compilations performed through the cache — the
/// test hook asserting that a C×W matrix compiles each workload once.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of compilations the memo cache has actually performed in this
/// process (cache hits don't count). Observability/test hook: a
/// C-configuration × W-workload matrix must advance this by exactly W.
#[must_use]
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Compiles `spec`, whose program key is `program`, through the
/// process-global cache.
///
/// The mutex guards only the slot lookup — compilation itself runs outside
/// it, in the slot's `get_or_init`, so distinct specs compile in parallel
/// and a panic cannot poison the map.
///
/// # Errors
///
/// Compiler errors and compile-time panics are classified as
/// [`JobError::Compile`] / [`JobError::Panic`], stored in the entry, and
/// repeated verbatim to every sharer of the spec.
pub(crate) fn compile_shared(spec: &ProgramSpec, program: u128) -> Result<Arc<Program>, JobError> {
    let slot = slot(program);
    slot.program
        .get_or_init(|| {
            COMPILES.fetch_add(1, Ordering::Relaxed);
            slot.compiles.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| spec.compile())) {
                Ok(Ok(program)) => Ok(Arc::new(program)),
                Ok(Err(e)) => Err(JobError::Compile(e)),
                Err(payload) => Err(JobError::from_panic(payload.as_ref())),
            }
        })
        .clone()
}

/// The cache slot for a program key, created empty on first lookup.
fn slot(program: u128) -> Arc<Slot> {
    let mut map = CACHE.get_or_init(Mutex::default).lock().expect("memo cache mutex");
    Arc::clone(map.entry(program).or_default())
}

#[cfg(test)]
mod tests {
    use svf_cpu::CpuConfig;
    use svf_workloads::Scale;

    use super::*;
    use crate::job::Job;
    use crate::sink;

    // Sources unique to this module: the cache is process-global and cargo
    // runs test threads concurrently, so each test counts the compiles of
    // its own slot rather than the process-wide counter.

    fn key(spec: &ProgramSpec) -> u128 {
        let job = Job {
            id: 0,
            program: spec.clone(),
            config_label: String::new(),
            config: CpuConfig::wide4(),
        };
        sink::job_key(&job, None).program
    }

    fn compile(spec: &ProgramSpec) -> Result<Arc<Program>, JobError> {
        compile_shared(spec, key(spec))
    }

    fn compiles_of(spec: &ProgramSpec) -> u64 {
        slot(key(spec)).compiles.load(Ordering::Relaxed)
    }

    #[test]
    fn same_spec_compiles_once_and_shares_the_image() {
        let spec = ProgramSpec::source(
            "memo-unit-share",
            "int main() { print(41 + 1); return 0; }",
        );
        let a = compile(&spec).expect("compiles");
        let b = compile(&spec).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "one image, shared");
        assert_eq!(compiles_of(&spec), 1, "second call was a cache hit");
    }

    #[test]
    fn same_text_shares_one_entry_whatever_the_spec_kind_or_label() {
        let workload = ProgramSpec::workload("gzip", Scale::Test);
        let text = workload.minic().expect("gzip").0.into_owned();
        let source = ProgramSpec::source("memo-unit-gzip-text", text.clone());
        let renamed = ProgramSpec::source("memo-unit-gzip-renamed", text.clone());
        assert_eq!(key(&workload), key(&source), "a workload is its source text");
        assert_eq!(key(&source), key(&renamed), "a label is presentation");
        let naive = ProgramSpec::source_with("memo-unit-gzip-text", text, false);
        assert_ne!(key(&naive), key(&source), "regalloc is part of the program");
    }

    #[test]
    fn failed_compile_is_poisoned_not_retried() {
        let spec = ProgramSpec::source("memo-unit-broken", "int main( {");
        let e1 = compile(&spec).expect_err("must fail");
        let e2 = compile(&spec).expect_err("must fail again");
        assert_eq!(e1, e2, "sharers observe the identical message");
        assert_eq!(compiles_of(&spec), 1, "failure is cached, not retried");
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let a = compile(&ProgramSpec::source("memo-unit-a", "int main() { print(1); return 0; }"))
            .expect("compiles");
        let b = compile(&ProgramSpec::source("memo-unit-b", "int main() { print(2); return 0; }"))
            .expect("compiles");
        assert!(!Arc::ptr_eq(&a, &b));
    }
}
