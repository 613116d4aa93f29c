//! The ISSUE-level memoization contract: a full C-configuration ×
//! W-workload experiment matrix performs exactly W MiniC compilations.
//!
//! This lives in its own test binary on purpose: the compile cache and its
//! counter are **process-global**, so the exact-count assertion below is
//! only sound when no concurrently-running test compiles the same registry
//! workloads. Keep this the only test in the file.

use svf_cpu::{CpuConfig, StackEngine};
use svf_harness::{compile_count, Experiment, Harness};
use svf_workloads::Scale;

/// Timing-heavy (48 cycle simulations), so release-only like the
/// figure-shape tests.
#[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
#[test]
fn matrix_compiles_each_workload_exactly_once() {
    let mut sc = CpuConfig::wide16().with_ports(2, 2);
    sc.stack_engine = StackEngine::StackCache;
    let mut svf = CpuConfig::wide16().with_ports(2, 2);
    svf.stack_engine = StackEngine::Svf;
    let configs = [
        ("base", CpuConfig::wide16()),
        ("stack-cache", sc),
        ("svf", svf),
        ("8-wide", CpuConfig::wide8()),
    ];
    let exp = Experiment::matrix("memo-matrix", &configs, Scale::Test);
    let workloads = svf_workloads::all().len();
    assert_eq!(exp.jobs().len(), workloads * configs.len(), "full 12x4 matrix");

    let before = compile_count();
    let report = Harness::parallel().with_workers(4).run(&exp);
    report.try_stats().expect("every job completes");
    assert_eq!(
        compile_count() - before,
        workloads as u64,
        "each workload compiles once, not once per configuration"
    );

    // A second identical run is fully served from the cache.
    let report = Harness::parallel().with_workers(4).run(&exp);
    report.try_stats().expect("every job completes again");
    assert_eq!(compile_count() - before, workloads as u64, "warm matrix recompiles nothing");
}
