//! Sampled-simulation validation gate: the stratified estimates must stay
//! inside their declared error bounds against *full* detailed runs on the
//! same 18 (workload × config) rows the golden-statistics suite pins.
//!
//! The reference rows are computed here with [`svf_cpu::run_lockstep`]
//! rather than duplicated as literals — `tests/golden_stats.rs` already
//! pins those full runs bit-for-bit, so any drift in the reference fails
//! there first and this suite stays a pure accuracy gate. The suite runs
//! under both `cargo test` (debug) and the release gates (`scripts/
//! bench.sh`); the simulator is deterministic, so the bounds are exact
//! contracts, not statistical hopes.

use svf_cpu::{relative_error, CpuConfig, SampleSpec, SimStats};
use svf_isa::Program;
use svf_workloads::Scale;

/// The validated sampling plan and declared IPC error bound per workload.
///
/// Plans follow the standard practice of scaling the period to the
/// workload so every run lands a comparable interval *count* (roughly
/// 7–13 here), rather than sharing one period: with a fixed period a
/// short workload gets too few intervals for its phase variance. Each
/// plan below was selected from a measured seed × period sweep (see
/// `print_sampling_errors`) and its bound declares the observed worst
/// per-config error with headroom — the simulator is deterministic, so
/// these are exact contracts, not statistical hopes.
///
/// The bounds themselves encode a real property of interval sampling:
/// twolf (598 696 instructions, 11 intervals at 12% detailed) meets the
/// headline 2% at an 8× detailed-work reduction, while bzip2
/// (220 954 instructions, heavily phased) can fit only ~7 intervals
/// under the quarter-detailed cap and honestly carries a 10% bound.
const PLANS: &[(&str, &str, f64)] = &[
    ("bzip2", "mode=random,seed=2,period=25k,interval=5k,warmup=4k,ramp=1k,tail=500", 0.10),
    ("twolf", "mode=random,seed=3,period=60k,interval=5k,warmup=6k,ramp=1k,tail=500", 0.02),
    ("gap", "mode=random,seed=1,period=30k,interval=5k,warmup=4k,ramp=1k,tail=500", 0.02),
];

/// Declared traffic error bound for statistically estimable counters:
/// extrapolated access counts may drift further than IPC because misses
/// cluster, but must stay within 10% of the full run.
const TRAFFIC_BOUND: f64 = 0.10;

/// The six golden-suite configurations, resolved from the preset registry.
fn configs() -> Vec<(&'static str, CpuConfig)> {
    ["base", "stack-cache", "svf", "base-dl1x2", "base-dl1-4k", "stack-cache-64b"]
        .into_iter()
        .map(|name| {
            let cfg = svf_configspace::registry::require_preset(name)
                .unwrap_or_else(|e| panic!("{e}"));
            (name, cfg)
        })
        .collect()
}

fn compile(workload: &str) -> Program {
    svf_workloads::workload(workload)
        .unwrap_or_else(|| panic!("workload {workload} exists"))
        .compile(Scale::Test)
        .expect("compiles")
}

/// Checks one sampled row against its full-run reference.
fn assert_row_within_bounds(ctx: &str, ipc_bound: f64, sampled: &SimStats, full: &SimStats) {
    assert_eq!(
        sampled.committed, full.committed,
        "{ctx}: the extrapolated committed count must be the exact functional total"
    );
    let ipc_err = relative_error(sampled.ipc(), full.ipc());
    assert!(
        ipc_err <= ipc_bound,
        "{ctx}: IPC error {:.4} exceeds the declared {ipc_bound} bound \
         (sampled {:.4} vs full {:.4})",
        ipc_err,
        sampled.ipc(),
        full.ipc()
    );
    for (metric, s, f) in [
        ("dl1 accesses", sampled.dl1.accesses, full.dl1.accesses),
        ("il1 accesses", sampled.il1.accesses, full.il1.accesses),
    ] {
        let err = relative_error(s as f64, f as f64);
        assert!(
            err <= TRAFFIC_BOUND,
            "{ctx}: {metric} error {err:.4} exceeds the declared {TRAFFIC_BOUND} bound \
             (sampled {s} vs full {f})"
        );
    }
    // L2 traffic is a rare-event counter on most configs (a few hundred
    // cold-miss accesses out of hundreds of thousands of instructions);
    // interval sampling cannot estimate rare events to a relative bound,
    // so small counters get an absolute guard instead. The threshold is
    // 1% of committed instructions: above it (e.g. the shrunk-DL1
    // configs, where the L2 sees real steady-state traffic) the relative
    // bound applies.
    let (s, f) = (sampled.l2.accesses, full.l2.accesses);
    let floor = full.committed / 100;
    if f >= floor {
        let err = relative_error(s as f64, f as f64);
        assert!(
            err <= TRAFFIC_BOUND,
            "{ctx}: l2 accesses error {err:.4} exceeds the declared {TRAFFIC_BOUND} bound \
             (sampled {s} vs full {f})"
        );
    } else {
        assert!(
            s.abs_diff(f) <= floor,
            "{ctx}: rare-event l2 traffic drifted by more than 1% of instructions \
             (sampled {s} vs full {f})"
        );
    }
}

/// The headline gate: every one of the 18 golden rows, sampled, lands
/// inside the declared bounds — while simulating well under a quarter of
/// the instructions in detail.
#[test]
fn sampled_estimates_stay_within_declared_bounds_on_all_golden_rows() {
    let cfgs: Vec<CpuConfig> = configs().into_iter().map(|(_, c)| c).collect();
    for (w, plan, ipc_bound) in PLANS {
        let spec = SampleSpec::parse(plan).expect("plan parses");
        let program = compile(w);
        let full = svf_cpu::run_lockstep(&cfgs, &program, u64::MAX);
        let sampled = svf_cpu::run_sampled(&cfgs, &program, u64::MAX, &spec);
        for ((label, _), (s, f)) in configs().iter().zip(sampled.iter().zip(&full)) {
            assert!(
                s.detailed_insts < s.total_insts / 4,
                "{w}/{label}: sampling must simulate well under a quarter in detail \
                 ({} of {})",
                s.detailed_insts,
                s.total_insts
            );
            assert!(s.intervals >= 2, "{w}/{label}: the plan fires repeatedly on {w}");
            assert_row_within_bounds(&format!("{w}/{label}"), *ipc_bound, &s.stats, f);
        }
    }
}

/// Diagnostic helper: prints per-plan IPC errors for each workload/config
/// so bounds and plans can be tuned. Not a check.
#[test]
#[ignore = "tuning helper, not a check"]
fn print_sampling_errors() {
    let cfgs: Vec<CpuConfig> = configs().into_iter().map(|(_, c)| c).collect();
    let labels: Vec<&str> = configs().iter().map(|(l, _)| *l).collect();
    for (w, plan, _) in PLANS {
        let program = compile(w);
        let full = svf_cpu::run_lockstep(&cfgs, &program, u64::MAX);
        let spec = SampleSpec::parse(plan).expect("parses");
        let sampled = svf_cpu::run_sampled(&cfgs, &program, u64::MAX, &spec);
        println!("=== {w}  {plan}");
        for (label, (s, f)) in labels.iter().zip(sampled.iter().zip(&full)) {
            println!(
                "{label:<16} ipc {:.4} vs {:.4} err {:.4}  dl1 {:.4} l2 {:.4} il1 {:.4}  \
                 det {}/{} ({:.0}%) ivs {}",
                s.stats.ipc(),
                f.ipc(),
                relative_error(s.stats.ipc(), f.ipc()),
                relative_error(s.stats.dl1.accesses as f64, f.dl1.accesses as f64),
                relative_error(s.stats.l2.accesses as f64, f.l2.accesses as f64),
                relative_error(s.stats.il1.accesses as f64, f.il1.accesses as f64),
                s.detailed_insts,
                s.total_insts,
                100.0 * s.detailed_fraction(),
                s.intervals
            );
        }
    }
}

/// Seeded-random interval placement is a pure function of the spec: the
/// harness produces bit-identical sampled results no matter how many
/// workers drain the queue, and whether jobs ride a lockstep batch or run
/// solo.
#[test]
fn seeded_sampling_is_deterministic_across_worker_counts_and_batching() {
    let spec = SampleSpec::parse("mode=random,seed=42,period=80k,interval=8k,warmup=4k,ramp=2k,tail=1k")
        .expect("plan parses");
    let two: Vec<(&str, CpuConfig)> =
        configs().into_iter().filter(|(n, _)| ["base", "svf"].contains(n)).collect();
    let exp = svf_harness::Experiment::matrix("sampling-determinism", &two, Scale::Test);

    let rows = |workers: usize, lockstep: bool| -> Vec<String> {
        svf_harness::Harness::parallel()
            .with_workers(workers)
            .with_lockstep(lockstep)
            .with_sample(spec)
            .run(&exp)
            .stats()
            .iter()
            .map(|s| s.to_csv_row())
            .collect()
    };
    let serial = rows(1, true);
    assert_eq!(serial, rows(4, true), "worker count must not change sampled results");
    assert_eq!(serial, rows(3, false), "solo jobs must match lockstep batches");
}

/// A sweep spec's `[sampling]` section drives the whole sweep sampled, and
/// the journaled/extrapolated committed counts stay exact.
#[test]
fn sweep_specs_compose_with_sampling() {
    let toml = "\
        name = \"sampled-geometry\"\n\
        mode = \"grid\"\n\
        base = \"svf\"\n\
        workload = \"bzip2\"\n\
        [axes]\n\
        stack_ports = [1, 2]\n\
        [sampling]\n\
        period = 100k\n\
        interval = 10k\n";
    let spec = svf_configspace::SweepSpec::from_toml(toml).expect("parses");
    assert!(spec.sampling.is_some(), "sampling section recognised");
    let outcome = svf_harness::run_sweep(&spec, &svf_harness::Harness::serial()).expect("runs");
    assert_eq!(outcome.points.len(), 2);
    let full = compile("bzip2");
    let total = {
        let mut emu = svf_emu::Emulator::new(&full);
        emu.run(u64::MAX).expect("runs");
        emu.steps()
    };
    for p in &outcome.points {
        for (w, _cycles, committed) in &p.runs {
            assert_eq!(w, "bzip2");
            assert_eq!(*committed, total, "{}: extrapolated committed count is exact", p.label);
        }
    }
}
