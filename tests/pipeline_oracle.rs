//! Pipeline timing oracle: full [`SimStats`] rows for all twelve kernels
//! under a lattice of machines that exercises every issue class and every
//! issue-stage event, captured from the event-driven scheduler (a ready
//! list, a wakeup wheel, waiter and watch lists) before the issue stage
//! became dispatch-time slot reservation. The fixture header names the
//! commit the rows came from.
//!
//! Where `tests/golden_stats.rs` pins 18 whole-run rows on three kernels,
//! this pins 169 budget-capped rows on the twelve kernels plus one
//! assembly loop that stalls decode on the §3.1 `$sp` interlock (no
//! kernel does), reached through every driver path: [`Simulator::run`],
//! one lockstep batch, a fan-out of 3 and a sampling plan whose single
//! interval spans the whole run.
//!
//! The lattice covers: one and sixteen SVF ports, a single DL1 port, a
//! single multiplier, two ALUs, the §3.2 collision squash on and off,
//! gshare mispredicts, the stack cache, the ideal SVF, Figure 6's
//! `no_addr_calc_for_stack`, and a 4-wide machine with a 64-entry RUU.
//!
//! An intended model change regenerates the fixture with
//!
//! ```text
//! cargo test --release --test pipeline_oracle -- --ignored --nocapture
//! ```
//!
//! and pastes the printed lines under the header, naming the new commit.

use svf_configspace::{registry, Overlay};
use svf_cpu::{CpuConfig, RunOptions, SampleSpec, SimStats, Simulator};
use svf_isa::Program;
use svf_workloads::Scale;

/// Committed-instruction budget per run: long enough to reach steady
/// state with warm caches, short enough for the debug test build.
const BUDGET: u64 = 40_000;

/// `(label, preset, overlay)`: the machine lattice, in fixture order.
const LATTICE: &[(&str, &str, &str)] = &[
    ("svf-1port", "svf", "{stack_ports: 1}"),
    ("svf-16port", "svf", "{stack_ports: 16}"),
    ("svf-dl1-1port", "svf", "{dl1_ports: 1}"),
    ("svf-1mult", "svf", "{int_mults: 1}"),
    ("svf-2alu", "svf", "{int_alus: 2}"),
    ("svf", "svf", "{}"),
    ("svf-nosquash", "svf-nosquash", "{}"),
    ("svf-gshare", "svf", "{predictor: gshare}"),
    ("stack-cache", "stack-cache", "{}"),
    ("ideal", "ideal", "{}"),
    ("base-noaddr", "base", "{no_addr_calc_for_stack: true, dl1_ports: 1}"),
    ("base-starved", "base", "{dl1_ports: 1, int_mults: 1, int_alus: 2, predictor: gshare}"),
    ("wide4-ruu64", "wide4", "{ruu_size: 64, stack_engine: svf, stack_ports: 1}"),
];

const FIXTURE: &str = include_str!("fixtures/pipeline_oracle.csv");

fn lattice() -> Vec<CpuConfig> {
    LATTICE
        .iter()
        .map(|(label, preset, overlay)| {
            let base = registry::require_preset(preset).unwrap_or_else(|e| panic!("{e}"));
            Overlay::parse(overlay)
                .and_then(|o| o.apply(&base))
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect()
}

/// The assembly loop behind the `sp-interlock` rows: each `$sp` write
/// waits on a multiply, so decode stalls behind it every iteration.
const SP_INTERLOCK: &str = "sp-interlock";

fn compile(program: &str) -> Program {
    if program == SP_INTERLOCK {
        let body = "    mulq $t6, 3, $t6\n    addq $t6, $sp, $t5\n    subq $t5, $t6, $t5\n    \
                    mov $t5, $sp\n    addq $t1, 1, $t1\n";
        let src = format!(
            "main:\n    li $t7, 3000\n.loop:\n{}    \
             subq $t7, 1, $t7\n    bne $t7, .loop\n    halt\n",
            body.repeat(8)
        );
        return svf_asm::assemble(&src).expect("assembles");
    }
    svf_workloads::workload(program)
        .unwrap_or_else(|| panic!("workload {program} exists"))
        .compile(Scale::Test)
        .expect("compiles")
}

/// The fixture's rows for `workload`, in [`LATTICE`] order.
fn oracle_for(workload: &str) -> Vec<SimStats> {
    LATTICE
        .iter()
        .map(|(label, _, _)| {
            let prefix = format!("{workload},{label},");
            let row = FIXTURE
                .lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .unwrap_or_else(|| panic!("{workload}/{label} is in the fixture"));
            SimStats::from_csv_row(row).unwrap_or_else(|e| panic!("{workload}/{label}: {e}"))
        })
        .collect()
}

/// The twelve kernels, then the interlock loop.
fn kernels() -> impl Iterator<Item = &'static str> {
    svf_workloads::all().iter().map(|w| w.name).chain([SP_INTERLOCK])
}

/// Asserts one path's rows for `workload` against the fixture.
fn check(path: &str, workload: &str, actual: &[SimStats]) {
    for ((label, _, _), (actual, expected)) in
        LATTICE.iter().zip(actual.iter().zip(oracle_for(workload)))
    {
        assert_eq!(
            actual,
            &expected,
            "{workload}/{label}: {path} diverged from the oracle.\n\
             expected: {}\n\
             actual:   {}",
            expected.to_csv_row(),
            actual.to_csv_row()
        );
    }
}

#[test]
fn fixture_is_complete_and_exercises_every_event_path() {
    let mut lines = FIXTURE.lines().filter(|l| !l.starts_with('#'));
    assert_eq!(
        lines.next(),
        Some(format!("workload,config,{}", SimStats::csv_header()).as_str()),
        "the fixture's columns are SimStats' columns"
    );
    assert_eq!(lines.count(), LATTICE.len() * kernels().count());
    let rows: Vec<SimStats> = kernels().flat_map(oracle_for).collect();
    let total = |f: fn(&SimStats) -> u64| rows.iter().map(f).sum::<u64>();
    assert!(total(|s| s.svf_squashes) > 0, "a §3.2 squash fires");
    assert!(total(|s| s.mispredicts) > 0, "a mispredict blocks fetch");
    assert!(total(|s| s.sp_interlock_stalls) > 0, "the $sp interlock stalls decode");
    assert!(total(|s| s.svf_rerouted) > 0, "a non-$sp stack access reroutes");
    assert!(total(|s| s.stack_cache_refs) > 0, "the stack cache serves references");
    assert!(rows.iter().all(|s| s.committed == BUDGET), "every kernel outlasts the budget");
}

#[test]
fn simulator_run_matches_the_oracle() {
    for w in kernels() {
        let program = compile(w);
        let stats: Vec<SimStats> =
            lattice().into_iter().map(|c| Simulator::new(c).run(&program, BUDGET)).collect();
        check("Simulator::run", w, &stats);
    }
}

#[test]
fn one_lockstep_batch_matches_the_oracle() {
    let cfgs = lattice();
    for w in kernels() {
        check("run_lockstep", w, &svf_cpu::run_lockstep(&cfgs, &compile(w), BUDGET));
    }
}

#[test]
fn fanout_of_three_matches_the_oracle() {
    let cfgs = lattice();
    for w in kernels() {
        let stats = svf_cpu::run_lockstep_fanout(&cfgs, &compile(w), BUDGET, 3);
        check("run_lockstep_fanout(3)", w, &stats);
    }
}

#[test]
fn whole_run_sampling_plan_matches_the_oracle() {
    // One interval spanning the whole budget, with no warmup, ramp or
    // tail: the sampled path must reduce to the full detailed run.
    let plan = SampleSpec::parse("period=100m,interval=100m,warmup=0,ramp=0,tail=0")
        .expect("plan parses");
    let cfgs = lattice();
    let opts = RunOptions { max_insts: BUDGET, fanout: 1, sample: Some(plan) };
    for w in kernels() {
        let runs = svf_cpu::simulate(&cfgs, &compile(w), &opts).expect("kernel runs");
        assert!(runs.iter().all(|r| r.intervals == 1 && r.detailed_insts == BUDGET), "{w}");
        check("whole-run sampling plan", w, &runs.into_iter().map(|r| r.stats).collect::<Vec<_>>());
    }
}

/// Regeneration helper: prints the fixture's data lines.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_oracle_rows() {
    let cfgs = lattice();
    for w in kernels() {
        let stats = svf_cpu::run_lockstep(&cfgs, &compile(w), BUDGET);
        for ((label, _, _), s) in LATTICE.iter().zip(stats) {
            println!("{w},{label},{}", s.to_csv_row());
        }
    }
}
