//! Golden-statistics regression pin for the cycle-level simulator.
//!
//! Any hot-path rewrite of the pipeline, the memory hierarchy, or the
//! functional emulator must leave *simulated behaviour* untouched: same
//! cycles, same commits, same cache traffic, same squashes — bit-identical
//! [`SimStats`] down to the last counter. These snapshots were taken from
//! the pre-optimization simulator (PR 4, extended with the memory-sensitive
//! rows ahead of the PR 5 cache-model rewrite) and pin that contract for
//! three workloads under the three stack-engine configurations plus three
//! cache-geometry variants (doubled DL1, undersized DL1, two-line stack
//! cache).
//!
//! If a change *intends* to alter simulated behaviour (a model fix, not an
//! optimization), regenerate with:
//!
//! ```text
//! cargo test --release --test golden_stats -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows below, noting the model change in the commit.
//! New rows also mean a new simulator: bump `svf_harness::SIM_VERSION` and
//! update the `(version, digest)` pair in
//! `sim_version_is_bumped_with_the_golden_rows`, so results stored by the
//! old simulator re-simulate instead of resuming.
//!
//! Since PR 7 the six configurations come from the `svf-configspace`
//! preset registry, so this suite doubles as the registry's end-to-end
//! golden gate: a preset that drifts from its pre-registry hardwired
//! machine changes a pinned row and fails here.

use svf_cpu::{CpuConfig, SimStats, Simulator};
use svf_isa::Program;
use svf_workloads::Scale;

/// The pinned (workload, config) matrix: three kernels spanning the key
/// behaviours (shallow/loopy bzip2, call-heavy twolf, pointer-heavy gap).
const WORKLOADS: &[&str] = &["bzip2", "twolf", "gap"];

/// The six pinned configurations, resolved from the config-space registry:
/// the three stack-engine variants plus three memory-sensitive geometries
/// (Figure 6's doubled data L1 with a different index/tag split, an
/// undersized 4 KB data L1 with dense conflict misses and dirty writebacks
/// through the L2, and a two-line stack cache where every frame walk
/// conflicts). The labels ARE the registry preset names, so these 18 rows
/// also pin every golden-relevant preset to bit-identical statistics with
/// the machines the tests hardwired before the registry existed.
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

fn run(workload: &str, cfg: &CpuConfig) -> SimStats {
    Simulator::new(cfg.clone()).run(&compile(workload), u64::MAX)
}

/// The golden rows for one workload, in `configs()` order.
fn golden_for(workload: &str) -> Vec<SimStats> {
    configs()
        .iter()
        .map(|(label, _)| {
            let row = GOLDEN
                .iter()
                .find(|(w, c, _)| w == &workload && c == label)
                .unwrap_or_else(|| panic!("{workload}/{label} pinned"))
                .2;
            SimStats::from_csv_row(row)
                .unwrap_or_else(|e| panic!("{workload}/{label}: golden row malformed: {e}"))
        })
        .collect()
}

/// `(workload, config, full CSV row)` snapshots, in [`svf_cpu::CSV_COLUMNS`]
/// order. Taken at PR 4 from the pre-optimization simulator.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("bzip2", "base", "42148,220954,49411,34019,21429,0,0,0,0,0,0,0,1824,0,10346997,256,2315830,49411,49034,377,0,1508,0,19151,19127,24,0,192,0,401,186,215,0,1720,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("bzip2", "stack-cache", "39295,220954,49411,34019,21429,0,0,0,0,0,0,34019,1824,0,9615283,256,2134243,15392,15025,367,0,1468,0,19151,19127,24,0,192,0,401,186,215,0,1720,0,0,0,0,0,0,0,0,0,0,0,0,1,34019,34009,10,0,40,0"),
    ("bzip2", "svf", "29851,220954,49411,34019,21429,0,24637,9382,0,0,0,0,1824,0,6884121,256,1433642,15392,15025,367,0,1468,0,19151,19127,24,0,192,0,391,183,208,0,1664,0,1,34019,33289,730,0,0,0,7070,730,0,0,0,0,0,0,0,0,0"),
    ("bzip2", "base-dl1x2", "42148,220954,49411,34019,21429,0,0,0,0,0,0,0,1824,0,10346997,256,2315830,49411,49034,377,0,1508,0,19151,19127,24,0,192,0,401,186,215,0,1720,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("bzip2", "base-dl1-4k", "42195,220954,49411,34019,21429,0,0,0,0,0,0,0,1824,0,10360489,256,2321304,49411,48498,913,380,3652,1520,19151,19127,24,0,192,0,1317,1102,215,0,1720,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("bzip2", "stack-cache-64b", "39295,220954,49411,34019,21429,0,0,0,0,0,0,34019,1824,0,9615744,256,2134387,15392,15025,367,0,1468,0,19151,19127,24,0,192,0,1817,1602,215,0,1720,0,0,0,0,0,0,0,0,0,0,0,0,1,34019,32593,1426,1418,5704,5672"),
    ("twolf", "base", "90241,598696,140124,88323,46852,0,0,0,0,0,0,0,2280,0,22525418,256,5186407,140124,139728,396,0,1584,0,56832,56802,30,0,240,0,426,196,230,0,1840,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("twolf", "stack-cache", "80908,598696,140124,88323,46852,0,0,0,0,0,0,88323,2280,0,20129489,256,4617350,51801,51416,385,0,1540,0,56832,56802,30,0,240,0,426,196,230,0,1840,0,0,0,0,0,0,0,0,0,0,0,0,1,88323,88312,11,0,44,0"),
    ("twolf", "svf", "71374,598696,140124,88323,46852,0,42902,45421,0,0,0,0,2280,0,16970708,256,3863514,51801,51416,385,0,1540,0,56832,56802,30,0,240,0,415,192,223,0,1784,0,1,88323,63030,25293,0,0,0,98362,25293,0,0,0,0,0,0,0,0,0"),
    ("twolf", "base-dl1x2", "90241,598696,140124,88323,46852,0,0,0,0,0,0,0,2280,0,22525418,256,5186407,140124,139728,396,0,1584,0,56832,56802,30,0,240,0,426,196,230,0,1840,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("twolf", "base-dl1-4k", "117509,598696,140124,88323,46852,0,0,0,0,0,0,0,2280,0,29523171,256,6893286,140124,121449,18675,1005,74700,4020,56832,56802,30,0,240,0,19710,19480,230,0,1840,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("twolf", "stack-cache-64b", "145840,598696,140124,88323,46852,0,0,0,0,0,0,88323,2280,0,36799687,256,8532333,51801,51416,385,0,1540,0,56832,56802,30,0,240,0,17430,17200,230,0,1840,0,0,0,0,0,0,0,0,0,0,0,0,1,88323,71308,17015,15643,68060,62572"),
    ("gap", "base", "33623,246300,30518,12126,14231,0,0,0,0,0,0,0,1596,0,8186282,256,1038478,30518,30490,28,0,112,0,21207,21186,21,0,168,0,49,12,37,0,296,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("gap", "stack-cache", "33622,246300,30518,12126,14231,0,0,0,0,0,0,12126,1596,0,8188629,256,1039600,18392,18373,19,0,76,0,21207,21186,21,0,168,0,49,12,37,0,296,0,0,0,0,0,0,0,0,0,0,0,0,1,12126,12117,9,0,36,0"),
    ("gap", "svf", "33618,246300,30518,12126,14231,0,9016,3110,0,0,0,0,1596,0,8184880,256,1038218,18392,18373,19,0,76,0,21207,21186,21,0,168,0,40,9,31,0,248,0,1,12126,10049,2077,0,0,0,6226,2077,0,0,0,0,0,0,0,0,0"),
    ("gap", "base-dl1x2", "33623,246300,30518,12126,14231,0,0,0,0,0,0,0,1596,0,8186282,256,1038478,30518,30490,28,0,112,0,21207,21186,21,0,168,0,49,12,37,0,296,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("gap", "base-dl1-4k", "33623,246300,30518,12126,14231,0,0,0,0,0,0,0,1596,0,8186282,256,1038478,30518,30490,28,0,112,0,21207,21186,21,0,168,0,49,12,37,0,296,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
    ("gap", "stack-cache-64b", "33637,246300,30518,12126,14231,0,0,0,0,0,0,12126,1596,0,8190340,256,1040328,18392,18373,19,0,76,0,21207,21186,21,0,168,0,1085,1048,37,0,296,0,0,0,0,0,0,0,0,0,0,0,0,1,12126,11081,1045,1040,4180,4160"),
];

#[test]
fn simstats_are_bit_identical_to_golden_snapshots() {
    assert_eq!(GOLDEN.len(), WORKLOADS.len() * configs().len(), "snapshot matrix is complete");
    for (workload, config, expected) in GOLDEN {
        let cfg = configs()
            .into_iter()
            .find(|(label, _)| label == config)
            .unwrap_or_else(|| panic!("config {config} exists"))
            .1;
        let actual = run(workload, &cfg);
        let expected_stats = SimStats::from_csv_row(expected)
            .unwrap_or_else(|e| panic!("{workload}/{config}: golden row malformed: {e}"));
        assert_eq!(
            actual, expected_stats,
            "{workload}/{config}: simulated behaviour changed.\n\
             expected: {expected}\n\
             actual:   {}\n\
             If this is an intended model change, regenerate via\n\
             `cargo test --release --test golden_stats -- --ignored --nocapture`.",
            actual.to_csv_row()
        );
    }
}

/// The tentpole contract of the lockstep driver: running all six
/// configurations over *one* shared functional execution per workload
/// produces the same 18 pinned rows as 18 independent live runs.
#[test]
fn lockstep_sweep_matches_golden_snapshots() {
    for w in WORKLOADS {
        let program = compile(w);
        let cfgs: Vec<CpuConfig> = configs().into_iter().map(|(_, c)| c).collect();
        let stats = svf_cpu::run_lockstep(&cfgs, &program, u64::MAX);
        for ((label, _), (actual, expected)) in
            configs().iter().zip(stats.iter().zip(golden_for(w)))
        {
            assert_eq!(
                actual, &expected,
                "{w}/{label}: lockstep diverged from the pinned live run.\n\
                 expected: {}\n\
                 actual:   {}",
                expected.to_csv_row(),
                actual.to_csv_row()
            );
        }
    }
}

/// The parallel-lockstep contract (PR 10): fanning the six timing models
/// out across worker threads is invisible in the statistics — every fanout
/// (serial, ragged, one-thread-per-model, oversubscribed) reproduces the
/// same 18 pinned rows bit for bit.
#[test]
fn threaded_lockstep_matches_golden_snapshots_at_every_fanout() {
    for w in WORKLOADS {
        let program = compile(w);
        let cfgs: Vec<CpuConfig> = configs().into_iter().map(|(_, c)| c).collect();
        for fanout in [1, 2, 4, 8] {
            let stats = svf_cpu::run_lockstep_fanout(&cfgs, &program, u64::MAX, fanout);
            for ((label, _), (actual, expected)) in
                configs().iter().zip(stats.iter().zip(golden_for(w)))
            {
                assert_eq!(
                    actual, &expected,
                    "{w}/{label}: fanout {fanout} diverged from the pinned live run.\n\
                     expected: {}\n\
                     actual:   {}",
                    expected.to_csv_row(),
                    actual.to_csv_row()
                );
            }
        }
    }
}

/// The persisted-trace contract: capture each workload's stream to the
/// binary trace format once, replay it through all six configurations, and
/// the same 18 pinned rows come back — the trace is lossless for timing.
#[test]
fn trace_replay_matches_golden_snapshots() {
    for w in WORKLOADS {
        let program = compile(w);
        let mut emu = svf_emu::Emulator::new(&program);
        let initial_sp = emu.reg(svf_isa::Reg::SP);
        let mut writer =
            svf_emu::TraceWriter::new(Vec::new(), program.entry, program.heap_base, initial_sp)
                .expect("trace header");
        while !emu.is_halted() {
            writer.push(&emu.step().expect("workload runs")).expect("trace record");
        }
        let bytes = writer.finish().expect("trace flush");
        let cfgs: Vec<CpuConfig> = configs().into_iter().map(|(_, c)| c).collect();
        let src = svf_emu::TraceSource::open(bytes.as_slice()).expect("trace opens");
        let stats = svf_cpu::run_lockstep_trace(&cfgs, src, u64::MAX).expect("trace replays");
        for ((label, _), (actual, expected)) in
            configs().iter().zip(stats.iter().zip(golden_for(w)))
        {
            assert_eq!(
                actual, &expected,
                "{w}/{label}: trace replay diverged from the pinned live run.\n\
                 expected: {}\n\
                 actual:   {}",
                expected.to_csv_row(),
                actual.to_csv_row()
            );
        }
    }
}

/// Regeneration helper: prints the GOLDEN table body for the matrix above.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_golden_rows() {
    for w in WORKLOADS {
        for (label, cfg) in configs() {
            let s = run(w, &cfg);
            println!("    (\"{w}\", \"{label}\", \"{}\"),", s.to_csv_row());
        }
    }
}

/// Ties the result sink's `SIM_VERSION` to the rows above: regenerated rows
/// change the digest and fail this test until the version is bumped (and
/// the pair updated), so a model change never resumes stale results.
#[test]
fn sim_version_is_bumped_with_the_golden_rows() {
    // FNV-1a-64 over every pinned row.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (workload, config, row) in GOLDEN {
        for b in format!("{workload},{config},{row}\n").bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    assert_eq!(
        (svf_harness::SIM_VERSION, digest),
        (1, 0xf2f6_6539_c885_ff1c),
        "the golden rows changed: bump svf_harness::SIM_VERSION and update this pair"
    );
}
