//! # svf-bench — benchmark harness
//!
//! Four Criterion suites regenerate the paper's evaluation as measured
//! artifacts, and one binary tracks simulator throughput:
//!
//! * `benches/figures.rs` — one group per performance figure (5, 6, 7, 9):
//!   each benchmark simulates a workload under one configuration and the
//!   reported wall-times are proportional to simulated cycles, so the
//!   Criterion report mirrors the paper's bar charts. The actual simulated
//!   cycle counts are printed alongside.
//! * `benches/hotpath.rs` — the per-cycle simulator loop: whole-program
//!   pipeline simulation on the spill-heavy stack kernel, record-free
//!   functional emulation, and a Figure 5-style sweep point.
//! * `benches/micro.rs` — microbenchmarks of the substrate itself: SVF
//!   access/adjust throughput, cache probe throughput, emulator and
//!   pipeline simulation speed, compile+assemble latency.
//! * `benches/tables.rs` — the traffic experiments (Tables 3 and 4) and the
//!   characterization passes (Figures 1–3).
//! * `src/bin/throughput.rs` — wall-clock rates (Minst/s, Mcyc/s, …) of the
//!   hot paths in a JSON report (`BENCH_*.json`), with a `--compare` gate
//!   against an earlier report; `scripts/bench.sh` runs it.
//!
//! Run the suites with `cargo bench` (full) or e.g.
//! `cargo bench --bench figures -- fig7` for one group.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use svf_cpu::{CpuConfig, SimStats, Simulator};
use svf_isa::Program;
use svf_workloads::{Scale, Workload};

/// The scale used by benches: `Test` keeps a full `cargo bench` run in
/// minutes while preserving every qualitative comparison.
pub const BENCH_SCALE: Scale = Scale::Test;

/// The subset of kernels used by the per-figure benches. Two kernels keep
/// a full `cargo bench` run around fifteen minutes while spanning the two
/// key behaviours (flat/shallow bzip2, call-heavy twolf); the experiment
/// runners (`svf-experiments`) cover all twelve kernels.
#[must_use]
pub fn bench_kernels() -> Vec<&'static Workload> {
    ["bzip2", "twolf"]
        .iter()
        .map(|n| svf_workloads::workload(n).expect("kernel exists"))
        .collect()
}

/// Compiles a workload at the bench scale.
///
/// # Panics
///
/// Panics if the template fails to compile.
#[must_use]
pub fn compile(w: &Workload) -> Program {
    w.compile(BENCH_SCALE).expect("workload compiles")
}

/// Runs a timing simulation to completion.
#[must_use]
pub fn simulate(cfg: &CpuConfig, program: &Program) -> SimStats {
    Simulator::new(cfg.clone()).run(program, u64::MAX)
}

/// The loop-heavy, spill-everything stack kernel used by the hot-path
/// throughput benchmarks (`benches/hotpath.rs` and the `throughput` binary).
/// Compiled without register promotion so its scalars live in the stack
/// frame, maximizing stack traffic — the pattern the SVF targets.
pub const STACK_KERNEL: &str = "
int work(int n) {
    int a = n; int b = n * 2; int c = 0;
    for (int i = 0; i < 50; i = i + 1) {
        c = c + a * b - i;
        a = a + 1;
        b = b - 1;
    }
    return c;
}
int main() {
    int s = 0;
    for (int i = 0; i < 400; i = i + 1) s = s + work(i);
    print(s);
    return 0;
}";

/// Compiles [`STACK_KERNEL`] with the naive (spill-everything) code
/// generator.
///
/// # Panics
///
/// Panics if the kernel fails to compile.
#[must_use]
pub fn stack_kernel() -> Program {
    svf_cc::compile_to_program_with(
        STACK_KERNEL,
        svf_cc::Options { regalloc: false, ..Default::default() },
    )
    .expect("stack kernel compiles")
}

/// The six-configuration sweep pinned by the golden-statistics matrix
/// (`tests/golden_stats.rs`), built from the config-space preset
/// registry: three stack-engine variants and three cache-geometry
/// variants. The lockstep benchmarks run all six against one shared
/// functional stream; the per-config benchmarks run them separately —
/// same simulated work either way, so the rates compare.
///
/// # Panics
///
/// Panics if a preset name disappears from the registry (pinned there and
/// by the golden suite).
#[must_use]
pub fn sweep_configs() -> Vec<CpuConfig> {
    ["base", "stack-cache", "svf", "base-dl1x2", "base-dl1-4k", "stack-cache-64b"]
        .into_iter()
        .map(|name| {
            svf_configspace::registry::require_preset(name)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// Extracts `(name, rate)` pairs from a report the `throughput` binary
/// wrote (the JSON is hand-rolled on the way out, so a scan is enough on
/// the way back in).
#[must_use]
pub fn parse_rates(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        let Some(j) = rest.find("\"rate\": ") else { break };
        let tail = &rest[j + 8..];
        let num_end =
            tail.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit()).unwrap_or(tail.len());
        if let Ok(rate) = tail[..num_end].parse::<f64>() {
            out.push((name, rate));
        }
        rest = tail;
    }
    out
}

/// Extracts the `"logical_cores"` value from a report's `host` header, or
/// `None` for reports written before the header existed (pre-PR 10) or
/// with the field mangled. The comparison gate uses this to *warn* when a
/// baseline was taken on a host with a different core count — thread-
/// budget rows are not comparable across core counts — without failing:
/// an old baseline is still a valid baseline for the serial rows.
#[must_use]
pub fn parse_logical_cores(json: &str) -> Option<u64> {
    let i = json.find("\"logical_cores\": ")?;
    let tail = &json[i + 17..];
    let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Logical cores a host needs before the threaded-lockstep row is gated.
const FANOUT_GATE_CORES: usize = 4;

/// The state of the ≥2× threaded-lockstep gate, for the report and the
/// exit code: armed only on hosts with at least 4 logical cores, where it
/// passes when the threaded row reaches twice the serial lockstep rate. An
/// unarmed gate says what it would need rather than pass silently. Returns
/// the state line and whether the run passes.
#[must_use]
pub fn fanout_gate(logical_cores: usize, mt_speedup: f64) -> (String, bool) {
    if logical_cores < FANOUT_GATE_CORES {
        let state = format!("unarmed: needs {FANOUT_GATE_CORES} cores, host has {logical_cores}");
        return (state, true);
    }
    let ok = mt_speedup >= 2.0;
    let verdict = if ok { "passed" } else { "FAILED" };
    (format!("armed: {verdict}, {mt_speedup:.2}x against a 2x floor"), ok)
}

/// `current / baseline` rate ratio for one benchmark, or `None` when the
/// baseline report has no (positive) measurement under that name — the
/// benchmark is *new*, which must never count as a regression: it is how
/// a report adds benchmarks without invalidating every older baseline.
#[must_use]
pub fn rate_ratio(baseline: &[(String, f64)], name: &str, rate: f64) -> Option<f64> {
    match baseline.iter().find(|(n, _)| n == name) {
        Some((_, b)) if *b > 0.0 => Some(rate / b),
        _ => None,
    }
}

/// Baseline benchmarks absent from the current run, in baseline order —
/// the mirror of the "new" case. A benchmark *removed* between reports is
/// surfaced in the comparison (so a silent drop of a tracked rate is
/// visible) but never fails the gate: renames and retirements are normal
/// report evolution.
#[must_use]
pub fn missing_from(baseline: &[(String, f64)], current_names: &[&str]) -> Vec<String> {
    baseline
        .iter()
        .filter(|(name, _)| !current_names.contains(&name.as_str()))
        .map(|(name, _)| name.clone())
        .collect()
}

/// Deterministic splitmix64 step — the microbenchmarks' PRNG (fixed seeds,
/// no dependencies, identical streams on every run).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cache-probe microbenchmark: `n` accesses against the Table 2 DL1
/// geometry — three quarters land in a hot 8 KB working set (the MRU-first
/// probe path), the rest scatter across 16 MB (the miss / evict /
/// dirty-writeback path). Returns `n` for rate math.
///
/// # Panics
///
/// Panics if the stream produced no hits or no writebacks (the mix is
/// fixed, so both always occur — the assert keeps the work observable).
#[must_use]
pub fn cache_probe(n: u64) -> u64 {
    let mut cache = svf_mem::Cache::new(svf_mem::CacheConfig::dl1_64k());
    let mut x = 0x5EED_CAFE_F00Du64;
    let mut hits = 0u64;
    for _ in 0..n {
        let r = splitmix64(&mut x);
        let addr = if r & 3 != 0 { (r >> 8) & 0x1FF8 } else { (r >> 8) & 0xFF_FFF8 };
        if cache.access(addr, r & 4 != 0).hit {
            hits += 1;
        }
    }
    assert!(hits > 0 && cache.stats().writebacks > 0, "mix exercises both paths");
    n
}

/// Branch-predictor microbenchmark: `n` committed control-flow records
/// through a 12-bit gshare — biased conditional branches (pattern table),
/// call/return pairs (return-address stack), and indirect jumps over a
/// spread of targets (BTB). Returns `n` for rate math.
///
/// # Panics
///
/// Panics if no prediction came back correct (the stream is strongly
/// biased, so many always do — the assert keeps the work observable).
#[must_use]
pub fn predictor_churn(n: u64) -> u64 {
    use svf_cpu::{Predictor, PredictorKind};
    use svf_emu::{ControlFlow, Retired};
    use svf_isa::{BrOp, CondOp, Inst, JmpKind, Reg};

    fn record(pc: u64, inst: Inst, taken: bool, target: u64) -> Retired {
        Retired {
            pc,
            inst,
            next_pc: if taken { target } else { pc + 4 },
            mem: None,
            control: Some(ControlFlow { taken, target }),
            sp_update: None,
            sp_before: 0,
        }
    }

    let mut p = Predictor::new(PredictorKind::Gshare, 12);
    let mut x = 0xB12A_D0C5u64;
    let mut correct = 0u64;
    for i in 0..n {
        let r = splitmix64(&mut x);
        let ret = match i & 3 {
            0 | 1 => {
                // Conditional, biased 3:1 taken, over 256 branch sites.
                let pc = 0x1000 + (r & 0xFF) * 4;
                let taken = (r >> 16) & 3 != 0;
                record(
                    pc,
                    Inst::CondBr { op: CondOp::Bne, ra: Reg::T0, disp: 10 },
                    taken,
                    if taken { pc + 40 } else { pc + 4 },
                )
            }
            2 => {
                // Direct call: pushes the return-address stack.
                let pc = 0x2000 + (r & 0x3F) * 4;
                record(pc, Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 64 }, true, pc + 260)
            }
            _ if r & 1 == 0 => {
                // Return: pops the RAS (matched against the call above
                // half the time, cold the other half).
                let target = 0x2000 + ((r >> 8) & 0x3F) * 4 + 4;
                record(0x3000, Inst::Jmp { kind: JmpKind::Ret, ra: Reg::ZERO, rb: Reg::RA }, true, target)
            }
            _ => {
                // Indirect jump over 64 sites × a few targets each: BTB.
                let pc = 0x4000 + ((r >> 4) & 0x3F) * 4;
                let target = 0x8000 + ((r >> 12) & 0x3) * 0x100;
                record(pc, Inst::Jmp { kind: JmpKind::Jmp, ra: Reg::ZERO, rb: Reg::T0 }, true, target)
            }
        };
        if p.predict_and_update(&ret) {
            correct += 1;
        }
    }
    assert!(correct > 0, "biased stream must predict");
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "suite": "svf-throughput",
  "benchmarks": [
    {"name": "emulator/gap", "unit": "Minst/s", "rate": 290.433, "work_per_run": 1, "runs": 5},
    {"name": "sweep/fig5-point-bzip2", "unit": "Mcyc/s", "rate": 2.021, "work_per_run": 1, "runs": 3}
  ]
}"#;

    #[test]
    fn parse_rates_round_trips_the_report_format() {
        let rates = parse_rates(REPORT);
        assert_eq!(
            rates,
            vec![
                ("emulator/gap".to_string(), 290.433),
                ("sweep/fig5-point-bzip2".to_string(), 2.021),
            ]
        );
        assert!(parse_rates("{}").is_empty(), "empty report parses to nothing");
        assert!(parse_rates("not json at all").is_empty());
    }

    #[test]
    fn logical_cores_parse_from_the_host_header() {
        let report = r#"{
  "suite": "svf-throughput",
  "host": {"logical_cores": 8, "thread_budget": 8},
  "benchmarks": []
}"#;
        assert_eq!(parse_logical_cores(report), Some(8));
        assert_eq!(parse_logical_cores(REPORT), None, "pre-PR10 reports have no header");
        assert_eq!(parse_logical_cores("\"logical_cores\": junk"), None);
        assert_eq!(parse_logical_cores(""), None);
        // The header must not confuse the rate scanner.
        assert!(parse_rates(report).is_empty());
    }

    #[test]
    fn fanout_gate_arms_only_on_enough_cores() {
        assert_eq!(
            fanout_gate(2, 0.98),
            ("unarmed: needs 4 cores, host has 2".to_string(), true),
            "a small host never fails the gate"
        );
        let (state, ok) = fanout_gate(8, 2.5);
        assert!(ok && state.starts_with("armed: passed"), "{state}");
        let (state, ok) = fanout_gate(4, 1.5);
        assert!(!ok && state.starts_with("armed: FAILED"), "{state}");
    }

    #[test]
    fn rate_ratio_flags_regressions_but_not_new_benchmarks() {
        let base = parse_rates(REPORT);
        let ratio = rate_ratio(&base, "emulator/gap", 232.0).expect("present in baseline");
        assert!(ratio < 0.80, "20%+ drop is below the gate: {ratio}");
        let ok = rate_ratio(&base, "emulator/gap", 300.0).expect("present in baseline");
        assert!(ok > 1.0);
        assert_eq!(
            rate_ratio(&base, "sweep/6cfg-bzip2-lockstep", 5.0),
            None,
            "a benchmark absent from the baseline is new, never a regression"
        );
        let zeroed = vec![("z".to_string(), 0.0)];
        assert_eq!(rate_ratio(&zeroed, "z", 1.0), None, "zero baseline cannot ratio");
    }

    #[test]
    fn missing_from_reports_removed_benchmarks_in_order() {
        let base = parse_rates(REPORT);
        assert_eq!(
            missing_from(&base, &["sweep/fig5-point-bzip2"]),
            vec!["emulator/gap".to_string()],
            "baseline-only benchmarks are surfaced"
        );
        assert!(
            missing_from(&base, &["emulator/gap", "sweep/fig5-point-bzip2", "brand-new"])
                .is_empty(),
            "new benchmarks are not missing ones"
        );
        assert!(missing_from(&[], &["anything"]).is_empty());
    }

    #[test]
    fn sweep_configs_match_the_golden_matrix_shape() {
        let configs = sweep_configs();
        assert_eq!(configs.len(), 6, "three engines x three geometries");
        // The lockstep driver requires every config's in-flight window to
        // fit the shared lockstep window with room for the producer.
        for cfg in &configs {
            assert!(cfg.ifq_size + cfg.width < 1024);
        }
    }
}
