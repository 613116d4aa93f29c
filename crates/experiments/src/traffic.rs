//! Table 3 (memory traffic) and Table 4 (context-switch traffic).
//!
//! Both are functional traffic simulations: the committed reference stream
//! is replayed against the stack-cache and SVF state machines and the
//! quad-word/byte counters compared. No pipeline timing is involved, which
//! matches how the paper presents these tables.

use svf::{StackValueFile, SvfConfig};
use svf_emu::{Emulator, MemAccess, SpUpdate, StepObserver};
use svf_isa::{Program, Reg};
use svf_mem::{StackCache, StackCacheConfig};
use svf_workloads::{all, Scale, Workload};

use crate::table::ExpTable;

/// Traffic totals for one workload at one size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficRow {
    /// Stack-cache quad-words read in (fills).
    pub sc_in: u64,
    /// Stack-cache quad-words written out (dirty writebacks).
    pub sc_out: u64,
    /// SVF quad-words read in (demand fills).
    pub svf_in: u64,
    /// SVF quad-words written out (window spills).
    pub svf_out: u64,
}

/// Context-switch flush totals for one workload (Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwitchRow {
    /// Number of context switches taken.
    pub switches: u64,
    /// Average bytes the stack cache wrote back per switch.
    pub sc_bytes_per_switch: f64,
    /// Average bytes the SVF wrote back per switch.
    pub svf_bytes_per_switch: f64,
}

/// The stack cache and the SVF, fed each committed `$sp` update and stack
/// reference as the emulator hands it over.
struct Replay {
    heap_base: u64,
    sc: StackCache,
    svf: StackValueFile,
}

impl StepObserver for Replay {
    #[inline]
    fn sp_update(&mut self, u: SpUpdate) {
        self.svf.on_sp_update(u.old_sp, u.new_sp);
    }

    #[inline]
    fn mem(&mut self, m: MemAccess, _sp_before: u64) {
        if m.region(self.heap_base).is_stack() {
            self.sc.access(m.addr, m.is_store);
            if self.svf.in_range(m.addr) {
                if m.is_store {
                    self.svf.store(m.addr, m.size);
                } else {
                    self.svf.load(m.addr, m.size);
                }
            }
            // References outside the SVF window go to the D-cache and
            // cost the SVF nothing, per the design.
        }
    }
}

/// Replays one workload's stack references against both structures.
///
/// `switch_period` of `Some(n)` flushes both structures every `n` committed
/// instructions (the paper's Table 4 uses 400 000) and reports flush bytes;
/// `None` runs the pure Table 3 traffic comparison.
///
/// # Panics
///
/// Panics if the program faults (workloads are validated not to).
#[must_use]
pub fn traffic_run(
    program: &Program,
    size_bytes: u64,
    switch_period: Option<u64>,
) -> (TrafficRow, SwitchRow) {
    let mut emu = Emulator::new(program);
    let mut replay = Replay {
        heap_base: emu.heap_base(),
        sc: StackCache::new(StackCacheConfig::with_size(size_bytes)),
        svf: StackValueFile::new(SvfConfig::with_size(size_bytes), emu.reg(Reg::SP)),
    };
    let mut sw = SwitchRow::default();
    let mut sc_flush_bytes = 0u64;
    let mut svf_flush_bytes = 0u64;
    let mut next_switch = switch_period.unwrap_or(u64::MAX);
    while !emu.is_halted() {
        emu.step_observe(&mut replay).expect("workload must not fault");
        if emu.steps() >= next_switch {
            next_switch += switch_period.expect("only reached with a period");
            sw.switches += 1;
            sc_flush_bytes += replay.sc.flush();
            svf_flush_bytes += replay.svf.context_switch_flush();
        }
    }
    let Replay { sc, svf, .. } = replay;
    if sw.switches > 0 {
        sw.sc_bytes_per_switch = sc_flush_bytes as f64 / sw.switches as f64;
        sw.svf_bytes_per_switch = svf_flush_bytes as f64 / sw.switches as f64;
    }
    let row = TrafficRow {
        sc_in: sc.stats().qw_in,
        sc_out: sc.stats().qw_out,
        svf_in: svf.stats().traffic.qw_in,
        svf_out: svf.stats().traffic.qw_out,
    };
    (row, sw)
}

fn compile(w: &Workload, scale: Scale) -> Program {
    w.compile(scale).expect("workload compiles")
}

/// Table 3: quad-word traffic of the stack cache vs the SVF at one size.
/// One row per (benchmark, input) pair, exactly as the paper lays it out
/// (`bzip2.graphic`, `bzip2.program`, `eon.cook`, …).
#[must_use]
pub fn table3_for_size(scale: Scale, size_bytes: u64) -> ExpTable {
    let mut t = ExpTable::new(
        format!("Table 3 ({}KB): stack-structure memory traffic (quad-words)", size_bytes >> 10),
        &["bench.input", "stack$ in", "SVF in", "stack$ out", "SVF out"],
    );
    // One replay per (benchmark, input) pair, fanned out on the harness
    // pool; rows are emitted in the deterministic pair order regardless of
    // which worker finished first.
    let pairs: Vec<_> =
        all().iter().flat_map(|w| w.inputs.iter().map(move |&input| (w, input))).collect();
    let workers = svf_harness::global().workers();
    let rows = svf_harness::parallel_map(workers, &pairs, |(w, input)| {
        let program = w.compile_with_input(scale, *input).expect("workload compiles");
        traffic_run(&program, size_bytes, None).0
    });
    for ((w, input), row) in pairs.iter().zip(rows) {
        let row = row.unwrap_or_else(|e| panic!("{}.{}: {e}", w.name, input.name));
        t.row(vec![
            format!("{}.{}", w.name, input.name),
            row.sc_in.to_string(),
            row.svf_in.to_string(),
            row.sc_out.to_string(),
            row.svf_out.to_string(),
        ]);
    }
    t.note("in = fills from the next level; out = dirty writebacks");
    t.note("paper: SVF traffic is orders of magnitude below the stack cache at equal size");
    t
}

/// Table 3 at the paper's three sizes (2/4/8 KB).
#[must_use]
pub fn table3(scale: Scale) -> Vec<ExpTable> {
    [2u64, 4, 8].iter().map(|kb| table3_for_size(scale, kb << 10)).collect()
}

/// Table 4: average bytes written back per context switch (8 KB structures,
/// 400 000-instruction switch period, as in the paper).
#[must_use]
pub fn table4(scale: Scale) -> ExpTable {
    table4_with_period(scale, 400_000)
}

/// Table 4 with a configurable switch period (tests use a shorter one so
/// Test-scale runs still see several switches).
#[must_use]
pub fn table4_with_period(scale: Scale, period: u64) -> ExpTable {
    let mut t = ExpTable::new(
        format!("Table 4: bytes written back per context switch (period {period} insts)"),
        &["bench", "switches", "stack cache (B)", "SVF (B)", "ratio"],
    );
    let workers = svf_harness::global().workers();
    let switches = svf_harness::parallel_map(workers, all(), |w| {
        let program = compile(w, scale);
        traffic_run(&program, 8 << 10, Some(period)).1
    });
    for (w, sw) in all().iter().zip(switches) {
        let sw = sw.unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let ratio = if sw.svf_bytes_per_switch > 0.0 {
            format!("{:.1}x", sw.sc_bytes_per_switch / sw.svf_bytes_per_switch)
        } else {
            "-".to_string()
        };
        t.row(vec![
            w.name.to_string(),
            sw.switches.to_string(),
            format!("{:.0}", sw.sc_bytes_per_switch),
            format!("{:.0}", sw.svf_bytes_per_switch),
            ratio,
        ]);
    }
    t.note("paper: SVF writes back 3-20x fewer bytes (per-word dirty bits, dead-frame kills)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::workload;

    #[test]
    fn svf_traffic_is_far_below_stack_cache() {
        // The headline Table 3 property, on a call-heavy kernel.
        let program = compile(workload("twolf").expect("exists"), Scale::Test);
        let (row, _) = traffic_run(&program, 8 << 10, None);
        assert!(
            row.svf_in + row.svf_out < (row.sc_in + row.sc_out) / 10,
            "SVF {}+{} vs stack cache {}+{}",
            row.svf_in,
            row.svf_out,
            row.sc_in,
            row.sc_out
        );
    }

    #[test]
    fn smaller_svf_spills_more() {
        let program = compile(workload("gcc").expect("exists"), Scale::Test);
        let (r2, _) = traffic_run(&program, 2 << 10, None);
        let (r8, _) = traffic_run(&program, 8 << 10, None);
        assert!(
            r2.svf_out >= r8.svf_out,
            "2KB SVF must spill at least as much as 8KB: {} vs {}",
            r2.svf_out,
            r8.svf_out
        );
        assert!(r2.svf_out > 0, "gcc-like depth must exceed a 2KB window");
    }

    #[test]
    fn context_switch_flushes_favor_svf() {
        let program = compile(workload("crafty").expect("exists"), Scale::Test);
        let (_, sw) = traffic_run(&program, 8 << 10, Some(50_000));
        assert!(sw.switches >= 2, "need several switches, got {}", sw.switches);
        assert!(
            sw.svf_bytes_per_switch <= sw.sc_bytes_per_switch,
            "SVF flushes no more than the stack cache: {} vs {}",
            sw.svf_bytes_per_switch,
            sw.sc_bytes_per_switch
        );
    }

    #[test]
    fn shallow_kernels_have_near_zero_svf_traffic() {
        let program = compile(workload("gzip").expect("exists"), Scale::Test);
        let (row, _) = traffic_run(&program, 8 << 10, None);
        assert!(row.svf_out == 0, "flat stack never spills: {}", row.svf_out);
        assert!(row.sc_in > 0, "the stack cache always pays compulsory fills");
    }
}
