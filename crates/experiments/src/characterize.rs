//! Functional-pass workload characterization (Figures 1–3 substrate).

use svf_emu::{AccessMethod, Emulator, MemAccess, SpUpdate, StepObserver};
use svf_isa::{MemRegion, Program, STACK_BASE};
use svf_workloads::{Scale, Workload};

/// Per-workload reference-behaviour statistics from one functional run.
#[derive(Debug, Clone)]
pub struct CharStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Total memory references.
    pub mem_refs: u64,
    /// Stack references via `$sp` addressing.
    pub stack_sp: u64,
    /// Stack references via `$fp` addressing.
    pub stack_fp: u64,
    /// Stack references via other registers.
    pub stack_gpr: u64,
    /// Global-region references.
    pub global: u64,
    /// Heap-region references.
    pub heap: u64,
    /// Stack-depth samples (quad-words below the stack base), one per
    /// `$sp` update, evenly thinned to at most [`MAX_DEPTH_SAMPLES`].
    pub depth_samples: Vec<(u64, u64)>, // (instruction index, depth in QW)
    /// Maximum stack depth in bytes.
    pub max_depth_bytes: u64,
    /// Histogram of log2(offset from TOS) for stack references: bucket `i`
    /// counts refs with `offset < 2^i` bytes (cumulative is computed by
    /// [`CharStats::frac_within`]).
    pub offset_log2_hist: [u64; 33],
    /// Sum of offsets from TOS (for the average-distance statistic).
    pub offset_sum: u64,
}

/// Cap on retained depth samples (Figure 2 plotting resolution).
pub const MAX_DEPTH_SAMPLES: usize = 512;

impl Default for CharStats {
    fn default() -> CharStats {
        CharStats {
            instructions: 0,
            mem_refs: 0,
            stack_sp: 0,
            stack_fp: 0,
            stack_gpr: 0,
            global: 0,
            heap: 0,
            depth_samples: Vec::new(),
            max_depth_bytes: 0,
            offset_log2_hist: [0; 33],
            offset_sum: 0,
        }
    }
}

impl CharStats {
    /// Total stack references.
    #[must_use]
    pub fn stack_total(&self) -> u64 {
        self.stack_sp + self.stack_fp + self.stack_gpr
    }

    /// Fraction of instructions that reference memory.
    #[must_use]
    pub fn mem_frac(&self) -> f64 {
        self.mem_refs as f64 / self.instructions.max(1) as f64
    }

    /// Fraction of memory references that touch the stack.
    #[must_use]
    pub fn stack_frac(&self) -> f64 {
        self.stack_total() as f64 / self.mem_refs.max(1) as f64
    }

    /// Fraction of stack references within `bytes` of the TOS (Figure 3).
    #[must_use]
    pub fn frac_within(&self, bytes: u64) -> f64 {
        let total = self.stack_total().max(1) as f64;
        let mut count = 0u64;
        for (i, &c) in self.offset_log2_hist.iter().enumerate() {
            if (1u64 << i) <= bytes {
                count += c;
            }
        }
        count as f64 / total
    }

    /// Mean distance from TOS in bytes (Figure 3 commentary).
    #[must_use]
    pub fn avg_offset(&self) -> f64 {
        self.offset_sum as f64 / self.stack_total().max(1) as f64
    }
}

/// Classifies each committed reference and `$sp` update as the emulator
/// hands it over.
struct Classifier {
    heap_base: u64,
    st: CharStats,
    /// Stack depth (quad-words) after the last `$sp` update, until the
    /// stepping loop files it with the instruction's index.
    new_depth: Option<u64>,
}

impl StepObserver for Classifier {
    #[inline]
    fn sp_update(&mut self, u: SpUpdate) {
        let depth_qw = STACK_BASE.saturating_sub(u.new_sp) / 8;
        self.st.max_depth_bytes = self.st.max_depth_bytes.max(depth_qw * 8);
        self.new_depth = Some(depth_qw);
    }

    #[inline]
    fn mem(&mut self, m: MemAccess, sp_before: u64) {
        let st = &mut self.st;
        st.mem_refs += 1;
        match m.region(self.heap_base) {
            MemRegion::Stack => {
                match m.method() {
                    AccessMethod::Sp => st.stack_sp += 1,
                    AccessMethod::Fp => st.stack_fp += 1,
                    AccessMethod::Gpr => st.stack_gpr += 1,
                }
                // Offset from the TOS at the time of the access.
                let off = m.addr.saturating_sub(sp_before);
                st.offset_sum += off;
                let bucket = 64 - u64::from(off.max(1).leading_zeros());
                st.offset_log2_hist[(bucket as usize).min(32)] += 1;
            }
            MemRegion::Global => st.global += 1,
            MemRegion::Heap => st.heap += 1,
            MemRegion::Text => {}
        }
    }
}

/// Runs `program` functionally and classifies every committed reference.
///
/// # Panics
///
/// Panics if the program faults — workloads are validated not to.
#[must_use]
pub fn characterize_program(program: &Program, max_insts: u64) -> CharStats {
    let mut emu = Emulator::new(program);
    let mut c =
        Classifier { heap_base: emu.heap_base(), st: CharStats::default(), new_depth: None };
    let mut raw_depths: Vec<(u64, u64)> = Vec::new();
    while !emu.is_halted() && emu.steps() < max_insts {
        emu.step_observe(&mut c).expect("workload must not fault");
        if let Some(depth_qw) = c.new_depth.take() {
            raw_depths.push((emu.steps(), depth_qw));
        }
    }
    let mut st = c.st;
    st.instructions = emu.steps();
    // Thin the depth series evenly.
    if raw_depths.len() > MAX_DEPTH_SAMPLES {
        let stride = raw_depths.len() / MAX_DEPTH_SAMPLES;
        st.depth_samples = raw_depths.into_iter().step_by(stride.max(1)).collect();
    } else {
        st.depth_samples = raw_depths;
    }
    st
}

/// Characterizes a named workload at a scale.
///
/// # Panics
///
/// Panics if the workload template fails to compile (a bug caught by the
/// workload crate's own tests).
#[must_use]
pub fn characterize(w: &Workload, scale: Scale) -> CharStats {
    let program = w.compile(scale).expect("workload compiles");
    characterize_program(&program, u64::MAX)
}

/// Characterizes every registered workload, in registry order, using the
/// process-global harness worker pool (the functional passes behind
/// Figures 1–3 share one characterization sweep's cost structure).
///
/// # Panics
///
/// Panics if any workload's characterization panics, with the failing
/// kernel named.
#[must_use]
pub fn characterize_all(scale: Scale) -> Vec<(&'static str, CharStats)> {
    let workers = svf_harness::global().workers();
    svf_harness::parallel_map(workers, svf_workloads::all(), |w| (w.name, characterize(w, scale)))
        .into_iter()
        .zip(svf_workloads::all())
        .map(|(r, w)| r.unwrap_or_else(|e| panic!("characterize {}: {e}", w.name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::workload;

    #[test]
    fn bzip2_profile_matches_paper_shape() {
        let st = characterize(workload("bzip2").expect("exists"), Scale::Test);
        assert!(st.instructions > 50_000);
        assert!(st.mem_frac() > 0.2 && st.mem_frac() < 0.6, "mem frac {}", st.mem_frac());
        assert!(st.stack_frac() > 0.3, "stack should dominate: {}", st.stack_frac());
        // Figure 3: over 99% of references within 8 KB of TOS.
        assert!(st.frac_within(8192) > 0.99, "{}", st.frac_within(8192));
        assert!(!st.depth_samples.is_empty());
    }

    #[test]
    fn gcc_is_the_deepest() {
        let gcc = characterize(workload("gcc").expect("exists"), Scale::Test);
        let gzip = characterize(workload("gzip").expect("exists"), Scale::Test);
        assert!(
            gcc.max_depth_bytes > 8192,
            "gcc-like kernel must exceed the 8KB SVF: {}",
            gcc.max_depth_bytes
        );
        assert!(gcc.max_depth_bytes > gzip.max_depth_bytes);
    }

    #[test]
    fn offsets_cumulative_is_monotone() {
        let st = characterize(workload("twolf").expect("exists"), Scale::Test);
        let f64b = st.frac_within(64);
        let f1k = st.frac_within(1024);
        let f8k = st.frac_within(8192);
        assert!(f64b <= f1k && f1k <= f8k);
        assert!(f8k <= 1.0 + 1e-12);
        assert!(st.avg_offset() > 0.0);
    }
}
