//! The benchmark's definition: its workloads and the metrics it reports.
//! `BENCHMARK.json` at the repository root mirrors these tables (a test
//! keeps the two identical), and the binary prints exactly these metrics,
//! in this order.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `candidate` is strictly better than `reference`.
    #[must_use]
    pub fn improves(self, candidate: f64, reference: f64) -> bool {
        match self {
            Better::Lower => candidate < reference,
            Better::Higher => candidate > reference,
        }
    }

    /// How much worse `candidate` is than `reference`, as a share of
    /// `reference` (negative when it is better).
    #[must_use]
    pub fn worsening(self, candidate: f64, reference: f64) -> f64 {
        if reference == 0.0 {
            return 0.0;
        }
        let delta = match self {
            Better::Lower => candidate - reference,
            Better::Higher => reference - candidate,
        };
        delta / reference.abs()
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// A named workload and the reason it is in the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen (one line).
    pub why: &'static str,
}

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "fig-matrix",
        why:
            "Figure 6 ladder, 24 seeded kernel inputs x 6 configs via the harness: 6-wide lockstep \
              batches and sink writes; svf-cpu timing is nearly all of the time",
    },
    WorkloadInfo {
        name: "sweep-random",
        why: "32 seeded random design points on twolf and mcf: configspace, 32-wide lockstep \
              batches, many machine shapes and the gshare predictor",
    },
    WorkloadInfo {
        name: "sampled-full",
        why: "11 seeded kernels at Full scale, one svf config each, sampled: the solo job path, \
              where fast-forward and warming in svf-emu take a large share",
    },
    WorkloadInfo {
        name: "traffic-tables",
        why: "Tables 3 and 4 over 17 seeded kernel inputs: functional only (emulator step, stack \
              cache, SVF), so a timing-model change must not move it",
    },
];

/// Metrics a user of the simulator sees, printed by every untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sim_minst_per_s", "Minst/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.coverage", "ratio", Better::Higher),
    layer("trace.entry_s", "s", Better::Lower),
    layer("minic.compile_s", "s", Better::Lower),
    layer("configspace.resolve_s", "s", Better::Lower),
    layer("emu.run_minst_s", "Minst/s", Better::Higher),
    layer("emu.fill_minst_s", "Minst/s", Better::Higher),
    layer("emu.step_minst_s", "Minst/s", Better::Higher),
    layer("cpu.solo_mcyc_s", "Mcyc/s", Better::Higher),
    layer("cpu.lockstep_mcyc_s", "Mcyc/s", Better::Higher),
    layer("cpu.lockstep_busy_s", "s", Better::Lower),
    layer("cpu.batch_gain", "ratio", Better::Higher),
    layer("cpu.fanout1_s", "s", Better::Lower),
    layer("cpu.fanout2_s", "s", Better::Lower),
    layer("cpu.fanout_speedup", "ratio", Better::Higher),
    layer("cpu.parallel_fraction", "ratio", Better::Higher),
    layer("cpu.sampled_busy_s", "s", Better::Lower),
    layer("cpu.detailed_frac", "ratio", Better::Lower),
    layer("cpu.warmed_frac", "ratio", Better::Lower),
    layer("cpu.ff_share", "ratio", Better::Higher),
    layer("mem.cache_probe_macc_s", "Macc/s", Better::Higher),
    layer("mem.stack_cache_ns", "ns", Better::Lower),
    layer("svf.access_ns", "ns", Better::Lower),
    layer("mem.dl1_miss_rate", "ratio", Better::Lower),
    layer("svf.morph_frac", "ratio", Better::Higher),
    layer("svf.squashes", "count", Better::Lower),
    layer("harness.sink_store_ms", "ms", Better::Lower),
    layer("harness.sink_load_ms", "ms", Better::Lower),
    layer("harness.compiles", "count", Better::Lower),
    layer("harness.parallel_eff", "ratio", Better::Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(1.2, 1.0) < 0.0);
        assert_eq!(Better::Lower.worsening(5.0, 0.0), 0.0);
        assert!(Better::Lower.improves(1.0, 2.0) && !Better::Lower.improves(2.0, 2.0));
    }

    #[test]
    fn names_are_unique_across_tables() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
