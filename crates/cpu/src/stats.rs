//! Simulation statistics.

use svf::SvfStats;
use svf_mem::TrafficStats;

/// Everything a simulation run reports. Produced by
/// [`Simulator::run`](crate::Simulator::run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed memory references.
    pub mem_refs: u64,
    /// Committed memory references to the stack region.
    pub stack_refs: u64,
    /// Committed control-flow instructions.
    pub branches: u64,
    /// Mispredicted control-flow instructions.
    pub mispredicts: u64,
    /// `$sp`-relative references morphed into register-move loads.
    pub svf_morphed_loads: u64,
    /// `$sp`-relative references morphed into register-move stores.
    pub svf_morphed_stores: u64,
    /// Non-`$sp` stack references re-routed into the SVF after their
    /// bounds check (paper Figure 8's slow path).
    pub svf_rerouted: u64,
    /// Stack references that fell outside the SVF window and went to the
    /// data cache instead.
    pub svf_out_of_window: u64,
    /// gpr-store→sp-load collision squashes (§3.2).
    pub svf_squashes: u64,
    /// References serviced by the decoupled stack cache.
    pub stack_cache_refs: u64,
    /// Cycles fetch spent stalled (mispredicts, I-cache misses, squashes).
    pub fetch_stall_cycles: u64,
    /// Cycles decode spent stalled on the `$sp` interlock (§3.1).
    pub sp_interlock_stalls: u64,
    /// Sum over cycles of RUU occupancy (divide by `cycles` for the mean).
    pub ruu_occupancy_sum: u64,
    /// Peak RUU occupancy observed.
    pub ruu_occupancy_max: u64,
    /// Sum over cycles of LSQ occupancy.
    pub lsq_occupancy_sum: u64,
    /// Data-L1 statistics.
    pub dl1: TrafficStats,
    /// Instruction-L1 statistics.
    pub il1: TrafficStats,
    /// Unified-L2 statistics.
    pub l2: TrafficStats,
    /// SVF statistics, when an SVF engine was configured.
    pub svf: Option<SvfStats>,
    /// Stack-cache statistics, when a stack-cache engine was configured.
    pub stack_cache: Option<TrafficStats>,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same program
    /// (ratio of baseline cycles to ours).
    ///
    /// # Panics
    ///
    /// Panics if the two runs committed different instruction counts, which
    /// would make the comparison meaningless.
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        assert_eq!(
            self.committed, baseline.committed,
            "speedup comparison requires identical committed instruction counts"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Fraction of stack references the SVF front end morphed (Figure 8's
    /// fast path), in [0, 1].
    #[must_use]
    pub fn morph_fraction(&self) -> f64 {
        let morphed = self.svf_morphed_loads + self.svf_morphed_stores;
        let total = morphed + self.svf_rerouted + self.svf_out_of_window;
        if total == 0 {
            0.0
        } else {
            morphed as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self`: counters sum,
    /// `ruu_occupancy_max` takes the max, and an optional engine block
    /// appears as soon as either side has one. Sampled simulation uses this
    /// to pool the measured intervals before extrapolating with
    /// [`SimStats::scaled`].
    pub fn accumulate(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.mem_refs += other.mem_refs;
        self.stack_refs += other.stack_refs;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        self.svf_morphed_loads += other.svf_morphed_loads;
        self.svf_morphed_stores += other.svf_morphed_stores;
        self.svf_rerouted += other.svf_rerouted;
        self.svf_out_of_window += other.svf_out_of_window;
        self.svf_squashes += other.svf_squashes;
        self.stack_cache_refs += other.stack_cache_refs;
        self.fetch_stall_cycles += other.fetch_stall_cycles;
        self.sp_interlock_stalls += other.sp_interlock_stalls;
        self.ruu_occupancy_sum += other.ruu_occupancy_sum;
        self.ruu_occupancy_max = self.ruu_occupancy_max.max(other.ruu_occupancy_max);
        self.lsq_occupancy_sum += other.lsq_occupancy_sum;
        self.dl1.accumulate(&other.dl1);
        self.il1.accumulate(&other.il1);
        self.l2.accumulate(&other.l2);
        if let Some(o) = &other.svf {
            self.svf.get_or_insert_with(SvfStats::default).accumulate(o);
        }
        if let Some(o) = &other.stack_cache {
            self.stack_cache.get_or_insert_with(TrafficStats::default).accumulate(o);
        }
    }

    /// Counter-wise difference against an `earlier` snapshot of the same
    /// run (saturating): the statistics of the span *between* the two
    /// observation points. Sampled simulation snapshots a pipeline's stats
    /// at the measurement-window boundaries and takes the delta, so the
    /// detailed ramp before (and tail after) the window drop out.
    ///
    /// `ruu_occupancy_max` is a peak, not a monotone counter, so the later
    /// observation's value is carried through unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            committed: self.committed.saturating_sub(earlier.committed),
            mem_refs: self.mem_refs.saturating_sub(earlier.mem_refs),
            stack_refs: self.stack_refs.saturating_sub(earlier.stack_refs),
            branches: self.branches.saturating_sub(earlier.branches),
            mispredicts: self.mispredicts.saturating_sub(earlier.mispredicts),
            svf_morphed_loads: self.svf_morphed_loads.saturating_sub(earlier.svf_morphed_loads),
            svf_morphed_stores: self.svf_morphed_stores.saturating_sub(earlier.svf_morphed_stores),
            svf_rerouted: self.svf_rerouted.saturating_sub(earlier.svf_rerouted),
            svf_out_of_window: self.svf_out_of_window.saturating_sub(earlier.svf_out_of_window),
            svf_squashes: self.svf_squashes.saturating_sub(earlier.svf_squashes),
            stack_cache_refs: self.stack_cache_refs.saturating_sub(earlier.stack_cache_refs),
            fetch_stall_cycles: self.fetch_stall_cycles.saturating_sub(earlier.fetch_stall_cycles),
            sp_interlock_stalls: self
                .sp_interlock_stalls
                .saturating_sub(earlier.sp_interlock_stalls),
            ruu_occupancy_sum: self.ruu_occupancy_sum.saturating_sub(earlier.ruu_occupancy_sum),
            ruu_occupancy_max: self.ruu_occupancy_max,
            lsq_occupancy_sum: self.lsq_occupancy_sum.saturating_sub(earlier.lsq_occupancy_sum),
            dl1: self.dl1.delta(&earlier.dl1),
            il1: self.il1.delta(&earlier.il1),
            l2: self.l2.delta(&earlier.l2),
            svf: match (&self.svf, &earlier.svf) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                (now, _) => *now,
            },
            stack_cache: match (&self.stack_cache, &earlier.stack_cache) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                (now, _) => *now,
            },
        }
    }

    /// Extrapolates statistics measured over `self.committed` instructions
    /// to a whole run of `total_committed` instructions: every counter is
    /// scaled by `total / measured` with round-to-nearest
    /// ([`svf_mem::scale_counter`]), except
    ///
    /// * `committed`, which is set to `total_committed` **exactly** (so
    ///   [`SimStats::speedup_over`] and comparisons keyed on committed
    ///   counts keep working), and
    /// * `ruu_occupancy_max`, a peak, which is carried through unscaled.
    ///
    /// When the measured span already covers the whole run
    /// (`self.committed == total_committed`) this is the identity.
    #[must_use]
    pub fn scaled(&self, total_committed: u64) -> SimStats {
        let (num, den) = (total_committed, self.committed);
        let sc = |x: u64| svf_mem::scale_counter(x, num, den);
        SimStats {
            cycles: sc(self.cycles),
            committed: total_committed,
            mem_refs: sc(self.mem_refs),
            stack_refs: sc(self.stack_refs),
            branches: sc(self.branches),
            mispredicts: sc(self.mispredicts),
            svf_morphed_loads: sc(self.svf_morphed_loads),
            svf_morphed_stores: sc(self.svf_morphed_stores),
            svf_rerouted: sc(self.svf_rerouted),
            svf_out_of_window: sc(self.svf_out_of_window),
            svf_squashes: sc(self.svf_squashes),
            stack_cache_refs: sc(self.stack_cache_refs),
            fetch_stall_cycles: sc(self.fetch_stall_cycles),
            sp_interlock_stalls: sc(self.sp_interlock_stalls),
            ruu_occupancy_sum: sc(self.ruu_occupancy_sum),
            ruu_occupancy_max: self.ruu_occupancy_max,
            lsq_occupancy_sum: sc(self.lsq_occupancy_sum),
            dl1: self.dl1.scaled(num, den),
            il1: self.il1.scaled(num, den),
            l2: self.l2.scaled(num, den),
            svf: self.svf.as_ref().map(|s| s.scaled(num, den)),
            stack_cache: self.stack_cache.as_ref().map(|s| s.scaled(num, den)),
        }
    }
}

/// Relative error of a sampled estimate against a reference value, in
/// [0, ∞): `|sampled - reference| / reference`. Zero when both are zero
/// (a perfect estimate of nothing); infinite when only the reference is
/// zero.
#[must_use]
pub fn relative_error(sampled: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if sampled == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (sampled - reference).abs() / reference.abs()
    }
}

/// Column names of the flat CSV serialization, in serialization order.
///
/// Every counter is a `u64`; the nested [`TrafficStats`] blocks are
/// flattened with a prefix (`dl1_`, `il1_`, `l2_`, `svf_`, `sc_`), and the
/// two optional engine blocks carry a `*_present` 0/1 column so absent
/// engines round-trip as `None`.
pub const CSV_COLUMNS: &[&str] = &[
    "cycles",
    "committed",
    "mem_refs",
    "stack_refs",
    "branches",
    "mispredicts",
    "svf_morphed_loads",
    "svf_morphed_stores",
    "svf_rerouted",
    "svf_out_of_window",
    "svf_squashes",
    "stack_cache_refs",
    "fetch_stall_cycles",
    "sp_interlock_stalls",
    "ruu_occupancy_sum",
    "ruu_occupancy_max",
    "lsq_occupancy_sum",
    "dl1_accesses",
    "dl1_hits",
    "dl1_misses",
    "dl1_writebacks",
    "dl1_qw_in",
    "dl1_qw_out",
    "il1_accesses",
    "il1_hits",
    "il1_misses",
    "il1_writebacks",
    "il1_qw_in",
    "il1_qw_out",
    "l2_accesses",
    "l2_hits",
    "l2_misses",
    "l2_writebacks",
    "l2_qw_in",
    "l2_qw_out",
    "svf_present",
    "svf_accesses",
    "svf_hits",
    "svf_misses",
    "svf_writebacks",
    "svf_qw_in",
    "svf_qw_out",
    "svf_alloc_kills",
    "svf_dealloc_dirty_kills",
    "svf_demand_fills",
    "svf_window_spills",
    "sc_present",
    "sc_accesses",
    "sc_hits",
    "sc_misses",
    "sc_writebacks",
    "sc_qw_in",
    "sc_qw_out",
];

fn push_traffic(out: &mut Vec<u64>, t: &TrafficStats) {
    out.extend([t.accesses, t.hits, t.misses, t.writebacks, t.qw_in, t.qw_out]);
}

fn take_traffic(it: &mut impl Iterator<Item = u64>) -> TrafficStats {
    // `flatten` and the length check in `from_csv_row` guarantee the
    // iterator holds enough values; `unwrap_or(0)` keeps this total.
    let mut next = || it.next().unwrap_or(0);
    TrafficStats {
        accesses: next(),
        hits: next(),
        misses: next(),
        writebacks: next(),
        qw_in: next(),
        qw_out: next(),
    }
}

impl SimStats {
    /// The CSV header matching [`SimStats::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> String {
        CSV_COLUMNS.join(",")
    }

    /// Every counter as one flat vector, in [`CSV_COLUMNS`] order.
    #[must_use]
    pub fn flatten(&self) -> Vec<u64> {
        let mut v = vec![
            self.cycles,
            self.committed,
            self.mem_refs,
            self.stack_refs,
            self.branches,
            self.mispredicts,
            self.svf_morphed_loads,
            self.svf_morphed_stores,
            self.svf_rerouted,
            self.svf_out_of_window,
            self.svf_squashes,
            self.stack_cache_refs,
            self.fetch_stall_cycles,
            self.sp_interlock_stalls,
            self.ruu_occupancy_sum,
            self.ruu_occupancy_max,
            self.lsq_occupancy_sum,
        ];
        push_traffic(&mut v, &self.dl1);
        push_traffic(&mut v, &self.il1);
        push_traffic(&mut v, &self.l2);
        let svf = self.svf.unwrap_or_default();
        v.push(u64::from(self.svf.is_some()));
        push_traffic(&mut v, &svf.traffic);
        v.extend([svf.alloc_kills, svf.dealloc_dirty_kills, svf.demand_fills, svf.window_spills]);
        let sc = self.stack_cache.unwrap_or_default();
        v.push(u64::from(self.stack_cache.is_some()));
        push_traffic(&mut v, &sc);
        debug_assert_eq!(v.len(), CSV_COLUMNS.len());
        v
    }

    /// One CSV data row matching [`SimStats::csv_header`].
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        self.flatten().iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
    }

    /// Parses a row produced by [`SimStats::to_csv_row`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field, or a count
    /// mismatch against [`CSV_COLUMNS`].
    pub fn from_csv_row(row: &str) -> Result<SimStats, String> {
        let vals: Vec<u64> = row
            .trim_end()
            .split(',')
            .map(|f| f.trim().parse::<u64>().map_err(|e| format!("bad field {f:?}: {e}")))
            .collect::<Result<_, _>>()?;
        if vals.len() != CSV_COLUMNS.len() {
            return Err(format!("expected {} fields, got {}", CSV_COLUMNS.len(), vals.len()));
        }
        let mut it = vals.into_iter();
        let mut next = || it.next().unwrap_or(0);
        let mut s = SimStats {
            cycles: next(),
            committed: next(),
            mem_refs: next(),
            stack_refs: next(),
            branches: next(),
            mispredicts: next(),
            svf_morphed_loads: next(),
            svf_morphed_stores: next(),
            svf_rerouted: next(),
            svf_out_of_window: next(),
            svf_squashes: next(),
            stack_cache_refs: next(),
            fetch_stall_cycles: next(),
            sp_interlock_stalls: next(),
            ruu_occupancy_sum: next(),
            ruu_occupancy_max: next(),
            lsq_occupancy_sum: next(),
            ..SimStats::default()
        };
        s.dl1 = take_traffic(&mut it);
        s.il1 = take_traffic(&mut it);
        s.l2 = take_traffic(&mut it);
        let svf_present = it.next().unwrap_or(0) != 0;
        let svf = SvfStats {
            traffic: take_traffic(&mut it),
            alloc_kills: it.next().unwrap_or(0),
            dealloc_dirty_kills: it.next().unwrap_or(0),
            demand_fills: it.next().unwrap_or(0),
            window_spills: it.next().unwrap_or(0),
        };
        s.svf = svf_present.then_some(svf);
        let sc_present = it.next().unwrap_or(0) != 0;
        let sc = take_traffic(&mut it);
        s.stack_cache = sc_present.then_some(sc);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let a = SimStats { cycles: 1000, committed: 2000, ..SimStats::default() };
        let b = SimStats { cycles: 500, committed: 2000, ..SimStats::default() };
        assert!((a.ipc() - 2.0).abs() < 1e-12);
        assert!((b.speedup_over(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical committed")]
    fn speedup_requires_same_work() {
        let a = SimStats { cycles: 10, committed: 10, ..SimStats::default() };
        let b = SimStats { cycles: 10, committed: 20, ..SimStats::default() };
        let _ = b.speedup_over(&a);
    }

    #[test]
    fn csv_round_trip() {
        let mut s = SimStats {
            cycles: 123,
            committed: 456,
            mispredicts: 7,
            ruu_occupancy_max: 99,
            dl1: TrafficStats { accesses: 10, hits: 8, misses: 2, writebacks: 1, qw_in: 16, qw_out: 8 },
            svf: Some(SvfStats { alloc_kills: 3, window_spills: 5, ..SvfStats::default() }),
            ..SimStats::default()
        };
        assert_eq!(s.flatten().len(), CSV_COLUMNS.len());
        assert_eq!(SimStats::csv_header().split(',').count(), CSV_COLUMNS.len());
        let back = SimStats::from_csv_row(&s.to_csv_row()).expect("parses");
        assert_eq!(back, s);
        // Engine-less runs round-trip their `None`s.
        s.svf = None;
        s.stack_cache = Some(TrafficStats { accesses: 4, ..TrafficStats::default() });
        let back = SimStats::from_csv_row(&s.to_csv_row()).expect("parses");
        assert_eq!(back, s);
        assert!(back.svf.is_none());
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        assert!(SimStats::from_csv_row("1,2,3").is_err(), "short row");
        assert!(SimStats::from_csv_row("not-a-number").is_err());
        let mut row = SimStats::default().to_csv_row();
        row.push_str(",0");
        assert!(SimStats::from_csv_row(&row).is_err(), "long row");
    }

    #[test]
    fn accumulate_and_scale_round_trip() {
        let interval = SimStats {
            cycles: 100,
            committed: 250,
            mem_refs: 40,
            mispredicts: 3,
            ruu_occupancy_max: 12,
            dl1: TrafficStats { accesses: 40, hits: 30, misses: 10, ..TrafficStats::default() },
            svf: Some(SvfStats { demand_fills: 5, ..SvfStats::default() }),
            ..SimStats::default()
        };
        let mut pooled = SimStats::default();
        pooled.accumulate(&interval);
        pooled.accumulate(&interval);
        assert_eq!(pooled.cycles, 200);
        assert_eq!(pooled.committed, 500);
        assert_eq!(pooled.dl1.accesses, 80);
        assert_eq!(pooled.svf.unwrap().demand_fills, 10);
        assert_eq!(pooled.ruu_occupancy_max, 12, "peaks take the max, not the sum");

        // Measured 500 of 1000 instructions: everything doubles except the
        // exact committed count and the unscaled peak.
        let whole = pooled.scaled(1000);
        assert_eq!(whole.cycles, 400);
        assert_eq!(whole.committed, 1000);
        assert_eq!(whole.mem_refs, 160);
        assert_eq!(whole.dl1.hits, 120);
        assert_eq!(whole.svf.unwrap().demand_fills, 20);
        assert_eq!(whole.ruu_occupancy_max, 12);
        assert!((whole.ipc() - pooled.ipc()).abs() < 1e-9, "scaling preserves IPC");

        // Full coverage is the identity.
        assert_eq!(pooled.scaled(pooled.committed), pooled);
    }

    #[test]
    fn relative_error_edges() {
        assert!((relative_error(102.0, 100.0) - 0.02).abs() < 1e-12);
        assert!((relative_error(98.0, 100.0) - 0.02).abs() < 1e-12);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn morph_fraction() {
        let s = SimStats {
            svf_morphed_loads: 60,
            svf_morphed_stores: 26,
            svf_rerouted: 10,
            svf_out_of_window: 4,
            ..SimStats::default()
        };
        assert!((s.morph_fraction() - 0.86).abs() < 1e-12);
        assert_eq!(SimStats::default().morph_fraction(), 0.0);
    }
}
