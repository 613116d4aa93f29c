//! The decoupled stack cache comparator (Cho, Yew and Lee, ISCA 1999).
//!
//! A small direct-mapped cache dedicated to stack references, sitting beside
//! the data L1 and backed by the **L2** (paper §5.3.2: the stack cache's
//! "compulsory, capacity, and conflict misses, along with dirty writebacks
//! … generate traffic between the stack cache and the L2").
//!
//! Unlike the SVF it is a conventional cache, so (paper §5.3.2):
//!
//! 1. **Allocations** — a write miss must *read the rest of the line* before
//!    the store can complete (write-allocate fill); no liveness assumption
//!    can be made.
//! 2. **Dirty replacements** — evicted dirty lines must be written back even
//!    if the stack has shrunk past them; deadness is invisible to a cache.

use crate::stats::TrafficStats;

/// Stack-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackCacheConfig {
    /// Capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Line size in bytes (power of two, ≥ 8). The paper does not state a
    /// line size; 32 bytes matches the DL1 and the era's designs.
    pub line_bytes: u64,
    /// Hit latency in cycles. Smaller and direct-mapped, so faster than the
    /// 3-cycle DL1, but unlike the SVF it still sits after address
    /// generation; 2 cycles.
    pub hit_latency: u64,
}

impl StackCacheConfig {
    /// The paper's default comparison point: 8 KB direct-mapped.
    #[must_use]
    pub fn kb8() -> StackCacheConfig {
        StackCacheConfig { size_bytes: 8 << 10, line_bytes: 32, hit_latency: 2 }
    }

    /// A sized variant (2/4/8 KB in Table 3).
    #[must_use]
    pub fn with_size(size_bytes: u64) -> StackCacheConfig {
        StackCacheConfig { size_bytes, ..StackCacheConfig::kb8() }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
}

/// The direct-mapped decoupled stack cache.
///
/// Like [`crate::Cache`], the state is one contiguous boxed slice and the
/// index/tag split is precomputed shift/mask — this sits on the simulator's
/// per-stack-reference hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct StackCache {
    cfg: StackCacheConfig,
    lines: Box<[Line]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_lines - 1`.
    index_mask: u64,
    /// `log2(num_lines)`.
    index_shift: u32,
    /// Quad-words per line, precomputed.
    line_qw: u64,
    stats: TrafficStats,
}

impl StackCache {
    /// Builds the stack cache.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two geometry.
    #[must_use]
    pub fn new(cfg: StackCacheConfig) -> StackCache {
        let n = cfg.size_bytes / cfg.line_bytes;
        assert!(n > 0 && n.is_power_of_two(), "bad stack cache geometry");
        assert!(cfg.line_bytes >= 8 && cfg.line_bytes.is_power_of_two());
        StackCache {
            lines: vec![Line::default(); n as usize].into_boxed_slice(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            index_mask: n - 1,
            index_shift: n.trailing_zeros(),
            line_qw: cfg.line_bytes / 8,
            cfg,
            stats: TrafficStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> StackCacheConfig {
        self.cfg
    }

    /// Accumulated statistics (quad-word traffic is to/from the **L2**).
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Zeroes the statistics counters while keeping lines, tags and dirty
    /// bits warm (see [`crate::Cache::reset_stats`]).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::default();
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Quad-words per line.
    #[must_use]
    pub fn line_qw(&self) -> u64 {
        self.line_qw
    }

    #[inline]
    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.index_mask) as usize, line >> self.index_shift)
    }

    /// Presents a stack reference. Returns whether it hit; misses fill the
    /// line (counting `qw_in`), write misses included, and dirty victims are
    /// written back (counting `qw_out`).
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.stats.accesses += 1;
        let line_qw = self.line_qw;
        let (idx, tag) = self.index_tag(addr);
        let line = &mut self.lines[idx];
        if line.valid && line.tag == tag {
            self.stats.hits += 1;
            line.dirty |= is_write;
            return true;
        }
        self.stats.misses += 1;
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
            self.stats.qw_out += line_qw;
        }
        // Fill: even a store must read the rest of the line (no per-word
        // valid bits in a conventional cache).
        self.stats.qw_in += line_qw;
        *line = Line { tag, valid: true, dirty: is_write };
        false
    }

    /// Probes without side effects.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_tag(addr);
        let line = &self.lines[idx];
        line.valid && line.tag == tag
    }

    /// Context switch: write back all dirty lines and invalidate. Returns
    /// bytes written back (Table 4 metric) — whole lines, because the
    /// dirty bit is per line.
    pub fn flush(&mut self) -> u64 {
        let mut bytes = 0;
        for line in self.lines.iter_mut() {
            if line.valid && line.dirty {
                bytes += self.cfg.line_bytes;
                self.stats.writebacks += 1;
                self.stats.qw_out += self.line_qw;
            }
            *line = Line::default();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_isa::STACK_BASE;

    #[test]
    fn write_miss_fills_whole_line() {
        let mut sc = StackCache::new(StackCacheConfig::kb8());
        assert!(!sc.access(STACK_BASE - 32, true));
        // Paper point 1: the line is read in even though we only wrote.
        assert_eq!(sc.stats().qw_in, 4);
        assert!(sc.access(STACK_BASE - 32 + 8, false), "rest of line now present");
    }

    #[test]
    fn dirty_eviction_writes_back_dead_data() {
        let cfg = StackCacheConfig { size_bytes: 64, line_bytes: 32, hit_latency: 2 };
        let mut sc = StackCache::new(cfg);
        sc.access(0x0, true); // line 0, dirty
        sc.access(0x40, true); // conflicts with line 0 in a 2-line cache
        // Paper point 2: the dirty (possibly dead) line was written back.
        assert_eq!(sc.stats().writebacks, 1);
        assert_eq!(sc.stats().qw_out, 4);
    }

    #[test]
    fn hit_tracking() {
        let mut sc = StackCache::new(StackCacheConfig::kb8());
        sc.access(0x100, false);
        sc.access(0x108, false);
        sc.access(0x118, true);
        assert_eq!(sc.stats().hits, 2);
        assert_eq!(sc.stats().misses, 1);
        assert!((sc.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_is_line_granular() {
        let mut sc = StackCache::new(StackCacheConfig::kb8());
        sc.access(0x0, true); // one dirty line
        sc.access(0x20, false); // one clean line
        sc.access(0x40, true); // dirty
        let bytes = sc.flush();
        assert_eq!(bytes, 64, "two dirty 32-byte lines, whole lines flushed");
        assert!(!sc.contains(0x0));
    }

    #[test]
    fn sizes_from_table3() {
        for kb in [2u64, 4, 8] {
            let sc = StackCache::new(StackCacheConfig::with_size(kb << 10));
            assert_eq!(sc.config().size_bytes, kb << 10);
        }
    }
}
