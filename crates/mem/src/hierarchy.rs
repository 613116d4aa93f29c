//! The two-level memory system of the paper's Table 2.

use crate::cache::{Cache, CacheConfig};

/// Configuration for the whole hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Instruction L1.
    pub il1: CacheConfig,
    /// Data L1.
    pub dl1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Flat main-memory latency in CPU cycles (Table 2: 60).
    pub mem_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            il1: CacheConfig::il1_256k(),
            dl1: CacheConfig::dl1_64k(),
            l2: CacheConfig::l2_512k(),
            mem_latency: 60,
        }
    }
}

/// Split L1 caches over a unified L2 over flat-latency memory.
///
/// Access methods return the total latency in cycles for the request,
/// assuming fully pipelined caches (Table 2: "L1 cache accesses are fully
/// pipelined") — concurrency limits are enforced by the CPU's port model,
/// not here.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    mem_latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy.
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            il1: Cache::new(cfg.il1),
            dl1: Cache::new(cfg.dl1),
            l2: Cache::new(cfg.l2),
            mem_latency: cfg.mem_latency,
        }
    }

    /// Latency of an instruction fetch.
    #[inline]
    pub fn inst_fetch(&mut self, addr: u64) -> u64 {
        let out = self.il1.access(addr, false);
        if out.hit {
            self.il1.hit_latency()
        } else {
            self.il1.hit_latency() + self.l2_fill(addr, out.writeback)
        }
    }

    /// Latency of a data access through the L1 (loads and stores).
    #[inline]
    pub fn data_access(&mut self, addr: u64, is_write: bool) -> u64 {
        let out = self.dl1.access(addr, is_write);
        if out.hit {
            self.dl1.hit_latency()
        } else {
            self.dl1.hit_latency() + self.l2_fill(addr, out.writeback)
        }
    }

    /// Latency of an access that bypasses the L1 and goes straight to the L2
    /// (stack-cache misses, per the paper's §5.3.2 traffic model).
    #[inline]
    pub fn l2_access(&mut self, addr: u64, is_write: bool) -> u64 {
        let out = self.l2.access(addr, is_write);
        if out.hit {
            self.l2.hit_latency()
        } else {
            self.l2.hit_latency() + self.mem_latency
        }
    }

    fn l2_fill(&mut self, addr: u64, l1_writeback: bool) -> u64 {
        if l1_writeback {
            // Dirty L1 victim lands in the L2 (write-back path, off the
            // critical path for latency, but it updates L2 state).
            self.l2.access(addr, true);
        }
        let out = self.l2.access(addr, false);
        if out.hit {
            self.l2.hit_latency()
        } else {
            self.l2.hit_latency() + self.mem_latency
        }
    }

    /// Zeroes all three caches' statistics counters while keeping their
    /// contents (tags, dirty bits, recency) warm — see [`Cache::reset_stats`].
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
    }

    /// The instruction L1 (for statistics).
    #[must_use]
    pub fn il1(&self) -> &Cache {
        &self.il1
    }

    /// The data L1 (for statistics).
    #[must_use]
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// The unified L2 (for statistics).
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table2() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        // Cold: L1 miss + L2 miss + memory.
        let cold = h.data_access(0x1000, false);
        assert_eq!(cold, 3 + 16 + 60);
        // Warm L1.
        assert_eq!(h.data_access(0x1000, false), 3);
        // L2 hit after L1 conflict eviction is harder to stage; check the
        // direct L2 path instead.
        assert_eq!(h.l2_access(0x1000, false), 16);
        let cold_fetch = h.inst_fetch(0x2000);
        assert_eq!(cold_fetch, 1 + 16 + 60);
        assert_eq!(h.inst_fetch(0x2000), 1);
    }

    #[test]
    fn l1_miss_l2_hit() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0x1000, false); // warms L2 (and L1)
        // Evict 0x1000 from the 4-way 64KB L1: 5 conflicting lines.
        // Set stride = 64KB / 4 ways = 16KB.
        for i in 1..=4 {
            h.data_access(0x1000 + i * 16 * 1024, false);
        }
        let lat = h.data_access(0x1000, false);
        assert_eq!(lat, 3 + 16, "L1 miss, L2 hit");
    }

    #[test]
    fn stats_visible() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        h.data_access(0x40, true);
        h.data_access(0x40, false);
        assert_eq!(h.dl1().stats().accesses, 2);
        assert_eq!(h.dl1().stats().hits, 1);
        assert_eq!(h.l2().stats().accesses, 1);
    }
}
