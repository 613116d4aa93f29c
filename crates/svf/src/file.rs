//! The stack value file structure.

use svf_mem::TrafficStats;

/// SVF configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvfConfig {
    /// Capacity in bytes (power of two, multiple of 8). The paper's main
    /// configuration is 8 KB = 1024 entries × 8 bytes.
    pub capacity_bytes: u64,
}

impl SvfConfig {
    /// The paper's 8 KB SVF (1024 quad-word entries).
    #[must_use]
    pub fn kb8() -> SvfConfig {
        SvfConfig { capacity_bytes: 8 << 10 }
    }

    /// A sized variant (2/4/8 KB in Table 3).
    #[must_use]
    pub fn with_size(capacity_bytes: u64) -> SvfConfig {
        SvfConfig { capacity_bytes }
    }
}

/// Statistics specific to the SVF, plus standard traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SvfStats {
    /// Standard access/traffic counters. `qw_in`/`qw_out` is the SVF ↔ L1
    /// traffic of Table 3.
    pub traffic: TrafficStats,
    /// Quad-words invalidated by stack growth (allocations that cost no
    /// read traffic — a stack cache would have filled these).
    pub alloc_kills: u64,
    /// Dirty quad-words killed by stack shrink (writebacks a stack cache
    /// could not avoid).
    pub dealloc_dirty_kills: u64,
    /// Demand fills of individual quad-words (`qw_in` increments from
    /// loads to invalid entries).
    pub demand_fills: u64,
    /// Dirty quad-words spilled because the window slid over live data
    /// (stack depth exceeded SVF capacity).
    pub window_spills: u64,
}

impl SvfStats {
    /// Adds `other`'s counters into `self` (sampled simulation sums the
    /// per-interval statistics before extrapolating).
    pub fn accumulate(&mut self, other: &SvfStats) {
        self.traffic.accumulate(&other.traffic);
        self.alloc_kills += other.alloc_kills;
        self.dealloc_dirty_kills += other.dealloc_dirty_kills;
        self.demand_fills += other.demand_fills;
        self.window_spills += other.window_spills;
    }

    /// Counter-wise difference against an `earlier` snapshot of the same
    /// monotone counters (saturating) — scopes statistics to a measurement
    /// window that starts mid-run.
    #[must_use]
    pub fn delta(&self, earlier: &SvfStats) -> SvfStats {
        SvfStats {
            traffic: self.traffic.delta(&earlier.traffic),
            alloc_kills: self.alloc_kills.saturating_sub(earlier.alloc_kills),
            dealloc_dirty_kills: self.dealloc_dirty_kills.saturating_sub(earlier.dealloc_dirty_kills),
            demand_fills: self.demand_fills.saturating_sub(earlier.demand_fills),
            window_spills: self.window_spills.saturating_sub(earlier.window_spills),
        }
    }

    /// Every counter scaled by `num / den` with round-to-nearest (see
    /// [`svf_mem::scale_counter`]) — the extrapolation step of sampled
    /// simulation.
    #[must_use]
    pub fn scaled(&self, num: u64, den: u64) -> SvfStats {
        SvfStats {
            traffic: self.traffic.scaled(num, den),
            alloc_kills: svf_mem::scale_counter(self.alloc_kills, num, den),
            dealloc_dirty_kills: svf_mem::scale_counter(self.dealloc_dirty_kills, num, den),
            demand_fills: svf_mem::scale_counter(self.demand_fills, num, den),
            window_spills: svf_mem::scale_counter(self.window_spills, num, den),
        }
    }
}

/// Outcome of one SVF data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvfAccess {
    /// Whether the entry had to be demand-filled from the L1 first.
    pub filled: bool,
}

/// Traffic consequences of a stack-pointer adjustment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpAdjustEffect {
    /// Quad-words written back to the L1 (live data pushed out of the
    /// window by deep stack growth).
    pub spilled_qw: u64,
    /// Quad-words whose dirty data was discarded as semantically dead.
    pub killed_qw: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Entry {
    valid: bool,
    dirty: bool,
}

/// The stack value file. See the [crate docs](crate) for the big picture.
///
/// The structure tracks *state*, not data values (values flow through the
/// rename network in the pipeline model; the functional emulator owns
/// memory contents).
#[derive(Debug, Clone, PartialEq)]
pub struct StackValueFile {
    entries: Vec<Entry>,
    /// Lowest address covered, always the quad-word containing the TOS.
    range_lo: u64,
    capacity: u64,
    stats: SvfStats,
}

impl StackValueFile {
    /// Builds an SVF whose range starts at the initial stack pointer.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a power-of-two multiple of 8 bytes, or
    /// if `initial_sp` is not 8-byte aligned.
    #[must_use]
    pub fn new(cfg: SvfConfig, initial_sp: u64) -> StackValueFile {
        let n = cfg.capacity_bytes / 8;
        assert!(n > 0 && n.is_power_of_two(), "SVF capacity must be a power-of-two multiple of 8");
        assert_eq!(initial_sp % 8, 0, "stack pointer must be 8-byte aligned");
        StackValueFile {
            entries: vec![Entry::default(); n as usize],
            range_lo: initial_sp,
            capacity: cfg.capacity_bytes,
            stats: SvfStats::default(),
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// The covered address range `[lo, hi)`.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_lo + self.capacity)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> SvfStats {
        self.stats
    }

    /// Zeroes the statistics counters while keeping entry state (valid and
    /// dirty bits, window position) warm — sampled simulation warms the SVF
    /// functionally and then measures only the detailed interval.
    pub fn reset_stats(&mut self) {
        self.stats = SvfStats::default();
    }

    /// Whether `addr` falls inside the covered range — the bounds check the
    /// decode stage (for `$sp`-relative references) and the execute stage
    /// (for everything else) perform.
    #[must_use]
    pub fn in_range(&self, addr: u64) -> bool {
        addr >= self.range_lo && addr < self.range_lo + self.capacity
    }

    fn index(&self, addr: u64) -> usize {
        ((addr / 8) as usize) & (self.entries.len() - 1)
    }

    /// Clears entries for every quad-word address in `[lo, hi)`, returning
    /// `(killed_dirty, killed_any)` counts. Caps the walk at one full
    /// rotation of the circular buffer.
    fn clear_span(&mut self, lo: u64, hi: u64) -> (u64, u64) {
        let span = hi.saturating_sub(lo).min(self.capacity);
        let mut dirty = 0;
        let mut any = 0;
        let mut addr = lo;
        while addr < lo + span {
            let idx = self.index(addr);
            let e = &mut self.entries[idx];
            if e.valid {
                any += 1;
                if e.dirty {
                    dirty += 1;
                }
            }
            *e = Entry::default();
            addr += 8;
        }
        (dirty, any)
    }

    /// Applies a committed stack-pointer change, sliding the covered range
    /// and performing the paper's semantic state updates:
    ///
    /// * **growth** (`new_sp < old_sp`): live quad-words that fall out of
    ///   the top of the window are spilled to the L1 (`qw_out`); the newly
    ///   allocated quad-words are marked invalid with **no** fill;
    /// * **shrink** (`new_sp > old_sp`): the deallocated quad-words are
    ///   killed — dirty data is discarded, never written back.
    ///
    /// `old_sp` is not read: the range's low end already tracks the
    /// committed `$sp`, so only the new value matters.
    pub fn on_sp_update(&mut self, old_sp: u64, new_sp: u64) -> SpAdjustEffect {
        debug_assert_eq!(new_sp % 8, 0, "unaligned stack pointer {new_sp:#x}");
        let mut effect = SpAdjustEffect::default();
        let old_lo = self.range_lo;
        let _ = old_sp; // range_lo already tracks the committed TOS
        if new_sp < old_lo {
            // Growth. Entries being re-mapped from the old window top
            // [new_sp + cap, old_lo + cap) to [new_sp, old_lo) may hold
            // live data: spill dirty ones.
            let reuse_lo = new_sp + self.capacity;
            let reuse_hi = old_lo + self.capacity;
            let (dirty, _any) = self.clear_span(reuse_lo.min(reuse_hi), reuse_hi);
            self.stats.traffic.qw_out += dirty;
            self.stats.window_spills += dirty;
            self.stats.traffic.writebacks += dirty;
            effect.spilled_qw = dirty;
            // The newly covered low addresses are fresh allocations:
            // guarantee invalid (they share entries with the span just
            // cleared, so nothing further to do except accounting).
            let alloc_qw = (old_lo - new_sp).min(self.capacity) / 8;
            self.stats.alloc_kills += alloc_qw;
            self.range_lo = new_sp;
        } else if new_sp > old_lo {
            // Shrink. [old_lo, new_sp) is deallocated: kill it.
            let (dirty, any) = self.clear_span(old_lo, new_sp.min(old_lo + self.capacity));
            self.stats.dealloc_dirty_kills += dirty;
            effect.killed_qw = any;
            self.range_lo = new_sp;
        }
        effect
    }

    /// Presents a load. Returns `None` when the address is out of range
    /// (the reference must go to the data cache); otherwise reports whether
    /// a demand fill from the L1 was needed.
    pub fn load(&mut self, addr: u64, _size: u8) -> Option<SvfAccess> {
        if !self.in_range(addr) {
            return None;
        }
        self.stats.traffic.accesses += 1;
        let idx = self.index(addr);
        let e = &mut self.entries[idx];
        if e.valid {
            self.stats.traffic.hits += 1;
            Some(SvfAccess { filled: false })
        } else {
            // Like a cache, locations are read only when needed (§3.3).
            e.valid = true;
            self.stats.traffic.misses += 1;
            self.stats.traffic.qw_in += 1;
            self.stats.demand_fills += 1;
            Some(SvfAccess { filled: true })
        }
    }

    /// Presents a store. Full quad-word stores validate the entry with no
    /// fill; narrower stores to an invalid entry must first read the
    /// quad-word to merge (64 bits is the status-bit granularity, §3.3).
    pub fn store(&mut self, addr: u64, size: u8) -> Option<SvfAccess> {
        if !self.in_range(addr) {
            return None;
        }
        self.stats.traffic.accesses += 1;
        let idx = self.index(addr);
        let e = &mut self.entries[idx];
        let mut filled = false;
        if !e.valid && size < 8 {
            self.stats.traffic.qw_in += 1;
            self.stats.demand_fills += 1;
            filled = true;
        }
        if e.valid || filled {
            self.stats.traffic.hits += 1;
        } else {
            self.stats.traffic.misses += 1;
        }
        e.valid = true;
        e.dirty = true;
        Some(SvfAccess { filled })
    }

    /// Context switch: write back valid **and** dirty quad-words (8-byte
    /// granularity — the SVF's fine-grained advantage in Table 4) and
    /// invalidate everything. Returns bytes written back.
    pub fn context_switch_flush(&mut self) -> u64 {
        let mut dirty = 0u64;
        for e in &mut self.entries {
            if e.valid && e.dirty {
                dirty += 1;
            }
            *e = Entry::default();
        }
        self.stats.traffic.qw_out += dirty;
        self.stats.traffic.writebacks += dirty;
        dirty * 8
    }

    /// Number of currently valid entries (diagnostics).
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Number of currently dirty entries (diagnostics).
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid && e.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SP0: u64 = 0x4000_0000;

    fn svf(cap: u64) -> StackValueFile {
        StackValueFile::new(SvfConfig::with_size(cap), SP0)
    }

    #[test]
    fn range_follows_sp() {
        let mut s = svf(1024);
        assert_eq!(s.range(), (SP0, SP0 + 1024));
        s.on_sp_update(SP0, SP0 - 256);
        assert_eq!(s.range(), (SP0 - 256, SP0 - 256 + 1024));
        assert!(s.in_range(SP0 - 256));
        assert!(s.in_range(SP0 + 768 - 8));
        assert!(!s.in_range(SP0 + 768));
        assert!(!s.in_range(SP0 - 264));
    }

    #[test]
    fn allocation_is_free() {
        let mut s = svf(1024);
        let eff = s.on_sp_update(SP0, SP0 - 512);
        assert_eq!(eff.spilled_qw, 0);
        assert_eq!(s.stats().traffic.qw_in, 0);
        assert_eq!(s.stats().alloc_kills, 64);
    }

    #[test]
    fn first_touch_store_needs_no_fill() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 64);
        let acc = s.store(SP0 - 64, 8).unwrap();
        assert!(!acc.filled);
        assert_eq!(s.stats().traffic.qw_in, 0);
        assert_eq!(s.dirty_count(), 1);
    }

    #[test]
    fn narrow_store_to_invalid_entry_fills() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 64);
        let acc = s.store(SP0 - 64, 4).unwrap();
        assert!(acc.filled, "read-merge for sub-quad store");
        assert_eq!(s.stats().traffic.qw_in, 1);
        // A second narrow store hits the now-valid entry.
        let acc = s.store(SP0 - 64, 1).unwrap();
        assert!(!acc.filled);
    }

    #[test]
    fn load_after_store_hits() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 64);
        s.store(SP0 - 32, 8);
        let acc = s.load(SP0 - 32, 8).unwrap();
        assert!(!acc.filled);
    }

    #[test]
    fn load_to_invalid_demand_fills_once() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 64);
        assert!(s.load(SP0 - 16, 8).unwrap().filled);
        assert!(!s.load(SP0 - 16, 8).unwrap().filled);
        assert_eq!(s.stats().demand_fills, 1);
    }

    #[test]
    fn deallocation_kills_dirty_data() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 128);
        for i in 0..16 {
            s.store(SP0 - 128 + 8 * i, 8);
        }
        assert_eq!(s.dirty_count(), 16);
        let eff = s.on_sp_update(SP0 - 128, SP0);
        assert_eq!(eff.killed_qw, 16);
        assert_eq!(s.stats().traffic.qw_out, 0, "dead data never written back");
        assert_eq!(s.stats().dealloc_dirty_kills, 16);
        assert_eq!(s.dirty_count(), 0);
    }

    #[test]
    fn reallocation_after_shrink_is_invalid() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 64);
        s.store(SP0 - 64, 8);
        s.on_sp_update(SP0 - 64, SP0); // return: kill
        s.on_sp_update(SP0, SP0 - 64); // call again
        // The old value is dead; a load must fill from L1.
        assert!(s.load(SP0 - 64, 8).unwrap().filled);
    }

    #[test]
    fn deep_growth_spills_live_window_top() {
        // Capacity 16 QW = 128 bytes.
        let mut s = svf(128);
        s.on_sp_update(SP0, SP0 - 128); // fill the whole window
        for i in 0..16 {
            s.store(SP0 - 128 + 8 * i, 8);
        }
        // Grow 64 bytes deeper: the top 8 QW of the window hold live dirty
        // data and must spill to the L1.
        let eff = s.on_sp_update(SP0 - 128, SP0 - 192);
        assert_eq!(eff.spilled_qw, 8);
        assert_eq!(s.stats().traffic.qw_out, 8);
        assert_eq!(s.stats().window_spills, 8);
        // The spilled addresses are now out of range.
        assert!(!s.in_range(SP0 - 64));
        assert!(s.in_range(SP0 - 192));
    }

    #[test]
    fn growth_beyond_capacity_resets_cleanly() {
        let mut s = svf(128);
        s.on_sp_update(SP0, SP0 - 64);
        for i in 0..8 {
            s.store(SP0 - 64 + 8 * i, 8);
        }
        // Jump far deeper than the capacity in one adjustment.
        let eff = s.on_sp_update(SP0 - 64, SP0 - 4096);
        assert_eq!(eff.spilled_qw, 8, "all live dirty data spilled");
        assert_eq!(s.range(), (SP0 - 4096, SP0 - 4096 + 128));
        assert_eq!(s.valid_count(), 0);
    }

    #[test]
    fn shrink_beyond_capacity_kills_everything() {
        let mut s = svf(128);
        s.on_sp_update(SP0, SP0 - 4096);
        for i in 0..16 {
            s.store(SP0 - 4096 + 8 * i, 8);
        }
        s.on_sp_update(SP0 - 4096, SP0);
        assert_eq!(s.stats().traffic.qw_out, 0);
        assert_eq!(s.valid_count(), 0);
        assert_eq!(s.range(), (SP0, SP0 + 128));
    }

    #[test]
    fn out_of_range_accesses_are_rejected() {
        let mut s = svf(128);
        s.on_sp_update(SP0, SP0 - 64);
        assert!(s.load(SP0 + 128, 8).is_none());
        assert!(s.store(SP0 - 4096, 8).is_none());
        assert_eq!(s.stats().traffic.accesses, 0);
    }

    #[test]
    fn context_switch_flush_is_word_granular() {
        let mut s = svf(1024);
        s.on_sp_update(SP0, SP0 - 256);
        for i in 0..8 {
            s.store(SP0 - 256 + 8 * i, 8);
        }
        s.load(SP0 - 64, 8); // valid but clean
        let bytes = s.context_switch_flush();
        assert_eq!(bytes, 64, "8 dirty quad-words, 8 bytes each");
        assert_eq!(s.valid_count(), 0);
        // After the flush, reloads demand-fill.
        assert!(s.load(SP0 - 256, 8).unwrap().filled);
    }

    #[test]
    fn steady_state_call_return_has_zero_traffic() {
        let mut s = svf(8192);
        let mut sp = SP0;
        // Simulate 1000 call/return pairs of a 256-byte frame at shallow
        // depth: the SVF should generate no memory traffic at all.
        for _ in 0..1000 {
            let new = sp - 256;
            s.on_sp_update(sp, new);
            sp = new;
            for i in 0..32 {
                s.store(sp + 8 * i, 8);
                s.load(sp + 8 * i, 8);
            }
            let back = sp + 256;
            s.on_sp_update(sp, back);
            sp = back;
        }
        let t = s.stats().traffic;
        assert_eq!(t.qw_in, 0);
        assert_eq!(t.qw_out, 0);
        assert_eq!(s.stats().dealloc_dirty_kills, 32_000);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_capacity_panics() {
        let _ = StackValueFile::new(SvfConfig::with_size(100), SP0);
    }
}
