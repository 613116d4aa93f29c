//! Set-associative write-back cache model.
//!
//! # Hot-path layout
//!
//! The model sits on the simulator's per-instruction path (one to three
//! probes per committed memory reference), and every config of a lockstep
//! batch owns a full hierarchy, so its state is one flat array of one word
//! per way and its per-access arithmetic is shift/mask only:
//!
//! * All ways live in **one contiguous boxed slice of `u64`**, set-major:
//!   set `s` owns the block `ways[s * assoc..(s + 1) * assoc]`. No per-set
//!   `Vec`, no side arrays.
//! * Each block is kept in **recency order, most recently used first**,
//!   so the position in the block *is* the LRU state. The probe walks the
//!   block front to back, so loops and other high-locality streams usually
//!   match on the first compare. A hit at position `p` rotates
//!   `block[0..=p]` right by one; a miss evicts the last word (the true
//!   LRU, or an empty way) and shifts the whole block right by one.
//! * Each valid word is **`tag << 1 | dirty`**. Empty ways hold the
//!   sentinel [`EMPTY`] (`u64::MAX`) and always trail the valid ones:
//!   fills enter at the front and only `flush` empties ways, all at once.
//! * **Tag bound.** `line_bytes ≥ 8` is asserted, so a tag (the address
//!   shifted right by at least 3) is below 2^61. `tag << 1` therefore
//!   cannot overflow, and no stored word can equal the sentinel.
//! * Set index and tag come from **precomputed shifts/masks** (the
//!   geometry is asserted power-of-two at construction), not division.
//!
//! The replacement decisions, [`AccessOutcome`]s and [`TrafficStats`] are
//! bit-identical to the naive stamped `Vec<Vec<Line>>` model this replaced:
//! `tests/golden_stats.rs` (workspace root) pins whole-simulation counters
//! and `tests/cache_model.rs` (this crate) checks it against a retained
//! naive reference over arbitrary access streams and geometries.

use crate::stats::TrafficStats;

/// Geometry and latency of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes (power of two).
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two, ≥ 8).
    pub line_bytes: u64,
    /// Hit latency in CPU cycles.
    pub hit_latency: u64,
    /// Display name for reports.
    pub name: &'static str,
}

impl CacheConfig {
    /// Paper Table 2: 8-way 256 KB instruction L1, 1-cycle hit.
    #[must_use]
    pub fn il1_256k() -> CacheConfig {
        CacheConfig { size_bytes: 256 << 10, assoc: 8, line_bytes: 64, hit_latency: 1, name: "IL1" }
    }

    /// Paper Table 2: 4-way 64 KB data L1, 3-cycle hit.
    #[must_use]
    pub fn dl1_64k() -> CacheConfig {
        CacheConfig { size_bytes: 64 << 10, assoc: 4, line_bytes: 32, hit_latency: 3, name: "DL1" }
    }

    /// The doubled data L1 of the paper's Figure 6 first configuration
    /// (128 KB at unchanged latency).
    #[must_use]
    pub fn dl1_128k() -> CacheConfig {
        CacheConfig { size_bytes: 128 << 10, assoc: 4, line_bytes: 32, hit_latency: 3, name: "DL1x2" }
    }

    /// Paper Table 2: 4-way 512 KB unified L2, 16-cycle hit.
    #[must_use]
    pub fn l2_512k() -> CacheConfig {
        CacheConfig { size_bytes: 512 << 10, assoc: 4, line_bytes: 64, hit_latency: 16, name: "L2" }
    }

    fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.assoc))
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty line was evicted to service a miss.
    pub writeback: bool,
}

/// The word of an empty way. Valid words are `tag << 1 | dirty` with
/// `tag < 2^61` (see the module doc), so none can equal it.
const EMPTY: u64 = u64::MAX;

/// Whether `word` holds a valid, dirty line.
#[inline]
fn is_dirty(word: u64) -> bool {
    word != EMPTY && word & 1 == 1
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement. Tags only (no data — the functional emulator owns values).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// One word per way, set-major, each set's block most recently used
    /// first: `tag << 1 | dirty`, or [`EMPTY`] behind the valid ways.
    ways: Box<[u64]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// `log2(num_sets)`.
    set_shift: u32,
    assoc: usize,
    /// Quad-words per line, precomputed.
    line_qw: u64,
    stats: TrafficStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two layout with at least one
    /// set, if a line is under 8 bytes, or if the associativity is outside
    /// `1..=16` (the envelope the configuration space validates).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry for {}", cfg.name);
        assert!(cfg.line_bytes >= 8 && cfg.line_bytes.is_power_of_two());
        assert!(
            (1..=16).contains(&cfg.assoc),
            "associativity {} outside 1..=16 for {}",
            cfg.assoc,
            cfg.name
        );
        Cache {
            ways: vec![EMPTY; (sets * u64::from(cfg.assoc)) as usize].into_boxed_slice(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            assoc: cfg.assoc as usize,
            line_qw: cfg.line_bytes / 8,
            cfg,
            stats: TrafficStats::default(),
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Zeroes the statistics counters, leaving tags, dirty bits and recency
    /// untouched — sampled simulation warms the array functionally, then
    /// resets counters so a measured interval reports only its own traffic.
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::default();
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Quad-words per line (fill/writeback granularity).
    #[must_use]
    pub fn line_qw(&self) -> u64 {
        self.line_qw
    }

    /// The word range of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn block_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let base = (line & self.set_mask) as usize * self.assoc;
        (base..base + self.assoc, line >> self.set_shift)
    }

    /// Probes the cache, allocating on miss (write-allocate for stores).
    ///
    /// On a miss the LRU way is evicted; if dirty, the writeback is counted
    /// (`qw_out += line_qw`), and the fill is counted (`qw_in += line_qw`).
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let (range, tag) = self.block_tag(addr);
        let block = &mut self.ways[range];
        // Probe MRU-first: the vast majority of hits match the first word.
        // An empty way's word shifted down exceeds every tag.
        if let Some(p) = block.iter().position(|&w| w >> 1 == tag) {
            let word = block[p] | u64::from(is_write);
            block.copy_within(0..p, 1);
            block[0] = word;
            self.stats.hits += 1;
            return AccessOutcome { hit: true, writeback: false };
        }
        self.stats.misses += 1;
        // The victim is the last word: an empty way or the true LRU.
        let writeback = is_dirty(block[block.len() - 1]);
        if writeback {
            self.stats.writebacks += 1;
            self.stats.qw_out += self.line_qw;
        }
        block.copy_within(0..block.len() - 1, 1);
        block[0] = tag << 1 | u64::from(is_write);
        self.stats.qw_in += self.line_qw;
        AccessOutcome { hit: false, writeback }
    }

    /// Probes without allocating or updating state (for bounds checks and
    /// diagnostics).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (range, tag) = self.block_tag(addr);
        self.ways[range].iter().any(|&w| w >> 1 == tag)
    }

    /// Writes back and invalidates everything (context switch), returning
    /// the number of *bytes* written back — the paper's Table 4 metric.
    /// A conventional cache must write whole dirty lines.
    pub fn flush(&mut self) -> u64 {
        let dirty = self.ways.iter().filter(|&&w| is_dirty(w)).count() as u64;
        self.ways.fill(EMPTY);
        self.stats.writebacks += dirty;
        self.stats.qw_out += dirty * self.line_qw;
        dirty * self.cfg.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 32B lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 3,
            name: "tiny",
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x8, false).hit, "same 32B line");
        assert!(c.access(0x1F, true).hit);
        assert!(!c.access(0x20, false).hit, "next line");
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.qw_in, 8, "two fills x 4 qw");
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Set 0 holds lines with (line_index % 2 == 0): addresses 0x00, 0x40, 0x80…
        c.access(0x00, true); // dirty
        c.access(0x40, false);
        c.access(0x00, false); // touch: 0x40 becomes LRU
        let out = c.access(0x80, false); // evicts 0x40 (clean)
        assert!(!out.hit);
        assert!(!out.writeback);
        let out = c.access(0x40, false); // evicts 0x00 (dirty)
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().qw_out, 4);
    }

    #[test]
    fn write_allocate_marks_dirty() {
        let mut c = tiny();
        c.access(0x0, true);
        c.access(0x40, false);
        c.access(0x80, false); // evict 0x0 (LRU, dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn contains_is_side_effect_free() {
        let mut c = tiny();
        assert!(!c.contains(0x0));
        c.access(0x0, false);
        assert!(c.contains(0x0));
        assert!(c.contains(0x1F));
        assert!(!c.contains(0x20));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn flush_counts_dirty_lines_only() {
        let mut c = tiny();
        c.access(0x00, true);
        c.access(0x20, false);
        c.access(0x40, true);
        let bytes = c.flush();
        assert_eq!(bytes, 64, "two dirty 32B lines");
        assert!(!c.contains(0x00));
        assert_eq!(c.flush(), 0, "second flush finds nothing");
    }

    #[test]
    fn table2_presets_are_consistent() {
        for cfg in [
            CacheConfig::il1_256k(),
            CacheConfig::dl1_64k(),
            CacheConfig::dl1_128k(),
            CacheConfig::l2_512k(),
        ] {
            let c = Cache::new(cfg.clone());
            assert_eq!(c.config().size_bytes, cfg.size_bytes);
        }
        assert_eq!(CacheConfig::dl1_64k().hit_latency, 3);
        assert_eq!(CacheConfig::l2_512k().hit_latency, 16);
    }

    #[test]
    fn distinct_tags_same_set() {
        let mut c = tiny();
        // 2 sets: lines 0 and 2 both map to set 0 with different tags.
        c.access(0x00, false);
        c.access(0x80, false);
        assert!(c.contains(0x00) && c.contains(0x80));
        // Third distinct tag evicts LRU.
        c.access(0x100, false);
        assert!(!c.contains(0x00));
        assert!(c.contains(0x80) && c.contains(0x100));
    }

    #[test]
    fn full_associativity_order_rotates() {
        // A 16-way set, the widest supported: touch all ways, then re-touch
        // them in reverse and check every eviction hits the true LRU.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 16 * 32,
            assoc: 16,
            line_bytes: 32,
            hit_latency: 1,
            name: "assoc16",
        });
        for i in 0..16u64 {
            assert!(!c.access(i * 32, false).hit);
        }
        for i in (0..16u64).rev() {
            assert!(c.access(i * 32, false).hit, "way {i} still resident");
        }
        // LRU is now line 15 (touched first in the reverse pass ordering:
        // 15 was re-touched first, so the LRU is the *most recently* warmed
        // order's tail — line 15).
        assert!(!c.access(16 * 32, false).hit);
        assert!(!c.contains(15 * 32), "true LRU evicted");
        for i in 0..15u64 {
            assert!(c.contains(i * 32), "line {i} survives");
        }
    }
}
