//! Set-associative write-back cache model.
//!
//! # Hot-path layout
//!
//! The model sits on the simulator's per-instruction path (one to three
//! probes per committed memory reference), and every config of a lockstep
//! batch owns a full hierarchy, so its state is one flat array of one word
//! per way and its per-access arithmetic is shift/mask only:
//!
//! * All ways live in **one contiguous boxed slice of words**, set-major:
//!   set `s` owns the block `ways[s * assoc..(s + 1) * assoc]`. No per-set
//!   `Vec`, no side arrays.
//! * Each block is kept in **recency order, most recently used first**,
//!   so the position in the block *is* the LRU state. The probe walks the
//!   block front to back, so loops and other high-locality streams usually
//!   match on the first compare. A hit at position `p` rotates
//!   `block[0..=p]` right by one; a miss evicts the last word (the true
//!   LRU, or an empty way) and shifts the whole block right by one.
//! * Each valid word is **`tag << 1 | dirty`**. Empty ways hold the
//!   all-ones sentinel and always trail the valid ones: fills enter at the
//!   front and only `flush` empties ways, all at once.
//! * **Words are 32 bits wide until a tag needs more.** A cache starts
//!   with `u32` words, which hold every tag below 2^30: `tag << 1 | 1`
//!   stays below 2^31, so no word equals the `u32::MAX` sentinel, and the
//!   sentinel shifted down (2^31 − 1) exceeds every tag, so an empty way
//!   never matches a probe. The first access with a larger tag converts
//!   the array, once, to `u64` words (`u64::MAX` empty). There the bound
//!   is `line_bytes ≥ 8` (asserted): a tag is the address shifted right
//!   by at least 3 bits, so it is below 2^61, `tag << 1` cannot overflow
//!   and no word equals the sentinel. By the same shift only an address
//!   of 2^33 or more can switch a cache, and the simulated programs stay
//!   below `STACK_BASE` (2^30): every Table 2 cache keeps its 32-bit
//!   array, 57,344 tag bytes per config for IL1, DL1 and L2 together
//!   instead of 114,688.
//! * Set index and tag come from **precomputed shifts/masks** (the
//!   geometry is asserted power-of-two at construction), not division.
//!
//! The replacement decisions, [`AccessOutcome`]s and [`TrafficStats`] are
//! bit-identical to the naive stamped `Vec<Vec<Line>>` model this replaced:
//! `tests/golden_stats.rs` (workspace root) pins whole-simulation counters
//! and `tests/cache_model.rs` (this crate) checks it against a retained
//! naive reference over arbitrary access streams and geometries.

use std::ops::{BitOr, Shl, Shr};

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

/// One way of a set: `tag << 1 | dirty`, or the all-ones [`Word::EMPTY`].
trait Word:
    Copy
    + Eq
    + From<bool>
    + BitOr<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    /// The word of an empty way.
    const EMPTY: Self;

    /// Whether the word holds a valid, dirty line (its low bit is set).
    #[inline]
    fn is_dirty(self) -> bool {
        self != Self::EMPTY && self >> 1 << 1 != self
    }
}

impl Word for u32 {
    const EMPTY: u32 = u32::MAX;
}

impl Word for u64 {
    const EMPTY: u64 = u64::MAX;
}

/// Tags below this fit the 32-bit words (see the module doc).
const NARROW_TAGS: u64 = 1 << 30;

/// A 32-bit word as the equal 64-bit one.
fn widen(word: u32) -> u64 {
    if word == u32::EMPTY {
        u64::EMPTY
    } else {
        u64::from(word)
    }
}

/// The way array, in whichever word width its tags need.
#[derive(Debug, Clone)]
enum Ways {
    /// Every tag seen so far is below [`NARROW_TAGS`].
    Narrow(Box<[u32]>),
    /// A tag reached [`NARROW_TAGS`]; the array was widened once.
    Wide(Box<[u64]>),
}

/// The same lines, dirty bits and recency, whatever the word widths.
impl PartialEq for Ways {
    fn eq(&self, other: &Ways) -> bool {
        match (self, other) {
            (Ways::Narrow(a), Ways::Narrow(b)) => a == b,
            (Ways::Wide(a), Ways::Wide(b)) => a == b,
            (Ways::Narrow(n), Ways::Wide(w)) | (Ways::Wide(w), Ways::Narrow(n)) => {
                n.len() == w.len() && n.iter().zip(w.iter()).all(|(&n, &w)| widen(n) == w)
            }
        }
    }
}

/// One access to a set's block: on a hit, moves the line to the front
/// (dirty on a write); on a miss, evicts the last word and fills `tag` at
/// the front. Returns `(hit, whether a dirty line was evicted)`.
#[inline]
fn touch<W: Word>(block: &mut [W], tag: W, is_write: bool) -> (bool, bool) {
    // Probe MRU-first: the vast majority of hits match the first word.
    // An empty way's word shifted down exceeds every tag.
    if let Some(p) = block.iter().position(|&w| w >> 1 == tag) {
        let word = block[p] | W::from(is_write);
        block.copy_within(0..p, 1);
        block[0] = word;
        return (true, false);
    }
    // The victim is the last word: an empty way or the true LRU.
    let writeback = block[block.len() - 1].is_dirty();
    block.copy_within(0..block.len() - 1, 1);
    block[0] = tag << 1 | W::from(is_write);
    (false, writeback)
}

/// Empties every way, returning how many held dirty lines.
fn empty<W: Word>(ways: &mut [W]) -> u64 {
    let dirty = ways.iter().filter(|w| w.is_dirty()).count();
    ways.fill(W::EMPTY);
    dirty as u64
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement. Tags only (no data — the functional emulator owns values).
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    cfg: CacheConfig,
    /// One word per way, set-major, each set's block most recently used
    /// first: `tag << 1 | dirty`, or the empty sentinel behind the valid
    /// ways.
    ways: Ways,
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
            ways: Ways::Narrow(vec![u32::EMPTY; (sets * u64::from(cfg.assoc)) as usize].into()),
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
        let (hit, writeback) = match &mut self.ways {
            Ways::Narrow(ways) if tag < NARROW_TAGS => {
                touch(&mut ways[range], tag as u32, is_write)
            }
            Ways::Wide(ways) => touch(&mut ways[range], tag, is_write),
            Ways::Narrow(ways) => {
                let mut wide: Box<[u64]> = ways.iter().map(|&w| widen(w)).collect();
                let outcome = touch(&mut wide[range], tag, is_write);
                self.ways = Ways::Wide(wide);
                outcome
            }
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if writeback {
                self.stats.writebacks += 1;
                self.stats.qw_out += self.line_qw;
            }
            self.stats.qw_in += self.line_qw;
        }
        AccessOutcome { hit, writeback }
    }

    /// Probes without allocating or updating state (for bounds checks and
    /// diagnostics).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (range, tag) = self.block_tag(addr);
        match &self.ways {
            Ways::Narrow(ways) => {
                tag < NARROW_TAGS && ways[range].iter().any(|&w| w >> 1 == tag as u32)
            }
            Ways::Wide(ways) => ways[range].iter().any(|&w| w >> 1 == tag),
        }
    }

    /// Writes back and invalidates everything (context switch), returning
    /// the number of *bytes* written back — the paper's Table 4 metric.
    /// A conventional cache must write whole dirty lines.
    pub fn flush(&mut self) -> u64 {
        let dirty = match &mut self.ways {
            Ways::Narrow(ways) => empty(ways),
            Ways::Wide(ways) => empty(ways),
        };
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

    #[test]
    fn a_large_tag_widens_the_words_once() {
        // Below 2^30 the tags live in 32-bit words; the first larger tag
        // converts the array, keeping every line, dirty bit and recency.
        let mut c = tiny();
        let high = 1u64 << 40; // tag 2^34 with 32B lines and 2 sets
        c.access(0x00, true);
        c.access(0x40, false);
        let narrow = c.clone();
        assert!(matches!(c.ways, Ways::Narrow(_)));
        assert!(!c.contains(high), "a wide tag is never in a narrow array");
        assert!(!c.access(high, true).hit);
        assert!(matches!(c.ways, Ways::Wide(_)));
        assert!(c.contains(high) && c.contains(0x40) && !c.contains(0x00));
        let out = c.access(0x80, false); // evicts 0x40 (clean, now LRU)
        assert!(!out.hit && !out.writeback);
        assert!(c.access(high, false).hit);
        assert_eq!(c.flush(), 32, "the dirty wide line");

        let mut wide = narrow.clone();
        wide.ways = match &narrow.ways {
            Ways::Narrow(w) => Ways::Wide(w.iter().map(|&w| widen(w)).collect()),
            Ways::Wide(_) => unreachable!("tiny caches start narrow"),
        };
        assert_eq!(narrow, wide, "equality ignores the word width");
        wide.access(0x00, false);
        assert_ne!(narrow, wide, "but not the recency");
    }
}
