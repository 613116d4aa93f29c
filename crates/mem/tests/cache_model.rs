//! Property tests: the set-associative cache behaves exactly like a naive
//! reference model (per-set LRU lists), and the stack cache like a naive
//! direct-mapped model.

use proptest::prelude::*;
use svf_mem::{Cache, CacheConfig, StackCache, StackCacheConfig};

/// Naive reference: per-set `Vec<Vec<_>>` ordered most-recently-used first —
/// the structure the production [`Cache`] used before it was flattened, kept
/// here as the oracle the flat one-word-per-way model must match.
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>, // (tag, dirty), MRU first
    assoc: usize,
    line: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    qw_in: u64,
    qw_out: u64,
}

impl RefCache {
    fn new(sets: usize, assoc: usize, line: u64) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); sets],
            assoc,
            line,
            accesses: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            qw_in: 0,
            qw_out: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> (bool, bool) {
        self.accesses += 1;
        let line_no = addr / self.line;
        let set = (line_no % self.sets.len() as u64) as usize;
        let tag = line_no / self.sets.len() as u64;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos);
            s.insert(0, (t, d || write));
            self.hits += 1;
            return (true, false);
        }
        self.misses += 1;
        let mut wb = false;
        if s.len() == self.assoc {
            let (_, dirty) = s.pop().expect("full set");
            if dirty {
                wb = true;
                self.writebacks += 1;
                self.qw_out += self.line / 8;
            }
        }
        s.insert(0, (tag, write));
        self.qw_in += self.line / 8;
        (false, wb)
    }

    /// Bytes a flush must write back: every resident dirty line, whole.
    fn dirty_bytes(&self) -> u64 {
        let dirty = self.sets.iter().flatten().filter(|&&(_, d)| d).count() as u64;
        dirty * self.line
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cache_matches_lru_reference(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        // 4 sets x 2 ways x 32B lines = 256 bytes; 64 distinct lines force
        // plenty of conflict evictions.
        let cfg = CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 32, hit_latency: 3, name: "t" };
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(4, 2, 32);
        for (line_no, write) in ops {
            let addr = line_no * 32 + (line_no % 4) * 8; // wander within the line
            let out = dut.access(addr, write);
            let (hit, wb) = model.access(addr, write);
            prop_assert_eq!(out.hit, hit, "hit/miss diverged at line {}", line_no);
            prop_assert_eq!(out.writeback, wb, "writeback diverged at line {}", line_no);
        }
        prop_assert_eq!(dut.stats().qw_in, model.qw_in);
        prop_assert_eq!(dut.stats().qw_out, model.qw_out);
    }

    #[test]
    fn stack_cache_matches_direct_mapped_reference(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let cfg = StackCacheConfig { size_bytes: 256, line_bytes: 32, hit_latency: 2 };
        let mut dut = StackCache::new(cfg);
        // Direct-mapped = associativity 1.
        let mut model = RefCache::new(8, 1, 32);
        for (line_no, write) in ops {
            let addr = 0x3000_0000 + line_no * 32;
            let hit = dut.access(addr, write);
            let (ref_hit, _) = model.access(addr, write);
            prop_assert_eq!(hit, ref_hit, "hit/miss diverged at line {}", line_no);
        }
        prop_assert_eq!(dut.stats().qw_in, model.qw_in);
        prop_assert_eq!(dut.stats().qw_out, model.qw_out);
    }

    #[test]
    fn cache_matches_reference_on_arbitrary_geometry(
        sets_log2 in 0u32..4,
        assoc in 1u32..17,
        line_log2 in 3u64..7,
        top in any::<bool>(),
        base_lines in 0u64..1024,
        ops in proptest::collection::vec((0u64..48, any::<bool>()), 1..400)
    ) {
        // Geometry drawn from the full supported envelope: 1–8 sets,
        // 1–16 ways, 8–64B lines. The whole TrafficStats must match the
        // naive model, counter for counter, not just per-access outcomes.
        // Half the streams sit at a line-aligned base near the top of the
        // address space, so tags reach toward 2^61: the packed
        // `tag << 1 | dirty` word and the empty-way sentinel must never
        // collide with a real line.
        let sets = 1u64 << sets_log2;
        let line = 1u64 << line_log2;
        let base = if top {
            ((u64::MAX >> line_log2) - 47 - base_lines) << line_log2
        } else {
            base_lines << line_log2
        };
        let cfg = CacheConfig {
            size_bytes: sets * u64::from(assoc) * line,
            assoc,
            line_bytes: line,
            hit_latency: 1,
            name: "geom",
        };
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(sets as usize, assoc as usize, line);
        for (i, (line_no, write)) in ops.into_iter().enumerate() {
            let addr = base + line_no * line + (line_no % (line / 8)) * 8 + (line_no % 8);
            let out = dut.access(addr, write);
            let (hit, wb) = model.access(addr, write);
            prop_assert_eq!(out.hit, hit, "hit/miss diverged at op {} line {}", i, line_no);
            prop_assert_eq!(out.writeback, wb, "writeback diverged at op {} line {}", i, line_no);
            prop_assert_eq!(dut.contains(addr), true, "just-accessed line resident");
        }
        let s = dut.stats();
        prop_assert_eq!(s.accesses, model.accesses);
        prop_assert_eq!(s.hits, model.hits);
        prop_assert_eq!(s.misses, model.misses);
        prop_assert_eq!(s.writebacks, model.writebacks);
        prop_assert_eq!(s.qw_in, model.qw_in);
        prop_assert_eq!(s.qw_out, model.qw_out);
    }

    #[test]
    fn flush_returns_exactly_dirty_line_bytes(
        ops in proptest::collection::vec((0u64..32, any::<bool>()), 1..100)
    ) {
        let cfg = CacheConfig { size_bytes: 1024, assoc: 4, line_bytes: 64, hit_latency: 3, name: "t" };
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(4, 4, 64);
        for (line_no, write) in ops {
            // 1024B/64B = 16 lines with 32 distinct: evictions can clean.
            dut.access(line_no * 64, write);
            model.access(line_no * 64, write);
        }
        // The flush writes back exactly the resident dirty lines, whole.
        let want = model.dirty_bytes();
        prop_assert_eq!(dut.flush(), want);
        prop_assert_eq!(dut.stats().writebacks, model.writebacks + want / 64);
        prop_assert_eq!(dut.stats().qw_out, model.qw_out + want / 8);
        prop_assert_eq!(dut.flush(), 0, "second flush is empty");
    }
}
