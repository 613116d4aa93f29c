//! A flat, linear-probed last-writer table: quad-word address → youngest
//! in-flight store seq, split by addressing base (`$sp` vs. other).
//!
//! This replaces the two `HashMap<u64, u64>` alias maps that used to sit on
//! the per-instruction dispatch path. Three properties make it cheap:
//!
//! * **One probe serves both classes.** The morph path needs the youngest
//!   `$sp` store *and* the youngest non-`$sp` store to a quad-word; both
//!   live in one entry, so dispatch does a single multiply-hash probe where
//!   it used to do up to two SipHash lookups.
//! * **Stale values are harmless.** Consumers filter returned seqs against
//!   their commit head (`seq >= head_seq`), so a store that has already
//!   committed is invisible and probing needs no tombstones. That same
//!   filter is what makes the table a pure function of the record stream:
//!   the lockstep facts builder maintains it once per stream and every
//!   timing model shares the answers.
//! * **Dead stores are forgotten.** Dispatching instruction `c` needs
//!   `c - head_seq < ruu_size`, so a store at `p <= c - H`, where `H` (the
//!   *horizon*) is the largest RUU among the configs reading the stream,
//!   is behind every consumer's commit head. When the table reaches its
//!   50% load limit it first drops every entry whose stores are all that
//!   old, and doubles only if the survivors still fill a quarter of it,
//!   so at least a quarter of the slots fill before the next rehash and
//!   rehashing stays amortized O(1) per store. The survivors are at most
//!   the stores among the last `H - 1` instructions, so for any `H` up to
//!   512 (every Table 2 machine) the table never grows past its initial
//!   2,048 slots, however many quad-words the program writes. Answers
//!   differ from an unbounded table's only in seqs no consumer's filter
//!   lets through.

/// "No store recorded" sentinel (also used by the pipeline as
/// `NO_PRODUCER`).
pub(crate) const NO_SEQ: u64 = u64::MAX;

/// Empty-slot key sentinel. Quad-word indices are byte addresses divided by
/// eight, so `u64::MAX` can never be a real key.
const EMPTY_QW: u64 = u64::MAX;

/// Fibonacci-hash multiplier (2^64 / φ): spreads the low bits of
/// sequential stack addresses across the table.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct AliasEntry {
    qw: u64,
    sp: u64,
    other: u64,
}

const EMPTY: AliasEntry = AliasEntry { qw: EMPTY_QW, sp: NO_SEQ, other: NO_SEQ };

impl AliasEntry {
    /// Seq of the youngest store recorded in the entry.
    fn youngest(&self) -> u64 {
        [self.sp, self.other].into_iter().filter(|&s| s != NO_SEQ).max().unwrap_or(NO_SEQ)
    }
}

/// The table. Capacity is a power of two and stays at or under 50% load,
/// so probe chains stay short.
#[derive(Debug, Clone)]
pub(crate) struct AliasTable {
    slots: Box<[AliasEntry]>,
    /// `64 - log2(capacity)`: the multiply-shift hash's right shift.
    shift: u32,
    len: usize,
    /// The largest RUU among the table's consumers: a store `horizon` or
    /// more seqs older than a probe is invisible to all of them.
    horizon: u64,
}

impl AliasTable {
    /// An empty table for consumers whose RUUs hold at most `horizon`
    /// instructions (`u64::MAX` forgets nothing).
    pub(crate) fn new(horizon: u64) -> AliasTable {
        AliasTable::with_pow2(2048, horizon)
    }

    fn with_pow2(cap: usize, horizon: u64) -> AliasTable {
        debug_assert!(cap.is_power_of_two());
        AliasTable {
            slots: vec![EMPTY; cap].into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
            len: 0,
            horizon,
        }
    }

    /// Number of slots (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Index of `qw`'s entry, or of the empty slot where it would go.
    #[inline]
    fn find(&self, qw: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (qw.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let k = self.slots[i].qw;
            if k == qw || k == EMPTY_QW {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// `(youngest $sp-store seq, youngest other-store seq)` recorded for
    /// the quad-word; [`NO_SEQ`] where none was recorded. Values may be
    /// stale (already committed) or forgotten (older than the horizon) —
    /// callers filter against the commit head.
    #[inline]
    pub(crate) fn get(&self, qw: u64) -> (u64, u64) {
        let e = &self.slots[self.find(qw)];
        if e.qw == qw {
            (e.sp, e.other)
        } else {
            (NO_SEQ, NO_SEQ)
        }
    }

    /// Records `seq` as the youngest store to `qw` for its base class.
    /// Seqs must not decrease from one call to the next.
    #[inline]
    pub(crate) fn record(&mut self, qw: u64, seq: u64, is_sp: bool) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.make_room(seq);
        }
        let i = self.find(qw);
        let e = &mut self.slots[i];
        if e.qw == EMPTY_QW {
            e.qw = qw;
            self.len += 1;
        }
        if is_sp {
            e.sp = seq;
        } else {
            e.other = seq;
        }
    }

    /// Rehashes at the load limit, ahead of recording a store at `seq`:
    /// entries whose stores all sit at or below `seq - horizon` are
    /// dropped (every later probe's consumers have committed them), and
    /// the capacity doubles only if the survivors still fill a quarter of
    /// it. While `seq < horizon` everything survives.
    #[cold]
    fn make_room(&mut self, seq: u64) {
        let live = |e: &AliasEntry| {
            e.qw != EMPTY_QW && seq.checked_sub(self.horizon).is_none_or(|dead| e.youngest() > dead)
        };
        let survivors = self.slots.iter().filter(|e| live(e)).count();
        let cap = if survivors * 4 >= self.slots.len() {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        let mut fresh = AliasTable::with_pow2(cap, self.horizon);
        for e in self.slots.iter().filter(|e| live(e)) {
            let i = fresh.find(e.qw);
            fresh.slots[i] = *e;
        }
        fresh.len = survivors;
        *self = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn record_get_round_trip() {
        let mut t = AliasTable::new(u64::MAX);
        assert_eq!(t.get(100), (NO_SEQ, NO_SEQ));
        t.record(100, 7, true);
        assert_eq!(t.get(100), (7, NO_SEQ));
        t.record(100, 9, false);
        assert_eq!(t.get(100), (7, 9));
        t.record(100, 11, true);
        assert_eq!(t.get(100), (11, 9), "younger $sp store replaces older");
        assert_eq!(t.get(555), (NO_SEQ, NO_SEQ), "absent key");
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut t = AliasTable::with_pow2(4, u64::MAX);
        // Far past the initial capacity, forcing several doublings and
        // plenty of probe collisions on the way.
        for qw in 0..10_000u64 {
            t.record(qw, qw * 2, qw % 2 == 0);
        }
        for qw in 0..10_000u64 {
            let (sp, other) = t.get(qw);
            if qw % 2 == 0 {
                assert_eq!((sp, other), (qw * 2, NO_SEQ), "qw {qw}");
            } else {
                assert_eq!((sp, other), (NO_SEQ, qw * 2), "qw {qw}");
            }
        }
        assert_eq!(t.get(10_001), (NO_SEQ, NO_SEQ));
    }

    /// Whether a consumer whose RUU holds `horizon` instructions can still
    /// have the store at `p` in flight when it dispatches instruction `c`
    /// (`p > c - horizon`).
    fn visible(p: u64, c: u64, horizon: u64) -> bool {
        p != NO_SEQ && p.saturating_add(horizon) > c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bounded_answers_equal_unbounded_ones_behind_the_filter(
            ops in vec((0u64..96, 0u8..4), 1..1500),
            horizon in prop_oneof![Just(1u64), 2u64..9, 9u64..200, Just(1_000_000u64)],
        ) {
            // Instruction `c` of the stream probes a quad-word and, half
            // the time, then stores to it. A small start capacity forces
            // the bounded table through many drop-or-double rehashes.
            let mut bounded = AliasTable::with_pow2(4, horizon);
            let mut unbounded = AliasTable::with_pow2(4, u64::MAX);
            for (c, &(qw, kind)) in ops.iter().enumerate() {
                let c = c as u64;
                let (b, u) = (bounded.get(qw), unbounded.get(qw));
                for (got, want) in [(b.0, u.0), (b.1, u.1)] {
                    let want = visible(want, c, horizon).then_some(want);
                    let got = visible(got, c, horizon).then_some(got);
                    prop_assert_eq!(got, want, "qw {} at seq {} (horizon {})", qw, c, horizon);
                }
                if kind >= 2 {
                    bounded.record(qw, c, kind == 2);
                    unbounded.record(qw, c, kind == 2);
                }
            }
            if horizon as usize > ops.len() {
                prop_assert_eq!(bounded.capacity(), unbounded.capacity(), "nothing dropped");
            }
        }
    }

    #[test]
    fn a_short_horizon_keeps_the_initial_capacity() {
        // 100,000 distinct quad-words, each stored once: with a 256-entry
        // horizon at most 256 entries are ever live.
        let mut t = AliasTable::new(256);
        for qw in 0..100_000u64 {
            t.record(qw, qw, false);
        }
        assert_eq!(t.capacity(), 2048);
        assert_eq!(t.get(99_999), (NO_SEQ, 99_999), "the youngest store survives");
        // A horizon that keeps a quarter of the slots live doubles them.
        let mut t = AliasTable::new(513);
        for qw in 0..100_000u64 {
            t.record(qw, qw, false);
        }
        assert_eq!(t.capacity(), 4096);
    }
}
