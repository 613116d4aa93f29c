//! Branch predictors.
//!
//! The gshare state is kept flat for the per-branch hot path: the BTB is a
//! Fibonacci-hashed linear-probe table (same idiom as the pipeline's
//! alias table) instead of a `HashMap`, and the return-address stack is a
//! fixed ring instead of a `Vec` that shifted all entries on overflow.
//! Both are exact-semantics replacements — predictions are identical.

use svf_isa::ControlKind;

use crate::config::PredictorKind;

/// A branch predictor consulted at fetch. Because the simulator is
/// functional-first, the predictor is asked to *predict and immediately
/// learn* each committed branch; the return value says whether fetch can
/// continue down the (correct) path or must stall until the branch resolves.
// One `Predictor` exists per pipeline and it is consulted on every control
// instruction; keeping the gshare state inline (rather than boxed) saves a
// pointer chase on that path at the cost of a large-but-singleton enum.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
pub enum Predictor {
    /// Never mispredicts.
    Perfect,
    /// Gshare direction predictor + BTB + return-address stack.
    Gshare(Gshare),
}

impl Predictor {
    /// Builds a predictor from the configuration (`history_bits` sizes a
    /// gshare table and is ignored by the perfect predictor).
    #[must_use]
    pub fn new(kind: PredictorKind, history_bits: u32) -> Predictor {
        match kind {
            PredictorKind::Perfect => Predictor::Perfect,
            PredictorKind::Gshare => Predictor::Gshare(Gshare::new(history_bits)),
        }
    }

    /// Predicts the committed control instruction at `pc` of kind `kind`,
    /// whose outcome was `taken` to `target` (the next PC), updates
    /// predictor state with that outcome, and returns `true` when the
    /// prediction was correct: what fetch and functional warming train on.
    /// [`ControlKind::None`] is predicted trivially.
    #[inline]
    pub fn train(&mut self, pc: u64, kind: ControlKind, taken: bool, target: u64) -> bool {
        match self {
            Predictor::Perfect => true,
            Predictor::Gshare(g) => g.train(pc, kind, taken, target),
        }
    }
}

/// Empty-slot key sentinel for the BTB: PCs live in the text segment, so
/// `u64::MAX` can never be a real key.
const BTB_EMPTY: u64 = u64::MAX;

/// Fibonacci-hash multiplier (2^64 / φ): spreads the low bits of nearby
/// branch PCs across the table.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Flat open-addressed branch-target buffer with exact-map semantics:
/// capacity is a power of two and doubles past 50% load, so probe chains
/// stay short and no entry is ever lost (identical predictions to the
/// `HashMap` this replaced).
#[derive(Debug, PartialEq)]
struct Btb {
    /// `(pc, target)` pairs; `pc == BTB_EMPTY` marks a vacant slot.
    slots: Box<[(u64, u64)]>,
    /// `64 - log2(capacity)`: the multiply-shift hash's right shift.
    shift: u32,
    len: usize,
}

impl Btb {
    fn new() -> Btb {
        Btb::with_pow2(256)
    }

    fn with_pow2(cap: usize) -> Btb {
        debug_assert!(cap.is_power_of_two());
        Btb {
            slots: vec![(BTB_EMPTY, 0); cap].into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Index of `pc`'s entry, or of the empty slot where it would go.
    #[inline]
    fn find(&self, pc: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (pc.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let k = self.slots[i].0;
            if k == pc || k == BTB_EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The recorded target for `pc`, if any.
    #[inline]
    fn get(&self, pc: u64) -> Option<u64> {
        let (k, target) = self.slots[self.find(pc)];
        (k == pc).then_some(target)
    }

    /// Records (or replaces) the target for `pc`.
    #[inline]
    fn insert(&mut self, pc: u64, target: u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.find(pc);
        if self.slots[i].0 == BTB_EMPTY {
            self.len += 1;
        }
        self.slots[i] = (pc, target);
    }

    fn grow(&mut self) {
        let mut bigger = Btb::with_pow2(self.slots.len() * 2);
        for &(pc, target) in self.slots.iter().filter(|s| s.0 != BTB_EMPTY) {
            let i = bigger.find(pc);
            bigger.slots[i] = (pc, target);
        }
        bigger.len = self.len;
        *self = bigger;
    }
}

/// Hardware-style return-address stack: a fixed ring that silently
/// overwrites the oldest entry on overflow — what `Vec::remove(0)` +
/// `push` modeled, without shifting every entry.
#[derive(Debug, PartialEq)]
struct Ras {
    ring: [u64; Ras::CAP],
    /// Ring position one past the most recent entry.
    top: usize,
    /// Live entries (≤ CAP).
    len: usize,
}

impl Ras {
    const CAP: usize = 32;

    fn new() -> Ras {
        Ras { ring: [0; Ras::CAP], top: 0, len: 0 }
    }

    #[inline]
    fn push(&mut self, ret_addr: u64) {
        self.ring[self.top] = ret_addr;
        self.top = (self.top + 1) % Ras::CAP;
        self.len = (self.len + 1).min(Ras::CAP);
    }

    #[inline]
    fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.top = (self.top + Ras::CAP - 1) % Ras::CAP;
        Some(self.ring[self.top])
    }
}

/// Gshare with 2-bit saturating counters, a BTB for indirect jumps, and a
/// return-address stack for `ret`.
#[derive(Debug, PartialEq)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    history: u64,
    btb: Btb,
    ras: Ras,
}

impl Gshare {
    /// Builds a gshare predictor with a `2^history_bits`-entry pattern
    /// history table.
    #[must_use]
    pub fn new(history_bits: u32) -> Gshare {
        let n = 1usize << history_bits;
        Gshare {
            table: vec![2; n], // weakly taken
            mask: (n as u64) - 1,
            history: 0,
            btb: Btb::new(),
            ras: Ras::new(),
        }
    }

    fn train(&mut self, pc: u64, kind: ControlKind, taken: bool, target: u64) -> bool {
        match kind {
            ControlKind::Cond => {
                let idx = (((pc >> 2) ^ self.history) & self.mask) as usize;
                let predicted_taken = self.table[idx] >= 2;
                // 2-bit saturating update.
                if taken {
                    self.table[idx] = (self.table[idx] + 1).min(3);
                } else {
                    self.table[idx] = self.table[idx].saturating_sub(1);
                }
                self.history = ((self.history << 1) | u64::from(taken)) & self.mask;
                predicted_taken == taken
            }
            // Direct unconditional: target known at decode.
            ControlKind::Jump => true,
            ControlKind::Call => {
                self.ras.push(pc + 4);
                true
            }
            ControlKind::Return => self.ras.pop() == Some(target),
            ControlKind::Indirect | ControlKind::IndirectCall => {
                let predicted = self.btb.get(pc);
                self.btb.insert(pc, target);
                if kind == ControlKind::IndirectCall {
                    self.ras.push(pc + 4);
                }
                predicted == Some(target)
            }
            ControlKind::None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains `p` on the conditional branch at `pc`.
    fn cond_branch(p: &mut Predictor, pc: u64, taken: bool) -> bool {
        p.train(pc, ControlKind::Cond, taken, if taken { pc + 20 } else { pc + 4 })
    }

    #[test]
    fn perfect_never_mispredicts() {
        let mut p = Predictor::new(PredictorKind::Perfect, 12);
        for i in 0..100 {
            assert!(cond_branch(&mut p, 0x1000, i % 3 == 0));
        }
    }

    #[test]
    fn gshare_learns_a_bias() {
        let mut p = Predictor::new(PredictorKind::Gshare, 12);
        let mut wrong = 0;
        for _ in 0..100 {
            if !cond_branch(&mut p, 0x1000, true) {
                wrong += 1;
            }
        }
        assert!(wrong <= 1, "always-taken branch should be learned, got {wrong} wrong");
    }

    #[test]
    fn gshare_struggles_with_random_pattern() {
        let mut p = Predictor::new(PredictorKind::Gshare, 4);
        // A pseudo-random pattern long enough to defeat a 4-bit history.
        let mut x = 0x12345u64;
        let mut wrong = 0;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !cond_branch(&mut p, 0x1000, (x >> 40) & 1 == 1) {
                wrong += 1;
            }
        }
        assert!(wrong > 200, "random branches must mispredict often, got {wrong}");
    }

    #[test]
    fn ras_predicts_matched_calls() {
        let mut g = Predictor::Gshare(Gshare::new(8));
        assert!(g.train(0x1000, ControlKind::Call, true, 0x1194));
        assert!(g.train(0x1200, ControlKind::Return, true, 0x1004), "RAS should predict the return");
        // A second return with an empty RAS mispredicts.
        assert!(!g.train(0x1200, ControlKind::Return, true, 0x1004));
    }

    #[test]
    fn btb_survives_growth_and_collisions() {
        let mut b = Btb::with_pow2(4);
        for i in 0..1000u64 {
            b.insert(0x1000 + i * 4, 0x2000 + i);
        }
        for i in 0..1000u64 {
            assert_eq!(b.get(0x1000 + i * 4), Some(0x2000 + i), "pc {i}");
        }
        assert_eq!(b.get(0x9998), None);
        b.insert(0x1000, 0xAAAA);
        assert_eq!(b.get(0x1000), Some(0xAAAA), "replacement");
    }

    #[test]
    fn ras_ring_overflow_drops_oldest() {
        let mut r = Ras::new();
        for i in 0..40u64 {
            r.push(i);
        }
        for i in (8..40u64).rev() {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None, "entries 0..8 were overwritten");
    }

    #[test]
    fn btb_learns_indirect_targets() {
        let mut g = Predictor::Gshare(Gshare::new(8));
        assert!(!g.train(0x2000, ControlKind::Indirect, true, 0x3000), "cold BTB misses");
        assert!(g.train(0x2000, ControlKind::Indirect, true, 0x3000), "warm BTB hits");
    }
}
