//! A buffered stream of [`Retired`] records: [`LiveSource`] steps an
//! [`Emulator`] one record at a time and [`RecordRing`] holds the records
//! in a bounded, seq-indexed window that any number of consumers walk
//! without re-executing the program; [`RecordRing::fill`] never overwrites
//! a record an attached consumer still needs (the caller passes the oldest
//! live seq). No simulation path builds records any more: a timing run
//! writes its facts from inside the stepping loop ([`Emulator::run_with`]).
//! Both types are kept because the repository benchmark (`e2e-bench/`)
//! times this record path.

use std::ops::Range;

use svf_isa::Program;

use crate::machine::{EmuError, Emulator};
use crate::retired::Retired;

/// Live functional execution as a record source for a [`RecordRing`].
/// Kept because the repository benchmark (`e2e-bench/`) calls it.
#[derive(Debug)]
pub struct LiveSource {
    emu: Emulator,
}

impl LiveSource {
    /// Loads `program` into a fresh emulator.
    #[must_use]
    pub fn new(program: &Program) -> LiveSource {
        LiveSource { emu: Emulator::new(program) }
    }
}

/// A bounded, seq-indexed window over a record stream. Records live at
/// `seq & mask()`; the window covers `[oldest live seq, hi())`, where the
/// caller of [`RecordRing::fill`] defines "oldest live" — the producer
/// writes each record exactly once and consumers read it in place. Kept
/// because the repository benchmark (`e2e-bench/`) calls it.
#[derive(Debug)]
pub struct RecordRing {
    records: Box<[Retired]>,
    mask: u64,
    hi: u64,
    limit: u64,
    done: bool,
}

impl RecordRing {
    /// A ring holding `capacity` records (rounded up to a power of two)
    /// that will produce at most `limit` records in total — the stream's
    /// instruction budget.
    #[must_use]
    pub fn new(capacity: usize, limit: u64) -> RecordRing {
        let cap = capacity.next_power_of_two().max(1);
        RecordRing {
            records: vec![Retired::PLACEHOLDER; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            hi: 0,
            limit,
            done: false,
        }
    }

    /// Produced records: sequence numbers `0..hi()` have been written
    /// (those at least `hi() - capacity` are still resident).
    #[must_use]
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Whether the stream ended (source exhausted or budget reached).
    #[must_use]
    pub fn done(&self) -> bool {
        self.done
    }

    /// Ring index mask (`capacity - 1`).
    #[must_use]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The record at `seq`, which must still be resident.
    #[inline]
    #[must_use]
    pub fn get(&self, seq: u64) -> &Retired {
        debug_assert!(seq < self.hi && self.hi - seq <= self.mask + 1, "seq {seq} not resident");
        &self.records[(seq & self.mask) as usize]
    }

    /// Pulls records from `src` until the ring is full (relative to
    /// `keep_from`, the oldest seq any consumer still needs), the budget is
    /// exhausted, or the source ends. Returns the newly produced seq range
    /// so callers can post-process exactly the fresh records.
    ///
    /// # Errors
    ///
    /// Propagates the emulator's [`EmuError`]; records produced before the
    /// failure remain readable.
    pub fn fill(&mut self, src: &mut LiveSource, keep_from: u64) -> Result<Range<u64>, EmuError> {
        debug_assert!(keep_from <= self.hi, "cannot retain records never produced");
        let lo = self.hi;
        let room = keep_from.saturating_add(self.mask + 1);
        while !self.done && self.hi < room {
            if self.hi >= self.limit {
                self.done = true;
                break;
            }
            if src.emu.is_halted() {
                self.done = true;
                break;
            }
            src.emu.step_record(&mut self.records[(self.hi & self.mask) as usize])?;
            self.hi += 1;
        }
        Ok(lo..self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_asm::assemble;

    const KERNEL: &str = "
main:
    lda $sp, -16($sp)
    li $t0, 5
.loop:
    stq $t0, 0($sp)
    subq $t0, 1, $t0
    bne $t0, .loop
    lda $sp, 16($sp)
    halt";

    fn reference_stream(p: &Program) -> Vec<Retired> {
        let mut emu = Emulator::new(p);
        let mut out = Vec::new();
        while !emu.is_halted() {
            out.push(emu.step().expect("runs"));
        }
        out
    }

    #[test]
    fn ring_windows_respect_retention_and_budget() {
        let p = assemble(KERNEL).expect("assembles");
        let want = reference_stream(&p);
        assert!(want.len() > 8, "kernel long enough to wrap a tiny ring");
        let mut src = LiveSource::new(&p);
        let mut ring = RecordRing::new(4, u64::MAX);
        let first = ring.fill(&mut src, 0).expect("fills");
        assert_eq!(first, 0..4, "ring fills to capacity");
        assert!(!ring.done());
        // Nothing released: another fill is a no-op.
        assert_eq!(ring.fill(&mut src, 0).expect("fills"), 4..4);
        // Walk the stream window by window, checking every record.
        let mut next = 0u64;
        loop {
            while next < ring.hi() {
                assert_eq!(ring.get(next), &want[next as usize], "record {next}");
                next += 1;
            }
            if ring.done() {
                break;
            }
            let fresh = ring.fill(&mut src, next).expect("fills");
            assert!(!fresh.is_empty() || ring.done(), "fill must make progress");
        }
        assert_eq!(next as usize, want.len());
        assert_eq!(ring.fill(&mut src, next).expect("stays ended"), next..next);
    }

    #[test]
    fn budget_caps_the_stream() {
        let p = assemble(KERNEL).expect("assembles");
        let mut src = LiveSource::new(&p);
        let mut ring = RecordRing::new(64, 7);
        let got = ring.fill(&mut src, 0).expect("fills");
        assert_eq!(got, 0..7);
        assert!(ring.done(), "budget exhaustion ends the stream");
    }
}
