//! Committed-record streams: one functional stream, many consumers.
//!
//! A [`RecordSource`] produces [`Retired`] records one at a time — either
//! live from an [`Emulator`] ([`LiveSource`]) or replayed from a captured
//! binary trace ([`TraceSource`]; `svf-cpu`'s lockstep timing replays a
//! trace through it). A [`RecordRing`] buffers the stream into a bounded,
//! seq-indexed window so any number of consumers can walk the same records
//! without the producer re-executing per consumer: the ring is filled once
//! per window, consumers read records by sequence number, and
//! [`RecordRing::fill`] never overwrites a record an attached consumer
//! still needs (the caller passes the oldest live seq). A live timing run
//! builds no records at all: it writes its facts from inside the stepping
//! loop ([`Emulator::run_with`]).

use std::io::Read;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use svf_isa::{Program, Reg};

use crate::machine::{EmuError, Emulator};
use crate::retired::Retired;
use crate::trace::{TraceError, TraceReader};

/// Why a record stream stopped early.
#[derive(Debug)]
pub enum StreamError {
    /// The live emulator faulted (a functional bug in the program).
    Emu(EmuError),
    /// The trace being replayed is truncated or corrupt.
    Trace(TraceError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Emu(e) => write!(f, "{e}"),
            StreamError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<EmuError> for StreamError {
    fn from(e: EmuError) -> StreamError {
        StreamError::Emu(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> StreamError {
        StreamError::Trace(e)
    }
}

/// A producer of committed-instruction records, consumed through a
/// [`RecordRing`]. The two context accessors expose what timing models
/// need before the first record arrives.
pub trait RecordSource {
    /// The program's heap base (memory-region classification).
    fn heap_base(&self) -> u64;

    /// `$sp` before the first record (sizes the SVF window).
    fn initial_sp(&self) -> u64;

    /// Writes the next record into `out`; `Ok(false)` at a clean end of
    /// stream (after which it is never called again).
    ///
    /// # Errors
    ///
    /// Functional faults / trace corruption, via [`StreamError`].
    fn next_record(&mut self, out: &mut Retired) -> Result<bool, StreamError>;
}

/// Live functional execution as a record source: the emulator runs the
/// program once, however many timing models consume the stream.
#[derive(Debug)]
pub struct LiveSource {
    emu: Emulator,
    initial_sp: u64,
}

impl LiveSource {
    /// Loads `program` into a fresh emulator.
    #[must_use]
    pub fn new(program: &Program) -> LiveSource {
        let emu = Emulator::new(program);
        let initial_sp = emu.reg(Reg::SP);
        LiveSource { emu, initial_sp }
    }

    /// The emulator, for post-run inspection (program output, step count).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }
}

impl RecordSource for LiveSource {
    fn heap_base(&self) -> u64 {
        self.emu.heap_base()
    }

    fn initial_sp(&self) -> u64 {
        self.initial_sp
    }

    fn next_record(&mut self, out: &mut Retired) -> Result<bool, StreamError> {
        if self.emu.is_halted() {
            return Ok(false);
        }
        self.emu.step_record(out)?;
        Ok(true)
    }
}

/// What a salvage-mode replay observed: whether the trace was in fact cut
/// mid-record, and how many complete records were replayed before the cut.
/// Shared via `Arc` so the caller keeps visibility after handing the source
/// to a consumer that takes it by value.
#[derive(Debug, Default)]
pub struct SalvageReport {
    truncated: AtomicBool,
    records: AtomicU64,
}

impl SalvageReport {
    /// A fresh report, ready to hand to [`TraceSource::open_salvage`].
    #[must_use]
    pub fn new() -> Arc<SalvageReport> {
        Arc::new(SalvageReport::default())
    }

    /// Whether the replay hit (and absorbed) a mid-record truncation.
    #[must_use]
    pub fn was_truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Complete records replayed before the cut (meaningful only when
    /// [`SalvageReport::was_truncated`]).
    #[must_use]
    pub fn salvaged_records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

/// A captured binary trace as a record source: replaying a trace through
/// the timing model is bit-identical to the live run it captured.
///
/// In **salvage mode** ([`TraceSource::open_salvage`]) a mid-record
/// truncation — the signature of a capture killed mid-write — is absorbed
/// as a clean end of stream instead of an error: the replay covers the
/// longest complete-record prefix, and the attached [`SalvageReport`]
/// records that (and where) the trace was cut so the caller can warn.
/// Genuine corruption (bad magic, malformed records) still errors in
/// either mode.
#[derive(Debug)]
pub struct TraceSource<R: Read> {
    reader: TraceReader<R>,
    salvage: Option<Arc<SalvageReport>>,
    produced: u64,
    ended: bool,
}

impl<R: Read> TraceSource<R> {
    /// Wraps an open trace reader (strict mode).
    #[must_use]
    pub fn new(reader: TraceReader<R>) -> TraceSource<R> {
        TraceSource { reader, salvage: None, produced: 0, ended: false }
    }

    /// Opens a trace from any byte stream (validates the header). Strict:
    /// a truncated trace errors at the cut.
    ///
    /// # Errors
    ///
    /// Propagates header validation failures ([`TraceError`]).
    pub fn open(input: R) -> Result<TraceSource<R>, TraceError> {
        Ok(TraceSource::new(TraceReader::new(input)?))
    }

    /// Opens a trace in salvage mode: a mid-record truncation ends the
    /// stream cleanly after the last complete record, noted in `report`.
    /// The header must still be intact — there is nothing to salvage from
    /// a trace with no valid header.
    ///
    /// # Errors
    ///
    /// Propagates header validation failures ([`TraceError`]).
    pub fn open_salvage(
        input: R,
        report: Arc<SalvageReport>,
    ) -> Result<TraceSource<R>, TraceError> {
        let mut src = TraceSource::open(input)?;
        src.salvage = Some(report);
        Ok(src)
    }
}

impl<R: Read> RecordSource for TraceSource<R> {
    fn heap_base(&self) -> u64 {
        self.reader.heap_base
    }

    fn initial_sp(&self) -> u64 {
        self.reader.initial_sp
    }

    fn next_record(&mut self, out: &mut Retired) -> Result<bool, StreamError> {
        if self.ended {
            return Ok(false);
        }
        match self.reader.next_record() {
            Ok(Some(r)) => {
                *out = r;
                self.produced += 1;
                Ok(true)
            }
            Ok(None) => {
                self.ended = true;
                Ok(false)
            }
            Err(e @ TraceError::Truncated { .. }) => match &self.salvage {
                Some(report) => {
                    report.truncated.store(true, Ordering::Relaxed);
                    report.records.store(self.produced, Ordering::Relaxed);
                    self.ended = true;
                    Ok(false)
                }
                None => Err(e.into()),
            },
            Err(e) => Err(e.into()),
        }
    }
}

/// A bounded, seq-indexed window over a record stream. Records live at
/// `seq & mask()`; the window covers `[oldest live seq, hi())`, where the
/// caller of [`RecordRing::fill`] defines "oldest live" — the producer
/// writes each record exactly once and consumers read it in place.
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
    /// Propagates the source's [`StreamError`]; records produced before the
    /// failure remain readable.
    pub fn fill<S: RecordSource + ?Sized>(
        &mut self,
        src: &mut S,
        keep_from: u64,
    ) -> Result<Range<u64>, StreamError> {
        debug_assert!(keep_from <= self.hi, "cannot retain records never produced");
        let lo = self.hi;
        let room = keep_from.saturating_add(self.mask + 1);
        while !self.done && self.hi < room {
            if self.hi >= self.limit {
                self.done = true;
                break;
            }
            let idx = (self.hi & self.mask) as usize;
            if src.next_record(&mut self.records[idx])? {
                self.hi += 1;
            } else {
                self.done = true;
            }
        }
        Ok(lo..self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_asm::assemble;
    use svf_isa::STACK_BASE;

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
    fn live_source_reproduces_the_emulator_stream() {
        let p = assemble(KERNEL).expect("assembles");
        let want = reference_stream(&p);
        let mut src = LiveSource::new(&p);
        assert_eq!(src.initial_sp(), STACK_BASE);
        assert_eq!(src.heap_base(), p.heap_base);
        let mut got = Vec::new();
        let mut r = Retired::PLACEHOLDER;
        while src.next_record(&mut r).expect("steps") {
            got.push(r);
        }
        assert_eq!(got, want);
        assert!(!src.next_record(&mut r).expect("idempotent end"), "stays ended");
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

    /// A complete trace of the kernel plus the reference record stream.
    fn captured_trace() -> (Vec<u8>, Vec<Retired>) {
        let p = assemble(KERNEL).expect("assembles");
        let want = reference_stream(&p);
        let mut w = crate::TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE)
            .expect("header");
        for r in &want {
            w.push(r).expect("writes");
        }
        (w.finish().expect("finish"), want)
    }

    fn drain<R: Read>(src: &mut TraceSource<R>) -> Result<Vec<Retired>, StreamError> {
        let mut got = Vec::new();
        let mut r = Retired::PLACEHOLDER;
        while src.next_record(&mut r)? {
            got.push(r);
        }
        Ok(got)
    }

    #[test]
    fn truncated_trace_errors_strictly_but_salvages_the_prefix() {
        let (bytes, want) = captured_trace();
        assert!(want.len() > 2, "kernel produces enough records to cut");
        // Cut the capture mid-record (anywhere past the header and first
        // few records lands inside some record's encoding).
        let cut = &bytes[..bytes.len() - 3];

        let mut strict = TraceSource::open(cut).expect("header is intact");
        let err = drain(&mut strict).expect_err("strict replay must error at the cut");
        assert!(matches!(err, StreamError::Trace(TraceError::Truncated { .. })), "{err:?}");

        let report = SalvageReport::new();
        let mut salvage =
            TraceSource::open_salvage(cut, Arc::clone(&report)).expect("header is intact");
        let got = drain(&mut salvage).expect("salvage absorbs the cut");
        assert!(report.was_truncated(), "the cut is observed, not hidden");
        assert_eq!(report.salvaged_records(), got.len() as u64);
        assert!(!got.is_empty() && got.len() < want.len(), "a strict prefix survives");
        assert_eq!(got[..], want[..got.len()], "salvaged records are bit-identical");
        // The end is sticky: further polls stay ended.
        let mut r = Retired::PLACEHOLDER;
        assert!(!salvage.next_record(&mut r).expect("still ended"));
    }

    #[test]
    fn salvage_mode_leaves_complete_traces_untouched() {
        let (bytes, want) = captured_trace();
        let report = SalvageReport::new();
        let mut src = TraceSource::open_salvage(bytes.as_slice(), Arc::clone(&report))
            .expect("opens");
        let got = drain(&mut src).expect("replays");
        assert_eq!(got, want);
        assert!(!report.was_truncated(), "no cut to report");
    }

    #[test]
    fn trace_source_round_trips_through_the_ring() {
        let p = assemble(KERNEL).expect("assembles");
        let want = reference_stream(&p);
        let mut w = crate::TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE)
            .expect("header");
        for r in &want {
            w.push(r).expect("writes");
        }
        let bytes = w.finish().expect("finish");
        let mut src = TraceSource::open(bytes.as_slice()).expect("opens");
        assert_eq!(src.heap_base(), p.heap_base);
        assert_eq!(src.initial_sp(), STACK_BASE);
        let mut ring = RecordRing::new(8, u64::MAX);
        let mut next = 0u64;
        loop {
            ring.fill(&mut src, next).expect("fills");
            while next < ring.hi() {
                assert_eq!(ring.get(next), &want[next as usize], "record {next}");
                next += 1;
            }
            if ring.done() {
                break;
            }
        }
        assert_eq!(next as usize, want.len());
    }
}
