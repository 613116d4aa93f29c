//! Compact binary traces of committed instructions (`RetiredTrace` format).
//!
//! A [`TraceWriter`] serializes [`Retired`] records into a small
//! variable-length format (~4–12 bytes per instruction for typical code),
//! and a [`TraceReader`] replays them. Traces let expensive functional runs
//! be captured once and re-analyzed (characterization, traffic simulation,
//! lockstep timing sweeps via [`crate::TraceSource`]) without re-executing,
//! and serve as an interchange format with other tools.
//!
//! # Format (version 2)
//!
//! A header followed by one variable-length record per instruction. The
//! reader works over any `impl Read`; because records are self-delimiting
//! and decoded purely forward, a memory-mapped file (or any `&[u8]`) reads
//! with zero copies.
//!
//! ```text
//! magic:      u32le   0x53564654 ("SVFT")
//! version:    u16le   2
//! reserved:   u16le   must be written as zero
//! entry:      varint  program entry PC
//! heap_base:  varint  heap base (for region classification)
//! initial_sp: varint  $sp at the first record (timing models need it to
//!                     size the SVF window before any sp_update arrives)
//! ```
//!
//! Each record:
//!
//! ```text
//! flags: u8      bit0 mem, bit1 control, bit2 sp_update, bit3 taken,
//!                bit4 store, bit5 sp-immediate
//! pc:    varint  delta-encoded against prev_pc + 4 (zigzag)
//! word:  u32     raw instruction encoding
//! [addr: varint  delta vs sp_before (zigzag), size: u8, base: u8]  if mem
//! [target: varint delta vs pc + 4 (zigzag)]                        if control
//! [new_sp: varint delta vs old_sp (zigzag)]                        if sp_update
//! sp_before: varint delta vs prev record's sp_before (zigzag)
//! ```
//!
//! Deltas are differences modulo 2^64 read as `i64`, so every address
//! round-trips and a corrupt delta decodes to some address instead of
//! overflowing.
//!
//! Version 1 lacked the `initial_sp` header field; v1 files are rejected
//! with [`TraceError::UnsupportedVersion`] (recapture them).

use std::fmt;
use std::io::{self, Read, Write};

use svf_isa::{decode, encode, Reg};

use crate::retired::{ControlFlow, MemAccess, Retired, SpUpdate};

const MAGIC: u32 = 0x53_56_46_54; // "SVFT"
const VERSION: u16 = 2;

/// Why a trace could not be read. Corrupt and truncated inputs are ordinary
/// errors, never panics, so callers can treat trace files as untrusted.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader failed (not EOF — short reads inside the
    /// format are reported as [`TraceError::Truncated`]).
    Io(io::Error),
    /// The file does not start with the `SVFT` magic; the found prefix is
    /// attached (little-endian).
    BadMagic(u32),
    /// The header version is not the one this reader understands.
    UnsupportedVersion(u16),
    /// EOF in the middle of the header.
    TruncatedHeader,
    /// EOF in the middle of record number `record` (0-based).
    Truncated {
        /// Index of the record being decoded when input ran out.
        record: u64,
    },
    /// The instruction word in record `record` does not decode.
    BadInst {
        /// Index of the offending record.
        record: u64,
        /// The decoder's diagnostic.
        msg: String,
    },
    /// A varint in record `record` ran past 64 bits.
    VarintOverflow {
        /// Index of the offending record.
        record: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => {
                write!(f, "not an SVFT trace (magic {m:#010x}, want {MAGIC:#010x})")
            }
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace version {v} (this reader understands {VERSION})")
            }
            TraceError::TruncatedHeader => write!(f, "truncated trace header"),
            TraceError::Truncated { record } => {
                write!(f, "trace truncated inside record {record}")
            }
            TraceError::BadInst { record, msg } => {
                write!(f, "record {record} has an undecodable instruction: {msg}")
            }
            TraceError::VarintOverflow { record } => {
                write!(f, "record {record} has a varint wider than 64 bits")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        match e {
            TraceError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The zigzagged distance from `base` to `value`, modulo 2^64: the plain
/// signed difference whenever that fits an `i64`, and any pair of words
/// round-trips through [`undelta`].
fn delta(base: u64, value: u64) -> u64 {
    zigzag(value.wrapping_sub(base) as i64)
}

/// `base` moved by a zigzagged [`delta`], modulo 2^64 (so corrupt deltas
/// wrap instead of overflowing).
fn undelta(base: u64, d: u64) -> u64 {
    base.wrapping_add(unzigzag(d) as u64)
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// How a low-level read inside the format failed; the reader attaches the
/// position (header / record index) to build the public [`TraceError`].
enum ReadFail {
    Eof,
    Overflow,
    Io(io::Error),
}

impl ReadFail {
    fn from_io(e: io::Error) -> ReadFail {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ReadFail::Eof
        } else {
            ReadFail::Io(e)
        }
    }
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ReadFail> {
    r.read_exact(buf).map_err(ReadFail::from_io)
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, ReadFail> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let mut b = [0u8; 1];
        read_exact(r, &mut b)?;
        v |= u64::from(b[0] & 0x7F) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(ReadFail::Overflow);
        }
    }
}

/// Streams [`Retired`] records into a compact binary trace.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    prev_pc: u64,
    prev_sp: u64,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns the writer. `initial_sp` is the value
    /// of `$sp` before the first record (for programs started by
    /// [`crate::Emulator`] that is `svf_isa::STACK_BASE`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink.
    pub fn new(mut out: W, entry: u64, heap_base: u64, initial_sp: u64) -> io::Result<TraceWriter<W>> {
        out.write_all(&MAGIC.to_le_bytes())?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&[0u8; 2])?; // reserved
        write_varint(&mut out, entry)?;
        write_varint(&mut out, heap_base)?;
        write_varint(&mut out, initial_sp)?;
        Ok(TraceWriter { out, prev_pc: entry.wrapping_sub(4), prev_sp: 0, records: 0 })
    }

    /// Appends one committed instruction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink.
    pub fn push(&mut self, r: &Retired) -> io::Result<()> {
        let mut flags = 0u8;
        if r.mem.is_some() {
            flags |= 1;
        }
        if r.control.is_some() {
            flags |= 2;
        }
        if r.sp_update.is_some() {
            flags |= 4;
        }
        if r.control.is_some_and(|c| c.taken) {
            flags |= 8;
        }
        if r.mem.is_some_and(|m| m.is_store) {
            flags |= 16;
        }
        if r.sp_update.is_some_and(|u| u.immediate) {
            flags |= 32;
        }
        self.out.write_all(&[flags])?;
        write_varint(&mut self.out, delta(self.prev_pc.wrapping_add(4), r.pc))?;
        self.out.write_all(&encode(&r.inst).to_le_bytes())?;
        if let Some(m) = r.mem {
            write_varint(&mut self.out, delta(r.sp_before, m.addr))?;
            self.out.write_all(&[m.size, m.base.number()])?;
        }
        if let Some(c) = r.control {
            write_varint(&mut self.out, delta(r.pc.wrapping_add(4), c.target))?;
        }
        if let Some(u) = r.sp_update {
            write_varint(&mut self.out, delta(u.old_sp, u.new_sp))?;
        }
        write_varint(&mut self.out, delta(self.prev_sp, r.sp_before))?;
        self.prev_pc = r.pc;
        self.prev_sp = r.sp_before;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the final flush failure.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Replays a binary trace as [`Retired`] records.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    prev_pc: u64,
    prev_sp: u64,
    records: u64,
    /// Entry PC from the header.
    pub entry: u64,
    /// Heap base from the header (for region classification).
    pub heap_base: u64,
    /// `$sp` before the first record, from the header.
    pub initial_sp: u64,
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and returns the reader.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`] or
    /// [`TraceError::TruncatedHeader`] for malformed input; underlying
    /// failures surface as [`TraceError::Io`].
    pub fn new(mut input: R) -> Result<TraceReader<R>, TraceError> {
        let header = |f: ReadFail| match f {
            ReadFail::Eof | ReadFail::Overflow => TraceError::TruncatedHeader,
            ReadFail::Io(e) => TraceError::Io(e),
        };
        let mut word = [0u8; 4];
        read_exact(&mut input, &mut word).map_err(header)?;
        let magic = u32::from_le_bytes(word);
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut ver = [0u8; 2];
        read_exact(&mut input, &mut ver).map_err(header)?;
        let version = u16::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut reserved = [0u8; 2];
        read_exact(&mut input, &mut reserved).map_err(header)?;
        let entry = read_varint(&mut input).map_err(header)?;
        let heap_base = read_varint(&mut input).map_err(header)?;
        let initial_sp = read_varint(&mut input).map_err(header)?;
        Ok(TraceReader {
            input,
            prev_pc: entry.wrapping_sub(4),
            prev_sp: 0,
            records: 0,
            entry,
            heap_base,
            initial_sp,
        })
    }

    /// Number of records decoded so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Maps a mid-record read failure to its public error.
    fn fail(&self, f: ReadFail) -> TraceError {
        match f {
            ReadFail::Eof => TraceError::Truncated { record: self.records },
            ReadFail::Overflow => TraceError::VarintOverflow { record: self.records },
            ReadFail::Io(e) => TraceError::Io(e),
        }
    }

    /// Reads the next record; `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] on EOF inside a record, and
    /// [`TraceError::BadInst`]/[`TraceError::VarintOverflow`] on corrupt
    /// content; a cut exactly on a record boundary is indistinguishable
    /// from a complete trace and reads as a clean end.
    pub fn next_record(&mut self) -> Result<Option<Retired>, TraceError> {
        let mut flags = [0u8; 1];
        match read_exact(&mut self.input, &mut flags) {
            Ok(()) => {}
            Err(ReadFail::Eof) => return Ok(None),
            Err(f) => return Err(self.fail(f)),
        }
        let flags = flags[0];
        let pc_delta = read_varint(&mut self.input).map_err(|f| self.fail(f))?;
        let pc = undelta(self.prev_pc.wrapping_add(4), pc_delta);
        let mut word = [0u8; 4];
        read_exact(&mut self.input, &mut word).map_err(|f| self.fail(f))?;
        let inst = decode(u32::from_le_bytes(word))
            .map_err(|e| TraceError::BadInst { record: self.records, msg: e.to_string() })?;
        let mut mem = None;
        if flags & 1 != 0 {
            let rel = read_varint(&mut self.input).map_err(|f| self.fail(f))?;
            let mut sb = [0u8; 2];
            read_exact(&mut self.input, &mut sb).map_err(|f| self.fail(f))?;
            mem = Some((rel, sb[0], Reg::from_number(sb[1] & 31), flags & 16 != 0));
        }
        let mut control = None;
        if flags & 2 != 0 {
            let d = read_varint(&mut self.input).map_err(|f| self.fail(f))?;
            let target = undelta(pc.wrapping_add(4), d);
            control = Some(ControlFlow { taken: flags & 8 != 0, target });
        }
        let mut sp_delta = None;
        if flags & 4 != 0 {
            sp_delta = Some(read_varint(&mut self.input).map_err(|f| self.fail(f))?);
        }
        let sp_raw = read_varint(&mut self.input).map_err(|f| self.fail(f))?;
        let sp_before = undelta(self.prev_sp, sp_raw);
        let mem = mem.map(|(rel, size, base, is_store)| MemAccess {
            addr: undelta(sp_before, rel),
            size,
            is_store,
            base,
        });
        let sp_update = sp_delta.map(|d| SpUpdate {
            old_sp: sp_before,
            new_sp: undelta(sp_before, d),
            immediate: flags & 32 != 0,
        });
        let fall_through = pc.wrapping_add(4);
        let next_pc = control.filter(|c| c.taken).map_or(fall_through, |c| c.target);
        self.prev_pc = pc;
        self.prev_sp = sp_before;
        self.records += 1;
        Ok(Some(Retired { pc, inst, next_pc, mem, control, sp_update, sp_before }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emulator;
    use proptest::prelude::*;
    use proptest::{collection, sample};
    use svf_asm::assemble;
    use svf_isa::STACK_BASE;

    fn capture(src: &str) -> (Vec<Retired>, Vec<u8>, u64, u64) {
        let p = assemble(src).expect("assembles");
        let mut emu = Emulator::new(&p);
        let mut w =
            TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE).expect("header");
        let mut records = Vec::new();
        while !emu.is_halted() {
            let r = emu.step().expect("runs");
            w.push(&r).expect("writes");
            records.push(r);
        }
        let n = w.records();
        let bytes = w.finish().expect("finish");
        (records, bytes, n, p.heap_base)
    }

    const KERNEL: &str = "
main:
    lda $sp, -32($sp)
    li $t0, 10
.loop:
    stq $t0, 8($sp)
    ldq $t1, 8($sp)
    addq $t2, $t1, $t2
    subq $t0, 1, $t0
    bne $t0, .loop
    mov $t2, $a0
    putint
    lda $sp, 32($sp)
    halt";

    #[test]
    fn round_trip_is_lossless() {
        let (records, bytes, n, heap_base) = capture(KERNEL);
        assert_eq!(n as usize, records.len());
        let mut r = TraceReader::new(bytes.as_slice()).expect("header");
        assert_eq!(r.heap_base, heap_base);
        assert_eq!(r.initial_sp, STACK_BASE);
        for (i, want) in records.iter().enumerate() {
            let got = r.next_record().expect("reads").unwrap_or_else(|| panic!("short at {i}"));
            assert_eq!(&got, want, "record {i} diverged");
        }
        assert!(r.next_record().expect("eof check").is_none());
        assert_eq!(r.records(), n);
    }

    #[test]
    fn traces_are_compact() {
        let (records, bytes, _, _) = capture(KERNEL);
        let per_record = bytes.len() as f64 / records.len() as f64;
        assert!(
            per_record < 12.0,
            "expected <12 bytes/record, got {per_record:.1} ({} bytes, {} records)",
            bytes.len(),
            records.len()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        match TraceReader::new(&b"NOPE0000"[..]) {
            Err(TraceError::BadMagic(m)) => assert_eq!(m, u32::from_le_bytes(*b"NOPE")),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (_, bytes, _, _) = capture(KERNEL);
        let mut v1 = bytes;
        v1[4] = 1; // patch the version field down
        v1[5] = 0;
        match TraceReader::new(v1.as_slice()) {
            Err(TraceError::UnsupportedVersion(1)) => {}
            other => panic!("expected UnsupportedVersion(1), got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_rejected() {
        let (_, bytes, _, _) = capture(KERNEL);
        for cut in [0, 3, 5, 7] {
            match TraceReader::new(&bytes[..cut]) {
                Err(TraceError::TruncatedHeader | TraceError::BadMagic(_)) => {}
                other => panic!("cut at {cut}: expected a typed header error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_stream_errors_midrecord() {
        let (_, bytes, _, _) = capture(KERNEL);
        // Cut inside a record (past the header, not on a boundary).
        let cut = &bytes[..bytes.len() - 3];
        let mut r = TraceReader::new(cut).expect("header ok");
        loop {
            match r.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a mid-record cut must be detected"),
                Err(TraceError::Truncated { record }) => {
                    assert_eq!(record, r.records(), "error names the cut record");
                    break;
                }
                Err(other) => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_possible_cut_is_an_error_or_a_shorter_trace() {
        // Robustness sweep: no prefix of a valid trace may panic or decode
        // more records than the original.
        let (records, bytes, _, _) = capture(KERNEL);
        for cut in 0..bytes.len() {
            match TraceReader::new(&bytes[..cut]) {
                Err(_) => {}
                Ok(mut r) => {
                    let mut n = 0usize;
                    while let Ok(Some(_)) = r.next_record() {
                        n += 1;
                    }
                    assert!(n <= records.len(), "cut {cut} decoded {n} records");
                }
            }
        }
    }

    /// An arbitrary record that satisfies the invariants the format
    /// exploits (and every emulator-produced record satisfies): `next_pc`
    /// follows from `control`, and `sp_update.old_sp == sp_before`.
    fn arb_record() -> impl Strategy<Value = Retired> {
        let inst = (0u32..u32::MAX)
            .prop_map(|w| decode(w).ok().filter(|i| encode(i) == w))
            .prop_map(|i| i.unwrap_or(Retired::PLACEHOLDER.inst));
        // Deltas wrap, so any address would round-trip; these stay in the
        // range real PCs and addresses use.
        let small = 0u64..1 << 48;
        (
            (small.clone(), inst, small.clone()),
            (any::<bool>(), any::<bool>(), 0u64..3, 1u64..1 << 40),
            (0u64..3, any::<bool>(), 0i64..4096),
            sample::select(vec![1u8, 4, 8]),
        )
            .prop_map(|((pc, inst, sp_before), (taken, is_store, has_ctl, target), (has_mem, imm, sp_delta), size)| {
                let control = (has_ctl != 0).then_some(ControlFlow { taken, target });
                let mem = (has_mem != 0).then_some(MemAccess {
                    addr: sp_before.wrapping_add(u64::from(size)) & ((1 << 48) - 1),
                    size,
                    is_store,
                    base: Reg::from_number((target & 31) as u8),
                });
                let sp_update = (sp_delta != 0).then_some(SpUpdate {
                    old_sp: sp_before,
                    new_sp: (sp_before as i64 + sp_delta) as u64,
                    immediate: imm,
                });
                let next_pc = control.map_or(pc + 4, |c| if c.taken { c.target } else { pc + 4 });
                Retired { pc, inst, next_pc, mem, control, sp_update, sp_before }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn arbitrary_records_round_trip(
            records in collection::vec(arb_record(), 0..64),
            entry in 0u64..1 << 40,
            heap_base in 0u64..1 << 40,
            initial_sp in 0u64..1 << 40,
        ) {
            let mut w = TraceWriter::new(Vec::new(), entry, heap_base, initial_sp)
                .expect("header");
            for r in &records {
                w.push(r).expect("writes");
            }
            let bytes = w.finish().expect("finish");
            let mut rd = TraceReader::new(bytes.as_slice()).expect("header");
            prop_assert_eq!(rd.entry, entry);
            prop_assert_eq!(rd.heap_base, heap_base);
            prop_assert_eq!(rd.initial_sp, initial_sp);
            for (i, want) in records.iter().enumerate() {
                let got = rd.next_record().expect("reads");
                prop_assert_eq!(got.as_ref(), Some(want), "record {} diverged", i);
            }
            prop_assert!(rd.next_record().expect("eof").is_none());
        }
    }
}
