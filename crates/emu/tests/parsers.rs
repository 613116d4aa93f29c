//! No-panic properties of the `.svft` trace reader, the one parser svf-emu
//! owns. `TraceReader::new` and `next_record` read untrusted files: on byte
//! soups, and on truncations and bit flips of a real capture, each returns
//! `Ok` or a `TraceError` and never panics, and so on records whose
//! fields are well formed but whose deltas sit at the edges of their range.
//! `TraceWriter` is the printer: whatever decodes must write and read back
//! unchanged.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use svf_asm::assemble;
use svf_emu::{Emulator, Retired, TraceReader, TraceWriter};
use svf_isa::STACK_BASE;

/// Loads, stores, a loop branch and `$sp` updates: every optional
/// record field appears in the capture.
const PROGRAM: &str = "
main:
    lda $sp, -32($sp)
    li $t0, 6
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

/// The trace of one run of [`PROGRAM`].
fn capture() -> Vec<u8> {
    let p = assemble(PROGRAM).expect("assembles");
    let mut emu = Emulator::new(&p);
    let mut w = TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE).expect("header");
    while !emu.is_halted() {
        w.push(&emu.step().expect("runs")).expect("writes");
    }
    w.finish().expect("finish")
}

/// Reads `bytes` to its end or its first error. Whatever decoded (header
/// and records) is then written by a `TraceWriter` and read back: it must
/// come back unchanged.
fn check_trace(bytes: &[u8]) {
    let Ok(mut reader) = TraceReader::new(bytes) else { return };
    let mut records: Vec<Retired> = Vec::new();
    while let Ok(Some(r)) = reader.next_record() {
        records.push(r);
    }
    let (entry, heap_base, initial_sp) = (reader.entry, reader.heap_base, reader.initial_sp);
    let mut w = TraceWriter::new(Vec::new(), entry, heap_base, initial_sp).expect("header");
    for r in &records {
        w.push(r).expect("writes");
    }
    let printed = w.finish().expect("finish");
    let mut back = TraceReader::new(printed.as_slice()).expect("a printed header reads");
    prop_assert_eq!((back.entry, back.heap_base, back.initial_sp), (entry, heap_base, initial_sp));
    for (i, want) in records.iter().enumerate() {
        let got = back.next_record().expect("a printed record reads");
        prop_assert_eq!(got.as_ref(), Some(want), "record {} printed and read back", i);
    }
    prop_assert!(back.next_record().expect("a printed trace ends cleanly").is_none());
}

/// A real capture, cut at `cut` (a share of its length in 1/1024ths) with
/// up to four bits flipped at positions drawn as shares too.
fn damaged(cut: u64, flips: &[(u64, u8)]) -> Vec<u8> {
    let mut bytes = capture();
    let at = |share: u64, len: usize| (share as usize * len) / 1024;
    bytes.truncate(at(cut, bytes.len() + 1).min(bytes.len()));
    if !bytes.is_empty() {
        for &(pos, bit) in flips {
            let i = at(pos, bytes.len());
            bytes[i] ^= 1 << bit;
        }
    }
    bytes
}

/// The header of a real capture.
fn header() -> Vec<u8> {
    let mut bytes = capture();
    let len = (0..bytes.len())
        .find(|&n| TraceReader::new(&bytes[..n]).is_ok())
        .expect("the capture has a header");
    bytes.truncate(len);
    bytes
}

/// Appends `v` as a LEB128 varint, the format's integer encoding.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A zigzagged delta, mostly at the edges of the `i64` range.
fn edge_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => select(vec![0, 1, 2, 8, u64::MAX, u64::MAX - 1, u64::MAX >> 1, (u64::MAX >> 1) + 1]),
        1 => any::<u64>(),
    ]
}

/// Well-formed records (every field present that its flags announce, the
/// instruction words those of [`PROGRAM`]) with edge deltas throughout.
fn edge_records() -> impl Strategy<Value = Vec<u8>> {
    let words = assemble(PROGRAM).expect("assembles").text;
    let record = (
        (any::<u8>(), edge_delta(), select(words)),
        (edge_delta(), any::<u8>(), any::<u8>()),
        (edge_delta(), edge_delta(), edge_delta()),
    );
    vec(record, 0..8).prop_map(|records| {
        let mut bytes = header();
        for ((flags, pc, word), (addr, size, base), (target, sp_delta, sp)) in records {
            bytes.push(flags);
            put_varint(&mut bytes, pc);
            bytes.extend_from_slice(&word.to_le_bytes());
            if flags & 1 != 0 {
                put_varint(&mut bytes, addr);
                bytes.extend_from_slice(&[size, base]);
            }
            if flags & 2 != 0 {
                put_varint(&mut bytes, target);
            }
            if flags & 4 != 0 {
                put_varint(&mut bytes, sp_delta);
            }
            put_varint(&mut bytes, sp);
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn the_reader_never_panics_on_byte_soup(bytes in vec(any::<u8>(), 0..96)) {
        check_trace(&bytes);
    }

    #[test]
    fn the_reader_never_panics_after_a_valid_header(tail in vec(any::<u8>(), 0..128)) {
        // The soup behind a real header reaches the record decoder.
        let mut bytes = header();
        bytes.extend_from_slice(&tail);
        check_trace(&bytes);
    }

    #[test]
    fn the_reader_never_panics_on_edge_deltas(bytes in edge_records()) {
        check_trace(&bytes);
    }

    #[test]
    fn the_reader_never_panics_on_a_damaged_capture(
        cut in 0u64..1025,
        flips in vec((0u64..1024, 0u8..8), 0..5),
    ) {
        check_trace(&damaged(cut, &flips));
    }
}

#[test]
fn the_capture_itself_round_trips() {
    let bytes = capture();
    let mut reader = TraceReader::new(bytes.as_slice()).expect("header");
    let mut n = 0;
    while reader.next_record().expect("a clean capture reads").is_some() {
        n += 1;
    }
    assert!(n > 30, "the loop ran: {n} records");
    check_trace(&bytes);
}
