//! Linked program images.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::encoding::decode;
use crate::inst::Inst;
use crate::layout::{DATA_BASE, TEXT_BASE};
use crate::lower::Lowered;

/// A symbol-table entry: a label and the address it resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The label name.
    pub name: String,
    /// The resolved address.
    pub addr: u64,
}

/// A linked binary image: code, initialized data, and layout metadata.
///
/// Produced by the `svf-asm` assembler (usually from `svf-cc` output) and
/// consumed by the `svf-emu` functional emulator.
#[derive(Debug, Default)]
pub struct Program {
    /// Encoded instruction words, laid out from [`TEXT_BASE`].
    pub text: Vec<u32>,
    /// Initialized data bytes, laid out from [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Entry-point address.
    pub entry: u64,
    /// First address past the initialized/zeroed data: the heap starts here.
    pub heap_base: u64,
    /// Function symbols (sorted by address) for profiling and disassembly.
    pub functions: BTreeMap<u64, String>,
    /// Lazily-initialized decode and lowering of `text` — see
    /// [`Program::lowered`].
    lowered: OnceLock<Arc<Lowered>>,
}

impl Clone for Program {
    fn clone(&self) -> Program {
        // The decode cache is not carried over: a clone's pub fields may
        // still be mutated (the assembler builds images incrementally), and
        // the cache is only valid for frozen text.
        Program {
            text: self.text.clone(),
            data: self.data.clone(),
            entry: self.entry,
            heap_base: self.heap_base,
            functions: self.functions.clone(),
            lowered: OnceLock::new(),
        }
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.text == other.text
            && self.data == other.data
            && self.entry == other.entry
            && self.heap_base == other.heap_base
            && self.functions == other.functions
    }
}

impl Program {
    /// Creates an empty program with entry at [`TEXT_BASE`].
    #[must_use]
    pub fn new() -> Program {
        Program { entry: TEXT_BASE, heap_base: DATA_BASE, ..Program::default() }
    }

    /// Builds a linked image from its parts (the assembler's exit point).
    #[must_use]
    pub fn from_parts(
        text: Vec<u32>,
        data: Vec<u8>,
        entry: u64,
        heap_base: u64,
        functions: BTreeMap<u64, String>,
    ) -> Program {
        Program {
            text,
            data,
            entry,
            heap_base,
            functions,
            lowered: OnceLock::new(),
        }
    }

    /// The decoded text segment, shared (`Arc`) with [`Program::lowered`].
    /// Index `i` holds the instruction at `TEXT_BASE + 4*i`.
    ///
    /// # Panics
    ///
    /// As [`Program::lowered`].
    #[must_use]
    pub fn decoded(&self) -> Arc<[Inst]> {
        Arc::clone(&self.lowered().insts)
    }

    /// The text segment decoded and lowered into micro-ops and per-PC
    /// static facts ([`Lowered`]): built **once per program image** on
    /// first use and shared (`Arc`) by every consumer — the functional
    /// emulator (and through its stepping loop the timing model), the
    /// disassembler-driven tools.
    ///
    /// The text must be frozen before the first call; mutating `text`
    /// afterwards leaves the cache stale (assembled images are never
    /// mutated).
    ///
    /// # Panics
    ///
    /// Panics if the text contains an undecodable word (assembled programs
    /// never do).
    #[must_use]
    pub fn lowered(&self) -> Arc<Lowered> {
        Arc::clone(self.lowered.get_or_init(|| {
            let insts = self
                .text
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    decode(w)
                        .unwrap_or_else(|e| panic!("undecodable word at text index {i}: {e}"))
                })
                .collect();
            Arc::new(Lowered::new(insts))
        }))
    }

    /// Base address of the data segment.
    #[must_use]
    pub fn data_base(&self) -> u64 {
        DATA_BASE
    }

    /// Address one past the last instruction.
    #[must_use]
    pub fn text_end(&self) -> u64 {
        TEXT_BASE + 4 * self.text.len() as u64
    }

    /// Fetches the instruction word at `pc`, if it lies in the text segment.
    #[must_use]
    pub fn fetch(&self, pc: u64) -> Option<u32> {
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return None;
        }
        self.text.get(((pc - TEXT_BASE) / 4) as usize).copied()
    }

    /// The name of the function containing `pc`, if known.
    #[must_use]
    pub fn function_at(&self, pc: u64) -> Option<&str> {
        self.functions.range(..=pc).next_back().map(|(_, name)| name.as_str())
    }

    /// Disassembles the whole text segment, one instruction per line, for
    /// debugging and golden tests.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, &word) in self.text.iter().enumerate() {
            let addr = TEXT_BASE + 4 * i as u64;
            if let Some(name) = self.functions.get(&addr) {
                out.push_str(&format!("{name}:\n"));
            }
            match decode(word) {
                Ok(inst) => out.push_str(&format!("  {addr:#010x}: {inst}\n")),
                Err(e) => out.push_str(&format!("  {addr:#010x}: .word {word:#010x} ; {e}\n")),
            }
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Program {{ {} instructions, {} data bytes, {} functions }}",
            self.text.len(),
            self.data.len(),
            self.functions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encode;
    use crate::inst::{Inst, SysFunc};

    #[test]
    fn fetch_in_and_out_of_range() {
        let mut p = Program::new();
        p.text.push(encode(&Inst::Sys { func: SysFunc::Halt }));
        assert!(p.fetch(TEXT_BASE).is_some());
        assert!(p.fetch(TEXT_BASE + 4).is_none());
        assert!(p.fetch(TEXT_BASE + 1).is_none(), "misaligned");
        assert!(p.fetch(0).is_none());
        assert_eq!(p.text_end(), TEXT_BASE + 4);
    }

    #[test]
    fn function_lookup() {
        let mut p = Program::new();
        p.functions.insert(TEXT_BASE, "main".to_string());
        p.functions.insert(TEXT_BASE + 40, "helper".to_string());
        assert_eq!(p.function_at(TEXT_BASE), Some("main"));
        assert_eq!(p.function_at(TEXT_BASE + 36), Some("main"));
        assert_eq!(p.function_at(TEXT_BASE + 40), Some("helper"));
        assert_eq!(p.function_at(TEXT_BASE + 400), Some("helper"));
        assert_eq!(p.function_at(0), None);
    }

    #[test]
    fn disassembly_contains_labels() {
        let mut p = Program::new();
        p.functions.insert(TEXT_BASE, "main".to_string());
        p.text.push(encode(&Inst::Sys { func: SysFunc::Halt }));
        let dis = p.disassemble();
        assert!(dis.contains("main:"));
        assert!(dis.contains("halt"));
    }

    #[test]
    fn display_nonempty() {
        assert!(!Program::new().to_string().is_empty());
    }

    #[test]
    fn decoded_is_shared_and_cleared_on_clone() {
        let mut p = Program::new();
        p.text.push(encode(&Inst::Sys { func: SysFunc::Halt }));
        let d1 = p.decoded();
        let d2 = p.decoded();
        assert!(Arc::ptr_eq(&d1, &d2), "decoded once per image");
        assert_eq!(&*d1, &[Inst::Sys { func: SysFunc::Halt }]);
        let c = p.clone();
        assert_eq!(c, p, "decode cache is invisible to equality");
        assert!(!Arc::ptr_eq(&d1, &c.decoded()), "clone re-decodes");
        let l1 = p.lowered();
        assert!(Arc::ptr_eq(&l1, &p.lowered()), "lowered once per image");
        assert!(Arc::ptr_eq(&l1.insts, &d1), "the lowering shares the decode");
        assert!(!Arc::ptr_eq(&l1, &c.lowered()), "clone re-lowers");
    }
}
