//! # svf-isa — a 64-bit Alpha-like RISC instruction set
//!
//! This crate defines the instruction set architecture used throughout the
//! Stack Value File (SVF) reproduction: a load/store, 32-register, 64-bit
//! RISC machine closely modelled on the Compaq Alpha, which is the ISA the
//! original HPCA 2001 paper evaluated.
//!
//! The properties the SVF relies on are preserved faithfully:
//!
//! * memory operands use a single `reg ± disp16` addressing mode, so
//!   `$sp`-relative references are recognizable at decode time;
//! * the stack pointer is an ordinary general-purpose register (`r30`) and
//!   is adjusted with ordinary `lda $sp, imm($sp)` instructions;
//! * the natural access granularity is a 64-bit *quad-word*.
//!
//! The crate provides:
//!
//! * [`Reg`] — register names and the Alpha software conventions
//!   (`$sp` = r30, `$fp` = r15, `$ra` = r26, `$zero` = r31);
//! * [`Inst`] — the decoded instruction representation with classification
//!   helpers used by the pipeline models (`is_load`, `writes_sp`, …);
//! * [`encode`]/[`decode`] — the 32-bit binary encoding (round-trip tested);
//! * [`Program`] — a linked binary image (text + data + layout constants);
//! * [`Lowered`] — a program's text pre-decoded once into [`MicroOp`]s and
//!   per-PC [`StaticInfo`], the tables the emulator and timing model index.
//!
//! # Example
//!
//! ```
//! use svf_isa::{decode, encode, AluOp, Inst, Operand, Reg};
//!
//! // rc = ra + rb
//! let inst = Inst::Op { op: AluOp::Addq, ra: Reg::A0, rb: Operand::Reg(Reg::A1), rc: Reg::V0 };
//! let word = encode(&inst);
//! assert_eq!(decode(word).unwrap(), inst);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoding;
mod inst;
mod layout;
mod lower;
mod program;
mod reg;

pub use encoding::{decode, encode, DecodeError};
pub use inst::{AluOp, BrOp, CondOp, Inst, JmpKind, MemOp, Operand, SysFunc};
pub use layout::{
    MemRegion, DATA_BASE, QW_BYTES, STACK_BASE, STACK_REGION_FLOOR, TEXT_BASE,
};
pub use lower::{
    ControlKind, Lowered, MicroOp, StaticInfo, Uop, NO_REG, REG_SLOTS, SCRATCH_REG,
};
pub use program::{Program, Symbol};
pub use reg::Reg;
