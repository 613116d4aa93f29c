//! Lowering: a program's text pre-decoded, once per image, into the two
//! flat tables that the functional emulator's stepping loop and the timing
//! model's facts builder index by PC.
//!
//! * [`MicroOp`]s carry one discriminant per ALU operation × operand form,
//!   so the stepping loop dispatches once per instruction instead of
//!   matching the [`Inst`] format and then the operation. Immediates are
//!   pre-shifted (`ldah`), branch targets are absolute, and a `$zero`
//!   destination is redirected to [`SCRATCH_REG`] so no write needs a
//!   `$zero` test.
//! * [`StaticInfo`] is everything about an instruction that does not depend
//!   on the values it computes: its source and destination registers, its
//!   execution class, its memory size and base, its control-transfer kind,
//!   and the store, `$sp`-base and `$sp`-interlock bits.

use std::sync::Arc;

use crate::inst::{AluOp, BrOp, CondOp, Inst, JmpKind, MemOp, Operand, SysFunc};
use crate::layout::TEXT_BASE;
use crate::reg::Reg;

/// Register-file slots a lowered program addresses: the 32 architectural
/// registers, [`SCRATCH_REG`], and padding up to a power of two so that an
/// index masked with `REG_SLOTS - 1` needs no bounds check.
pub const REG_SLOTS: usize = 64;

/// The slot a `$zero` destination writes: never read, so `$zero` (slot 31)
/// stays zero without a test on every write.
pub const SCRATCH_REG: u8 = 32;

/// "No register" in [`StaticInfo::srcs`] and [`StaticInfo::dest`].
pub const NO_REG: u8 = u8::MAX;

/// The operation of a [`MicroOp`]. Operand roles are documented on
/// [`MicroOp`]; `*R` ALU forms read `rb`, `*L` forms the literal in `imm`.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uop {
    AddqR,
    SubqR,
    MulqR,
    DivqR,
    RemqR,
    AndR,
    BisR,
    XorR,
    SllR,
    SrlR,
    SraR,
    CmpeqR,
    CmpltR,
    CmpleR,
    CmpultR,
    CmpuleR,
    AddqL,
    SubqL,
    MulqL,
    DivqL,
    RemqL,
    AndL,
    BisL,
    XorL,
    SllL,
    SrlL,
    SraL,
    CmpeqL,
    CmpltL,
    CmpleL,
    CmpultL,
    CmpuleL,
    /// `rc = rb + imm` (`lda`, and `ldah` with `imm` pre-shifted).
    Lda,
    Ldq,
    Ldl,
    Ldbu,
    Stq,
    Stl,
    Stb,
    /// `rc = pc + 4; pc = imm` (`br` and `bsr`).
    Br,
    Beq,
    Bne,
    Blt,
    Ble,
    Bge,
    Bgt,
    /// `pc = rb & !3; rc = pc + 4` (`jmp`, `jsr` and `ret`).
    Jmp,
    Halt,
    PutInt,
    PutChar,
}

/// One lowered instruction.
///
/// | form | reads | writes | `imm` |
/// |---|---|---|---|
/// | ALU `*R` | `ra`, `rb` | `rc` | — |
/// | ALU `*L` | `ra` | `rc` | the literal |
/// | `Lda` | `rb` | `rc` | displacement (pre-shifted) |
/// | loads | `rb` | `rc` | displacement |
/// | stores | `rb`, `ra` | memory | displacement |
/// | `Br` | — | `rc` | absolute target |
/// | conditional | `ra` | — | absolute target |
/// | `Jmp` | `rb` | `rc` | — |
/// | system | `$a0` | — | — |
///
/// `rc` is [`SCRATCH_REG`] where the instruction names `$zero`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// The operation.
    pub uop: Uop,
    /// First source register.
    pub ra: u8,
    /// Second source (ALU) or base (memory, `lda`, jumps) register.
    pub rb: u8,
    /// Destination slot.
    pub rc: u8,
    /// Literal, displacement or absolute branch target (see the table).
    pub imm: u64,
}

impl MicroOp {
    /// Lowers `inst`, located at `pc`.
    #[must_use]
    pub(crate) fn lower(inst: &Inst, pc: u64) -> MicroOp {
        let dest = |r: Reg| if r.is_zero() { SCRATCH_REG } else { r.number() };
        let op = |uop, ra: Reg, rb: Reg, rc: u8, imm| MicroOp {
            uop,
            ra: ra.number(),
            rb: rb.number(),
            rc,
            imm,
        };
        let branch_target = |disp: i32| (pc + 4).wrapping_add((i64::from(disp) * 4) as u64);
        match *inst {
            Inst::Sys { func } => {
                let uop = match func {
                    SysFunc::Halt => Uop::Halt,
                    SysFunc::PutInt => Uop::PutInt,
                    SysFunc::PutChar => Uop::PutChar,
                };
                op(uop, Reg::A0, Reg::ZERO, SCRATCH_REG, 0)
            }
            Inst::Mem { op: m, ra, rb, disp } => {
                let (uop, rc) = match m {
                    MemOp::Ldq => (Uop::Ldq, dest(ra)),
                    MemOp::Ldl => (Uop::Ldl, dest(ra)),
                    MemOp::Ldbu => (Uop::Ldbu, dest(ra)),
                    MemOp::Stq => (Uop::Stq, SCRATCH_REG),
                    MemOp::Stl => (Uop::Stl, SCRATCH_REG),
                    MemOp::Stb => (Uop::Stb, SCRATCH_REG),
                };
                op(uop, ra, rb, rc, i64::from(disp) as u64)
            }
            Inst::Lda { high, ra, rb, disp } => {
                let d = if high { i64::from(disp) << 16 } else { i64::from(disp) };
                op(Uop::Lda, Reg::ZERO, rb, dest(ra), d as u64)
            }
            Inst::Br { ra, disp, .. } => {
                op(Uop::Br, Reg::ZERO, Reg::ZERO, dest(ra), branch_target(disp))
            }
            Inst::CondBr { op: c, ra, disp } => {
                let uop = match c {
                    CondOp::Beq => Uop::Beq,
                    CondOp::Bne => Uop::Bne,
                    CondOp::Blt => Uop::Blt,
                    CondOp::Ble => Uop::Ble,
                    CondOp::Bge => Uop::Bge,
                    CondOp::Bgt => Uop::Bgt,
                };
                op(uop, ra, Reg::ZERO, SCRATCH_REG, branch_target(disp))
            }
            Inst::Op { op: alu, ra, rb, rc } => {
                let (uops, rb, imm) = match rb {
                    Operand::Reg(r) => (ALU_REG, r, 0),
                    Operand::Lit(l) => (ALU_LIT, Reg::ZERO, u64::from(l)),
                };
                op(uops[alu_index(alu)], ra, rb, dest(rc), imm)
            }
            Inst::Jmp { ra, rb, .. } => op(Uop::Jmp, Reg::ZERO, rb, dest(ra), 0),
        }
    }
}

/// Register-form ALU micro-ops, in [`AluOp::all`] order.
const ALU_REG: [Uop; 16] = [
    Uop::AddqR,
    Uop::SubqR,
    Uop::MulqR,
    Uop::DivqR,
    Uop::RemqR,
    Uop::AndR,
    Uop::BisR,
    Uop::XorR,
    Uop::SllR,
    Uop::SrlR,
    Uop::SraR,
    Uop::CmpeqR,
    Uop::CmpltR,
    Uop::CmpleR,
    Uop::CmpultR,
    Uop::CmpuleR,
];

/// Literal-form ALU micro-ops, in [`AluOp::all`] order.
const ALU_LIT: [Uop; 16] = [
    Uop::AddqL,
    Uop::SubqL,
    Uop::MulqL,
    Uop::DivqL,
    Uop::RemqL,
    Uop::AndL,
    Uop::BisL,
    Uop::XorL,
    Uop::SllL,
    Uop::SrlL,
    Uop::SraL,
    Uop::CmpeqL,
    Uop::CmpltL,
    Uop::CmpleL,
    Uop::CmpultL,
    Uop::CmpuleL,
];

fn alu_index(op: AluOp) -> usize {
    AluOp::all().iter().position(|&o| o == op).expect("every ALU op is listed")
}

/// How an instruction transfers control — what a branch predictor needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Not a control-transfer instruction.
    None,
    /// Conditional PC-relative branch.
    Cond,
    /// Direct unconditional branch (`br`).
    Jump,
    /// Direct call (`bsr`).
    Call,
    /// Register-indirect jump (`jmp`).
    Indirect,
    /// Register-indirect call (`jsr`).
    IndirectCall,
    /// Return (`ret`).
    Return,
}

impl ControlKind {
    /// Classifies `inst`.
    #[must_use]
    pub fn of(inst: &Inst) -> ControlKind {
        match *inst {
            Inst::CondBr { .. } => ControlKind::Cond,
            Inst::Br { op: BrOp::Br, .. } => ControlKind::Jump,
            Inst::Br { op: BrOp::Bsr, .. } => ControlKind::Call,
            Inst::Jmp { kind: JmpKind::Jmp, .. } => ControlKind::Indirect,
            Inst::Jmp { kind: JmpKind::Jsr, .. } => ControlKind::IndirectCall,
            Inst::Jmp { kind: JmpKind::Ret, .. } => ControlKind::Return,
            Inst::Sys { .. } | Inst::Mem { .. } | Inst::Lda { .. } | Inst::Op { .. } => {
                ControlKind::None
            }
        }
    }
}

/// What an instruction is, independent of the values it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticInfo {
    /// Source registers as [`Inst::src_regs`] orders them, [`NO_REG`]-padded.
    pub srcs: [u8; 2],
    /// Destination register, or [`NO_REG`] (none, or `$zero`).
    pub dest: u8,
    /// Memory base register (meaningful under [`StaticInfo::MEM`]).
    pub base: u8,
    /// Memory access size in bytes (meaningful under [`StaticInfo::MEM`]).
    pub size: u8,
    /// Non-memory execution class: 0 ALU, 1 multiply, 2 divide/remainder.
    pub class: u8,
    /// The control-transfer kind.
    pub control: ControlKind,
    /// `StaticInfo::*` property bits.
    pub flags: u8,
}

impl StaticInfo {
    // Bits 3–5 stay free: consumers add per-execution properties (stack
    // region, control outcome) beside these in one byte.

    /// Loads and stores.
    pub const MEM: u8 = 1 << 0;
    /// Stores.
    pub const STORE: u8 = 1 << 1;
    /// Memory references addressed off `$sp`.
    pub const SP_BASE: u8 = 1 << 2;
    /// Writes `$sp`.
    pub const WRITES_SP: u8 = 1 << 6;
    /// Writes `$sp` other than by an immediate adjustment
    /// (`lda $sp, imm($sp)`): the SVF decode stage interlocks on it (§3.1).
    pub const SP_INTERLOCK: u8 = 1 << 7;

    /// Classifies `inst`.
    #[must_use]
    pub fn of(inst: &Inst) -> StaticInfo {
        let mut srcs = [NO_REG; 2];
        for (slot, r) in srcs.iter_mut().zip(inst.src_regs()) {
            *slot = r.map_or(NO_REG, Reg::number);
        }
        let mut info = StaticInfo {
            srcs,
            dest: inst.dest().map_or(NO_REG, Reg::number),
            base: Reg::ZERO.number(),
            size: 0,
            class: 0,
            control: ControlKind::of(inst),
            flags: 0,
        };
        match *inst {
            Inst::Mem { op, rb, .. } => {
                info.flags |= StaticInfo::MEM;
                if op.is_store() {
                    info.flags |= StaticInfo::STORE;
                }
                if rb.is_sp() {
                    info.flags |= StaticInfo::SP_BASE;
                }
                info.base = rb.number();
                info.size = op.size() as u8;
            }
            Inst::Op { op, .. } => {
                info.class = match op {
                    AluOp::Mulq => 1,
                    AluOp::Divq | AluOp::Remq => 2,
                    _ => 0,
                };
            }
            _ => {}
        }
        if inst.writes_sp() {
            info.flags |= StaticInfo::WRITES_SP;
            if inst.sp_immediate_adjust().is_none() {
                info.flags |= StaticInfo::SP_INTERLOCK;
            }
        }
        info
    }

    /// Whether the instruction references memory.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        self.flags & StaticInfo::MEM != 0
    }

    /// Whether the instruction is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.flags & StaticInfo::STORE != 0
    }

    /// Whether the instruction writes `$sp`.
    #[must_use]
    pub fn writes_sp(&self) -> bool {
        self.flags & StaticInfo::WRITES_SP != 0
    }

    /// Whether the instruction can redirect control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.control != ControlKind::None
    }
}

/// A program's text lowered once ([`Program::lowered`]): index `i` of each
/// table describes the instruction at `TEXT_BASE + 4*i`.
///
/// [`Program::lowered`]: crate::Program::lowered
#[derive(Debug)]
pub struct Lowered {
    /// The micro-op the stepping loop executes.
    pub ops: Box<[MicroOp]>,
    /// The instruction's static facts.
    pub info: Box<[StaticInfo]>,
    /// The decoded instruction, for consumers that report it.
    pub insts: Arc<[Inst]>,
}

impl Lowered {
    /// Lowers a decoded text segment laid out from [`TEXT_BASE`].
    #[must_use]
    pub(crate) fn new(insts: Arc<[Inst]>) -> Lowered {
        let pc = |i: usize| TEXT_BASE + 4 * i as u64;
        Lowered {
            ops: insts.iter().enumerate().map(|(i, inst)| MicroOp::lower(inst, pc(i))).collect(),
            info: insts.iter().map(StaticInfo::of).collect(),
            insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_tables_follow_the_op_list() {
        for (i, &op) in AluOp::all().iter().enumerate() {
            let name = format!("{op:?}");
            assert_eq!(format!("{:?}", ALU_REG[i]), format!("{name}R"));
            assert_eq!(format!("{:?}", ALU_LIT[i]), format!("{name}L"));
        }
    }

    #[test]
    fn zero_destinations_go_to_the_scratch_slot() {
        let i = Inst::Op { op: AluOp::Addq, ra: Reg::A0, rb: Operand::Lit(1), rc: Reg::ZERO };
        assert_eq!(MicroOp::lower(&i, 0).rc, SCRATCH_REG);
        assert_eq!(StaticInfo::of(&i).dest, NO_REG);
        let ld = Inst::Mem { op: MemOp::Ldq, ra: Reg::ZERO, rb: Reg::SP, disp: 8 };
        assert_eq!(MicroOp::lower(&ld, 0).rc, SCRATCH_REG);
    }

    #[test]
    fn immediates_and_targets_are_precomputed() {
        let ldah = Inst::Lda { high: true, ra: Reg::T0, rb: Reg::T1, disp: -2 };
        assert_eq!(MicroOp::lower(&ldah, 0).imm, (-2i64 << 16) as u64);
        let back = Inst::CondBr { op: CondOp::Bne, ra: Reg::T0, disp: -3 };
        assert_eq!(MicroOp::lower(&back, 0x1000).imm, 0x1000 + 4 - 12);
    }

    #[test]
    fn static_facts_classify_the_stack_interlock() {
        let adjust =
            StaticInfo::of(&Inst::Lda { high: false, ra: Reg::SP, rb: Reg::SP, disp: -16 });
        assert!(adjust.writes_sp() && adjust.flags & StaticInfo::SP_INTERLOCK == 0);
        let mov = StaticInfo::of(&Inst::Op {
            op: AluOp::Bis,
            ra: Reg::T0,
            rb: Operand::Reg(Reg::ZERO),
            rc: Reg::SP,
        });
        assert!(mov.writes_sp() && mov.flags & StaticInfo::SP_INTERLOCK != 0);
        let st = StaticInfo::of(&Inst::Mem { op: MemOp::Stl, ra: Reg::T0, rb: Reg::SP, disp: 4 });
        assert_eq!(st.flags, StaticInfo::MEM | StaticInfo::STORE | StaticInfo::SP_BASE);
        assert_eq!((st.size, st.base, st.srcs), (4, Reg::SP.number(), [30, 1]));
    }
}
