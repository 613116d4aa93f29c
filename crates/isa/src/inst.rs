//! Decoded instruction representation and classification helpers.

use std::fmt;

use crate::reg::Reg;

/// Memory (load/store) operations. All use `disp16(rb)` addressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// 64-bit load (`ldq ra, disp(rb)`).
    Ldq,
    /// 32-bit sign-extending load (`ldl`).
    Ldl,
    /// 8-bit zero-extending load (`ldbu`).
    Ldbu,
    /// 64-bit store (`stq ra, disp(rb)`).
    Stq,
    /// 32-bit store (`stl`).
    Stl,
    /// 8-bit store (`stb`).
    Stb,
}

impl MemOp {
    /// Whether this operation reads memory.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, MemOp::Ldq | MemOp::Ldl | MemOp::Ldbu)
    }

    /// Whether this operation writes memory.
    #[must_use]
    pub fn is_store(self) -> bool {
        !self.is_load()
    }

    /// The access size in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            MemOp::Ldq | MemOp::Stq => 8,
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldbu | MemOp::Stb => 1,
        }
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Ldq => "ldq",
            MemOp::Ldl => "ldl",
            MemOp::Ldbu => "ldbu",
            MemOp::Stq => "stq",
            MemOp::Stl => "stl",
            MemOp::Stb => "stb",
        }
    }
}

/// Integer ALU operations for the operate format (`op ra, rb_or_lit, rc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rc = ra + rb`
    Addq,
    /// `rc = ra - rb`
    Subq,
    /// `rc = ra * rb` (low 64 bits)
    Mulq,
    /// Signed division; division by zero yields 0, `i64::MIN / -1` yields
    /// `i64::MIN`. (The real Alpha had no integer divide; we add one so the
    /// MiniC compiler does not need a software divide routine. Latency is
    /// modelled as a long-latency FU op.)
    Divq,
    /// Signed remainder with the same trap-free convention as [`AluOp::Divq`]
    /// (`x % 0 == x`).
    Remq,
    /// Bitwise AND.
    And,
    /// Bitwise OR (Alpha calls this `bis`).
    Bis,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (amount taken mod 64).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// `rc = (ra == rb) as u64`
    Cmpeq,
    /// Signed `rc = (ra < rb) as u64`
    Cmplt,
    /// Signed `rc = (ra <= rb) as u64`
    Cmple,
    /// Unsigned `rc = (ra < rb) as u64`
    Cmpult,
    /// Unsigned `rc = (ra <= rb) as u64`
    Cmpule,
}

impl AluOp {
    /// The function code used in the binary encoding.
    #[must_use]
    pub fn func(self) -> u8 {
        match self {
            AluOp::Addq => 0x00,
            AluOp::Subq => 0x01,
            AluOp::Mulq => 0x02,
            AluOp::Divq => 0x03,
            AluOp::Remq => 0x04,
            AluOp::And => 0x08,
            AluOp::Bis => 0x09,
            AluOp::Xor => 0x0A,
            AluOp::Sll => 0x10,
            AluOp::Srl => 0x11,
            AluOp::Sra => 0x12,
            AluOp::Cmpeq => 0x20,
            AluOp::Cmplt => 0x21,
            AluOp::Cmple => 0x22,
            AluOp::Cmpult => 0x23,
            AluOp::Cmpule => 0x24,
        }
    }

    /// Inverse of [`AluOp::func`].
    #[must_use]
    pub fn from_func(f: u8) -> Option<AluOp> {
        Some(match f {
            0x00 => AluOp::Addq,
            0x01 => AluOp::Subq,
            0x02 => AluOp::Mulq,
            0x03 => AluOp::Divq,
            0x04 => AluOp::Remq,
            0x08 => AluOp::And,
            0x09 => AluOp::Bis,
            0x0A => AluOp::Xor,
            0x10 => AluOp::Sll,
            0x11 => AluOp::Srl,
            0x12 => AluOp::Sra,
            0x20 => AluOp::Cmpeq,
            0x21 => AluOp::Cmplt,
            0x22 => AluOp::Cmple,
            0x23 => AluOp::Cmpult,
            0x24 => AluOp::Cmpule,
            _ => return None,
        })
    }

    /// All defined ALU operations.
    #[must_use]
    pub fn all() -> &'static [AluOp] {
        &[
            AluOp::Addq,
            AluOp::Subq,
            AluOp::Mulq,
            AluOp::Divq,
            AluOp::Remq,
            AluOp::And,
            AluOp::Bis,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Cmpeq,
            AluOp::Cmplt,
            AluOp::Cmple,
            AluOp::Cmpult,
            AluOp::Cmpule,
        ]
    }

    /// Applies the operation to two 64-bit values.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            AluOp::Addq => a.wrapping_add(b),
            AluOp::Subq => a.wrapping_sub(b),
            AluOp::Mulq => a.wrapping_mul(b),
            AluOp::Divq => {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_div(sb) as u64
                }
            }
            AluOp::Remq => {
                if sb == 0 {
                    a
                } else {
                    sa.wrapping_rem(sb) as u64
                }
            }
            AluOp::And => a & b,
            AluOp::Bis => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b as u32 & 63),
            AluOp::Srl => a.wrapping_shr(b as u32 & 63),
            AluOp::Sra => (sa.wrapping_shr(b as u32 & 63)) as u64,
            AluOp::Cmpeq => u64::from(a == b),
            AluOp::Cmplt => u64::from(sa < sb),
            AluOp::Cmple => u64::from(sa <= sb),
            AluOp::Cmpult => u64::from(a < b),
            AluOp::Cmpule => u64::from(a <= b),
        }
    }

    /// Whether this op runs on the (scarce, long-latency) multiplier unit.
    #[must_use]
    pub fn is_mul_class(self) -> bool {
        matches!(self, AluOp::Mulq | AluOp::Divq | AluOp::Remq)
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Addq => "addq",
            AluOp::Subq => "subq",
            AluOp::Mulq => "mulq",
            AluOp::Divq => "divq",
            AluOp::Remq => "remq",
            AluOp::And => "and",
            AluOp::Bis => "bis",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Cmpeq => "cmpeq",
            AluOp::Cmplt => "cmplt",
            AluOp::Cmple => "cmple",
            AluOp::Cmpult => "cmpult",
            AluOp::Cmpule => "cmpule",
        }
    }
}

/// Conditional branch conditions. All test `ra` against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondOp {
    /// Branch if `ra == 0`.
    Beq,
    /// Branch if `ra != 0`.
    Bne,
    /// Branch if `ra < 0` (signed).
    Blt,
    /// Branch if `ra <= 0` (signed).
    Ble,
    /// Branch if `ra >= 0` (signed).
    Bge,
    /// Branch if `ra > 0` (signed).
    Bgt,
}

impl CondOp {
    /// Evaluates the branch condition against a register value.
    #[must_use]
    pub fn taken(self, v: u64) -> bool {
        let s = v as i64;
        match self {
            CondOp::Beq => s == 0,
            CondOp::Bne => s != 0,
            CondOp::Blt => s < 0,
            CondOp::Ble => s <= 0,
            CondOp::Bge => s >= 0,
            CondOp::Bgt => s > 0,
        }
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CondOp::Beq => "beq",
            CondOp::Bne => "bne",
            CondOp::Blt => "blt",
            CondOp::Ble => "ble",
            CondOp::Bge => "bge",
            CondOp::Bgt => "bgt",
        }
    }
}

/// Unconditional PC-relative branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrOp {
    /// Plain branch; `ra` receives the return address (use `$zero` to discard).
    Br,
    /// Branch-to-subroutine: identical semantics, but hints "call" to the
    /// return-address-stack predictor.
    Bsr,
}

/// Register-indirect jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JmpKind {
    /// Indirect jump.
    Jmp,
    /// Indirect call (pushes onto the RAS predictor).
    Jsr,
    /// Return (pops the RAS predictor).
    Ret,
}

impl JmpKind {
    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            JmpKind::Jmp => "jmp",
            JmpKind::Jsr => "jsr",
            JmpKind::Ret => "ret",
        }
    }
}

/// System-call functions (opcode 0 instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysFunc {
    /// Stop the machine.
    Halt,
    /// Print `$a0` as a signed decimal integer followed by a newline.
    PutInt,
    /// Print the low byte of `$a0` as a character.
    PutChar,
}

impl SysFunc {
    /// Encoding function code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            SysFunc::Halt => 0,
            SysFunc::PutInt => 1,
            SysFunc::PutChar => 2,
        }
    }

    /// Inverse of [`SysFunc::code`].
    #[must_use]
    pub fn from_code(c: u16) -> Option<SysFunc> {
        Some(match c {
            0 => SysFunc::Halt,
            1 => SysFunc::PutInt,
            2 => SysFunc::PutChar,
            _ => return None,
        })
    }
}

/// Second operand of an operate-format instruction: a register or an 8-bit
/// unsigned literal (as on the Alpha).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An 8-bit unsigned immediate.
    Lit(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

/// A decoded instruction.
///
/// Branch displacements are in *instruction words* relative to the updated PC
/// (`PC + 4`), exactly as on the Alpha.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// System call (`sys func`).
    Sys {
        /// Which system function.
        func: SysFunc,
    },
    /// Load or store: `op ra, disp(rb)`.
    Mem {
        /// Operation (load/store and width).
        op: MemOp,
        /// Data register (destination for loads, source for stores).
        ra: Reg,
        /// Base address register.
        rb: Reg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Load address: `lda ra, disp(rb)` → `ra = rb + disp`.
    ///
    /// With `high` set (`ldah`) the displacement is shifted left 16 bits.
    /// `lda $sp, imm($sp)` is the canonical stack adjustment the SVF watches.
    Lda {
        /// Shift the displacement left by 16 (`ldah`)?
        high: bool,
        /// Destination register.
        ra: Reg,
        /// Base register.
        rb: Reg,
        /// Signed displacement.
        disp: i16,
    },
    /// Unconditional PC-relative branch; `ra` receives the return address.
    Br {
        /// Plain branch or call-hinted branch.
        op: BrOp,
        /// Link register (use `$zero` for a plain goto).
        ra: Reg,
        /// Signed displacement in instructions from `PC + 4`.
        disp: i32,
    },
    /// Conditional PC-relative branch testing `ra` against zero.
    CondBr {
        /// Branch condition.
        op: CondOp,
        /// Register tested against zero.
        ra: Reg,
        /// Signed displacement in instructions from `PC + 4`.
        disp: i32,
    },
    /// Integer operate: `op ra, rb_or_lit, rc`.
    Op {
        /// The ALU operation.
        op: AluOp,
        /// First source register.
        ra: Reg,
        /// Second source (register or 8-bit literal).
        rb: Operand,
        /// Destination register.
        rc: Reg,
    },
    /// Register-indirect jump: `jmp/jsr/ret ra, (rb)`.
    Jmp {
        /// Jump / call / return.
        kind: JmpKind,
        /// Link register receiving `PC + 4`.
        ra: Reg,
        /// Register holding the target address.
        rb: Reg,
    },
}

impl Inst {
    /// The architectural destination register, if the instruction writes one
    /// (writes to `$zero` are reported as `None`).
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::Sys { .. } => return None,
            Inst::Mem { op, ra, .. } => {
                if op.is_load() {
                    ra
                } else {
                    return None;
                }
            }
            Inst::Lda { ra, .. } => ra,
            Inst::Br { ra, .. } | Inst::Jmp { ra, .. } => ra,
            Inst::CondBr { .. } => return None,
            Inst::Op { rc, .. } => rc,
        };
        if d.is_zero() {
            None
        } else {
            Some(d)
        }
    }

    /// The architectural source registers (excluding `$zero`), deduplicated.
    #[must_use]
    pub fn srcs(&self) -> Vec<Reg> {
        self.src_regs().into_iter().flatten().collect()
    }

    /// [`Inst::srcs`] without the allocation: no instruction reads more than
    /// two distinct registers, so the sources come back as a `None`-padded
    /// pair. This is the form the cycle simulator's dispatch hot path uses.
    #[must_use]
    pub fn src_regs(&self) -> [Option<Reg>; 2] {
        let mut out = [None, None];
        let mut push = |r: Reg| {
            if !r.is_zero() && out[0] != Some(r) && out[1] != Some(r) {
                if out[0].is_none() {
                    out[0] = Some(r);
                } else {
                    debug_assert!(out[1].is_none(), "an instruction reads at most two registers");
                    out[1] = Some(r);
                }
            }
        };
        match *self {
            Inst::Sys { func } => {
                if func != SysFunc::Halt {
                    push(Reg::A0);
                }
            }
            Inst::Mem { op, ra, rb, .. } => {
                push(rb);
                if op.is_store() {
                    push(ra);
                }
            }
            Inst::Lda { rb, .. } => push(rb),
            Inst::Br { .. } => {}
            Inst::CondBr { ra, .. } => push(ra),
            Inst::Op { ra, rb, .. } => {
                push(ra);
                if let Operand::Reg(r) = rb {
                    push(r);
                }
            }
            Inst::Jmp { rb, .. } => push(rb),
        }
        out
    }

    /// Whether this is a memory load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Mem { op, .. } if op.is_load())
    }

    /// Whether this is a memory store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Mem { op, .. } if op.is_store())
    }

    /// Whether this instruction can redirect control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Br { .. } | Inst::CondBr { .. } | Inst::Jmp { .. })
    }

    /// Whether this is a call (for return-address-stack purposes).
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Br { op: BrOp::Bsr, .. } | Inst::Jmp { kind: JmpKind::Jsr, .. })
    }

    /// Whether this is a return.
    #[must_use]
    pub fn is_ret(&self) -> bool {
        matches!(self, Inst::Jmp { kind: JmpKind::Ret, .. })
    }

    /// Whether this memory reference uses `$sp`-relative addressing — the
    /// class of references the SVF front end can *morph* into register moves.
    #[must_use]
    pub fn is_sp_relative_mem(&self) -> bool {
        matches!(self, Inst::Mem { rb, .. } if rb.is_sp())
    }

    /// Whether this instruction writes the stack pointer.
    #[must_use]
    pub fn writes_sp(&self) -> bool {
        self.dest() == Some(Reg::SP)
    }

    /// Whether this is a stack-pointer adjustment by an immediate constant
    /// (`lda $sp, imm($sp)`), the only `$sp` update the SVF decode stage can
    /// track speculatively. Returns the byte delta when so.
    #[must_use]
    pub fn sp_immediate_adjust(&self) -> Option<i64> {
        match *self {
            Inst::Lda { high, ra, rb, disp } if ra.is_sp() && rb.is_sp() => {
                let d = i64::from(disp);
                Some(if high { d << 16 } else { d })
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Sys { func } => match func {
                SysFunc::Halt => write!(f, "halt"),
                SysFunc::PutInt => write!(f, "putint"),
                SysFunc::PutChar => write!(f, "putchar"),
            },
            Inst::Mem { op, ra, rb, disp } => {
                write!(f, "{} {ra}, {disp}({rb})", op.mnemonic())
            }
            Inst::Lda { high, ra, rb, disp } => {
                write!(f, "{} {ra}, {disp}({rb})", if high { "ldah" } else { "lda" })
            }
            Inst::Br { op, ra, disp } => {
                let m = match op {
                    BrOp::Br => "br",
                    BrOp::Bsr => "bsr",
                };
                write!(f, "{m} {ra}, {disp}")
            }
            Inst::CondBr { op, ra, disp } => write!(f, "{} {ra}, {disp}", op.mnemonic()),
            Inst::Op { op, ra, rb, rc } => write!(f, "{} {ra}, {rb}, {rc}", op.mnemonic()),
            Inst::Jmp { kind, ra, rb } => write!(f, "{} {ra}, ({rb})", kind.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_apply_basics() {
        assert_eq!(AluOp::Addq.apply(3, 4), 7);
        assert_eq!(AluOp::Subq.apply(3, 4), (-1i64) as u64);
        assert_eq!(AluOp::Mulq.apply(6, 7), 42);
        assert_eq!(AluOp::Mulq.apply(1 << 40, 1 << 30), 0, "low 64 bits only");
        assert_eq!(AluOp::Divq.apply(7, 2), 3);
        assert_eq!(AluOp::Divq.apply((-7i64) as u64, 2), (-3i64) as u64);
        assert_eq!(AluOp::Divq.apply(7, 0), 0);
        assert_eq!(AluOp::Remq.apply(7, 0), 7);
        assert_eq!(AluOp::Remq.apply((-7i64) as u64, 2), (-1i64) as u64);
        assert_eq!(AluOp::Divq.apply(i64::MIN as u64, (-1i64) as u64), i64::MIN as u64);
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.apply(1, 65), 2);
        assert_eq!(AluOp::Srl.apply(u64::MAX, 63), 1);
        assert_eq!(AluOp::Sra.apply((-8i64) as u64, 2), (-2i64) as u64);
    }

    #[test]
    fn alu_compares() {
        assert_eq!(AluOp::Cmplt.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Cmpult.apply((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::Cmpeq.apply(5, 5), 1);
        assert_eq!(AluOp::Cmple.apply(5, 5), 1);
        assert_eq!(AluOp::Cmpule.apply(6, 5), 0);
    }

    #[test]
    fn cond_taken() {
        assert!(CondOp::Beq.taken(0));
        assert!(!CondOp::Beq.taken(1));
        assert!(CondOp::Blt.taken((-1i64) as u64));
        assert!(!CondOp::Blt.taken(0));
        assert!(CondOp::Bge.taken(0));
        assert!(CondOp::Bgt.taken(1));
        assert!(CondOp::Ble.taken(0));
        assert!(CondOp::Bne.taken(2));
    }

    #[test]
    fn dest_and_srcs() {
        let i = Inst::Op { op: AluOp::Addq, ra: Reg::A0, rb: Operand::Reg(Reg::A1), rc: Reg::V0 };
        assert_eq!(i.dest(), Some(Reg::V0));
        assert_eq!(i.srcs(), vec![Reg::A0, Reg::A1]);

        let st = Inst::Mem { op: MemOp::Stq, ra: Reg::T0, rb: Reg::SP, disp: 16 };
        assert_eq!(st.dest(), None);
        assert_eq!(st.srcs(), vec![Reg::SP, Reg::T0]);
        assert!(st.is_sp_relative_mem());
        assert!(st.is_store() && !st.is_load());

        let ld = Inst::Mem { op: MemOp::Ldq, ra: Reg::T0, rb: Reg::FP, disp: -8 };
        assert_eq!(ld.dest(), Some(Reg::T0));
        assert_eq!(ld.srcs(), vec![Reg::FP]);
        assert!(!ld.is_sp_relative_mem());
    }

    #[test]
    fn zero_dest_is_discarded() {
        let i = Inst::Op { op: AluOp::Addq, ra: Reg::A0, rb: Operand::Lit(1), rc: Reg::ZERO };
        assert_eq!(i.dest(), None);
        let b = Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: -4 };
        assert_eq!(b.dest(), None);
    }

    #[test]
    fn sp_adjust_detection() {
        let grow = Inst::Lda { high: false, ra: Reg::SP, rb: Reg::SP, disp: -64 };
        assert_eq!(grow.sp_immediate_adjust(), Some(-64));
        assert!(grow.writes_sp());

        let other = Inst::Lda { high: false, ra: Reg::SP, rb: Reg::T0, disp: 0 };
        assert_eq!(other.sp_immediate_adjust(), None);
        assert!(other.writes_sp());

        let high = Inst::Lda { high: true, ra: Reg::SP, rb: Reg::SP, disp: 1 };
        assert_eq!(high.sp_immediate_adjust(), Some(65536));
    }

    #[test]
    fn call_ret_classification() {
        assert!(Inst::Br { op: BrOp::Bsr, ra: Reg::RA, disp: 10 }.is_call());
        assert!(!Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 10 }.is_call());
        assert!(Inst::Jmp { kind: JmpKind::Jsr, ra: Reg::RA, rb: Reg::PV }.is_call());
        assert!(Inst::Jmp { kind: JmpKind::Ret, ra: Reg::ZERO, rb: Reg::RA }.is_ret());
    }

    #[test]
    fn display_is_nonempty_and_stable() {
        let i = Inst::Mem { op: MemOp::Ldq, ra: Reg::T0, rb: Reg::SP, disp: 8 };
        assert_eq!(i.to_string(), "ldq $t0, 8($sp)");
        let j = Inst::Jmp { kind: JmpKind::Ret, ra: Reg::ZERO, rb: Reg::RA };
        assert_eq!(j.to_string(), "ret $zero, ($ra)");
    }
}
