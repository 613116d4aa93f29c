//! Register names and software conventions.

use std::fmt;

/// One of the 32 general-purpose 64-bit integer registers.
///
/// The software conventions follow the Compaq Alpha calling standard, which
/// is what the SVF paper assumes:
///
/// | register | name | role |
/// |---|---|---|
/// | r0 | `$v0` | function return value |
/// | r1–r8 | `$t0`–`$t7` | caller-saved temporaries |
/// | r9–r14 | `$s0`–`$s5` | callee-saved |
/// | r15 | `$fp` | frame pointer |
/// | r16–r21 | `$a0`–`$a5` | argument registers |
/// | r22–r25 | `$t8`–`$t11` | caller-saved temporaries |
/// | r26 | `$ra` | return address |
/// | r27 | `$pv` | procedure value / scratch |
/// | r28 | `$at` | assembler temporary |
/// | r29 | `$gp` | global pointer / scratch |
/// | r30 | `$sp` | **stack pointer** |
/// | r31 | `$zero` | hardwired zero |
///
/// # Example
///
/// ```
/// use svf_isa::Reg;
/// assert_eq!(Reg::SP.number(), 30);
/// assert_eq!(Reg::from_number(31), Reg::ZERO);
/// assert_eq!(Reg::SP.to_string(), "$sp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Function return value register (r0).
    pub const V0: Reg = Reg(0);
    /// Caller-saved temporary r1.
    pub const T0: Reg = Reg(1);
    /// Caller-saved temporary r2.
    pub const T1: Reg = Reg(2);
    /// Caller-saved temporary r3.
    pub const T2: Reg = Reg(3);
    /// Caller-saved temporary r4.
    pub const T3: Reg = Reg(4);
    /// Caller-saved temporary r5.
    pub const T4: Reg = Reg(5);
    /// Caller-saved temporary r6.
    pub const T5: Reg = Reg(6);
    /// Caller-saved temporary r7.
    pub const T6: Reg = Reg(7);
    /// Caller-saved temporary r8.
    pub const T7: Reg = Reg(8);
    /// Callee-saved register r9.
    pub const S0: Reg = Reg(9);
    /// Callee-saved register r10.
    pub const S1: Reg = Reg(10);
    /// Callee-saved register r11.
    pub const S2: Reg = Reg(11);
    /// Callee-saved register r12.
    pub const S3: Reg = Reg(12);
    /// Callee-saved register r13.
    pub const S4: Reg = Reg(13);
    /// Callee-saved register r14.
    pub const S5: Reg = Reg(14);
    /// Frame pointer (r15).
    pub const FP: Reg = Reg(15);
    /// First argument register (r16).
    pub const A0: Reg = Reg(16);
    /// Second argument register (r17).
    pub const A1: Reg = Reg(17);
    /// Third argument register (r18).
    pub const A2: Reg = Reg(18);
    /// Fourth argument register (r19).
    pub const A3: Reg = Reg(19);
    /// Fifth argument register (r20).
    pub const A4: Reg = Reg(20);
    /// Sixth argument register (r21).
    pub const A5: Reg = Reg(21);
    /// Caller-saved temporary r22.
    pub const T8: Reg = Reg(22);
    /// Caller-saved temporary r23.
    pub const T9: Reg = Reg(23);
    /// Caller-saved temporary r24.
    pub const T10: Reg = Reg(24);
    /// Caller-saved temporary r25.
    pub const T11: Reg = Reg(25);
    /// Return-address register (r26).
    pub const RA: Reg = Reg(26);
    /// Procedure value / scratch register (r27).
    pub const PV: Reg = Reg(27);
    /// Assembler temporary (r28).
    pub const AT: Reg = Reg(28);
    /// Global pointer / scratch register (r29).
    pub const GP: Reg = Reg(29);
    /// Stack pointer (r30). The register the SVF watches.
    pub const SP: Reg = Reg(30);
    /// Hardwired zero register (r31). Writes are discarded.
    pub const ZERO: Reg = Reg(31);

    /// Builds a register from its architectural number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn from_number(n: u8) -> Reg {
        assert!(n < 32, "register number out of range: {n}");
        Reg(n)
    }

    /// The architectural register number (0–31).
    #[must_use]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired zero register.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Reg::ZERO
    }

    /// Whether this is the stack pointer.
    #[must_use]
    pub fn is_sp(self) -> bool {
        self == Reg::SP
    }

    /// Whether this is the frame pointer.
    #[must_use]
    pub fn is_fp(self) -> bool {
        self == Reg::FP
    }

    /// Whether the register is preserved across calls under the Alpha
    /// calling convention used by the MiniC compiler.
    #[must_use]
    pub fn is_callee_saved(self) -> bool {
        matches!(self.0, 9..=15 | 30)
    }

    /// Iterates over all 32 registers in architectural order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }

    /// The conventional assembly name (`$sp`, `$t0`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "$v0", "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7", "$s0", "$s1", "$s2",
            "$s3", "$s4", "$s5", "$fp", "$a0", "$a1", "$a2", "$a3", "$a4", "$a5", "$t8", "$t9",
            "$t10", "$t11", "$ra", "$pv", "$at", "$gp", "$sp", "$zero",
        ];
        NAMES[self.0 as usize]
    }

    /// Parses a register from either its conventional name (`$sp`) or its
    /// numeric form (`$r30` / `r30`), returning `None` on anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Reg> {
        let body = s.strip_prefix('$').unwrap_or(s);
        for r in Reg::all() {
            if r.name().strip_prefix('$') == Some(body) {
                return Some(r);
            }
        }
        let num = body.strip_prefix('r')?;
        let n: u8 = num.parse().ok()?;
        if n < 32 {
            Some(Reg(n))
        } else {
            None
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for r in Reg::all() {
            assert_eq!(Reg::from_number(r.number()), r);
        }
    }

    #[test]
    fn conventions() {
        assert_eq!(Reg::SP.number(), 30);
        assert_eq!(Reg::FP.number(), 15);
        assert_eq!(Reg::RA.number(), 26);
        assert_eq!(Reg::ZERO.number(), 31);
        assert!(Reg::SP.is_sp());
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::T0.is_callee_saved());
        assert!(Reg::S0.is_callee_saved());
        assert!(Reg::SP.is_callee_saved());
    }

    #[test]
    fn parse_names_and_numbers() {
        assert_eq!(Reg::parse("$sp"), Some(Reg::SP));
        assert_eq!(Reg::parse("sp"), Some(Reg::SP));
        assert_eq!(Reg::parse("$r30"), Some(Reg::SP));
        assert_eq!(Reg::parse("r0"), Some(Reg::V0));
        assert_eq!(Reg::parse("$zero"), Some(Reg::ZERO));
        assert_eq!(Reg::parse("r32"), None);
        assert_eq!(Reg::parse("bogus"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Reg::A3.to_string(), "$a3");
        assert_eq!(format!("{}", Reg::ZERO), "$zero");
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn from_number_rejects_out_of_range() {
        let _ = Reg::from_number(32);
    }
}
