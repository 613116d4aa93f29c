//! The lowered stepping loop, case by case: every ALU operation in register
//! and literal form, every branch condition taken and not taken, every
//! memory operation aligned, misaligned and across a page boundary, `$zero`
//! destinations, the system calls, and PCs outside the text. Each case runs
//! through `run`, `run_observe` and `step_record`, which must agree on the
//! registers, PC, step count, output and returned error; the results are
//! checked against `AluOp::apply` and `CondOp::taken`.

use std::collections::BTreeMap;

use svf_emu::{EmuError, Emulator, MemAccess, RunOutcome, SpUpdate, StepObserver};
use svf_isa::{
    encode, AluOp, BrOp, CondOp, Inst, JmpKind, MemOp, Operand, Program, Reg, SysFunc, DATA_BASE,
    TEXT_BASE,
};

/// Steps every case may take; no case runs this long.
const LIMIT: u64 = 64;

/// A data word at the start of a page, and its page's last quad-word.
const BUF: u64 = DATA_BASE + 0x1000;
const PAGE_END: u64 = BUF + 0x1000;

fn program(insts: &[Inst]) -> Program {
    let text = insts.iter().map(encode).collect();
    // Two pages of data with a recognisable pattern, so loads from either
    // side of the boundary read distinct bytes.
    let data = (0..0x3000u32).map(|i| (i * 7 + 3) as u8).collect();
    Program::from_parts(text, data, TEXT_BASE, DATA_BASE + 0x3000, BTreeMap::new())
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct End {
    result: Result<RunOutcome, EmuError>,
    regs: Vec<u64>,
    pc: u64,
    steps: u64,
    output: Vec<u8>,
    /// The stored-to quad-words around the page boundary.
    memory: [u64; 4],
}

fn end(emu: &Emulator, result: Result<RunOutcome, EmuError>) -> End {
    let m = emu.memory();
    End {
        result,
        regs: Reg::all().map(|r| emu.reg(r)).collect(),
        pc: emu.pc(),
        steps: emu.steps(),
        output: emu.output().to_vec(),
        memory: [BUF, BUF + 8, PAGE_END - 8, PAGE_END].map(|a| m.read_u64(a)),
    }
}

struct Ignore;

impl StepObserver for Ignore {
    fn sp_update(&mut self, _update: SpUpdate, _step: u64) {}
    fn mem(&mut self, _access: MemAccess, _sp_before: u64) {}
}

/// Runs `insts` with `regs` preset through all three entry points, checks
/// they agree, and returns the common end state.
fn run(insts: &[Inst], regs: &[(Reg, u64)]) -> End {
    let p = program(insts);
    let fresh = || {
        let mut emu = Emulator::new(&p);
        for &(r, v) in regs {
            emu.set_reg(r, v);
        }
        emu
    };
    let mut a = fresh();
    let ran = a.run(LIMIT);
    let ran = end(&a, ran);

    let mut b = fresh();
    let observed = b.run_observe(LIMIT, &mut Ignore);
    let observed = end(&b, observed);

    let mut c = fresh();
    let stepped = loop {
        if c.steps() == LIMIT {
            break Ok(RunOutcome::StepLimit);
        }
        match c.step() {
            Ok(_) if c.is_halted() => break Ok(RunOutcome::Halted),
            Ok(_) => {}
            Err(e) => break Err(e),
        }
    };
    let stepped = end(&c, stepped);

    assert_eq!(ran, observed, "run vs run_observe on {insts:?}");
    assert_eq!(ran, stepped, "run vs step_record on {insts:?}");
    ran
}

const HALT: Inst = Inst::Sys { func: SysFunc::Halt };

/// Operand values: zero, small, negative, extreme and shift-sized.
const VALUES: [u64; 8] = [0, 1, 3, 63, 65, u64::MAX, i64::MIN as u64, 0x1234_5678_9ABC_DEF0];

#[test]
fn every_alu_op_in_both_forms_matches_apply() {
    for &op in AluOp::all() {
        for &a in &VALUES {
            for &b in &VALUES {
                let inst = Inst::Op { op, ra: Reg::T0, rb: Operand::Reg(Reg::T1), rc: Reg::T2 };
                let e = run(&[inst, HALT], &[(Reg::T0, a), (Reg::T1, b)]);
                let want = op.apply(a, b);
                assert_eq!(e.regs[Reg::T2.number() as usize], want, "{op:?} {a:#x} {b:#x}");
                assert_eq!(e.result, Ok(RunOutcome::Halted));
            }
            for lit in [0u8, 1, 5, 63, 64, 255] {
                let inst = Inst::Op { op, ra: Reg::T0, rb: Operand::Lit(lit), rc: Reg::T2 };
                let e = run(&[inst, HALT], &[(Reg::T0, a)]);
                let want = op.apply(a, u64::from(lit));
                assert_eq!(e.regs[Reg::T2.number() as usize], want, "{op:?} {a:#x} lit {lit}");
            }
        }
        // Source and destination the same register.
        let inst = Inst::Op { op, ra: Reg::T0, rb: Operand::Reg(Reg::T0), rc: Reg::T0 };
        let e = run(&[inst, HALT], &[(Reg::T0, 9)]);
        assert_eq!(e.regs[Reg::T0.number() as usize], op.apply(9, 9), "{op:?} in place");
    }
}

#[test]
fn every_condition_taken_and_not_matches_taken() {
    let conds = [CondOp::Beq, CondOp::Bne, CondOp::Blt, CondOp::Ble, CondOp::Bge, CondOp::Bgt];
    for op in conds {
        let mut seen = [false; 2];
        for v in [0, 1, u64::MAX, i64::MIN as u64, i64::MAX as u64] {
            // Taken skips the `putchar` and lands on the second halt.
            let insts = [
                Inst::CondBr { op, ra: Reg::T0, disp: 2 },
                Inst::Sys { func: SysFunc::PutChar },
                HALT,
                HALT,
            ];
            let e = run(&insts, &[(Reg::T0, v), (Reg::A0, u64::from(b'n'))]);
            let taken = op.taken(v);
            seen[usize::from(taken)] = true;
            let halt_at = if taken { 3 } else { 2 };
            assert_eq!(e.pc, TEXT_BASE + 4 * (halt_at + 1), "{op:?} on {v:#x}");
            assert_eq!(e.steps, if taken { 2 } else { 3 });
            assert_eq!(e.output, if taken { vec![] } else { b"n".to_vec() });
            // The record reports the same decision.
            let mut emu = Emulator::new(&program(&insts));
            emu.set_reg(Reg::T0, v);
            let r = emu.step().expect("steps");
            assert_eq!(r.control.map(|c| c.taken), Some(taken), "{op:?} record");
        }
        assert_eq!(seen, [true, true], "{op:?} both ways");
    }
}

#[test]
fn every_memory_op_aligned_misaligned_and_across_a_page() {
    let ops = [MemOp::Ldq, MemOp::Ldl, MemOp::Ldbu, MemOp::Stq, MemOp::Stl, MemOp::Stb];
    for op in ops {
        let size = op.size();
        // Aligned at the start of a page and just below its end; one byte
        // off alignment; and straddling the page boundary.
        let cases = [
            (BUF, true),
            (PAGE_END - size, true),
            (BUF + 1, size == 1),
            (PAGE_END - size / 2 - 1, size == 1),
        ];
        for (addr, ok) in cases {
            let insts = [
                // An earlier instruction that must stay committed on a fault.
                Inst::Op { op: AluOp::Addq, ra: Reg::T3, rb: Operand::Lit(1), rc: Reg::T3 },
                Inst::Mem { op, ra: Reg::T0, rb: Reg::T1, disp: 16 },
                HALT,
            ];
            let value = 0xF1E2_D3C4_B5A6_9788;
            let e = run(&insts, &[(Reg::T0, value), (Reg::T1, addr - 16)]);
            assert_eq!(e.regs[Reg::T3.number() as usize], 1, "{op:?} @ {addr:#x}: earlier commit");
            if !ok {
                let want = EmuError::Misaligned { pc: TEXT_BASE + 4, addr, size: size as u8 };
                assert_eq!(e.result, Err(want), "{op:?} @ {addr:#x}");
                assert_eq!((e.pc, e.steps), (TEXT_BASE + 4, 1), "{op:?} @ {addr:#x}: faulting pc");
                assert_eq!(e.regs[Reg::T0.number() as usize], value, "{op:?}: no write");
                continue;
            }
            assert_eq!(e.result, Ok(RunOutcome::Halted), "{op:?} @ {addr:#x}");
            let fresh = Emulator::new(&program(&insts));
            let m = fresh.memory();
            let loaded = e.regs[Reg::T0.number() as usize];
            match op {
                MemOp::Ldq => assert_eq!(loaded, m.read_u64(addr)),
                MemOp::Ldl => assert_eq!(loaded, m.read_u32(addr) as i32 as i64 as u64),
                MemOp::Ldbu => assert_eq!(loaded, u64::from(m.read_u8(addr))),
                MemOp::Stq | MemOp::Stl | MemOp::Stb => {
                    let quad = if addr < PAGE_END - 8 { e.memory[0] } else { e.memory[2] };
                    let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
                    let stored = quad >> (8 * (addr & 7));
                    assert_eq!(stored & mask, value & mask, "{op:?} @ {addr:#x}");
                }
            }
        }
    }
}

#[test]
fn zero_destinations_are_discarded() {
    let insts = [
        Inst::Op { op: AluOp::Addq, ra: Reg::T0, rb: Operand::Lit(7), rc: Reg::ZERO },
        Inst::Mem { op: MemOp::Ldq, ra: Reg::ZERO, rb: Reg::T1, disp: 0 },
        Inst::Lda { high: true, ra: Reg::ZERO, rb: Reg::T0, disp: 3 },
        Inst::Br { op: BrOp::Br, ra: Reg::ZERO, disp: 0 },
        Inst::Jmp { kind: JmpKind::Jmp, ra: Reg::ZERO, rb: Reg::T2 },
        HALT,
        // `$zero` still reads zero after every write above.
        Inst::Op { op: AluOp::Bis, ra: Reg::ZERO, rb: Operand::Reg(Reg::ZERO), rc: Reg::T4 },
        Inst::Lda { high: false, ra: Reg::T5, rb: Reg::ZERO, disp: 5 },
        HALT,
    ];
    let regs = [(Reg::T0, 1), (Reg::T1, BUF), (Reg::T2, TEXT_BASE + 4 * 6), (Reg::T4, 9)];
    let e = run(&insts, &regs);
    assert_eq!(e.result, Ok(RunOutcome::Halted));
    assert_eq!(e.regs[Reg::ZERO.number() as usize], 0);
    assert_eq!(e.regs[Reg::T4.number() as usize], 0);
    assert_eq!(e.regs[Reg::T5.number() as usize], 5);
    assert_eq!(e.steps, 8);
}

#[test]
fn system_calls_print_and_halt() {
    let insts = [
        Inst::Sys { func: SysFunc::PutInt },
        Inst::Lda { high: false, ra: Reg::A0, rb: Reg::ZERO, disp: b'!' as i16 },
        Inst::Sys { func: SysFunc::PutChar },
        HALT,
        Inst::Sys { func: SysFunc::PutChar },
    ];
    let e = run(&insts, &[(Reg::A0, (-42i64) as u64)]);
    assert_eq!(e.output, b"-42\n!".to_vec());
    assert_eq!((e.result, e.steps, e.pc), (Ok(RunOutcome::Halted), 4, TEXT_BASE + 16));

    // A halted machine runs no further, and stepping it is an error.
    let mut emu = Emulator::new(&program(&insts));
    assert_eq!(emu.run(LIMIT), Ok(RunOutcome::Halted));
    assert_eq!(emu.run(LIMIT), Ok(RunOutcome::Halted));
    assert_eq!(emu.step(), Err(EmuError::Halted));
    assert_eq!(emu.steps(), 4);
}

#[test]
fn pcs_outside_the_text_fault_after_the_last_commit() {
    let add = Inst::Op { op: AluOp::Addq, ra: Reg::T3, rb: Operand::Lit(1), rc: Reg::T3 };
    // Falling off the end of the text.
    let e = run(&[add, add], &[]);
    assert_eq!(e.result, Err(EmuError::BadPc(TEXT_BASE + 8)));
    assert_eq!((e.steps, e.regs[Reg::T3.number() as usize]), (2, 2));
    // Jumping below the text or far past it.
    for target in [TEXT_BASE - 4, 0, TEXT_BASE + 4096] {
        let jmp = Inst::Jmp { kind: JmpKind::Jmp, ra: Reg::T4, rb: Reg::T0 };
        let e = run(&[add, jmp, HALT], &[(Reg::T0, target)]);
        assert_eq!(e.result, Err(EmuError::BadPc(target)), "{target:#x}");
        assert_eq!(e.steps, 2);
        assert_eq!(e.regs[Reg::T4.number() as usize], TEXT_BASE + 8, "the link was written");
    }
    // A step limit reached exactly at the end leaves no fault.
    let mut emu = Emulator::new(&program(&[add, add]));
    assert_eq!(emu.run(2), Ok(RunOutcome::StepLimit));
    assert_eq!(emu.run(1), Err(EmuError::BadPc(TEXT_BASE + 8)));
}
