//! The functional machine.

use std::error::Error;
use std::fmt;

use std::sync::Arc;

use svf_isa::{Inst, MemOp, Operand, Program, Reg, SysFunc, STACK_BASE, TEXT_BASE};

use crate::memory::Memory;
use crate::retired::{ControlFlow, MemAccess, Retired, SpUpdate};

/// Errors the functional machine can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text segment.
    BadPc(u64),
    /// An instruction word failed to decode.
    BadInst {
        /// PC of the undecodable word.
        pc: u64,
        /// Decoder diagnostic.
        msg: String,
    },
    /// A load/store was not naturally aligned.
    Misaligned {
        /// PC of the faulting access.
        pc: u64,
        /// Faulting address.
        addr: u64,
        /// Access size.
        size: u8,
    },
    /// `step` was called on a halted machine.
    Halted,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadPc(pc) => write!(f, "PC {pc:#x} outside text segment"),
            EmuError::BadInst { pc, msg } => write!(f, "bad instruction at {pc:#x}: {msg}"),
            EmuError::Misaligned { pc, addr, size } => {
                write!(f, "misaligned {size}-byte access to {addr:#x} at PC {pc:#x}")
            }
            EmuError::Halted => write!(f, "machine is halted"),
        }
    }
}

impl Error for EmuError {}

/// Why [`Emulator::run`] or [`Emulator::run_observe`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed a `halt`.
    Halted,
    /// The step budget was exhausted first.
    StepLimit,
}

/// Receives the stack-relevant events of each instruction that
/// [`Emulator::run_observe`] commits, without a [`Retired`] record being
/// written.
pub trait StepObserver {
    /// The instruction wrote `$sp`. `step` is its 1-based position in the
    /// committed stream ([`Emulator::steps`] once it has committed). When
    /// one instruction also references memory, this comes first.
    fn sp_update(&mut self, update: SpUpdate, step: u64);

    /// The instruction referenced memory; `sp_before` is `$sp` before it
    /// executed.
    fn mem(&mut self, access: MemAccess, sp_before: u64);
}

/// How the stepping core hands a committed instruction to its caller. The
/// core is monomorphized per sink and assembles only what the sink's
/// constants ask for: [`Emulator::run`] (`()`) nothing,
/// [`Emulator::run_observe`] the `$sp` update and memory reference, and
/// [`Emulator::step_record`] (`Retired`) the full record.
trait Sink {
    /// Assemble the `$sp` update and the memory reference.
    const EVENTS: bool = true;
    /// Also assemble the control-flow outcome and the full record.
    const RECORD: bool = false;

    #[inline]
    fn sp_update(&mut self, _update: SpUpdate, _step: u64) {}

    #[inline]
    fn mem(&mut self, _access: MemAccess, _sp_before: u64) {}

    #[inline]
    fn record(&mut self, _r: Retired) {}
}

impl Sink for () {
    const EVENTS: bool = false;
}

impl Sink for Retired {
    const RECORD: bool = true;

    #[inline]
    fn record(&mut self, r: Retired) {
        *self = r;
    }
}

impl<O: StepObserver> Sink for O {
    #[inline]
    fn sp_update(&mut self, update: SpUpdate, step: u64) {
        StepObserver::sp_update(self, update, step);
    }

    #[inline]
    fn mem(&mut self, access: MemAccess, sp_before: u64) {
        StepObserver::mem(self, access, sp_before);
    }
}

/// The functional emulator. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Emulator {
    regs: [u64; 32],
    pc: u64,
    mem: Memory,
    decoded: Arc<[Inst]>,
    heap_base: u64,
    output: Vec<u8>,
    halted: bool,
    steps: u64,
}

impl Emulator {
    /// Loads a program: the shared [`Program::decoded`] image is taken by
    /// reference count (no per-emulator re-decode), data copied in, `$sp`
    /// set to [`STACK_BASE`], and the PC set to the entry point.
    ///
    /// # Panics
    ///
    /// Panics if the program contains an undecodable instruction word
    /// (assembled programs never do).
    #[must_use]
    pub fn new(program: &Program) -> Emulator {
        let decoded = program.decoded();
        let mut mem = Memory::new();
        mem.load(program.data_base(), &program.data);
        let mut regs = [0u64; 32];
        regs[Reg::SP.number() as usize] = STACK_BASE;
        Emulator {
            regs,
            pc: program.entry,
            mem,
            decoded,
            heap_base: program.heap_base,
            output: Vec::new(),
            halted: false,
            steps: 0,
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads an architectural register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes an architectural register (writes to `$zero` are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = v;
        }
    }

    /// The functional memory (e.g. for loading inputs in tests).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Heap base captured from the program image (for region classification).
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Whether the machine has executed `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions committed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Bytes written through `putint`/`putchar`.
    #[must_use]
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The output as (lossy) UTF-8.
    #[must_use]
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Executes one instruction and returns its record by value. This
    /// copies the whole [`Retired`] out on every call; it is a convenience
    /// for tests and one-off probes. A hot loop steps in place with
    /// [`Emulator::step_record`], or runs [`Emulator::run_observe`] when it
    /// needs only the `$sp` updates and memory references.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on bad PCs, misaligned accesses, or when the
    /// machine is already halted.
    pub fn step(&mut self) -> Result<Retired, EmuError> {
        let mut out = Retired::PLACEHOLDER;
        self.step_record(&mut out)?;
        Ok(out)
    }

    /// Executes one instruction, writing the committed record into `out`
    /// in place. This is [`Emulator::step`] without the by-value return of
    /// the wide record — the cycle simulator calls it once per instruction,
    /// targeting its fetch-queue ring slot directly.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on bad PCs, misaligned accesses, or when the
    /// machine is already halted; `out` is untouched on error.
    #[inline]
    pub fn step_record(&mut self, out: &mut Retired) -> Result<(), EmuError> {
        self.step_impl(out)
    }

    /// The fetch-decode-execute core, monomorphized over what its caller
    /// observes (see [`Sink`]); the architectural effects are identical
    /// for every sink.
    #[allow(clippy::too_many_lines)]
    fn step_impl<S: Sink>(&mut self, sink: &mut S) -> Result<(), EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        let pc = self.pc;
        if pc < TEXT_BASE || !pc.is_multiple_of(4) {
            return Err(EmuError::BadPc(pc));
        }
        let idx = ((pc - TEXT_BASE) / 4) as usize;
        let inst = *self.decoded.get(idx).ok_or(EmuError::BadPc(pc))?;

        let sp_before = self.reg(Reg::SP);
        let mut next_pc = pc + 4;
        let mut mem_access = None;
        let mut control = None;
        // The register the instruction writes, `$zero` when none: noting it
        // per arm answers `Inst::writes_sp` without a second decode.
        let mut dest = Reg::ZERO;

        match inst {
            Inst::Sys { func } => match func {
                SysFunc::Halt => self.halted = true,
                SysFunc::PutInt => {
                    let v = self.reg(Reg::A0) as i64;
                    self.output.extend_from_slice(v.to_string().as_bytes());
                    self.output.push(b'\n');
                }
                SysFunc::PutChar => {
                    self.output.push(self.reg(Reg::A0) as u8);
                }
            },
            Inst::Mem { op, ra, rb, disp } => {
                let addr = self.reg(rb).wrapping_add(disp as u64);
                let size = op.size() as u8;
                if !addr.is_multiple_of(u64::from(size)) {
                    return Err(EmuError::Misaligned { pc, addr, size });
                }
                match op {
                    MemOp::Ldq => {
                        let v = self.mem.read_u64(addr);
                        self.set_reg(ra, v);
                        dest = ra;
                    }
                    MemOp::Ldl => {
                        let v = self.mem.read_u32(addr) as i32 as i64 as u64;
                        self.set_reg(ra, v);
                        dest = ra;
                    }
                    MemOp::Ldbu => {
                        let v = u64::from(self.mem.read_u8(addr));
                        self.set_reg(ra, v);
                        dest = ra;
                    }
                    MemOp::Stq => self.mem.write_u64(addr, self.reg(ra)),
                    MemOp::Stl => self.mem.write_u32(addr, self.reg(ra) as u32),
                    MemOp::Stb => self.mem.write_u8(addr, self.reg(ra) as u8),
                }
                if S::EVENTS {
                    mem_access =
                        Some(MemAccess { addr, size, is_store: op.is_store(), base: rb });
                }
            }
            Inst::Lda { high, ra, rb, disp } => {
                let d = if high { i64::from(disp) << 16 } else { i64::from(disp) };
                let v = self.reg(rb).wrapping_add(d as u64);
                self.set_reg(ra, v);
                dest = ra;
            }
            Inst::Br { ra, disp, .. } => {
                self.set_reg(ra, pc + 4);
                dest = ra;
                let target = (pc + 4).wrapping_add((i64::from(disp) * 4) as u64);
                next_pc = target;
                if S::RECORD {
                    control = Some(ControlFlow { taken: true, target });
                }
            }
            Inst::CondBr { op, ra, disp } => {
                let taken = op.taken(self.reg(ra));
                let target = (pc + 4).wrapping_add((i64::from(disp) * 4) as u64);
                if taken {
                    next_pc = target;
                }
                if S::RECORD {
                    control = Some(ControlFlow { taken, target: next_pc });
                }
            }
            Inst::Op { op, ra, rb, rc } => {
                let a = self.reg(ra);
                let b = match rb {
                    Operand::Reg(r) => self.reg(r),
                    Operand::Lit(l) => u64::from(l),
                };
                self.set_reg(rc, op.apply(a, b));
                dest = rc;
            }
            Inst::Jmp { ra, rb, .. } => {
                let target = self.reg(rb) & !3;
                self.set_reg(ra, pc + 4);
                dest = ra;
                next_pc = target;
                if S::RECORD {
                    control = Some(ControlFlow { taken: true, target });
                }
            }
        }

        self.pc = next_pc;
        self.steps += 1;
        if S::EVENTS {
            let sp_after = self.reg(Reg::SP);
            let sp_update = (dest == Reg::SP).then(|| SpUpdate {
                old_sp: sp_before,
                new_sp: sp_after,
                immediate: inst.sp_immediate_adjust().is_some(),
            });
            if let Some(u) = sp_update {
                sink.sp_update(u, self.steps);
            }
            if let Some(m) = mem_access {
                sink.mem(m, sp_before);
            }
            if S::RECORD {
                sink.record(Retired {
                    pc,
                    inst,
                    next_pc,
                    mem: mem_access,
                    control,
                    sp_update,
                    sp_before,
                });
            }
        }
        Ok(())
    }

    /// Runs until `halt` or until `max_steps` more instructions have
    /// committed.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on bad PCs or misaligned accesses; the
    /// instructions before the faulting one stay committed.
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, EmuError> {
        self.run_impl(max_steps, &mut ())
    }

    /// [`Emulator::run`] that hands each committed instruction's `$sp`
    /// update and memory reference, if any, to `observer`. No [`Retired`]
    /// record is built, and the observer's hooks are inlined into the
    /// stepping loop, so functional simulations that replay only the
    /// reference stream (the traffic tables, workload characterization)
    /// pay for neither a record nor a call per instruction. A caller that
    /// must act between instructions (a context switch every N) runs in
    /// chunks of N: chunking changes nothing the observer sees.
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`]; `observer` has seen every instruction before
    /// the faulting one and nothing of it.
    pub fn run_observe<O: StepObserver>(
        &mut self,
        max_steps: u64,
        observer: &mut O,
    ) -> Result<RunOutcome, EmuError> {
        self.run_impl(max_steps, observer)
    }

    /// The stepping loop behind [`Emulator::run`] and
    /// [`Emulator::run_observe`], monomorphized per sink with the step
    /// body inlined into it.
    fn run_impl<S: Sink>(&mut self, max_steps: u64, sink: &mut S) -> Result<RunOutcome, EmuError> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(RunOutcome::Halted);
            }
            self.step_impl(sink)?;
        }
        Ok(if self.halted { RunOutcome::Halted } else { RunOutcome::StepLimit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_asm::assemble;

    fn run_asm(src: &str) -> Emulator {
        let p = assemble(src).expect("assembles");
        let mut emu = Emulator::new(&p);
        let outcome = emu.run(1_000_000).expect("runs");
        assert_eq!(outcome, RunOutcome::Halted, "program did not halt");
        emu
    }

    #[test]
    fn arithmetic_and_output() {
        let emu = run_asm(
            "main:
                li $a0, 40
                addq $a0, 2, $a0
                putint
                halt",
        );
        assert_eq!(emu.output_string(), "42\n");
    }

    #[test]
    fn loop_with_branch() {
        let emu = run_asm(
            "main:
                li $t0, 10
                li $a0, 0
            .loop:
                addq $a0, $t0, $a0
                subq $t0, 1, $t0
                bne $t0, .loop
                putint
                halt",
        );
        assert_eq!(emu.output_string(), "55\n");
    }

    #[test]
    fn stack_push_pop() {
        let emu = run_asm(
            "main:
                lda $sp, -16($sp)
                li $t0, 123
                stq $t0, 8($sp)
                ldq $a0, 8($sp)
                lda $sp, 16($sp)
                putint
                halt",
        );
        assert_eq!(emu.output_string(), "123\n");
        assert_eq!(emu.reg(Reg::SP), STACK_BASE);
    }

    #[test]
    fn call_and_return() {
        let emu = run_asm(
            "main:
                li $a0, 20
                call double
                putint
                halt
            double:
                addq $a0, $a0, $a0
                ret",
        );
        assert_eq!(emu.output_string(), "40\n");
    }

    #[test]
    fn recursion_factorial() {
        let emu = run_asm(
            "main:
                li $a0, 10
                call fact
                mov $v0, $a0
                putint
                halt
            fact:
                lda $sp, -16($sp)
                stq $ra, 0($sp)
                stq $a0, 8($sp)
                ble $a0, .base
                subq $a0, 1, $a0
                call fact
                ldq $a0, 8($sp)
                mulq $v0, $a0, $v0
                br .out
            .base:
                li $v0, 1
            .out:
                ldq $ra, 0($sp)
                lda $sp, 16($sp)
                ret",
        );
        assert_eq!(emu.output_string(), "3628800\n");
    }

    #[test]
    fn data_segment_access() {
        let emu = run_asm(
            "main:
                la $t0, vals
                ldq $a0, 0($t0)
                ldq $t1, 8($t0)
                addq $a0, $t1, $a0
                putint
                halt
            .data
            vals: .quad 100, -58",
        );
        assert_eq!(emu.output_string(), "42\n");
    }

    #[test]
    fn sub_word_memory_ops() {
        let emu = run_asm(
            "main:
                la $t0, buf
                li $t1, 0x1FF
                stl $t1, 0($t0)
                stb $t1, 4($t0)
                ldl $a0, 0($t0)
                ldbu $t2, 4($t0)
                addq $a0, $t2, $a0
                putint
                halt
            .data
            buf: .space 8",
        );
        assert_eq!(emu.output_string(), format!("{}\n", 0x1FF + 0xFF));
    }

    #[test]
    fn ldl_sign_extends() {
        let emu = run_asm(
            "main:
                la $t0, buf
                li $t1, -1
                stl $t1, 0($t0)
                ldl $a0, 0($t0)
                putint
                halt
            .data
            buf: .space 8",
        );
        assert_eq!(emu.output_string(), "-1\n");
    }

    #[test]
    fn retired_records_classify_stack_refs() {
        let p = assemble(
            "main:
                lda $sp, -16($sp)
                stq $zero, 0($sp)
                ldq $t0, 0($sp)
                halt",
        )
        .unwrap();
        let mut emu = Emulator::new(&p);
        let r1 = emu.step().unwrap(); // lda $sp
        assert!(r1.sp_update.unwrap().immediate);
        assert_eq!(r1.sp_update.unwrap().new_sp, STACK_BASE - 16);
        let r2 = emu.step().unwrap(); // stq
        let m = r2.mem.unwrap();
        assert!(m.is_store);
        assert!(r2.is_stack_ref(emu.heap_base()));
        assert_eq!(m.method(), crate::AccessMethod::Sp);
        let r3 = emu.step().unwrap(); // ldq
        assert!(!r3.mem.unwrap().is_store);
    }

    #[test]
    fn misaligned_access_faults() {
        let p = assemble(
            "main:
                li $t0, 0x1001
                ldq $a0, 0($t0)
                halt",
        )
        .unwrap();
        let mut emu = Emulator::new(&p);
        emu.step().unwrap();
        let err = loop {
            if let Err(e) = emu.step() { break e }
        };
        assert!(matches!(err, EmuError::Misaligned { .. }));
    }

    #[test]
    fn observed_events_match_the_full_record() {
        // Every `$sp` write form (immediate adjust, register move, load
        // into `$sp`) and every reference kind, stepped both ways.
        let p = assemble(
            "main:
                lda $sp, -32($sp)
                stq $ra, 0($sp)
                li $t0, 7
                stl $t0, 8($sp)
                ldl $t1, 8($sp)
                stb $t1, 12($sp)
                ldbu $t2, 12($sp)
                mov $sp, $t3
                mov $t3, $sp
                stq $sp, 16($sp)
                ldq $sp, 16($sp)
                lda $sp, 32($sp)
                halt",
        )
        .unwrap();

        #[derive(Debug, PartialEq)]
        enum Event {
            Sp(SpUpdate, u64),
            Mem(MemAccess, u64),
        }
        struct Log(Vec<Event>);
        impl StepObserver for Log {
            fn sp_update(&mut self, update: SpUpdate, step: u64) {
                self.0.push(Event::Sp(update, step));
            }
            fn mem(&mut self, access: MemAccess, sp_before: u64) {
                self.0.push(Event::Mem(access, sp_before));
            }
        }

        let mut recorded = Emulator::new(&p);
        let mut expected = Vec::new();
        let mut r = Retired::PLACEHOLDER;
        while !recorded.is_halted() {
            recorded.step_record(&mut r).unwrap();
            assert_eq!(r.sp_update.is_some(), r.inst.writes_sp(), "at pc {:#x}", r.pc);
            expected.extend(r.sp_update.map(|u| Event::Sp(u, recorded.steps())));
            expected.extend(r.mem.map(|m| Event::Mem(m, r.sp_before)));
        }

        let mut observed = Emulator::new(&p);
        let mut log = Log(Vec::new());
        assert_eq!(observed.run_observe(u64::MAX, &mut log), Ok(RunOutcome::Halted));
        assert_eq!(log.0, expected);
        assert_eq!(observed.steps(), recorded.steps());
        assert_eq!(observed.reg(Reg::SP), STACK_BASE);
    }

    #[test]
    fn step_after_halt_errors() {
        let mut emu = Emulator::new(&assemble("main: halt").unwrap());
        emu.step().unwrap();
        assert!(emu.is_halted());
        assert_eq!(emu.step(), Err(EmuError::Halted));
    }

    #[test]
    fn run_respects_step_limit() {
        let mut emu = Emulator::new(
            &assemble(
                "main:
                .loop: br .loop",
            )
            .unwrap(),
        );
        assert_eq!(emu.run(100).unwrap(), RunOutcome::StepLimit);
        assert_eq!(emu.steps(), 100);
    }

    #[test]
    fn putchar_bytes() {
        let emu = run_asm(
            "main:
                li $a0, 'H'
                putchar
                li $a0, 'i'
                putchar
                halt",
        );
        assert_eq!(emu.output_string(), "Hi");
    }
}
