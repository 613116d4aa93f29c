//! The functional machine: one stepping loop over the program's lowered
//! micro-ops ([`svf_isa::Lowered`]), monomorphized per [`StepSink`].

use std::error::Error;
use std::fmt;

use std::sync::Arc;

use svf_isa::{
    AluOp, CondOp, Inst, Lowered, Program, Reg, StaticInfo, Uop, REG_SLOTS, STACK_BASE, TEXT_BASE,
};

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

/// One committed instruction, as the stepping loop hands it to a
/// [`StepSink`]. The dynamic values are plain fields; what the instruction
/// *is* comes from the program's lowering through [`Commit::info`].
#[derive(Debug, Clone, Copy)]
pub struct Commit<'a> {
    /// Address of the instruction.
    pub pc: u64,
    /// Address of the next committed instruction.
    pub next_pc: u64,
    /// Effective address of a memory reference (`0` for other instructions).
    pub addr: u64,
    /// Whether a control-transfer instruction redirected the PC: always for
    /// jumps and calls, the condition's outcome for a conditional branch.
    pub taken: bool,
    /// `$sp` before the instruction executed.
    pub sp_before: u64,
    /// `$sp` after it executed.
    pub sp_after: u64,
    /// The instruction's 1-based position in the committed stream
    /// ([`Emulator::steps`] once it has committed).
    pub step: u64,
    code: &'a Lowered,
    idx: usize,
}

impl<'a> Commit<'a> {
    /// The instruction's static facts.
    #[inline]
    #[must_use]
    pub fn info(&self) -> &'a StaticInfo {
        &self.code.info[self.idx]
    }

    /// The decoded instruction.
    #[inline]
    #[must_use]
    pub fn inst(&self) -> Inst {
        self.code.insts[self.idx]
    }
}

/// Receives every instruction [`Emulator::run_with`] commits. The loop is
/// monomorphized per sink with [`StepSink::commit`] inlined into it, so a
/// sink pays only for the [`Commit`] fields it reads.
pub trait StepSink {
    /// Called once per committed instruction, after its architectural
    /// effects.
    fn commit(&mut self, c: &Commit<'_>);
}

impl StepSink for () {
    #[inline]
    fn commit(&mut self, _c: &Commit<'_>) {}
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

/// The [`StepSink`] behind [`Emulator::run_observe`].
struct Observe<'o, O>(&'o mut O);

impl<O: StepObserver> StepSink for Observe<'_, O> {
    #[inline]
    fn commit(&mut self, c: &Commit<'_>) {
        let info = c.info();
        if let Some(u) = sp_update(c) {
            self.0.sp_update(u, c.step);
        }
        if info.is_mem() {
            self.0.mem(mem_access(c), c.sp_before);
        }
    }
}

/// The [`StepSink`] behind [`Emulator::step_record`].
struct Record<'r>(&'r mut Retired);

impl StepSink for Record<'_> {
    #[inline]
    fn commit(&mut self, c: &Commit<'_>) {
        let info = c.info();
        *self.0 = Retired {
            pc: c.pc,
            inst: c.inst(),
            next_pc: c.next_pc,
            mem: info.is_mem().then(|| mem_access(c)),
            control: info.is_control().then_some(ControlFlow { taken: c.taken, target: c.next_pc }),
            sp_update: sp_update(c),
            sp_before: c.sp_before,
        };
    }
}

/// The committed instruction's memory reference (it must have one).
#[inline]
fn mem_access(c: &Commit<'_>) -> MemAccess {
    let info = c.info();
    MemAccess {
        addr: c.addr,
        size: info.size,
        is_store: info.is_store(),
        base: Reg::from_number(info.base),
    }
}

/// The committed instruction's `$sp` update, if it wrote `$sp`.
#[inline]
fn sp_update(c: &Commit<'_>) -> Option<SpUpdate> {
    let info = c.info();
    info.writes_sp().then_some(SpUpdate {
        old_sp: c.sp_before,
        new_sp: c.sp_after,
        immediate: info.flags & StaticInfo::SP_INTERLOCK == 0,
    })
}

/// The functional emulator. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Emulator {
    /// The architectural registers, then the `$zero`-write scratch slot and
    /// padding ([`REG_SLOTS`]).
    regs: [u64; REG_SLOTS],
    pc: u64,
    mem: Memory,
    code: Arc<Lowered>,
    heap_base: u64,
    output: Vec<u8>,
    halted: bool,
    steps: u64,
}

impl Emulator {
    /// Loads a program: the shared [`Program::lowered`] image is taken by
    /// reference count (no per-emulator re-decode), data copied in, `$sp`
    /// set to [`STACK_BASE`], and the PC set to the entry point.
    ///
    /// # Panics
    ///
    /// Panics if the program contains an undecodable instruction word
    /// (assembled programs never do).
    #[must_use]
    pub fn new(program: &Program) -> Emulator {
        let code = program.lowered();
        let mut mem = Memory::new();
        mem.load(program.data_base(), &program.data);
        let mut regs = [0u64; REG_SLOTS];
        regs[Reg::SP.number() as usize] = STACK_BASE;
        Emulator {
            regs,
            pc: program.entry,
            mem,
            code,
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
    /// for tests and one-off probes. A hot loop runs [`Emulator::run_with`]
    /// with a [`StepSink`], or [`Emulator::run_observe`] when it needs only
    /// the `$sp` updates and memory references.
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
    /// in place: [`Emulator::step`] without the by-value return of the wide
    /// record (trace capture, record rings).
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on bad PCs, misaligned accesses, or when the
    /// machine is already halted; `out` is untouched on error.
    #[inline]
    pub fn step_record(&mut self, out: &mut Retired) -> Result<(), EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        self.run_with(1, &mut Record(out)).map(|_| ())
    }

    /// Runs until `halt` or until `max_steps` more instructions have
    /// committed.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on bad PCs or misaligned accesses; the
    /// instructions before the faulting one stay committed.
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, EmuError> {
        self.run_with(max_steps, &mut ())
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
        self.run_with(max_steps, &mut Observe(observer))
    }

    /// The stepping loop: runs until `halt` or until `max_steps` more
    /// instructions have committed, handing each to `sink`. It dispatches
    /// once per instruction on the lowered micro-op, and keeps the PC, the
    /// step count and a borrow of the register file in locals for the whole
    /// run (writing the register file in place measured faster than a
    /// local copy, and costs a one-step call nothing). [`Emulator::run`],
    /// [`Emulator::run_observe`] and [`Emulator::step_record`] are this
    /// loop with their own sinks.
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`]; `sink` has seen every instruction before the
    /// faulting one and nothing of it.
    #[allow(clippy::too_many_lines)]
    pub fn run_with<S: StepSink>(
        &mut self,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<RunOutcome, EmuError> {
        if self.halted {
            return Ok(RunOutcome::Halted);
        }
        let Emulator { regs, pc: pc_slot, mem, code, output, halted, steps: steps_slot, .. } = self;
        let code: &Lowered = code;
        let mut pc = *pc_slot;
        let mut steps = *steps_slot;
        let mut left = max_steps;
        // Lowered register numbers are below `REG_SLOTS`; the mask lets the
        // compiler drop the bounds check.
        macro_rules! r {
            ($i:expr) => {
                regs[usize::from($i) & (REG_SLOTS - 1)]
            };
        }
        const SP: usize = Reg::SP.number() as usize;
        let outcome = loop {
            if left == 0 {
                break Ok(RunOutcome::StepLimit);
            }
            // `TEXT_BASE` is word-aligned, and a PC below it wraps to an
            // offset past any text.
            let offset = pc.wrapping_sub(TEXT_BASE);
            let idx = (offset / 4) as usize;
            let op = match code.ops.get(idx) {
                Some(op) if offset % 4 == 0 => *op,
                _ => break Err(EmuError::BadPc(pc)),
            };
            let sp_before = regs[SP];
            let mut next_pc = pc + 4;
            let mut addr = 0;
            let mut taken = false;
            // The effective address, checked for natural alignment.
            macro_rules! effective {
                () => {
                    addr = r!(op.rb).wrapping_add(op.imm)
                };
                ($size:expr) => {{
                    effective!();
                    if addr % $size != 0 {
                        break Err(EmuError::Misaligned { pc, addr, size: $size });
                    }
                }};
            }
            macro_rules! branch {
                ($cond:expr) => {{
                    taken = $cond.taken(r!(op.ra));
                    if taken {
                        next_pc = op.imm;
                    }
                }};
            }
            match op.uop {
                Uop::AddqR => r!(op.rc) = AluOp::Addq.apply(r!(op.ra), r!(op.rb)),
                Uop::SubqR => r!(op.rc) = AluOp::Subq.apply(r!(op.ra), r!(op.rb)),
                Uop::MulqR => r!(op.rc) = AluOp::Mulq.apply(r!(op.ra), r!(op.rb)),
                Uop::DivqR => r!(op.rc) = AluOp::Divq.apply(r!(op.ra), r!(op.rb)),
                Uop::RemqR => r!(op.rc) = AluOp::Remq.apply(r!(op.ra), r!(op.rb)),
                Uop::AndR => r!(op.rc) = AluOp::And.apply(r!(op.ra), r!(op.rb)),
                Uop::BisR => r!(op.rc) = AluOp::Bis.apply(r!(op.ra), r!(op.rb)),
                Uop::XorR => r!(op.rc) = AluOp::Xor.apply(r!(op.ra), r!(op.rb)),
                Uop::SllR => r!(op.rc) = AluOp::Sll.apply(r!(op.ra), r!(op.rb)),
                Uop::SrlR => r!(op.rc) = AluOp::Srl.apply(r!(op.ra), r!(op.rb)),
                Uop::SraR => r!(op.rc) = AluOp::Sra.apply(r!(op.ra), r!(op.rb)),
                Uop::CmpeqR => r!(op.rc) = AluOp::Cmpeq.apply(r!(op.ra), r!(op.rb)),
                Uop::CmpltR => r!(op.rc) = AluOp::Cmplt.apply(r!(op.ra), r!(op.rb)),
                Uop::CmpleR => r!(op.rc) = AluOp::Cmple.apply(r!(op.ra), r!(op.rb)),
                Uop::CmpultR => r!(op.rc) = AluOp::Cmpult.apply(r!(op.ra), r!(op.rb)),
                Uop::CmpuleR => r!(op.rc) = AluOp::Cmpule.apply(r!(op.ra), r!(op.rb)),
                Uop::AddqL => r!(op.rc) = AluOp::Addq.apply(r!(op.ra), op.imm),
                Uop::SubqL => r!(op.rc) = AluOp::Subq.apply(r!(op.ra), op.imm),
                Uop::MulqL => r!(op.rc) = AluOp::Mulq.apply(r!(op.ra), op.imm),
                Uop::DivqL => r!(op.rc) = AluOp::Divq.apply(r!(op.ra), op.imm),
                Uop::RemqL => r!(op.rc) = AluOp::Remq.apply(r!(op.ra), op.imm),
                Uop::AndL => r!(op.rc) = AluOp::And.apply(r!(op.ra), op.imm),
                Uop::BisL => r!(op.rc) = AluOp::Bis.apply(r!(op.ra), op.imm),
                Uop::XorL => r!(op.rc) = AluOp::Xor.apply(r!(op.ra), op.imm),
                Uop::SllL => r!(op.rc) = AluOp::Sll.apply(r!(op.ra), op.imm),
                Uop::SrlL => r!(op.rc) = AluOp::Srl.apply(r!(op.ra), op.imm),
                Uop::SraL => r!(op.rc) = AluOp::Sra.apply(r!(op.ra), op.imm),
                Uop::CmpeqL => r!(op.rc) = AluOp::Cmpeq.apply(r!(op.ra), op.imm),
                Uop::CmpltL => r!(op.rc) = AluOp::Cmplt.apply(r!(op.ra), op.imm),
                Uop::CmpleL => r!(op.rc) = AluOp::Cmple.apply(r!(op.ra), op.imm),
                Uop::CmpultL => r!(op.rc) = AluOp::Cmpult.apply(r!(op.ra), op.imm),
                Uop::CmpuleL => r!(op.rc) = AluOp::Cmpule.apply(r!(op.ra), op.imm),
                Uop::Lda => r!(op.rc) = r!(op.rb).wrapping_add(op.imm),
                Uop::Ldq => {
                    effective!(8);
                    r!(op.rc) = mem.read_u64(addr);
                }
                Uop::Ldl => {
                    effective!(4);
                    r!(op.rc) = mem.read_u32(addr) as i32 as i64 as u64;
                }
                Uop::Ldbu => {
                    effective!();
                    r!(op.rc) = u64::from(mem.read_u8(addr));
                }
                Uop::Stq => {
                    effective!(8);
                    mem.write_u64(addr, r!(op.ra));
                }
                Uop::Stl => {
                    effective!(4);
                    mem.write_u32(addr, r!(op.ra) as u32);
                }
                Uop::Stb => {
                    effective!();
                    mem.write_u8(addr, r!(op.ra) as u8);
                }
                Uop::Br => {
                    r!(op.rc) = pc + 4;
                    next_pc = op.imm;
                    taken = true;
                }
                Uop::Beq => branch!(CondOp::Beq),
                Uop::Bne => branch!(CondOp::Bne),
                Uop::Blt => branch!(CondOp::Blt),
                Uop::Ble => branch!(CondOp::Ble),
                Uop::Bge => branch!(CondOp::Bge),
                Uop::Bgt => branch!(CondOp::Bgt),
                Uop::Jmp => {
                    // Read the target before linking: `ra` may equal `rb`.
                    next_pc = r!(op.rb) & !3;
                    r!(op.rc) = pc + 4;
                    taken = true;
                }
                Uop::Halt => *halted = true,
                Uop::PutInt => {
                    output.extend_from_slice((r!(op.ra) as i64).to_string().as_bytes());
                    output.push(b'\n');
                }
                Uop::PutChar => output.push(r!(op.ra) as u8),
            }
            steps += 1;
            left -= 1;
            sink.commit(&Commit {
                pc,
                next_pc,
                addr,
                taken,
                sp_before,
                sp_after: regs[SP],
                step: steps,
                code,
                idx,
            });
            pc = next_pc;
            if *halted {
                break Ok(RunOutcome::Halted);
            }
        };
        *pc_slot = pc;
        *steps_slot = steps;
        outcome
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
