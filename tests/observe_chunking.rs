//! `Emulator::run_observe` in chunks must hand its observer exactly what one
//! unbounded run hands it.
//!
//! The Table 4 replay runs the emulator in chunks that end at each context
//! switch, and the characterization files each `$sp` update under the step
//! index the emulator reports. So a chunk boundary must not drop, repeat
//! or reorder an event, nor shift a step index, and the machine must end in
//! the same state. Chunk sizes 1 (one instruction per call), 7 (boundaries
//! fall everywhere in the instruction mix) and 4096 are checked against
//! `run_observe(u64::MAX)` on three Test-scale kernels.

use svf_emu::{Emulator, MemAccess, RunOutcome, SpUpdate, StepObserver};
use svf_isa::Reg;
use svf_workloads::{workload, Scale};

#[derive(Debug, PartialEq)]
enum Event {
    Sp(SpUpdate, u64),
    Mem(MemAccess, u64),
}

#[derive(Default)]
struct Log(Vec<Event>);

impl StepObserver for Log {
    fn sp_update(&mut self, update: SpUpdate, step: u64) {
        self.0.push(Event::Sp(update, step));
    }

    fn mem(&mut self, access: MemAccess, sp_before: u64) {
        self.0.push(Event::Mem(access, sp_before));
    }
}

/// Runs `emu` to `halt` in calls of at most `chunk` instructions, checking
/// each call's outcome and step count.
fn run_chunked(emu: &mut Emulator, chunk: u64, log: &mut Log) {
    loop {
        let before = emu.steps();
        let outcome = emu.run_observe(chunk, log).expect("workload must not fault");
        let ran = emu.steps() - before;
        match outcome {
            RunOutcome::Halted => {
                assert!(emu.is_halted() && ran <= chunk);
                return;
            }
            RunOutcome::StepLimit => assert_eq!(ran, chunk, "a chunk stopped short"),
        }
    }
}

#[test]
fn chunked_runs_hand_the_observer_the_same_stream() {
    for name in ["bzip2", "gcc", "twolf"] {
        let program = workload(name).expect("exists").compile(Scale::Test).expect("compiles");
        let mut whole = Emulator::new(&program);
        let mut whole_log = Log::default();
        let outcome = whole.run_observe(u64::MAX, &mut whole_log).expect("no fault");
        assert_eq!(outcome, RunOutcome::Halted, "{name}");
        assert!(
            whole_log.0.iter().any(|e| matches!(e, Event::Sp(..))),
            "{name}: the stream must contain $sp updates"
        );

        for chunk in [1, 7, 4096] {
            let mut emu = Emulator::new(&program);
            let mut log = Log::default();
            run_chunked(&mut emu, chunk, &mut log);
            let at = format!("{name}, chunk {chunk}");
            assert_eq!(log.0.len(), whole_log.0.len(), "{at}: event count");
            if let Some(i) = (0..log.0.len()).find(|&i| log.0[i] != whole_log.0[i]) {
                panic!("{at}: event {i} is {:?}, want {:?}", log.0[i], whole_log.0[i]);
            }
            assert_eq!(emu.steps(), whole.steps(), "{at}: steps");
            assert_eq!(emu.pc(), whole.pc(), "{at}: pc");
            for r in Reg::all() {
                assert_eq!(emu.reg(r), whole.reg(r), "{at}: {r:?}");
            }
            assert_eq!(emu.output(), whole.output(), "{at}: output");
        }
    }
}
