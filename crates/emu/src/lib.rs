//! # svf-emu — functional emulator for the SVF reproduction ISA
//!
//! Executes [`svf_isa::Program`] images instruction-by-instruction with full
//! architectural fidelity and no timing. There is one stepping loop
//! ([`Emulator::run_with`]): it dispatches on the program's lowered
//! micro-ops ([`svf_isa::Lowered`], built once per image) and hands each
//! committed instruction to a [`StepSink`] inlined into it, so every caller
//! pays only for what its sink reads. The emulator plays three roles:
//!
//! 1. **Oracle / front end for the timing model.** The cycle simulator in
//!    `svf-cpu` is *execution-driven, functional-first*: its sink writes
//!    the per-instruction facts the pipeline needs straight into the shared
//!    lockstep window, and functional warming between sampled intervals is
//!    another sink. [`Retired`] records are built only where a whole record
//!    is wanted ([`Emulator::step_record`]: the CLI's instruction listing,
//!    [`RecordRing`]). The emulator is the only stream: nothing reads a
//!    captured trace.
//! 2. **Workload validation.** Each benchmark prints a checksum through the
//!    `putint` system call; tests compare it against a known-good value.
//! 3. **Reference-behaviour characterization.** The classification helpers
//!    ([`AccessMethod`], [`MemAccess`]) drive the paper's Figures 1–3, and
//!    the traffic tables replay the same reference stream; both take it
//!    from [`Emulator::run_observe`] through a [`StepObserver`], whose
//!    hooks the stepping loop inlines.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = svf_asm::assemble("
//! main:
//!     li $a0, 6
//!     li $t0, 7
//!     mulq $a0, $t0, $a0
//!     putint
//!     halt
//! ")?;
//! let mut emu = svf_emu::Emulator::new(&program);
//! emu.run(1_000)?;
//! assert_eq!(emu.output_string(), "42\n");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod memory;
mod retired;
mod stream;

pub use machine::{Commit, EmuError, Emulator, RunOutcome, StepObserver, StepSink};
pub use memory::Memory;
pub use retired::{AccessMethod, ControlFlow, MemAccess, Retired, SpUpdate};
pub use stream::{LiveSource, RecordRing};
