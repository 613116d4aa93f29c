//! # svf-emu — functional emulator for the SVF reproduction ISA
//!
//! Executes [`svf_isa::Program`] images instruction-by-instruction with full
//! architectural fidelity and no timing. It plays three roles:
//!
//! 1. **Oracle / front end for the timing model.** The cycle simulator in
//!    `svf-cpu` is *execution-driven, functional-first*: this emulator
//!    produces the committed dynamic instruction stream ([`Retired`]
//!    records), and the timing model replays it through the pipeline.
//! 2. **Workload validation.** Each benchmark prints a checksum through the
//!    `putint` system call; tests compare it against a known-good value.
//! 3. **Reference-behaviour characterization.** The classification helpers
//!    ([`AccessMethod`], [`MemAccess`]) drive the paper's Figures 1–3, and
//!    the traffic tables replay the same reference stream; both take it
//!    from [`Emulator::step_observe`] through a [`StepObserver`], which
//!    skips building the [`Retired`] record.
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
mod trace;

pub use machine::{EmuError, Emulator, RunOutcome, StepObserver};
pub use memory::Memory;
pub use retired::{AccessMethod, ControlFlow, MemAccess, Retired, SpUpdate};
pub use stream::{LiveSource, RecordRing, RecordSource, SalvageReport, StreamError, TraceSource};
pub use trace::{TraceError, TraceReader, TraceWriter};
