//! # svf-cpu — execution-driven out-of-order cycle simulator
//!
//! The timing model of the SVF reproduction: a SimpleScalar-style
//! out-of-order superscalar with a Register Update Unit (unified reservation
//! stations + reorder buffer), a load/store queue with store forwarding, the
//! Table 2 memory hierarchy, and pluggable *stack engines*:
//!
//! * [`StackEngine::None`] — the conventional baseline: every memory
//!   reference goes through the L1 data cache ports;
//! * [`StackEngine::StackCache`] — the decoupled stack cache comparator:
//!   stack-region references are steered to a small direct-mapped cache
//!   backed by the L2;
//! * [`StackEngine::Svf`] — the paper's design: `$sp`-relative references
//!   whose address falls in the SVF window are *morphed* into register
//!   moves in the front end (1-cycle access, register-style forwarding, no
//!   D-cache port, no base-register dependence); other stack references are
//!   bounds-checked after address generation and re-routed into the SVF at
//!   a small penalty; the gpr-store→sp-load collision squash of §3.2 is
//!   modelled (and can be disabled, the paper's `no_squash` configuration);
//! * [`StackEngine::IdealSvf`] — the Figure 5 limit study: an infinite SVF
//!   with unlimited ports morphs *every* stack reference.
//!
//! The simulator is *functional-first*: `svf-emu` executes the program and
//! this crate replays the committed instruction stream through the pipeline
//! cycle by cycle. Branch mispredictions stall fetch until the branch
//! resolves (wrong-path instructions are not simulated — see DESIGN.md §1).
//!
//! Every run goes through [`simulate`]: a batch of configurations over one
//! shared execution of a program, in full detail or sampled, at any timing
//! fan-out, with bit-identical statistics on every path. [`Simulator`], [`run_lockstep`], [`run_lockstep_fanout`] and
//! [`run_sampled`] wrap it for the repository benchmark.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use svf_cpu::{CpuConfig, Simulator, StackEngine};
//!
//! let program = svf_cc::compile_to_program(
//!     "int main() { int s = 0; for (int i = 0; i < 100; i = i + 1) s = s + i; print(s); return 0; }",
//! )?;
//! let baseline = Simulator::new(CpuConfig::wide16()).run(&program, 1_000_000);
//! let mut svf_cfg = CpuConfig::wide16();
//! svf_cfg.stack_engine = StackEngine::Svf;
//! svf_cfg.stack_ports = 2;
//! let with_svf = Simulator::new(svf_cfg).run(&program, 1_000_000);
//! assert!(with_svf.cycles <= baseline.cycles, "the SVF never hurts here");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod config;
mod lockstep;
mod pipeline;
mod predictor;
mod sampling;
mod stats;

pub use config::{CpuConfig, PredictorKind, StackEngine};
pub use lockstep::{
    run_lockstep, run_lockstep_fanout, run_sampled, simulate, RunOptions, LOCKSTEP_WINDOW,
};
pub use pipeline::Simulator;
pub use predictor::{Gshare, Predictor};
pub use sampling::{SampleMode, SampleSpec, SampledStats};
pub use stats::{relative_error, SimStats, CSV_COLUMNS};

#[cfg(test)]
mod thread_contract {
    //! `svf-harness` ships configs to worker threads and runs simulations
    //! under `catch_unwind`; these assertions pin the auto-traits it needs.
    use super::*;

    #[test]
    fn harness_auto_traits_hold() {
        fn send_and_unwind_safe<T: Send + std::panic::UnwindSafe>() {}
        send_and_unwind_safe::<CpuConfig>();
        send_and_unwind_safe::<SimStats>();
        send_and_unwind_safe::<Simulator>();
    }
}

