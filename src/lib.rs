//! Re-exports for the SVF reproduction workspace: each subsystem lives in
//! its own crate under `crates/`; this umbrella crate hosts the runnable
//! examples and the cross-crate integration tests.
#![forbid(unsafe_code)]

pub mod cli;

/// README.md's Rust examples, compiled and run by `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use svf;
pub use svf_asm;
pub use svf_cc;
pub use svf_cpu;
pub use svf_emu;
pub use svf_experiments;
pub use svf_isa;
pub use svf_mem;
pub use svf_workloads;
