//! # svf-e2e-bench — the repository's end-to-end benchmark
//!
//! Four seeded workloads drive the simulator through the commands people
//! run (figure regeneration, a config sweep, sampled simulation, the
//! traffic tables) and report what a user sees: set-up time, wall time,
//! simulated instructions per second, and peak memory. A traced run
//! splits the same work into per-layer numbers by timing calls into each
//! crate's public functions. `e2e compare` judges two sets of runs.
//! See `README.md` for the workloads, metrics and commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod run;
pub mod stats;
pub mod table;
pub mod trace;
