//! Declarative config-space engine for the SVF reproduction.
//!
//! Everything the simulator's machine model can vary — pipeline widths,
//! queue depths, FU counts and latencies, predictor choice, cache
//! geometry, and the SVF/stack-cache parameters — is a field of
//! [`svf_cpu::CpuConfig`], and this crate names every one of them: a
//! machine serializes to a small TOML subset and composes as
//! `base + overlay` deltas:
//!
//! ```
//! use svf_configspace::{registry, Overlay};
//!
//! let base = registry::require_preset("svf").unwrap();
//! let machine = Overlay::parse("{svf_bytes: 4k, stack_ports: 4}")
//!     .unwrap()
//!     .apply(&base) // a CpuConfig, ready for the simulator
//!     .unwrap();
//! assert_eq!(machine.stack_ports, 4);
//! assert_eq!(machine.svf.capacity_bytes, 4 << 10);
//! ```
//!
//! The crate has four layers:
//!
//! - [`config`]: the field table ([`FIELDS`]) with by-name [`get`]/[`set`]
//!   and their checks, the cross-field cache-geometry check, and the
//!   TOML round-trip [`to_toml`]/[`from_toml`];
//! - [`overlay`]: ordered last-write-wins field deltas ([`Overlay`]);
//! - [`registry`]: the named presets reproducing every machine the
//!   experiments used to hardwire, each expressed as an overlay recipe;
//! - [`spec`]: sweep specifications ([`SweepSpec`]) — axes over the field
//!   space with grid, seeded-random, and greedy-Pareto index geometry.
//!
//! Sweep *execution* (jobs, compile memoization, lockstep batching, the
//! Pareto loop, CSV emission) lives in `svf_harness::sweep`, which builds
//! on this crate.

pub mod config;
pub mod overlay;
pub mod registry;
pub mod spec;
pub mod toml;
pub mod value;

pub use config::{
    from_toml, get, set, stack_structure_bytes, to_toml, FIELDS, PREDICTORS, STACK_ENGINES,
};
pub use overlay::Overlay;
pub use spec::{Axis, Mode, SweepSpec};
pub use value::Value;
