//! Sweep specifications: a TOML document naming a base preset, a set of
//! axes (config fields with candidate values), and a search mode.
//!
//! The spec owns the *geometry* of a sweep — which configs exist, how
//! points are indexed, what neighbours a point has — while the harness
//! sweep driver owns *execution* (jobs, lockstep grouping, the greedy
//! Pareto loop that needs simulation results). A spec looks like:
//!
//! ```toml
//! name = "svf-geometry"
//! mode = "grid"                  # grid | random | pareto
//! base = "svf"                   # preset name from the registry
//! workloads = ["bzip2", "twolf"]
//! scale = "test"
//!
//! [axes]
//! svf_bytes = [1k, 2k, 4k, 8k]
//! stack_ports = [1, 2, 4]
//!
//! [sampling]                     # optional: sampled simulation plan
//! mode = "random"
//! seed = 7
//! period = 100k
//! interval = 10k
//! ```
//!
//! Points are addressed by an index vector (one index per axis, in axis
//! order); [`SweepSpec::config_at`] lowers an index vector to a concrete
//! [`CpuConfig`].

use svf_cpu::CpuConfig;

use crate::config::{self, FIELDS};
use crate::registry;
use crate::toml::{self, Entry};
use crate::value::Value;

/// How a sweep explores the axis lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every point of the Cartesian product.
    Grid,
    /// `samples` points drawn uniformly (deduplicated) with a seeded PRNG.
    Random,
    /// Greedy Pareto-frontier search: seed corners + random points, then
    /// expand ±1-index neighbours of frontier points round by round.
    Pareto,
}

impl Mode {
    fn parse(text: &str) -> Result<Mode, String> {
        match text {
            "grid" => Ok(Mode::Grid),
            "random" => Ok(Mode::Random),
            "pareto" => Ok(Mode::Pareto),
            other => Err(format!("mode must be grid|random|pareto, got {other:?}")),
        }
    }
}

/// One sweep axis: a config field and its candidate values, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The [`FIELDS`] name this axis varies.
    pub field: String,
    /// Candidate values (each pre-validated against the base config).
    pub values: Vec<Value>,
}

/// A parsed, validated sweep specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (output directory stem).
    pub name: String,
    /// Search mode.
    pub mode: Mode,
    /// Name of the base preset the axes overlay.
    pub base_name: String,
    /// The base preset's machine.
    pub base: CpuConfig,
    /// Workload names (validated by the harness, which owns the workload
    /// registry).
    pub workloads: Vec<String>,
    /// Workload scale name (`"test"` etc.; validated by the harness).
    pub scale: String,
    /// Points drawn in `random` mode / random seeds added in `pareto` mode.
    pub samples: u64,
    /// PRNG seed for `random`/`pareto` sampling.
    pub seed: u64,
    /// Expansion rounds in `pareto` mode.
    pub rounds: u64,
    /// Hard cap on expanded points: exceeding it is a loud error, never a
    /// silent truncation.
    pub max_points: u64,
    /// The axes, in spec order.
    pub axes: Vec<Axis>,
    /// Sampled-simulation plan from the optional `[sampling]` section:
    /// when present, the sweep driver runs every point sampled
    /// ([`svf_cpu::simulate`] under this plan) instead of fully detailed.
    /// Keys mirror [`svf_cpu::SampleSpec::parse`] (`mode`, `seed`,
    /// `period`, `interval`, `warmup`, `ramp`, `tail`, `intervals`), with counts
    /// accepting the same *binary* `k`/`m` suffixes as axis values (TOML
    /// `100k` is 102400, unlike the CLI grammar's decimal `k`).
    pub sampling: Option<svf_cpu::SampleSpec>,
    /// Unified thread budget from the optional top-level `threads` key:
    /// the sweep's runs occupy at most this many threads, split between
    /// job workers and intra-batch timing fan-out (`jobs × fanout ≤
    /// threads`). When present it overrides the harness's configured
    /// budget for this sweep only, exactly like `[sampling]` overrides
    /// `--sample`; `None` keeps whatever the harness was given.
    pub threads: Option<u64>,
}

/// The standard splitmix64 mixer (same generator svf-bench uses), enough
/// PRNG for reproducible axis sampling.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepSpec {
    /// Parses and validates a sweep spec document.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys/sections, unknown axis fields, axis values the
    /// base config refuses, unknown presets, missing workloads, and
    /// out-of-range knobs.
    pub fn from_toml(text: &str) -> Result<SweepSpec, String> {
        let doc = toml::parse(text)?;
        let mut name = "sweep".to_string();
        let mut mode = Mode::Grid;
        let mut base_name = "wide16".to_string();
        let mut workloads: Vec<String> = Vec::new();
        let mut scale = "test".to_string();
        let mut samples = 64u64;
        let mut seed = 1u64;
        let mut rounds = 4u64;
        let mut max_points = 4096u64;
        let mut axes: Vec<Axis> = Vec::new();
        let mut sampling_items: Vec<String> = Vec::new();
        let mut threads: Option<u64> = None;

        let scalar = |key: &str, entry: &Entry| {
            entry.as_scalar().cloned().ok_or_else(|| format!("{key} wants a scalar"))
        };
        let int = |key: &str, entry: &Entry| {
            scalar(key, entry)?
                .as_int()
                .ok_or_else(|| format!("{key} wants an integer"))
        };
        let string = |key: &str, entry: &Entry| {
            scalar(key, entry)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{key} wants a string"))
        };

        for item in &doc.items {
            match (item.section.as_str(), item.key.as_str()) {
                ("", "name") => name = string("name", &item.value)?,
                ("", "mode") => mode = Mode::parse(&string("mode", &item.value)?)?,
                ("", "base") => base_name = string("base", &item.value)?,
                ("", "scale") => scale = string("scale", &item.value)?,
                ("", "samples") => samples = int("samples", &item.value)?,
                ("", "seed") => seed = int("seed", &item.value)?,
                ("", "rounds") => rounds = int("rounds", &item.value)?,
                ("", "max_points") => max_points = int("max_points", &item.value)?,
                ("", "threads") => threads = Some(int("threads", &item.value)?),
                ("", "workload") => workloads.push(string("workload", &item.value)?),
                ("", "workloads") => {
                    let vals = item
                        .value
                        .as_array()
                        .ok_or_else(|| "workloads wants an array".to_string())?;
                    for v in vals {
                        workloads.push(
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "workloads wants strings".to_string())?,
                        );
                    }
                }
                ("", other) => return Err(format!("unknown sweep key {other:?}")),
                ("axes", field) => {
                    if !FIELDS.contains(&field) {
                        return Err(format!("axis {field:?} is not a config field"));
                    }
                    if axes.iter().any(|a| a.field == field) {
                        return Err(format!("axis {field:?} listed twice"));
                    }
                    let values = match &item.value {
                        Entry::Array(vs) => vs.clone(),
                        Entry::Scalar(v) => vec![v.clone()],
                    };
                    axes.push(Axis { field: field.to_string(), values });
                }
                ("sampling", key) => {
                    // Re-encode each entry as a `key=value` item and let
                    // `SampleSpec::parse` own validation (unknown keys,
                    // malformed counts, overlap checks) — one grammar,
                    // whether the plan arrives via CLI flag or TOML.
                    let v = scalar(&format!("sampling.{key}"), &item.value)?;
                    let text = v.as_str().map_or_else(|| v.to_string(), str::to_string);
                    sampling_items.push(format!("{key}={text}"));
                }
                (section, _) => return Err(format!("unknown sweep section [{section}]")),
            }
        }

        let sampling = if sampling_items.is_empty() {
            None
        } else {
            Some(
                svf_cpu::SampleSpec::parse(&sampling_items.join(","))
                    .map_err(|e| format!("[sampling]: {e}"))?,
            )
        };
        let base = registry::require_preset(&base_name)?;
        if workloads.is_empty() {
            return Err("sweep spec names no workloads (workload = \"...\")".to_string());
        }
        if axes.is_empty() {
            return Err("sweep spec has no [axes]".to_string());
        }
        if max_points == 0 {
            return Err("max_points must be positive".to_string());
        }
        if threads == Some(0) {
            return Err("threads must be positive".to_string());
        }
        // Pre-validate every axis value against the base config so a bad
        // value fails at parse time, not at point 977 of the expansion.
        for axis in &axes {
            for v in &axis.values {
                let mut probe = base.clone();
                config::set(&mut probe, &axis.field, v)
                    .and_then(|()| config::validate(&probe))
                    .map_err(|e| format!("axis {}: {e}", axis.field))?;
            }
        }
        Ok(SweepSpec {
            name,
            mode,
            base_name,
            base,
            workloads,
            scale,
            samples,
            seed,
            rounds,
            max_points,
            axes,
            sampling,
            threads,
        })
    }

    /// Points in the full Cartesian product of the axes.
    #[must_use]
    pub fn lattice_size(&self) -> u64 {
        self.axes.iter().map(|a| a.values.len() as u64).product()
    }

    /// The config at an index vector (one index per axis, in axis order).
    ///
    /// # Errors
    ///
    /// Rejects index vectors of the wrong arity or with out-of-range
    /// entries, and points whose axis values combine into a cache geometry
    /// that does not divide into a power-of-two number of sets.
    pub fn config_at(&self, idx: &[usize]) -> Result<CpuConfig, String> {
        if idx.len() != self.axes.len() {
            return Err(format!(
                "index vector has {} entries for {} axes",
                idx.len(),
                self.axes.len()
            ));
        }
        let mut cfg = self.base.clone();
        for (axis, &i) in self.axes.iter().zip(idx) {
            let v = axis
                .values
                .get(i)
                .ok_or_else(|| format!("axis {} has no value #{i}", axis.field))?;
            config::set(&mut cfg, &axis.field, v)?;
        }
        config::validate(&cfg).map_err(|e| format!("point {}: {e}", self.label_at(idx)))?;
        Ok(cfg)
    }

    /// A compact human label for a point: `field=value` joined by
    /// whitespace, in axis order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range index vectors (callers hold valid indices).
    #[must_use]
    pub fn label_at(&self, idx: &[usize]) -> String {
        self.axes
            .iter()
            .zip(idx)
            .map(|(axis, &i)| format!("{}={}", axis.field, axis.values[i]))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// All index vectors of the grid, lexicographic, first axis slowest.
    ///
    /// # Errors
    ///
    /// Fails loudly when the lattice exceeds `max_points` — raise
    /// `max_points` in the spec to confirm a bigger sweep, nothing is
    /// silently truncated.
    pub fn grid_indices(&self) -> Result<Vec<Vec<usize>>, String> {
        let total = self.lattice_size();
        if total > self.max_points {
            return Err(format!(
                "grid has {total} points but max_points = {} — raise max_points to confirm",
                self.max_points
            ));
        }
        let mut out = Vec::with_capacity(total as usize);
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            out.push(idx.clone());
            // Odometer increment, last axis fastest.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    return Ok(out);
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].values.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    /// `samples` index vectors drawn uniformly with the spec's seed,
    /// deduplicated (so the result may be shorter than `samples`; it is
    /// never silently longer than `max_points`).
    ///
    /// # Errors
    ///
    /// Fails when `samples` exceeds `max_points`.
    pub fn random_indices(&self) -> Result<Vec<Vec<usize>>, String> {
        if self.samples > self.max_points {
            return Err(format!(
                "samples = {} but max_points = {} — raise max_points to confirm",
                self.samples, self.max_points
            ));
        }
        let mut state = self.seed;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        // Bounded draw attempts so a tiny lattice cannot loop forever.
        let attempts = self.samples.saturating_mul(16).max(256);
        for _ in 0..attempts {
            if out.len() as u64 == self.samples {
                break;
            }
            let idx: Vec<usize> = self
                .axes
                .iter()
                .map(|a| (splitmix64(&mut state) % a.values.len() as u64) as usize)
                .collect();
            if seen.insert(idx.clone()) {
                out.push(idx);
            }
        }
        Ok(out)
    }

    /// Seed points for the greedy Pareto search: the all-minimum and
    /// all-maximum corners plus `samples` random draws.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepSpec::random_indices`] errors.
    pub fn pareto_seed_indices(&self) -> Result<Vec<Vec<usize>>, String> {
        let mut out = vec![
            vec![0usize; self.axes.len()],
            self.axes.iter().map(|a| a.values.len() - 1).collect::<Vec<usize>>(),
        ];
        for idx in self.random_indices()? {
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
        Ok(out)
    }

    /// The ±1-per-axis neighbours of an index vector (up to `2 × axes`).
    #[must_use]
    pub fn neighbors(&self, idx: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(2 * self.axes.len());
        for (pos, axis) in self.axes.iter().enumerate() {
            if idx[pos] > 0 {
                let mut n = idx.to_vec();
                n[pos] -= 1;
                out.push(n);
            }
            if idx[pos] + 1 < axis.values.len() {
                let mut n = idx.to_vec();
                n[pos] += 1;
                out.push(n);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
        name = \"svf-geometry\"\n\
        mode = \"grid\"\n\
        base = \"svf\"\n\
        workloads = [\"bzip2\", \"twolf\"]\n\
        [axes]\n\
        svf_bytes = [1k, 2k, 4k, 8k]\n\
        stack_ports = [1, 2, 4]\n";

    #[test]
    fn parses_and_expands_a_grid() {
        let spec = SweepSpec::from_toml(SPEC).expect("parses");
        assert_eq!(spec.name, "svf-geometry");
        assert_eq!(spec.base_name, "svf");
        assert_eq!(spec.workloads, ["bzip2", "twolf"]);
        assert_eq!(spec.lattice_size(), 12);
        let grid = spec.grid_indices().expect("expands");
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0], [0, 0]);
        assert_eq!(grid[1], [0, 1], "last axis fastest");
        assert_eq!(grid[11], [3, 2]);
        let cfg = spec.config_at(&grid[11]).expect("lowers");
        assert_eq!(cfg.svf.capacity_bytes, 8 << 10);
        assert_eq!(cfg.stack_ports, 4);
        assert_eq!(cfg.stack_engine, svf_cpu::StackEngine::Svf, "base preset carries through");
        assert_eq!(spec.label_at(&grid[1]), "svf_bytes=1024 stack_ports=2");
    }

    #[test]
    fn random_points_are_seeded_and_deduplicated() {
        let spec = SweepSpec::from_toml(&SPEC.replace("\"grid\"", "\"random\"")).expect("parses");
        let a = spec.random_indices().expect("draws");
        let b = spec.random_indices().expect("draws");
        assert_eq!(a, b, "same seed, same draw");
        assert!(!a.is_empty());
        assert!(a.len() <= 12, "deduplication caps at the lattice size");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "no duplicate points");
    }

    #[test]
    fn pareto_seeds_and_neighbors() {
        let spec = SweepSpec::from_toml(&SPEC.replace("\"grid\"", "\"pareto\"")).expect("parses");
        let seeds = spec.pareto_seed_indices().expect("seeds");
        assert!(seeds.contains(&vec![0, 0]), "min corner seeded");
        assert!(seeds.contains(&vec![3, 2]), "max corner seeded");
        let n = spec.neighbors(&[0, 1]);
        assert_eq!(n, vec![vec![1, 1], vec![0, 0], vec![0, 2]]);
        assert_eq!(spec.neighbors(&[3, 2]), vec![vec![2, 2], vec![3, 1]]);
    }

    #[test]
    fn caps_are_loud_not_silent() {
        let spec =
            SweepSpec::from_toml(&format!("max_points = 5\n{SPEC}")).expect("parses");
        let err = spec.grid_indices().expect_err("over cap");
        assert!(err.contains("max_points"), "{err}");
    }

    #[test]
    fn sampling_section_parses_and_validates() {
        let spec = SweepSpec::from_toml(SPEC).expect("parses");
        assert_eq!(spec.sampling, None, "absent section means full simulation");

        let sampled = format!(
            "{SPEC}[sampling]\nmode = \"random\"\nseed = 7\nperiod = 100k\ninterval = 10k\n"
        );
        let spec = SweepSpec::from_toml(&sampled).expect("parses");
        let plan = spec.sampling.expect("has a plan");
        assert_eq!(plan.mode, svf_cpu::SampleMode::Random { seed: 7 });
        // TOML `k` is the binary suffix (as for svf_bytes axes), so 100k
        // is 102400 here — unlike the CLI spec grammar's decimal `k`.
        assert_eq!(plan.period, 102_400);
        assert_eq!(plan.interval, 10_240);
        assert_eq!(plan.warmup, svf_cpu::SampleSpec::default().warmup, "unset keys keep defaults");

        assert!(
            SweepSpec::from_toml(&format!("{SPEC}[sampling]\npeirod = 100k\n")).is_err(),
            "unknown sampling key"
        );
        assert!(
            SweepSpec::from_toml(&format!("{SPEC}[sampling]\nperiod = 10\ninterval = 100\n"))
                .is_err(),
            "overlapping intervals rejected"
        );
    }

    #[test]
    fn threads_key_parses_and_rejects_zero() {
        let spec = SweepSpec::from_toml(SPEC).expect("parses");
        assert_eq!(spec.threads, None, "absent key keeps the harness budget");
        let spec = SweepSpec::from_toml(&format!("threads = 8\n{SPEC}")).expect("parses");
        assert_eq!(spec.threads, Some(8));
        let err = SweepSpec::from_toml(&format!("threads = 0\n{SPEC}")).expect_err("zero");
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(SweepSpec::from_toml("workload = \"bzip2\"\n").is_err(), "no axes");
        assert!(
            SweepSpec::from_toml("[axes]\nruu_size = [64]\n").is_err(),
            "no workloads"
        );
        assert!(
            SweepSpec::from_toml(&SPEC.replace("stack_ports", "stak_ports")).is_err(),
            "unknown axis field"
        );
        assert!(
            SweepSpec::from_toml(&SPEC.replace("base = \"svf\"", "base = \"svvf\"")).is_err(),
            "unknown preset"
        );
        assert!(
            SweepSpec::from_toml(&format!("{SPEC}typo = 1\n")).is_err(),
            "unknown top-level key"
        );
        assert!(
            SweepSpec::from_toml(&SPEC.replace("[axes]", "[axes]\nsvf_bytes = [3]\n"))
                .is_err(),
            "axis listed twice"
        );
    }

    /// Seed behaviour: a 3 KB DL1 axis parsed, then panicked per job.
    #[test]
    fn bad_axis_values_fail_at_parse_time() {
        let spec = SPEC.replace("stack_ports = [1, 2, 4]", "dl1_bytes = [3k, 64k]");
        let err = SweepSpec::from_toml(&spec).expect_err("3k is no cache size");
        assert!(err.contains("dl1_bytes"), "{err}");
        let spec = SPEC.replace("stack_ports = [1, 2, 4]", "dl1_assoc = [3, 4]");
        let err = SweepSpec::from_toml(&spec).expect_err("3 ways do not divide 64k");
        assert!(err.contains("dl1"), "{err}");
    }

    #[test]
    fn points_combining_into_bad_geometry_are_errors() {
        let spec = SPEC.replace(
            "svf_bytes = [1k, 2k, 4k, 8k]\nstack_ports = [1, 2, 4]",
            "dl1_bytes = [1k, 64k]\ndl1_line_bytes = [32, 512]",
        );
        let spec = SweepSpec::from_toml(&spec).expect("each value fits the base alone");
        spec.config_at(&[0, 0]).expect("1k in 4 × 32 B sets");
        let err = spec.config_at(&[0, 1]).expect_err("1k in 4 × 512 B sets");
        assert!(err.contains("dl1_bytes=1024 dl1_line_bytes=512"), "{err}");
    }
}
