//! The named-preset registry: every machine the experiments hardwired
//! before the config space existed, reproduced as a base-plus-overlay
//! recipe.
//!
//! The registry is itself data: each preset is an overlay string over the
//! Table 2 16-wide baseline ([`CpuConfig::wide16`]), parsed by the same
//! [`Overlay`] machinery sweep specs and the CLI use. Unit tests pin each
//! preset against the original hardwired `CpuConfig` construction, and the
//! repo-level golden-stats suite pins the machines to bit-identical
//! `SimStats`.

use svf_cpu::CpuConfig;

use crate::overlay::Overlay;

/// `(name, overlay-over-default, description)` for every preset, in
/// listing order.
pub const PRESETS: &[(&str, &str, &str)] = &[
    ("wide16", "{}", "Table 2 16-wide baseline: dual-ported DL1, no stack structure"),
    ("wide8", "{width: 8, ifq_size: 32, ruu_size: 128, lsq_size: 64}", "Table 2 8-wide machine"),
    ("wide4", "{width: 4, ifq_size: 16, ruu_size: 64, lsq_size: 32}", "Table 2 4-wide machine"),
    ("base", "{}", "alias of wide16 (the golden-stats baseline label)"),
    (
        "stack-cache",
        "{stack_ports: 2, stack_engine: stack-cache}",
        "16-wide (2+2) with the 8 KB decoupled stack cache",
    ),
    (
        "svf",
        "{stack_ports: 2, stack_engine: svf}",
        "16-wide (2+2) with the paper's 8 KB stack value file",
    ),
    (
        "svf-nosquash",
        "{stack_ports: 2, stack_engine: svf, svf_no_squash: true}",
        "svf with the \u{a7}5.3.1 collision squash disabled",
    ),
    (
        "ideal",
        "{stack_engine: ideal}",
        "Figure 5 limit study: infinite SVF, stack references become register moves",
    ),
    ("base-dl1x2", "{dl1_bytes: 128k}", "baseline with Figure 6's doubled (128 KB) data L1"),
    ("base-dl1-4k", "{dl1_bytes: 4k}", "baseline with an undersized 4 KB data L1"),
    (
        "stack-cache-64b",
        "{stack_ports: 2, stack_engine: stack-cache, stack_cache_bytes: 64}",
        "stack-cache shrunk to two lines (64 bytes)",
    ),
];

/// The preset names, in listing order.
#[must_use]
pub fn presets() -> Vec<&'static str> {
    PRESETS.iter().map(|(name, _, _)| *name).collect()
}

/// The overlay a preset applies over [`CpuConfig::wide16`], if the name is
/// registered.
#[must_use]
pub fn preset_overlay(name: &str) -> Option<Overlay> {
    let (_, overlay, _) = PRESETS.iter().find(|(n, _, _)| *n == name)?;
    Some(Overlay::parse(overlay).expect("registry overlays parse (pinned by unit test)"))
}

/// Builds a preset by name.
#[must_use]
pub fn preset(name: &str) -> Option<CpuConfig> {
    let overlay = preset_overlay(name)?;
    Some(overlay.apply(&CpuConfig::wide16()).expect("registry overlays apply"))
}

/// Builds a preset by name, or fails with a message listing what exists —
/// the error surface for `--config` flags and sweep-spec `base =` keys.
///
/// # Errors
///
/// Unknown preset names.
pub fn require_preset(name: &str) -> Result<CpuConfig, String> {
    preset(name)
        .ok_or_else(|| format!("unknown config preset {name:?} (have: {})", presets().join(", ")))
}

/// One line per preset: `name  overlay  description` — the payload of
/// `--list-configs`.
#[must_use]
pub fn listing() -> String {
    let width = PRESETS.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, overlay, desc) in PRESETS {
        out.push_str(&format!("{name:width$}  {desc}\n"));
        if *overlay != "{}" {
            out.push_str(&format!("{:width$}    = wide16 + {overlay}\n", ""));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use svf_cpu::StackEngine;

    use super::*;

    /// Swaps in the role-based DL1 display name the registry builds with,
    /// so hardwired variants that only differ by `CacheConfig::name`
    /// ("DL1x2", "DL1s") compare equal on substance.
    fn with_role_names(mut cfg: CpuConfig) -> CpuConfig {
        cfg.hierarchy.dl1.name = "DL1";
        cfg
    }

    #[test]
    fn every_overlay_parses_and_applies() {
        for (name, _, _) in PRESETS {
            let cfg = preset(name).unwrap_or_else(|| panic!("{name} registered"));
            crate::config::validate(&cfg).unwrap_or_else(|e| panic!("{name} is consistent: {e}"));
        }
        assert!(preset("no-such-machine").is_none());
        assert!(require_preset("no-such-machine").unwrap_err().contains("wide16"));
    }

    #[test]
    fn table2_presets_match_the_hardwired_machines() {
        assert_eq!(preset("wide4").unwrap(), CpuConfig::wide4());
        assert_eq!(preset("wide8").unwrap(), CpuConfig::wide8());
        assert_eq!(preset("wide16").unwrap(), CpuConfig::wide16());
        assert_eq!(preset("base").unwrap(), CpuConfig::wide16());
    }

    #[test]
    fn golden_stats_presets_match_the_hardwired_machines() {
        let mut sc = CpuConfig::wide16().with_ports(2, 2);
        sc.stack_engine = StackEngine::StackCache;
        assert_eq!(preset("stack-cache").unwrap(), sc);

        let mut svf = CpuConfig::wide16().with_ports(2, 2);
        svf.stack_engine = StackEngine::Svf;
        assert_eq!(preset("svf").unwrap(), svf);

        let mut dl1x2 = CpuConfig::wide16();
        dl1x2.hierarchy.dl1 = svf_mem::CacheConfig::dl1_128k();
        assert_eq!(preset("base-dl1x2").unwrap(), with_role_names(dl1x2));

        let mut dl1s = CpuConfig::wide16();
        dl1s.hierarchy.dl1 = svf_mem::CacheConfig {
            size_bytes: 4 << 10,
            assoc: 4,
            line_bytes: 32,
            hit_latency: 3,
            name: "DL1s",
        };
        assert_eq!(preset("base-dl1-4k").unwrap(), with_role_names(dl1s));

        let mut sc64 = CpuConfig::wide16().with_ports(2, 2);
        sc64.stack_engine = StackEngine::StackCache;
        sc64.stack_cache = svf_mem::StackCacheConfig::with_size(64);
        assert_eq!(preset("stack-cache-64b").unwrap(), sc64);
    }

    #[test]
    fn ideal_and_nosquash_variants() {
        let ideal = preset("ideal").unwrap();
        assert_eq!(ideal.stack_engine, StackEngine::IdealSvf);
        assert_eq!(ideal.stack_ports, 0, "the ideal SVF needs no ports");
        let mut ns = CpuConfig::wide16().with_ports(2, 2);
        ns.stack_engine = StackEngine::Svf;
        ns.svf_no_squash = true;
        assert_eq!(preset("svf-nosquash").unwrap(), ns, "nosquash selects the squash-free SVF");
    }

    #[test]
    fn listing_names_every_preset() {
        let listing = listing();
        for (name, _, _) in PRESETS {
            assert!(listing.contains(name), "listing mentions {name}");
        }
    }
}
