//! The figure drivers' gateway to the config-space registry.
//!
//! Every experiment machine is a named preset from
//! [`svf_configspace::registry`], optionally adjusted by an overlay string
//! — the same `{field: value, ...}` syntax sweep specs and the CLI accept.
//! Going through one seam keeps the figures honest: a machine that cannot
//! be written as preset + overlay cannot silently drift from the
//! declarative config space.

use svf_configspace::Overlay;
use svf_cpu::CpuConfig;

/// A registry preset's [`CpuConfig`].
///
/// # Panics
///
/// Panics on unknown preset names — the figures' presets are pinned by the
/// registry's own tests, so a failure here is a programming error.
#[must_use]
pub fn machine(preset: &str) -> CpuConfig {
    svf_configspace::registry::require_preset(preset).unwrap_or_else(|e| panic!("{e}"))
}

/// A preset with an overlay applied (`machine_with("svf",
/// "{stack_ports: 4}")`).
///
/// # Panics
///
/// Panics on unknown presets, malformed overlays, or unknown fields — all
/// covered by this module's tests for every call site in the figures.
#[must_use]
pub fn machine_with(preset: &str, overlay: &str) -> CpuConfig {
    let base = svf_configspace::registry::require_preset(preset)
        .unwrap_or_else(|e| panic!("{e}"));
    let overlay = Overlay::parse(overlay).unwrap_or_else(|e| panic!("overlay: {e}"));
    overlay.apply(&base).unwrap_or_else(|e| panic!("overlay over {preset}: {e}"))
}

#[cfg(test)]
mod tests {
    use svf_cpu::{PredictorKind, StackEngine};

    use super::*;

    #[test]
    fn presets_resolve_to_the_hardwired_machines() {
        assert_eq!(machine("wide4"), CpuConfig::wide4());
        assert_eq!(machine("base"), CpuConfig::wide16().with_ports(2, 0));
        let mut svf = CpuConfig::wide16().with_ports(2, 2);
        svf.stack_engine = StackEngine::Svf;
        assert_eq!(machine("svf"), svf);
    }

    #[test]
    fn overlays_adjust_single_fields() {
        let c = machine_with("svf", "{stack_ports: 4}");
        assert_eq!(c.stack_ports, 4);
        assert_eq!(c.dl1_ports, 2, "overlay leaves the rest of the preset alone");
        let g = machine_with("wide16", "{predictor: gshare}");
        let mut gshare = CpuConfig::wide16();
        gshare.predictor = PredictorKind::Gshare;
        assert_eq!(g, gshare, "gshare with the stored 12 history bits");
    }

    #[test]
    #[should_panic(expected = "unknown config preset")]
    fn unknown_presets_panic_with_the_listing() {
        let _ = machine("warp-drive");
    }

    #[test]
    #[should_panic(expected = "overlay")]
    fn unknown_overlay_fields_panic() {
        let _ = machine_with("svf", "{svf_gigabytes: 3}");
    }
}
