//! Figure 7: SVF vs decoupled stack cache vs baseline port configurations.
//!
//! `(R+S)` means `R` general D-cache ports plus `S` stack-structure ports;
//! `(4+0)` pays the paper's longer 4-cycle hit latency. Cells are speedups
//! over the `(2+0)` baseline.

use crate::machine::{machine, machine_with};
use crate::timing::{over_first, speedup_table, Driver};
use svf_cpu::CpuConfig;
use svf_workloads::Scale;

/// The Figure 7 configurations, baseline first. The `(4+0)` machine states
/// the paper's 4-cycle hit latency explicitly — the declarative config has
/// no `with_ports` magic that couples latency to port count.
#[must_use]
pub fn configs() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("base (2+0)", machine("base")),
        ("base (4+0)", machine_with("base", "{dl1_ports: 4, dl1_hit_latency: 4}")),
        ("stack$ (2+2)", machine("stack-cache")),
        ("SVF (2+2)", machine("svf")),
        ("SVF no_squash (2+2)", machine("svf-nosquash")),
    ]
}

/// The Figure 7 comparison over all workloads.
#[must_use]
pub fn driver(scale: Scale) -> Driver {
    let cfgs = configs();
    let headers: Vec<&str> =
        std::iter::once("bench").chain(cfgs.iter().skip(1).map(|(n, _)| *n)).collect();
    Driver::matrix(&cfgs, scale, None, move |rows| {
        let title = "Figure 7: SVF vs stack cache vs baseline (speedup over 2+0)";
        let mut t = speedup_table(title, &headers, rows, over_first);
        t.note(
            "paper: SVF (2+2) beats base (4+0) by ~4% and the stack cache by ~9% (14% no_squash)",
        );
        t.note("paper: eon is the squash-dominated outlier, fixed by the no_squash code generator");
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn svf_beats_stack_cache_on_average() {
        let t = driver(Scale::Test).run();
        let sc = t.cell_f64("average", "stack$ (2+2)").expect("avg");
        let svf = t.cell_f64("average", "SVF (2+2)").expect("avg");
        let nosq = t.cell_f64("average", "SVF no_squash (2+2)").expect("avg");
        assert!(svf > 1.0, "SVF speeds up over the baseline: {svf}");
        assert!(svf >= sc * 0.995, "SVF at least matches the stack cache: {svf} vs {sc}");
        assert!(nosq >= svf * 0.98, "no_squash does not lose on average: {nosq} vs {svf}");
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn four_port_baseline_helps_but_less_than_svf() {
        let t = driver(Scale::Test).run();
        let four = t.cell_f64("average", "base (4+0)").expect("avg");
        let svf = t.cell_f64("average", "SVF (2+2)").expect("avg");
        assert!(svf > four * 0.99, "SVF (2+2) competitive with base (4+0): {svf} vs {four}");
    }
}
