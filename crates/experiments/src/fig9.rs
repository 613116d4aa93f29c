//! Figure 9: performance improvement of the real SVF implementation over
//! the baseline microarchitecture, across D-cache and SVF port counts.
//!
//! The paper reports: adding a single-ported SVF to a single-ported D-cache
//! gives +50% on average (+65% dual-ported SVF); for a dual-ported D-cache
//! the addition of a dual-ported SVF is worth +24% on average, with eon
//! peaking at +84% (using no_squash).

use crate::machine::{machine, machine_with};
use crate::timing::{speedup_table, Driver};
use svf_cpu::CpuConfig;
use svf_workloads::Scale;

fn svf_cfg(dl1_ports: usize, svf_ports: usize) -> CpuConfig {
    machine_with("svf", &format!("{{dl1_ports: {dl1_ports}, stack_ports: {svf_ports}}}"))
}

/// The Figure 9 port sweep. Cells are speedups of `(R+S)` over the
/// `(R+0)` baseline with the same number of D-cache ports.
#[must_use]
pub fn driver(scale: Scale) -> Driver {
    // Columns 0/1 are the two baselines; each sweep column compares to the
    // baseline with the same number of D-cache ports.
    let sweeps: [(usize, usize); 5] = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4)];
    let configs: Vec<(String, CpuConfig)> = std::iter::once((
        "base (1+0)".to_string(),
        machine_with("base", "{dl1_ports: 1}"),
    ))
    .chain(std::iter::once(("base (2+0)".to_string(), machine("base"))))
    .chain(sweeps.iter().map(|&(r, s)| (format!("SVF ({r}+{s})"), svf_cfg(r, s))))
    .collect();
    Driver::matrix(&configs, scale, None, move |rows| {
        let mut t = speedup_table(
            "Figure 9: SVF speedup over same-R baseline",
            &["bench", "(1+1)", "(1+2)", "(2+1)", "(2+2)", "(2+4)"],
            rows,
            |stats| {
                let same_r = |r: usize| if r == 1 { &stats[0] } else { &stats[1] };
                let sweep = sweeps.iter().zip(&stats[2..]);
                sweep.map(|(&(r, _), s)| s.speedup_over(same_r(r))).collect()
            },
        );
        t.note("paper: (1+1) ≈ 1.50x, (1+2) ≈ 1.65x, (2+2) ≈ 1.24x average");
        t.note("single-ported designs gain most: the SVF drains the contended D-cache port");
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn single_ported_machines_gain_most() {
        let t = driver(Scale::Test).run();
        let s11 = t.cell_f64("average", "(1+1)").expect("avg");
        let s22 = t.cell_f64("average", "(2+2)").expect("avg");
        assert!(s11 > 1.05, "(1+1) must show a real speedup: {s11}");
        assert!(s22 > 1.0, "(2+2) still positive: {s22}");
        assert!(s11 > s22, "port-starved machines gain more: {s11} vs {s22}");
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn more_svf_ports_never_hurt() {
        let t = driver(Scale::Test).run();
        let s21 = t.cell_f64("average", "(2+1)").expect("avg");
        let s22 = t.cell_f64("average", "(2+2)").expect("avg");
        let s24 = t.cell_f64("average", "(2+4)").expect("avg");
        assert!(s22 >= s21 * 0.99, "{s21} -> {s22}");
        assert!(s24 >= s22 * 0.99, "{s22} -> {s24}");
    }
}
