//! Figure 6: progressive performance analysis on the 16-wide machine.
//!
//! Starting from the Table 2 baseline, each configuration relaxes one
//! constraint: double the L1 (no gain, the paper finds), remove the address
//! calculation dependence of stack references (small gain out-of-order),
//! then add a 1-, 2- and 16-ported SVF (the bulk of the speedup).

use crate::machine::{machine, machine_with};
use crate::timing::{over_first, speedup_table, Driver};
use svf_cpu::CpuConfig;
use svf_workloads::Scale;

/// The Figure 6 configuration ladder, in presentation order.
#[must_use]
pub fn configs() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("baseline", machine("wide16")), // 2-ported DL1, perfect prediction
        ("2x L1 size", machine("base-dl1x2")),
        ("no_addr_cal_op", machine_with("wide16", "{no_addr_calc_for_stack: true}")),
        ("SVF 1 port", machine_with("svf", "{stack_ports: 1}")),
        ("SVF 2 ports", machine("svf")),
        ("SVF 16 ports", machine_with("svf", "{stack_ports: 16}")),
    ]
}

/// The Figure 6 ladder over all workloads; cells are speedups over the
/// baseline configuration.
#[must_use]
pub fn driver(scale: Scale) -> Driver {
    let cfgs = configs();
    let headers: Vec<&str> =
        std::iter::once("bench").chain(cfgs.iter().skip(1).map(|(n, _)| *n)).collect();
    Driver::matrix(&cfgs, scale, None, move |rows| {
        let title = "Figure 6: Progressive Performance Analysis (16-wide)";
        let mut t = speedup_table(title, &headers, rows, over_first);
        t.note("paper: doubling L1 ≈ no gain; no_addr_cal_op ≈ +3%; SVF ports dominate (+28%)");
        t.note("paper: a dual-ported SVF performs nearly on par with 16 ports except eon/gcc");
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn ladder_matches_paper_ordering() {
        let t = driver(Scale::Test).run();
        let l1 = t.cell_f64("average", "2x L1 size").expect("avg");
        let na = t.cell_f64("average", "no_addr_cal_op").expect("avg");
        let p2 = t.cell_f64("average", "SVF 2 ports").expect("avg");
        let p16 = t.cell_f64("average", "SVF 16 ports").expect("avg");
        assert!((l1 - 1.0).abs() < 0.02, "doubling L1 buys ~nothing: {l1}");
        assert!(na >= 0.99, "addr-calc removal is a small positive: {na}");
        assert!(p2 > l1 && p2 > 1.02, "the SVF provides the real speedup: {p2}");
        assert!(p16 >= p2 * 0.98, "more ports never hurt: {p2} vs {p16}");
    }
}
