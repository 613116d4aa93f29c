//! Figure 8: breakdown of SVF reference types.
//!
//! Of all references serviced by the SVF machinery, how many were *morphed*
//! in the front end (fast loads/stores) versus *re-routed* after address
//! generation (non-`$sp` stack references), versus falling outside the SVF
//! window entirely. The paper reports ~86% morphed / 14% re-routed.

use crate::machine::machine;
use crate::table::ExpTable;
use crate::timing::Driver;
use svf_workloads::Scale;

/// The Figure 8 breakdown (SVF `(2+2)` on the 16-wide machine).
#[must_use]
pub fn driver(scale: Scale) -> Driver {
    Driver::matrix(&[("SVF (2+2)", machine("svf"))], scale, None, |rows| {
        let mut t = ExpTable::new(
            "Figure 8: Breakdown of SVF Reference Types",
            &["bench", "fast loads", "fast stores", "re-routed", "out-of-window", "squashes"],
        );
        let (mut sum_morph, mut sum_total) = (0u64, 0u64);
        for (bench, stats) in rows {
            let s = &stats[0];
            let morphed = s.svf_morphed_loads + s.svf_morphed_stores;
            let total = (morphed + s.svf_rerouted + s.svf_out_of_window).max(1);
            sum_morph += morphed;
            sum_total += total;
            t.row(vec![
                bench,
                format!("{:.1}%", 100.0 * s.svf_morphed_loads as f64 / total as f64),
                format!("{:.1}%", 100.0 * s.svf_morphed_stores as f64 / total as f64),
                format!("{:.1}%", 100.0 * s.svf_rerouted as f64 / total as f64),
                format!("{:.1}%", 100.0 * s.svf_out_of_window as f64 / total as f64),
                s.svf_squashes.to_string(),
            ]);
        }
        t.note(format!(
            "suite morph rate: {:.1}% (paper: ~86% morphed, ~14% re-routed)",
            100.0 * sum_morph as f64 / sum_total.max(1) as f64
        ));
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::all;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn morphing_dominates() {
        let t = driver(Scale::Test).run();
        for w in all() {
            let fl = t.cell_f64(w.name, "fast loads").expect("row");
            let fs = t.cell_f64(w.name, "fast stores").expect("row");
            let rr = t.cell_f64(w.name, "re-routed").expect("row");
            assert!(
                fl + fs + rr > 50.0,
                "{}: most stack refs hit the SVF ({fl}+{fs}+{rr})",
                w.name
            );
        }
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn eon_has_the_most_squashes() {
        let t = driver(Scale::Test).run();
        let eon: f64 = t.cell_f64("eon", "squashes").expect("eon");
        for bench in ["gzip", "mcf", "vpr"] {
            let other = t.cell_f64(bench, "squashes").expect("row");
            assert!(eon >= other, "eon ({eon}) should squash at least as much as {bench} ({other})");
        }
        assert!(eon > 0.0, "the eon kernel must exhibit squashes");
    }
}
