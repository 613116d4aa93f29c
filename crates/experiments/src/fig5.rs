//! Figure 5: speedup potential of morphing all stack accesses to register
//! moves (infinite SVF, unlimited ports).
//!
//! The paper reports average speedups of 11% / 19% / 31% for 4- / 8- /
//! 16-wide machines with perfect branch prediction, and 25% for 16-wide
//! with gshare (each relative to its own-width, own-predictor baseline).

use crate::machine::{machine, machine_with};
use crate::timing::{speedup_table, Driver};
use svf_workloads::Scale;

/// The Figure 5 limit study over all workloads.
#[must_use]
pub fn driver(scale: Scale) -> Driver {
    // Base/ideal pairs flattened into one job matrix; column `2k` is the
    // baseline of column `2k+1`.
    let configs = [
        ("base 4-wide", machine("wide4")),
        ("ideal 4-wide", machine_with("wide4", "{stack_engine: ideal}")),
        ("base 8-wide", machine("wide8")),
        ("ideal 8-wide", machine_with("wide8", "{stack_engine: ideal}")),
        ("base 16-wide", machine("wide16")),
        ("ideal 16-wide", machine("ideal")),
        ("base 16-wide gshare", machine_with("wide16", "{predictor: gshare}")),
        ("ideal 16-wide gshare", machine_with("ideal", "{predictor: gshare}")),
    ];
    Driver::matrix(&configs, scale, None, |rows| {
        let mut t = speedup_table(
            "Figure 5: Ideal-SVF speedup (infinite size & ports, all stack refs morphed)",
            &["bench", "4-wide", "8-wide", "16-wide", "16-wide gshare"],
            rows,
            |stats| stats.chunks(2).map(|pair| pair[1].speedup_over(&pair[0])).collect(),
        );
        t.note("paper averages: 1.11x (4-wide), 1.19x (8-wide), 1.31x (16-wide), 1.25x (gshare)");
        t.note("each column is relative to the baseline of the same width and predictor");
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn speedup_grows_with_width() {
        let t = driver(Scale::Test).run();
        let s4 = t.cell_f64("average", "4-wide").expect("avg");
        let s8 = t.cell_f64("average", "8-wide").expect("avg");
        let s16 = t.cell_f64("average", "16-wide").expect("avg");
        assert!(s4 >= 1.0, "ideal SVF never slows down: {s4}");
        assert!(s16 > s4, "wider machines gain more: {s4} -> {s16}");
        assert!(s8 <= s16 * 1.05, "8-wide between 4- and 16-wide (roughly): {s8} vs {s16}");
    }
}
