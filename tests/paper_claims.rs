//! The paper's headline qualitative claims, asserted end-to-end on the
//! reproduced system. These are the "shape" checks of EXPERIMENTS.md —
//! fast versions of the figure runners over a representative subset.

use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_experiments::traffic::traffic_run;
use svf_workloads::{workload, Scale};

fn program(name: &str) -> svf_isa::Program {
    workload(name).expect("exists").compile(Scale::Test).expect("compiles")
}

/// §1/abstract: the SVF improves execution performance while reducing
/// stack-region overhead traffic by orders of magnitude vs an equal-size
/// cache structure.
#[test]
fn headline_claim_performance_and_traffic() {
    let p = program("twolf");
    // Performance on a port-constrained machine.
    let base = Simulator::new(CpuConfig::wide16().with_ports(1, 0)).run(&p, u64::MAX);
    let mut cfg = CpuConfig::wide16().with_ports(1, 2);
    cfg.stack_engine = StackEngine::Svf;
    let svf = Simulator::new(cfg).run(&p, u64::MAX);
    let speedup = svf.speedup_over(&base);
    assert!(speedup > 1.15, "headline speedup on (1+2) vs (1+0): {speedup:.3}");

    // Traffic: orders of magnitude.
    let (row, _) = traffic_run(&p, 8 << 10, None);
    assert!(
        (row.svf_in + row.svf_out) * 100 <= row.sc_in + row.sc_out,
        "SVF {} vs stack cache {}: must be >=100x lower",
        row.svf_in + row.svf_out,
        row.sc_in + row.sc_out
    );
}

/// §5.1: the benefit of treating stack references separately grows with
/// issue width (Figure 5's trend).
#[test]
fn ideal_svf_gain_grows_with_width() {
    let p = program("crafty");
    let gain = |mk: fn() -> CpuConfig| {
        let base = Simulator::new(mk()).run(&p, u64::MAX);
        let mut c = mk();
        c.stack_engine = StackEngine::IdealSvf;
        let fast = Simulator::new(c).run(&p, u64::MAX);
        fast.speedup_over(&base)
    };
    let g4 = gain(CpuConfig::wide4);
    let g16 = gain(CpuConfig::wide16);
    assert!(g16 >= g4, "16-wide gains at least as much as 4-wide: {g4:.3} -> {g16:.3}");
    assert!(g16 > 1.0, "16-wide must gain: {g16:.3}");
}

/// §5.2/Figure 6: doubling the L1 does nothing; the SVF does the work.
/// (Run on twolf — eon is the paper's own squash-dominated outlier.)
#[test]
fn doubling_l1_buys_nothing_svf_does() {
    let p = program("twolf");
    let base = Simulator::new(CpuConfig::wide16()).run(&p, u64::MAX);
    let mut big_l1 = CpuConfig::wide16();
    big_l1.hierarchy.dl1 = svf_mem::CacheConfig::dl1_128k();
    let doubled = Simulator::new(big_l1).run(&p, u64::MAX);
    let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
    svf_cfg.stack_engine = StackEngine::Svf;
    let svf = Simulator::new(svf_cfg).run(&p, u64::MAX);

    let l1_gain = doubled.speedup_over(&base);
    let svf_gain = svf.speedup_over(&base);
    assert!(l1_gain < 1.02, "L1 doubling is a wash: {l1_gain:.3}");
    assert!(svf_gain > l1_gain, "the SVF must beat cache growth: {svf_gain:.3} vs {l1_gain:.3}");
}

/// §5.3.2: allocation costs the SVF nothing and deallocated frames die —
/// a kernel whose stack fits the window generates exactly zero traffic.
#[test]
fn fitting_stack_means_zero_traffic() {
    let p = program("eon"); // max depth ~400B << 8KB
    let (row, _) = traffic_run(&p, 8 << 10, None);
    assert_eq!(row.svf_in, 0, "no fills when the stack fits");
    assert_eq!(row.svf_out, 0, "no spills when the stack fits");
    assert!(row.sc_in > 0, "the cache still pays compulsory misses");
}

/// §5.3.3/Table 4: on context switches the SVF writes back less, at finer
/// granularity.
#[test]
fn context_switch_traffic_favors_svf() {
    let p = program("gcc");
    let (_, sw) = traffic_run(&p, 8 << 10, Some(40_000));
    assert!(sw.switches >= 3);
    assert!(
        sw.svf_bytes_per_switch < sw.sc_bytes_per_switch,
        "SVF {:.0} B/switch vs cache {:.0} B/switch",
        sw.svf_bytes_per_switch,
        sw.sc_bytes_per_switch
    );
}

/// §3.2/Figure 7: eon-style pointer-store/sp-load collisions cause
/// squashes, and the no_squash code-generation strategy removes them.
#[test]
fn eon_squashes_and_no_squash_removes_them() {
    let p = program("eon");
    let mut cfg = CpuConfig::wide16().with_ports(2, 2);
    cfg.stack_engine = StackEngine::Svf;
    let with = Simulator::new(cfg.clone()).run(&p, u64::MAX);
    assert!(with.svf_squashes > 0, "eon must squash");

    cfg.svf_no_squash = true;
    let without = Simulator::new(cfg).run(&p, u64::MAX);
    assert_eq!(without.svf_squashes, 0);
}

/// §2/Figure 3: the stack working set is a single contiguous region near
/// the TOS — an 8 KB SVF window captures almost everything.
#[test]
fn svf_window_captures_almost_all_stack_refs() {
    for name in ["bzip2", "twolf", "vortex", "parser"] {
        let p = program(name);
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let s = Simulator::new(cfg).run(&p, u64::MAX);
        let total = s.svf_morphed_loads + s.svf_morphed_stores + s.svf_rerouted
            + s.svf_out_of_window;
        let hit = total - s.svf_out_of_window;
        assert!(
            hit as f64 / total as f64 > 0.98,
            "{name}: window capture {:.3}",
            hit as f64 / total as f64
        );
    }
}
