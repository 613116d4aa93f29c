//! Timing contracts: hand-written loop kernels whose cycle counts are
//! predictable from the machine model, pinning the pipeline's arithmetic.
//!
//! All kernels loop over a small body so the instruction cache stays warm
//! (straight-line megabyte kernels would measure compulsory I-misses, not
//! the core).

use svf_asm::assemble;
use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_isa::Program;

const ITERS: u64 = 5_000;

fn run(cfg: CpuConfig, p: &Program) -> svf_cpu::SimStats {
    Simulator::new(cfg).run(p, u64::MAX)
}

/// Builds `main` as a counted loop around `body` (repeated `reps` times).
fn loop_program(body: &str, reps: usize) -> Program {
    let mut src = format!("main:\n    li $t7, {ITERS}\n.loop:\n");
    for _ in 0..reps {
        src.push_str(body);
        src.push('\n');
    }
    src.push_str("    subq $t7, 1, $t7\n    bne $t7, .loop\n    halt\n");
    assemble(&src).expect("assembles")
}

/// Independent single-cycle ops retire at close to the machine width.
#[test]
fn independent_alu_ops_reach_high_width() {
    let p = loop_program("    addq $t0, 1, $t1", 64);
    let s = run(CpuConfig::wide16(), &p);
    let ipc = s.ipc();
    assert!(ipc > 9.0, "independent ALU stream should approach width 16: IPC {ipc:.2}");
}

/// A serial dependence chain retires about one per cycle.
#[test]
fn dependent_alu_chain_is_one_per_cycle() {
    let p = loop_program("    addq $t0, 1, $t0", 64);
    let s = run(CpuConfig::wide16(), &p);
    let ipc = s.ipc();
    assert!((0.8..=1.3).contains(&ipc), "serial chain must be ~1 IPC: {ipc:.2}");
}

/// A serial multiply chain costs the multiplier latency per instruction.
#[test]
fn dependent_mul_chain_costs_mul_latency() {
    let p = loop_program("    mulq $t0, 3, $t0", 32);
    let cfg = CpuConfig::wide16();
    let s = run(cfg.clone(), &p);
    let per_mul = s.cycles as f64 / (ITERS as f64 * 32.0);
    let lat = cfg.mul_latency as f64;
    assert!(
        (per_mul - lat).abs() < 0.8,
        "mul chain should cost ~{lat} cycles each, got {per_mul:.2}"
    );
}

/// D-cache port counts bound independent load throughput.
#[test]
fn dl1_ports_bound_load_throughput() {
    // Loads from the data segment (never stack-routed), all independent.
    let mut body = String::from("    la $t6, buf\n");
    for i in 0..32 {
        body.push_str(&format!("    ldq $t{}, {}($t6)\n", i % 4, (i % 8) * 8));
    }
    let mut src = format!("main:\n    li $t7, {ITERS}\n.loop:\n{body}");
    src.push_str("    subq $t7, 1, $t7\n    bne $t7, .loop\n    halt\n    .data\nbuf: .space 128\n");
    let p = assemble(&src).expect("assembles");

    let loads = ITERS as f64 * 32.0;
    let one = run(CpuConfig::wide16().with_ports(1, 0), &p);
    let two = run(CpuConfig::wide16().with_ports(2, 0), &p);
    let r1 = loads / one.cycles as f64;
    let r2 = loads / two.cycles as f64;
    assert!(r1 < 1.05, "1 port allows at most ~1 load/cycle: {r1:.2}");
    assert!(r2 > 1.5, "2 ports should nearly double: {r2:.2}");
}

/// Store-to-load forwarding costs the configured 3 cycles, while the same
/// pattern morphed into the SVF forwards through the register file.
#[test]
fn forwarding_latency_baseline_vs_svf() {
    let body = "    stq $t0, 8($sp)\n    ldq $t0, 8($sp)\n    addq $t0, 1, $t0";
    let mut src = format!("main:\n    lda $sp, -16($sp)\n    li $t7, {ITERS}\n.loop:\n");
    for _ in 0..8 {
        src.push_str(body);
        src.push('\n');
    }
    src.push_str("    subq $t7, 1, $t7\n    bne $t7, .loop\n    lda $sp, 16($sp)\n    halt\n");
    let p = assemble(&src).expect("assembles");

    let base = run(CpuConfig::wide16(), &p);
    let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
    svf_cfg.stack_engine = StackEngine::Svf;
    let svf = run(svf_cfg, &p);

    let chains = ITERS as f64 * 8.0;
    // Baseline: the reload waits for store data, then forwards in 3 cycles,
    // then the add: >= 4 cycles per chain link. SVF: register forwarding.
    let per_base = base.cycles as f64 / chains;
    let per_svf = svf.cycles as f64 / chains;
    assert!(per_base >= 3.5, "LSQ forwarding chain: {per_base:.2} cycles/link");
    assert!(
        per_svf <= per_base - 1.0,
        "SVF register forwarding must be faster: {per_svf:.2} vs {per_base:.2}"
    );
}

/// The §3.1 interlock: a non-immediate `$sp` write stalls decode until it
/// completes; the same code writing a plain register does not stall.
#[test]
fn sp_interlock_stalls_decode() {
    // The $sp write depends on a long multiply, so decode must wait.
    let with_sp = loop_program(
        "    mulq $t6, 3, $t6\n    addq $t6, $sp, $t5\n    subq $t5, $t6, $t5\n    mov $t5, $sp\n    addq $t1, 1, $t1",
        8,
    );
    let without = loop_program(
        "    mulq $t6, 3, $t6\n    addq $t6, $sp, $t5\n    subq $t5, $t6, $t5\n    mov $t5, $t4\n    addq $t1, 1, $t1",
        8,
    );
    let a = run(CpuConfig::wide16(), &with_sp);
    let b = run(CpuConfig::wide16(), &without);
    assert!(a.sp_interlock_stalls > 0, "interlock must trigger");
    assert_eq!(b.sp_interlock_stalls, 0);
    assert!(
        a.cycles > b.cycles,
        "interlock must cost cycles: {} vs {}",
        a.cycles,
        b.cycles
    );
}

/// A tight counted loop with a perfectly-predicted branch retires near its
/// dependence bound.
#[test]
fn taken_branches_bound_fetch() {
    let p = assemble(
        "main:
            li $t0, 20000
        .loop:
            subq $t0, 1, $t0
            bne $t0, .loop
            halt",
    )
    .expect("assembles");
    let s = run(CpuConfig::wide16(), &p);
    let per_iter = s.cycles as f64 / 20_000.0;
    assert!(per_iter >= 1.0, "fetch can't beat one taken branch per cycle");
    assert!(per_iter <= 3.0, "but the loop must pipeline: {per_iter:.2}");
    assert_eq!(s.mispredicts, 0, "perfect predictor");
}

/// A serial pointer chase cannot scale with machine width.
#[test]
fn serial_chase_does_not_scale_with_width() {
    let mut src = String::from("main:\n    la $t0, chain\n    li $t7, 2000\n.loop:\n");
    for _ in 0..8 {
        src.push_str("    ldq $t0, 0($t0)\n");
    }
    src.push_str("    subq $t7, 1, $t7\n    bne $t7, .loop\n    halt\n    .data\nchain: .quad chain\n");
    let p = assemble(&src).expect("assembles");
    let narrow = run(CpuConfig::wide4(), &p);
    let wide = run(CpuConfig::wide16(), &p);
    let ratio = narrow.cycles as f64 / wide.cycles as f64;
    assert!(
        (0.95..=1.3).contains(&ratio),
        "serial pointer chase must not scale with width: {ratio:.2}"
    );
}
