//! Cross-crate integration: the full toolchain (MiniC → assembler → image →
//! emulator → pipeline) agrees with itself under every stack engine.

use svf_cpu::{CpuConfig, Simulator, StackEngine};
use svf_emu::Emulator;
use svf_workloads::{all, workload, Scale};

/// Every stack engine must commit exactly the functional instruction
/// stream — the timing model may never change architectural behaviour.
#[test]
fn all_engines_commit_identical_instruction_counts() {
    let program = workload("eon").expect("exists").compile(Scale::Test).expect("compiles");
    let mut emu = Emulator::new(&program);
    emu.run(u64::MAX).expect("runs");
    let functional = emu.steps();

    let engines = [
        ("baseline", StackEngine::None, false),
        ("stack-cache", StackEngine::StackCache, false),
        ("svf", StackEngine::Svf, false),
        ("svf-nosquash", StackEngine::Svf, true),
        ("ideal", StackEngine::IdealSvf, false),
    ];
    for (name, engine, no_squash) in engines {
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = engine;
        cfg.svf_no_squash = no_squash;
        let stats = Simulator::new(cfg).run(&program, u64::MAX);
        assert_eq!(stats.committed, functional, "{name} commit count diverged");
    }
}

/// The SVF keeps the headline promise on every kernel: stack references
/// leave the D-cache, and the D-cache sees dramatically fewer accesses.
#[test]
fn svf_drains_dl1_for_every_workload() {
    for w in all() {
        let program = w.compile(Scale::Test).expect("compiles");
        let base = Simulator::new(CpuConfig::wide16()).run(&program, u64::MAX);
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let svf = Simulator::new(cfg).run(&program, u64::MAX);
        assert!(
            svf.dl1.accesses < base.dl1.accesses,
            "{}: DL1 accesses must drop ({} -> {})",
            w.name,
            base.dl1.accesses,
            svf.dl1.accesses
        );
        let handled = svf.svf_morphed_loads + svf.svf_morphed_stores + svf.svf_rerouted;
        assert!(handled > 0, "{}: SVF never used", w.name);
        assert_eq!(svf.committed, base.committed, "{}: work must match", w.name);
    }
}

/// Per-width presets stay faithful: wider machines never lose cycles on
/// the same stream, and IPC stays within the machine width.
#[test]
fn width_scaling_is_monotone() {
    for name in ["gap", "twolf", "vpr"] {
        let program = workload(name).expect("exists").compile(Scale::Test).expect("compiles");
        let w4 = Simulator::new(CpuConfig::wide4()).run(&program, u64::MAX);
        let w8 = Simulator::new(CpuConfig::wide8()).run(&program, u64::MAX);
        let w16 = Simulator::new(CpuConfig::wide16()).run(&program, u64::MAX);
        assert!(w8.cycles <= w4.cycles, "{name}: 8-wide slower than 4-wide");
        assert!(w16.cycles <= w8.cycles, "{name}: 16-wide slower than 8-wide");
        assert!(w4.ipc() <= 4.0 + 1e-9);
        assert!(w8.ipc() <= 8.0 + 1e-9);
        assert!(w16.ipc() <= 16.0 + 1e-9);
    }
}

/// The naive-codegen ablation: without register promotion, programs issue
/// far more stack references — and the SVF's speedup grows accordingly.
#[test]
fn regalloc_ablation_shifts_svf_benefit() {
    let src = workload("twolf").expect("exists").source(Scale::Test);
    let optimized = svf_cc::compile_to_program(&src).expect("compiles");
    let naive = svf_cc::compile_to_program_with(&src, svf_cc::Options { regalloc: false, ..Default::default() })
        .expect("compiles");

    let run = |program: &svf_isa::Program| {
        let base = Simulator::new(CpuConfig::wide16().with_ports(2, 0)).run(program, u64::MAX);
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let svf = Simulator::new(cfg).run(program, u64::MAX);
        (svf.speedup_over(&base), svf.stack_refs as f64 / svf.committed as f64)
    };
    let (s_opt, density_opt) = run(&optimized);
    let (s_naive, density_naive) = run(&naive);
    assert!(
        density_naive > 1.3 * density_opt,
        "naive code must carry far more stack refs/inst: {density_naive:.3} vs {density_opt:.3}"
    );
    assert!(s_opt > 1.0 && s_naive > 1.0, "both code qualities gain: {s_opt:.3}, {s_naive:.3}");
}

/// Hand-written assembly runs through the same pipeline as compiled code.
#[test]
fn assembly_program_through_the_pipeline() {
    let program = svf_asm::assemble(
        "main:
            lda $sp, -32($sp)
            li $t0, 0
            li $t1, 1000
        .loop:
            stq $t0, 8($sp)
            ldq $t2, 8($sp)
            addq $t0, $t2, $t0
            subq $t1, 1, $t1
            bne $t1, .loop
            mov $t0, $a0
            putint
            lda $sp, 32($sp)
            halt",
    )
    .expect("assembles");
    let mut emu = Emulator::new(&program);
    emu.run(u64::MAX).expect("runs");
    let stats = Simulator::new(CpuConfig::wide16()).run(&program, u64::MAX);
    assert_eq!(stats.committed, emu.steps());
    // The kernel is one serial dependence chain through memory; sub-1 IPC
    // is expected, but it must still flow through the pipeline.
    assert!(stats.ipc() > 0.4, "IPC {}", stats.ipc());
}
