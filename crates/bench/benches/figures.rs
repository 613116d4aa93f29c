//! Per-figure benchmark groups: the same configurations the paper's
//! performance figures sweep, one Criterion benchmark per (kernel, config).
//!
//! Wall time here is simulation time, which scales with simulated cycles on
//! a fixed instruction stream — so relative bar heights in the Criterion
//! report track the paper's relative performance, and the simulated cycle
//! counts are printed once per benchmark for exact comparison.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use svf_bench::{bench_kernels, compile, simulate};
use svf_cpu::{CpuConfig, PredictorKind, StackEngine};
use svf_mem::CacheConfig;

fn ideal(mut c: CpuConfig) -> CpuConfig {
    c.stack_engine = StackEngine::IdealSvf;
    c
}

fn svf(mut c: CpuConfig) -> CpuConfig {
    c.stack_engine = StackEngine::Svf;
    c
}

fn stack_cache(mut c: CpuConfig) -> CpuConfig {
    c.stack_engine = StackEngine::StackCache;
    c
}

fn bench_configs(c: &mut Criterion, group: &str, configs: &[(&str, CpuConfig)]) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.nresamples(1000);
    for w in bench_kernels() {
        let program = compile(w);
        for (label, cfg) in configs {
            let stats = simulate(cfg, &program);
            println!("[{group}] {}/{label}: {} cycles, IPC {:.2}", w.name, stats.cycles, stats.ipc());
            g.bench_function(format!("{}/{label}", w.name), |b| {
                b.iter(|| simulate(cfg, &program).cycles);
            });
        }
    }
    g.finish();
}

/// Figure 5: baseline vs ideal SVF across widths (plus 16-wide gshare).
fn fig5(c: &mut Criterion) {
    let gshare = |mut cfg: CpuConfig| {
        cfg.predictor = PredictorKind::Gshare;
        cfg
    };
    bench_configs(
        c,
        "fig5",
        &[
            ("base-4w", CpuConfig::wide4()),
            ("ideal-4w", ideal(CpuConfig::wide4())),
            ("base-8w", CpuConfig::wide8()),
            ("ideal-8w", ideal(CpuConfig::wide8())),
            ("base-16w", CpuConfig::wide16()),
            ("ideal-16w", ideal(CpuConfig::wide16())),
            ("base-16w-gshare", gshare(CpuConfig::wide16())),
            ("ideal-16w-gshare", ideal(gshare(CpuConfig::wide16()))),
        ],
    );
}

/// Figure 6: the progressive-analysis ladder on the 16-wide machine.
fn fig6(c: &mut Criterion) {
    let mut double_l1 = CpuConfig::wide16();
    double_l1.hierarchy.dl1 = CacheConfig::dl1_128k();
    let mut no_addr = CpuConfig::wide16();
    no_addr.no_addr_calc_for_stack = true;
    let svf_ports = |p: usize| {
        let mut c = svf(CpuConfig::wide16());
        c.stack_ports = p;
        c
    };
    bench_configs(
        c,
        "fig6",
        &[
            ("baseline", CpuConfig::wide16()),
            ("double-l1", double_l1),
            ("no-addr-calc", no_addr),
            ("svf-1p", svf_ports(1)),
            ("svf-2p", svf_ports(2)),
            ("svf-16p", svf_ports(16)),
        ],
    );
}

/// Figure 7: baseline ports vs stack cache vs SVF (with and without squash).
fn fig7(c: &mut Criterion) {
    let mut nosq = CpuConfig::wide16().with_ports(2, 2);
    nosq.stack_engine = StackEngine::Svf;
    nosq.svf_no_squash = true;
    bench_configs(
        c,
        "fig7",
        &[
            ("base-2+0", CpuConfig::wide16().with_ports(2, 0)),
            ("base-4+0", CpuConfig::wide16().with_ports(4, 0)),
            ("stackcache-2+2", stack_cache(CpuConfig::wide16().with_ports(2, 2))),
            ("svf-2+2", svf(CpuConfig::wide16().with_ports(2, 2))),
            ("svf-nosquash-2+2", nosq),
        ],
    );
}

/// Figure 9: the D-cache × SVF port sweep.
fn fig9(c: &mut Criterion) {
    bench_configs(
        c,
        "fig9",
        &[
            ("base-1+0", CpuConfig::wide16().with_ports(1, 0)),
            ("svf-1+1", svf(CpuConfig::wide16().with_ports(1, 1))),
            ("svf-1+2", svf(CpuConfig::wide16().with_ports(1, 2))),
            ("base-2+0", CpuConfig::wide16().with_ports(2, 0)),
            ("svf-2+1", svf(CpuConfig::wide16().with_ports(2, 1))),
            ("svf-2+2", svf(CpuConfig::wide16().with_ports(2, 2))),
            ("svf-2+4", svf(CpuConfig::wide16().with_ports(2, 4))),
        ],
    );
}

criterion_group! {
    name = figures;
    config = Criterion::default().without_plots().nresamples(1000);
    targets = fig5, fig6, fig7, fig9
}
criterion_main!(figures);
