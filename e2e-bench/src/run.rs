//! The four workloads: set-up, the timed unit of work, the correctness
//! checks, and the traced per-layer pass.
//!
//! Every number comes from outside the program: the benchmark times calls
//! into public functions of the repository's crates and never reaches
//! inside them. The seed is the only input; it becomes each kernel's LCG
//! input (and, for the sweep, the random design points).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use svf::{StackValueFile, SvfConfig};
use svf_configspace::SweepSpec;
use svf_cpu::{CpuConfig, SampleSpec, SimStats, Simulator};
use svf_emu::{Emulator, LiveSource, RecordRing};
use svf_experiments::traffic::{traffic_run, SwitchRow, TrafficRow};
use svf_harness::{Experiment, Harness, Job, ProgramSpec, RunDir};
use svf_isa::{Program, Reg};
use svf_mem::{StackCache, StackCacheConfig};
use svf_workloads::{all, Input, Scale, Workload};

use crate::trace::{self_times, At, Span, Tracer, GLUE};

/// Threads the benchmark may keep busy: harness workers, fan-out, and its
/// own layer threads all stay within this.
pub const THREADS: usize = 2;

/// The sampling plan validated on twolf (`tests/sampling.rs`).
const SAMPLE_PLAN: &str = "mode=random,seed=3,period=60k,interval=5k,warmup=6k,ramp=1k,tail=500";

/// Largest relative IPC error `run_sampled` may show against a full run in
/// the `sampled-full` check, in percent. Over seeds 1–240 the largest
/// error measured was 2.20% (twolf, svf machine, seed 20).
const SAMPLED_IPC_GATE_PCT: f64 = 3.0;

/// Stack references the traced pass records per program for the
/// stack-cache and SVF replays.
const RECORDED_EVENTS: usize = 1 << 20;

/// Structure size for Tables 3 and 4 and the replays (the paper's 8 KB).
const STRUCTURE_BYTES: u64 = 8 << 10;

/// Table 4's context-switch period.
const SWITCH_PERIOD: u64 = 400_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 6 ladder through the harness.
    FigMatrix,
    /// A random design-space sweep: one wide lockstep batch per program.
    SweepRandom,
    /// Sampled simulation of Full-scale kernels.
    SampledFull,
    /// The functional traffic tables.
    TrafficTables,
}

impl Kind {
    /// Every workload, in table order.
    pub const ALL: [Kind; 4] = [
        Kind::FigMatrix,
        Kind::SweepRandom,
        Kind::SampledFull,
        Kind::TrafficTables,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::FigMatrix => "fig-matrix",
            Kind::SweepRandom => "sweep-random",
            Kind::SampledFull => "sampled-full",
            Kind::TrafficTables => "traffic-tables",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The kernel LCG seed for input `label` (`"gcc"`, `"gzip.log"`) under run
/// seed `seed`: a non-negative 62-bit value, distinct per label and seed.
#[must_use]
fn input_seed(seed: u64, label: &str) -> i64 {
    let mut state = seed ^ fnv1a64(label.as_bytes());
    i64::try_from(splitmix64(&mut state) >> 2).expect("62-bit value fits")
}

/// The MiniC source of `kernel`'s input `input` at `scale`, with its data
/// generated from `seed`. The label names the input (`kernel` or
/// `kernel.input`).
#[must_use]
fn seeded_source(kernel: &Workload, input: Input, scale: Scale, seed: u64, label: &str) -> String {
    kernel.source_with_input(
        scale,
        Input {
            name: input.name,
            seed: input_seed(seed, label),
        },
    )
}

/// Labelled machine configurations, in job order.
type Configs = Vec<(String, CpuConfig)>;

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Simulated-model counters by name; they must repeat exactly.
pub type Counters = BTreeMap<&'static str, u64>;

/// A compiled benchmark program and the source it came from.
#[derive(Debug)]
pub struct Prog {
    /// Label used in job keys (`"bzip2"`, `"gzip.log"`).
    pub label: String,
    /// MiniC source, seeded.
    pub source: String,
    /// The compiled image.
    pub program: Program,
}

/// Everything a workload builds before its first timed rep.
#[derive(Debug)]
pub struct Setup {
    /// Which workload.
    kind: Kind,
    /// The run seed.
    seed: u64,
    /// Programs, in job order.
    pub programs: Vec<Prog>,
    /// Machine configurations every program runs under (empty for the
    /// functional workload).
    configs: Configs,
    /// The sweep spec (sweep workload only).
    sweep: Option<SweepSpec>,
    /// The harness experiment (harness-driven workloads only).
    experiment: Option<Experiment>,
}

impl Setup {
    /// Just the configurations.
    #[must_use]
    fn cpu_configs(&self) -> Vec<CpuConfig> {
        self.configs.iter().map(|(_, c)| c.clone()).collect()
    }

    /// How the timing model is exercised.
    fn timing(&self) -> Timing {
        match self.kind {
            Kind::FigMatrix | Kind::SweepRandom => Timing::Detailed(self.cpu_configs()),
            Kind::SampledFull => Timing::Sampled(self.cpu_configs(), sample_plan()),
            Kind::TrafficTables => Timing::Functional,
        }
    }
}

/// The parsed [`SAMPLE_PLAN`] (a unit test pins that it parses).
#[must_use]
fn sample_plan() -> SampleSpec {
    SampleSpec::parse(SAMPLE_PLAN).expect("the validated plan parses")
}

/// The sweep's programs: two registered kernels of similar length, so the
/// two harness workers each drive one 32-wide lockstep batch.
const SWEEP_KERNELS: [&str; 2] = ["twolf", "mcf"];

fn sweep_toml(seed: u64) -> String {
    format!(
        "name = \"sweep-random\"\nmode = \"random\"\nbase = \"svf\"\nworkloads = {SWEEP_KERNELS:?}\n\
         scale = \"test\"\nsamples = 32\nseed = {seed}\nthreads = {THREADS}\n\
         [axes]\nwidth = [4, 8, 16]\nruu_size = [64, 128, 256]\ndl1_ports = [1, 2, 4]\n\
         stack_ports = [1, 2, 4]\nsvf_bytes = [2k, 4k, 8k]\npredictor = [\"perfect\", \"gshare\"]\n"
    )
}

/// The workload's machine configurations, resolved from the config space
/// (and, for the sweep, its parsed spec).
fn resolve_configs(kind: Kind, seed: u64) -> Result<(Configs, Option<SweepSpec>), String> {
    Ok(match kind {
        Kind::FigMatrix => (
            svf_experiments::fig6::configs()
                .into_iter()
                .map(|(l, c)| (l.to_string(), c))
                .collect(),
            None,
        ),
        Kind::SweepRandom => {
            let spec = SweepSpec::from_toml(&sweep_toml(seed))?;
            let mut configs = Vec::new();
            for idx in spec.random_indices()? {
                configs.push((spec.label_at(&idx), spec.config_at(&idx)?.resolve()));
            }
            (configs, Some(spec))
        }
        Kind::SampledFull => (
            vec![("svf".to_string(), svf_experiments::machine("svf"))],
            None,
        ),
        Kind::TrafficTables => (Vec::new(), None),
    })
}

/// `(label, source)` of every program the workload runs, in job order.
fn sources(kind: Kind, seed: u64) -> Vec<(String, String)> {
    let per_kernel = |scale: Scale, copies: usize, skip: &str| {
        all()
            .iter()
            .filter(|w| w.name != skip)
            .flat_map(|w| {
                (0..copies).map(move |i| {
                    let label = if copies == 1 {
                        w.name.to_string()
                    } else {
                        format!("{}.s{i}", w.name)
                    };
                    let source = seeded_source(w, w.default_input(), scale, seed, &label);
                    (label, source)
                })
            })
            .collect()
    };
    match kind {
        // Two seeded inputs per kernel: a Test-scale kernel's length
        // depends on its input, and averaging over two halves the
        // seed-to-seed swing of the workload's speed.
        Kind::FigMatrix => per_kernel(Scale::Test, 2, ""),
        // vortex at Full scale runs as long as four other kernels together;
        // leaving it out keeps a rep short enough to repeat several times
        // in one run.
        Kind::SampledFull => per_kernel(Scale::Full, 1, "vortex"),
        // `run_sweep` runs registered workloads at their default input;
        // the seed reaches this workload through the design points.
        Kind::SweepRandom => SWEEP_KERNELS
            .iter()
            .map(|name| {
                let w = svf_workloads::workload(name).expect("registered kernel");
                (name.to_string(), w.source(Scale::Test))
            })
            .collect(),
        Kind::TrafficTables => all()
            .iter()
            .flat_map(|w| {
                w.inputs.iter().map(move |&input| {
                    let label = format!("{}.{}", w.name, input.name);
                    let source = seeded_source(w, input, Scale::Small, seed, &label);
                    (label, source)
                })
            })
            .collect(),
    }
}

/// Builds a workload: compiles its programs, resolves its configurations
/// and lays out its experiment. This is what `setup_s` times.
///
/// # Errors
///
/// Compile or config-space errors (none occur for valid seeds).
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let mut programs = Vec::new();
    for (label, source) in sources(kind, seed) {
        let program = svf_cc::compile_to_program(&source).map_err(|e| format!("{label}: {e}"))?;
        programs.push(Prog {
            label,
            source,
            program,
        });
    }
    let (configs, sweep) = resolve_configs(kind, seed)?;
    let experiment = matches!(kind, Kind::FigMatrix | Kind::SampledFull).then(|| {
        let mut exp = Experiment::new(kind.name());
        for p in &programs {
            for (label, cfg) in &configs {
                exp.push(
                    ProgramSpec::source(&p.label, p.source.clone()),
                    label,
                    cfg.clone(),
                );
            }
        }
        exp
    });
    Ok(Setup {
        kind,
        seed,
        programs,
        configs,
        sweep,
        experiment,
    })
}

/// What one rep of the unit did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Simulated (or emulated) instructions.
    pub insts: u64,
    /// Jobs attempted.
    pub jobs: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Digest of every result, in job order.
    pub digest: u64,
    /// Compilations the harness performed during the rep.
    pub compiles: u64,
    /// Per-job statistics (harness-driven workloads).
    pub stats: Vec<SimStats>,
    /// Per-pair traffic rows (traffic workload).
    pub traffic: Vec<(TrafficRow, SwitchRow)>,
}

/// FNV-1a over the result rows, a failed job counting as `FAILED`.
fn digest_of(rows: impl Iterator<Item = Option<String>>) -> u64 {
    let mut text = String::new();
    for row in rows {
        text.push_str(row.as_deref().unwrap_or("FAILED"));
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Runs the workload's unit once through its public entry point.
/// `tmp_dir` holds the result sink of harness reps that write one.
#[must_use]
pub fn rep(setup: &Setup, tmp_dir: &Path, index: usize) -> Rep {
    let harness = Harness::parallel().with_workers(THREADS);
    match setup.kind {
        Kind::FigMatrix | Kind::SampledFull => {
            let exp = setup
                .experiment
                .as_ref()
                .expect("harness workloads lay out an experiment");
            let before = svf_harness::compile_count();
            let (report, sink) = if setup.kind == Kind::FigMatrix {
                let dir = tmp_dir.join(format!("sink-{index}"));
                (harness.with_out_dir(&dir).run(exp), Some(dir))
            } else {
                (harness.with_sample(sample_plan()).run(exp), None)
            };
            let compiles = svf_harness::compile_count() - before;
            if let Some(dir) = sink {
                std::fs::remove_dir_all(dir).ok();
            }
            let stats: Vec<SimStats> = report
                .jobs
                .iter()
                .filter_map(|j| j.outcome.stats().cloned())
                .collect();
            Rep {
                insts: stats.iter().map(|s| s.committed).sum(),
                jobs: report.jobs.len(),
                failed: report.failures().len(),
                digest: digest_of(
                    report
                        .jobs
                        .iter()
                        .map(|j| j.outcome.stats().map(SimStats::to_csv_row)),
                ),
                compiles,
                stats,
                traffic: Vec::new(),
            }
        }
        Kind::SweepRandom => {
            let spec = setup
                .sweep
                .as_ref()
                .expect("the sweep workload parses a spec");
            let jobs = setup.configs.len() * setup.programs.len();
            match svf_harness::run_sweep(spec, &harness) {
                Ok(out) => Rep {
                    insts: out.points.iter().flat_map(|p| &p.runs).map(|r| r.2).sum(),
                    jobs: out.jobs,
                    failed: 0,
                    digest: digest_of(
                        out.points
                            .iter()
                            .map(|p| Some(format!("{} {:?}", p.label, p.runs))),
                    ),
                    compiles: out.compiles,
                    stats: Vec::new(),
                    traffic: Vec::new(),
                },
                Err(e) => {
                    eprintln!("sweep failed: {e}");
                    Rep {
                        jobs,
                        failed: jobs,
                        ..Rep::default()
                    }
                }
            }
        }
        Kind::TrafficTables => {
            let programs: Vec<&Program> = setup.programs.iter().map(|p| &p.program).collect();
            let rows = svf_harness::parallel_map(THREADS, &programs, |p| {
                let (table3, _) = traffic_run(p, STRUCTURE_BYTES, None);
                let (_, table4) = traffic_run(p, STRUCTURE_BYTES, Some(SWITCH_PERIOD));
                (table3, table4)
            });
            let failed = rows.iter().filter(|r| r.is_err()).count();
            let traffic: Vec<(TrafficRow, SwitchRow)> =
                rows.into_iter().filter_map(Result::ok).collect();
            Rep {
                // `traffic_run` reports no instruction count; see
                // `unit_insts`.
                insts: 0,
                jobs: programs.len(),
                failed,
                digest: digest_of(traffic.iter().map(|t| Some(format!("{t:?}")))),
                compiles: 0,
                stats: Vec::new(),
                traffic,
            }
        }
    }
}

/// Instructions one rep simulates — or, for the traffic tables, emulates:
/// every pair once per table, counted here by an untimed emulator run.
#[must_use]
pub fn unit_insts(setup: &Setup, rep: &Rep) -> u64 {
    if setup.kind != Kind::TrafficTables {
        return rep.insts;
    }
    setup
        .programs
        .iter()
        .map(|p| {
            let mut emu = Emulator::new(&p.program);
            emu.run(u64::MAX).map_or(0, |_| 2 * emu.steps())
        })
        .sum()
}

/// Compilations the first harness rep of a fresh process must perform.
#[must_use]
fn expected_compiles(setup: &Setup) -> u64 {
    match setup.kind {
        Kind::FigMatrix | Kind::SampledFull | Kind::SweepRandom => setup.programs.len() as u64,
        Kind::TrafficTables => 0,
    }
}

/// The checks that hold for every rep set: identical digests, no failed
/// job, one compile per program on the first rep, and the workload's own
/// property. Returns every violated check.
#[must_use]
pub fn check_reps(setup: &Setup, reps: &[Rep]) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(first) = reps.first() else {
        return vec!["no rep ran".to_string()];
    };
    if reps.iter().any(|r| r.digest != first.digest) {
        bad.push("results differ between reps".to_string());
    }
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        bad.push(format!("{failed} job(s) failed"));
    }
    if first.compiles != expected_compiles(setup) {
        bad.push(format!(
            "first rep compiled {} programs, expected {}",
            first.compiles,
            expected_compiles(setup)
        ));
    }
    match setup.kind {
        Kind::FigMatrix => {
            let direct =
                svf_cpu::run_lockstep(&setup.cpu_configs(), &setup.programs[0].program, u64::MAX);
            if first.stats.get(..direct.len()) != Some(&direct[..]) {
                bad.push(format!(
                    "{} rows differ from a direct run_lockstep",
                    setup.programs[0].label
                ));
            }
        }
        Kind::SweepRandom => {
            let expected = setup.configs.len() * setup.programs.len();
            if first.jobs != expected {
                bad.push(format!(
                    "sweep ran {} jobs, expected {expected}",
                    first.jobs
                ));
            }
        }
        Kind::SampledFull => {
            for (what, err) in sampled_ipc_errors(setup.seed) {
                if err > SAMPLED_IPC_GATE_PCT {
                    bad.push(format!(
                        "sampled IPC error {err:.2}% on {what} exceeds {SAMPLED_IPC_GATE_PCT}%"
                    ));
                }
            }
        }
        Kind::TrafficTables => {
            let sc: u64 = first.traffic.iter().map(|(t, _)| t.sc_in + t.sc_out).sum();
            let svf: u64 = first
                .traffic
                .iter()
                .map(|(t, _)| t.svf_in + t.svf_out)
                .sum();
            if svf >= sc {
                bad.push(format!(
                    "SVF traffic {svf} qw is not below stack-cache traffic {sc} qw"
                ));
            }
        }
    }
    bad
}

/// IPC error, in percent, of `run_sampled` against a full `run_lockstep`
/// on seeded twolf and gap at Small scale under the base and svf machines.
#[must_use]
fn sampled_ipc_errors(seed: u64) -> Vec<(String, f64)> {
    let configs = [
        svf_experiments::machine("base"),
        svf_experiments::machine("svf"),
    ];
    let plan = sample_plan();
    let mut out = Vec::new();
    for name in ["twolf", "gap"] {
        let w = svf_workloads::workload(name).expect("registered kernel");
        let source = seeded_source(w, w.default_input(), Scale::Small, seed, name);
        let program = svf_cc::compile_to_program(&source).expect("kernel compiles");
        let full = svf_cpu::run_lockstep(&configs, &program, u64::MAX);
        let est = svf_cpu::run_sampled(&configs, &program, u64::MAX, &plan);
        for ((f, e), cfg) in full.iter().zip(&est).zip(["base", "svf"]) {
            out.push((
                format!("{name}/{cfg}"),
                100.0 * svf_cpu::relative_error(e.stats.ipc(), f.ipc()),
            ));
        }
    }
    out
}

/// How a workload exercises the timing model.
enum Timing {
    /// Full-detail simulation of every configuration.
    Detailed(Vec<CpuConfig>),
    /// Sampled simulation of every configuration.
    Sampled(Vec<CpuConfig>, SampleSpec),
    /// No timing model at all.
    Functional,
}

/// A recorded stack-structure event, replayed into the stack cache and
/// the SVF.
#[derive(Debug, Clone, Copy)]
enum Event {
    Access { addr: u64, size: u8, is_store: bool },
    SpUpdate { old_sp: u64, new_sp: u64 },
}

/// Model counters summed over a traced pass; they must repeat exactly.
type Tally = Mutex<Counters>;

fn add(tally: &Tally, counts: &[(&'static str, u64)]) {
    let mut t = tally.lock().expect("tally lock");
    for &(k, v) in counts {
        *t.entry(k).or_default() += v;
    }
}

fn tally_stats(tally: &Tally, stats: &SimStats) {
    let morphed = stats.svf_morphed_loads + stats.svf_morphed_stores;
    add(
        tally,
        &[
            ("dl1.accesses", stats.dl1.accesses),
            ("dl1.misses", stats.dl1.misses),
            ("svf.morphed", morphed),
            (
                "svf.refs",
                morphed + stats.svf_rerouted + stats.svf_out_of_window,
            ),
            ("svf.squashes", stats.svf_squashes),
        ],
    );
}

/// One program through every layer's public function the workload uses,
/// each call its own span; model counters go to `tally`.
fn layer_job(
    t: &Tracer,
    at: At,
    prog: &Prog,
    timing: &Timing,
    sink_root: &Path,
    tally: &Tally,
) -> Result<(), String> {
    let program = t.span(at, "minic.compile", "minic", |_| {
        (svf_cc::compile_to_program(&prog.source), 1)
    });
    let program = program.map_err(|e| format!("{}: {e}", prog.label))?;
    let fault = |e: &dyn std::fmt::Display| format!("{}: {e}", prog.label);

    t.span(at, "emu.run", "emu", |_| {
        let mut emu = Emulator::new(&program);
        let r = emu.run(u64::MAX);
        (r, emu.steps())
    })
    .map_err(|e| fault(&e))?;

    t.span(at, "emu.fill", "emu", |_| {
        let mut src = LiveSource::new(&program);
        let mut ring = RecordRing::new(1024, u64::MAX);
        let mut r = Ok(());
        while !ring.done() {
            if let Err(e) = ring.fill(&mut src, ring.hi()) {
                r = Err(e);
                break;
            }
        }
        (r, ring.hi())
    })
    .map_err(|e| fault(&e))?;

    t.span(at, "emu.step", "emu", |_| {
        let mut emu = Emulator::new(&program);
        let mut r = Ok(());
        while !emu.is_halted() {
            match emu.step() {
                Ok(ret) => {
                    std::hint::black_box(ret);
                }
                Err(e) => {
                    r = Err(e);
                    break;
                }
            }
        }
        (r, emu.steps())
    })
    .map_err(|e| fault(&e))?;

    let (initial_sp, events) = t
        .span(at, "emu.record", "emu", |_| {
            let mut emu = Emulator::new(&program);
            let initial_sp = emu.reg(Reg::SP);
            let heap_base = emu.heap_base();
            let mut events = Vec::with_capacity(RECORDED_EVENTS);
            while !emu.is_halted() && events.len() < RECORDED_EVENTS {
                let r = match emu.step() {
                    Ok(r) => r,
                    Err(e) => return (Err(e), emu.steps()),
                };
                if let Some(u) = r.sp_update {
                    events.push(Event::SpUpdate {
                        old_sp: u.old_sp,
                        new_sp: u.new_sp,
                    });
                }
                if let Some(m) = r.mem.filter(|m| m.region(heap_base).is_stack()) {
                    events.push(Event::Access {
                        addr: m.addr,
                        size: m.size,
                        is_store: m.is_store,
                    });
                }
            }
            (Ok((initial_sp, events)), emu.steps())
        })
        .map_err(|e| fault(&e))?;

    t.span(at, "mem.stack_cache", "mem", |_| {
        let mut sc = StackCache::new(StackCacheConfig::with_size(STRUCTURE_BYTES));
        let mut n = 0;
        for e in &events {
            if let Event::Access { addr, is_store, .. } = *e {
                sc.access(addr, is_store);
                n += 1;
            }
        }
        std::hint::black_box(sc.stats());
        ((), n)
    });

    t.span(at, "svf.replay", "svf", |_| {
        let mut svf = StackValueFile::new(SvfConfig::with_size(STRUCTURE_BYTES), initial_sp);
        for e in &events {
            match *e {
                Event::SpUpdate { old_sp, new_sp } => {
                    svf.on_sp_update(old_sp, new_sp);
                }
                Event::Access {
                    addr,
                    size,
                    is_store,
                } if svf.in_range(addr) => {
                    std::hint::black_box(if is_store {
                        svf.store(addr, size)
                    } else {
                        svf.load(addr, size)
                    });
                }
                Event::Access { .. } => {}
            }
        }
        std::hint::black_box(svf.stats());
        ((), events.len() as u64)
    });

    let (stats, configs) = match timing {
        Timing::Functional => return Ok(()),
        Timing::Detailed(configs) => {
            t.span(at, "cpu.solo", "cpu", |_| {
                let s = Simulator::new(configs[0].clone()).run(&program, u64::MAX);
                let cycles = s.cycles;
                (s, cycles)
            });
            let stats = t.span(at, "cpu.lockstep", "cpu", |_| {
                let s = svf_cpu::run_lockstep(configs, &program, u64::MAX);
                let cycles = s.iter().map(|s| s.cycles).sum();
                (s, cycles)
            });
            (stats, configs)
        }
        Timing::Sampled(configs, plan) => {
            let sampled = t.span(at, "cpu.sampled", "cpu", |_| {
                let s = svf_cpu::run_sampled(configs, &program, u64::MAX, plan);
                let insts = s.iter().map(|s| s.total_insts).sum();
                (s, insts)
            });
            for s in &sampled {
                add(
                    tally,
                    &[
                        ("sampled.total", s.total_insts),
                        ("sampled.detailed", s.detailed_insts),
                        ("sampled.warmed", s.warmed_insts),
                    ],
                );
            }
            (sampled.into_iter().map(|s| s.stats).collect(), configs)
        }
    };
    for s in &stats {
        tally_stats(tally, s);
    }

    let job = at.job.unwrap_or(0);
    let jobs: Vec<Job> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| Job {
            id: i,
            program: ProgramSpec::source(&prog.label, String::new()),
            config_label: format!("c{i}"),
            config: c.clone(),
        })
        .collect();
    let dir = t
        .span(at, "harness.sink_store", "harness", |_| {
            let r = RunDir::create(sink_root, &format!("job{job}")).and_then(|dir| {
                for (j, s) in jobs.iter().zip(&stats) {
                    dir.store(j, s)?;
                }
                Ok(dir)
            });
            (r, jobs.len() as u64)
        })
        .map_err(|e| fault(&e))?;
    let loaded = t.span(at, "harness.sink_load", "harness", |_| {
        let r: Result<Vec<Option<SimStats>>, _> =
            jobs.iter().map(|j| dir.load_classified(j)).collect();
        (r, jobs.len() as u64)
    });
    let loaded = loaded.map_err(|e| fault(&e))?;
    if loaded
        .into_iter()
        .zip(&stats)
        .any(|(l, s)| l.as_ref() != Some(s))
    {
        return Err(format!(
            "{}: stored results do not load back identically",
            prog.label
        ));
    }
    Ok(())
}

/// `root` and every span below it.
fn subtree(spans: &[Span], root: usize) -> Vec<Span> {
    let mut keep = std::collections::HashSet::from([root]);
    // A span starts after its parent does (and gets a larger id), so
    // sorted by start every parent precedes its children.
    let mut by_start: Vec<&Span> = spans.iter().collect();
    by_start.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = Vec::new();
    for s in by_start {
        if s.id == root || s.parent.is_some_and(|p| keep.contains(&p)) {
            keep.insert(s.id);
            out.push(s.clone());
        }
    }
    out
}

/// The per-layer metrics of one traced pass, from its spans and model
/// counters. `layers` is the id of the span that waits for the layer
/// threads.
#[must_use]
fn pass_metrics(spans: &[Span], layers: usize, tally: &Counters) -> LayerMetrics {
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let secs = |name| named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9;
    let work = |name| named(name).map(|s| s.work).sum::<u64>() as f64;
    let mega_rate = |name| ratio(work(name), secs(name)) / 1e6;
    let count = |k: &str| tally.get(k).copied().unwrap_or(0) as f64;

    let solo = mega_rate("cpu.solo");
    let lockstep = mega_rate("cpu.lockstep");
    let (f1, f2) = (secs("cpu.fanout1"), secs("cpu.fanout2"));
    let speedup = ratio(f1, f2);
    let sampled = secs("cpu.sampled");

    // Utilisation of the layer threads: busy (non-glue) self time over
    // the thread-time they had.
    let layer_spans = subtree(spans, layers);
    let busy: u64 = layer_spans
        .iter()
        .zip(self_times(&layer_spans))
        .filter(|(s, _)| s.layer != GLUE)
        .map(|(_, t)| t)
        .sum();
    let layers_ns = spans
        .iter()
        .find(|s| s.id == layers)
        .map_or(0, |s| s.duration_ns());

    LayerMetrics::from([
        ("minic.compile_s", secs("minic.compile")),
        ("configspace.resolve_s", secs("configspace.resolve")),
        ("emu.run_minst_s", mega_rate("emu.run")),
        ("emu.fill_minst_s", mega_rate("emu.fill")),
        ("emu.step_minst_s", mega_rate("emu.step")),
        ("cpu.solo_mcyc_s", solo),
        ("cpu.lockstep_mcyc_s", lockstep),
        ("cpu.lockstep_busy_s", secs("cpu.lockstep")),
        ("cpu.batch_gain", ratio(lockstep, solo)),
        ("cpu.fanout1_s", f1),
        ("cpu.fanout2_s", f2),
        ("cpu.fanout_speedup", speedup),
        // Amdahl: speedup S on 2 threads means a parallel fraction of
        // 2(1 - 1/S).
        (
            "cpu.parallel_fraction",
            if speedup > 0.0 {
                2.0 * (1.0 - 1.0 / speedup)
            } else {
                0.0
            },
        ),
        ("cpu.sampled_busy_s", sampled),
        (
            "cpu.detailed_frac",
            ratio(count("sampled.detailed"), count("sampled.total")),
        ),
        (
            "cpu.warmed_frac",
            ratio(count("sampled.warmed"), count("sampled.total")),
        ),
        (
            "cpu.ff_share",
            if sampled > 0.0 {
                secs("emu.run") / sampled
            } else {
                0.0
            },
        ),
        ("mem.cache_probe_macc_s", mega_rate("mem.cache_probe")),
        (
            "mem.stack_cache_ns",
            ratio(secs("mem.stack_cache") * 1e9, work("mem.stack_cache")),
        ),
        (
            "svf.access_ns",
            ratio(secs("svf.replay") * 1e9, work("svf.replay")),
        ),
        (
            "mem.dl1_miss_rate",
            ratio(count("dl1.misses"), count("dl1.accesses")),
        ),
        (
            "svf.morph_frac",
            ratio(count("svf.morphed"), count("svf.refs")),
        ),
        ("svf.squashes", count("svf.squashes")),
        (
            "harness.sink_store_ms",
            ratio(secs("harness.sink_store") * 1e3, work("harness.sink_store")),
        ),
        (
            "harness.sink_load_ms",
            ratio(secs("harness.sink_load") * 1e3, work("harness.sink_load")),
        ),
        (
            "harness.parallel_eff",
            ratio(busy as f64, (THREADS as u64 * layers_ns) as f64),
        ),
    ])
}

/// One traced pass over every layer: resolve the configurations, run
/// every program through each layer on [`THREADS`] bench threads, time
/// the lockstep fan-out at 1 and 2 threads, and probe the data cache.
/// Returns the pass's metrics and its model counters.
///
/// # Errors
///
/// The first failing layer call or violated check.
pub fn traced_pass(
    setup: &Setup,
    t: &Tracer,
    parent: usize,
    tmp_dir: &Path,
) -> Result<(LayerMetrics, Counters), String> {
    let main = At {
        parent: Some(parent),
        thread: 0,
        job: None,
    };
    let tally: Tally = Mutex::default();
    let timing = setup.timing();
    let sink_root = tmp_dir.join("layers");
    let (mut pass_id, mut layers_id) = (0, 0);
    t.span(main, "pass", GLUE, |pass| {
        pass_id = pass;
        let here = main.under(pass);
        let r = (|| {
            t.span(here, "configspace.resolve", "configspace", |_| {
                let r = resolve_configs(setup.kind, setup.seed);
                let n = r.as_ref().map_or(0, |(c, _)| c.len() as u64);
                (r, n)
            })?;
            t.span(here, "layers", GLUE, |id| {
                layers_id = id;
                let next = AtomicUsize::new(0);
                let results: Vec<Result<(), String>> = std::thread::scope(|s| {
                    let handles: Vec<_> = (1..=THREADS)
                        .map(|thread| {
                            let (next, timing, tally, sink_root) =
                                (&next, &timing, &tally, &sink_root);
                            s.spawn(move || {
                                let at = At {
                                    parent: Some(id),
                                    thread,
                                    job: None,
                                };
                                t.span(at, "worker", GLUE, |w| {
                                    loop {
                                        let job = next.fetch_add(1, Ordering::Relaxed);
                                        let Some(prog) = setup.programs.get(job) else {
                                            break;
                                        };
                                        let at = At {
                                            parent: Some(w),
                                            thread,
                                            job: Some(job),
                                        };
                                        if let Err(e) =
                                            layer_job(t, at, prog, timing, sink_root, tally)
                                        {
                                            return (Err(e), 0);
                                        }
                                    }
                                    (Ok(()), 0)
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("layer thread panicked"))
                        .collect()
                });
                (results.into_iter().collect::<Result<(), String>>(), 0)
            })?;
            if let Timing::Detailed(configs) = &timing {
                let program = &setup.programs[0].program;
                let serial = t.span(here, "cpu.fanout1", "cpu", |_| {
                    let s = svf_cpu::run_lockstep_fanout(configs, program, u64::MAX, 1);
                    let cycles = s.iter().map(|s| s.cycles).sum();
                    (s, cycles)
                });
                let fanned = t.span(here, "cpu.fanout2", "cpu", |_| {
                    let s = svf_cpu::run_lockstep_fanout(configs, program, u64::MAX, THREADS);
                    let cycles = s.iter().map(|s| s.cycles).sum();
                    (s, cycles)
                });
                if serial != fanned {
                    return Err(format!("fan-out {THREADS} results differ from fan-out 1"));
                }
            }
            t.span(here, "mem.cache_probe", "mem", |_| {
                ((), svf_bench::cache_probe(1 << 21))
            });
            Ok(())
        })();
        (r, 0)
    })?;
    std::fs::remove_dir_all(&sink_root).ok();
    let mine = subtree(&t.spans(), pass_id);
    let tally = tally.into_inner().expect("tally lock");
    Ok((pass_metrics(&mine, layers_id, &tally), tally))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where the benchmark writes traces and temporary files: the Cargo target
/// directory it was built into (`CARGO_TARGET_DIR`, else `target`).
#[must_use]
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_in_the_table_has_an_implementation() {
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        let table: Vec<&str> = crate::table::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, table);
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn input_seeds_are_deterministic_distinct_and_non_negative() {
        assert_eq!(input_seed(1, "gcc"), input_seed(1, "gcc"));
        assert_ne!(input_seed(1, "gcc"), input_seed(2, "gcc"));
        assert_ne!(input_seed(1, "gcc"), input_seed(1, "gzip.log"));
        for seed in 0..64 {
            assert!(input_seed(seed, "bzip2") >= 0);
        }
    }

    fn checksum(seed: u64) -> String {
        let w = svf_workloads::workload("bzip2").expect("registered");
        let source = seeded_source(w, w.default_input(), Scale::Test, seed, "bzip2");
        let program = svf_cc::compile_to_program(&source).expect("compiles");
        let mut emu = Emulator::new(&program);
        emu.run(u64::MAX).expect("runs");
        emu.output_string()
    }

    #[test]
    fn the_seed_alone_decides_the_kernel_checksum() {
        assert_eq!(checksum(1), checksum(1), "same seed, same checksum");
        assert_ne!(
            checksum(1),
            checksum(2),
            "different seeds, different checksums"
        );
    }

    #[test]
    fn workload_sources_follow_the_seed() {
        for kind in Kind::ALL {
            let a = sources(kind, 1);
            assert_eq!(a, sources(kind, 1));
            assert!(!a.is_empty());
        }
        assert_ne!(sources(Kind::FigMatrix, 1), sources(Kind::FigMatrix, 2));
        assert_eq!(
            sources(Kind::TrafficTables, 1).len(),
            17,
            "the paper's Table 3 pairs"
        );
        let (a, _) = resolve_configs(Kind::SweepRandom, 1).expect("resolves");
        let (b, _) = resolve_configs(Kind::SweepRandom, 2).expect("resolves");
        assert_eq!(a.len(), 32);
        assert_ne!(
            a.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            b.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            "the seed picks the design points"
        );
    }

    #[test]
    fn the_sample_plan_parses() {
        assert!(sample_plan().validate().is_ok());
    }

    #[test]
    fn pass_metrics_derive_rates_and_utilisation() {
        let span = |id, parent, name, layer, thread, a: u64, b: u64, work| Span {
            id,
            parent,
            name,
            layer,
            thread,
            job: None,
            start_ns: a,
            end_ns: b,
            work,
        };
        let spans = [
            span(0, None, "pass", GLUE, 0, 0, 4_000_000_000, 0),
            span(1, Some(0), "layers", GLUE, 0, 0, 2_000_000_000, 0),
            span(2, Some(1), "worker", GLUE, 1, 0, 2_000_000_000, 0),
            span(
                3,
                Some(2),
                "emu.run",
                "emu",
                1,
                0,
                1_000_000_000,
                300_000_000,
            ),
            span(
                4,
                Some(2),
                "cpu.solo",
                "cpu",
                1,
                1_000_000_000,
                2_000_000_000,
                5_000_000,
            ),
            span(
                5,
                Some(0),
                "cpu.fanout1",
                "cpu",
                0,
                2_000_000_000,
                3_000_000_000,
                1,
            ),
            span(
                6,
                Some(0),
                "cpu.fanout2",
                "cpu",
                0,
                3_000_000_000,
                3_500_000_000,
                1,
            ),
        ];
        let m = pass_metrics(
            &spans,
            1,
            &BTreeMap::from([("dl1.misses", 1), ("dl1.accesses", 4)]),
        );
        assert!((m["emu.run_minst_s"] - 300.0).abs() < 1e-9);
        assert!((m["cpu.solo_mcyc_s"] - 5.0).abs() < 1e-9);
        assert!((m["cpu.fanout_speedup"] - 2.0).abs() < 1e-9);
        assert!((m["cpu.parallel_fraction"] - 1.0).abs() < 1e-9);
        assert!(
            (m["harness.parallel_eff"] - 0.5).abs() < 1e-9,
            "one of two threads busy"
        );
        assert!((m["mem.dl1_miss_rate"] - 0.25).abs() < 1e-12);
        assert_eq!(m["cpu.batch_gain"], 0.0, "no lockstep span, no gain");
    }
}
