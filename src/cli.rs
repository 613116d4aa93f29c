//! Implementation of the `svf-sim` command-line driver; [`USAGE`] lists
//! its flags.
//!
//! The machine is always a config-space preset plus an optional overlay
//! (`--config`, default `svf`), so every machine `svf-sim` can run is one a
//! sweep or an experiment can name too. The old hand flags map onto
//! overlays: `--engine E` is `stack_engine=E` (`svf-nosquash` is the preset
//! of that name), `--width 8` is the `wide8` preset, `--ports R+S` is
//! `dl1_ports=R,stack_ports=S`, `--svf-kb N` is `svf_bytes=Nk` (or
//! `stack_cache_bytes=Nk`) and `--gshare` is `predictor=gshare`. `--ports
//! 4+0` also implied a 4-cycle DL1 hit; the overlay says so explicitly:
//! `--config base+dl1_ports=4,dl1_hit_latency=4`.

use std::error::Error;
use std::fmt::Write as _;

use svf_cpu::{CpuConfig, SampleSpec, SimStats, Simulator, StackEngine};
use svf_emu::{Emulator, Retired};
use svf_isa::Program;

/// The `svf-sim` usage text.
pub const USAGE: &str = "\
usage: svf-sim <file.c|file.s|file.svft> [options]
  --config NAME[+k=v,...]  the machine: a registry preset with an optional overlay
                           (default svf: 16-wide, 2+2 ports, 8 KB SVF;
                           e.g. --config svf+svf_bytes=4k,stack_ports=4)
  --list-configs           print the preset registry and exit
  --naive                  disable compiler optimizations
  --max-insts N            instruction budget
  --sample SPEC            sampled simulation: detailed intervals over a functional
                           fast-forward (key=value pairs: period, interval, warmup,
                           ramp, tail, intervals, mode, seed; empty = defaults)
  --compare                also run the machine without its stack structure
                           (stack_engine=none, stack_ports=0) and report the speedup
  --threads T              timing threads for the --compare pair, which advances as
                           one lockstep batch over a shared functional stream
                           (default 1; results are identical at any T)
  --profile                print the Figures 1-3 characterization
  --disasm                 print the disassembly and exit
  --emit-asm               print the compiler's assembly and exit (MiniC only)
  --trace N                print the first N retired instructions
  --dump-trace PATH        write a binary .svft trace of the run
  --salvage                replay a truncated .svft trace up to the last complete
                           record instead of erroring
";

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Input path (`.c` MiniC, `.s` assembly, or a `.svft` trace).
    pub path: String,
    /// The machine: registry preset with an optional overlay
    /// (`svf+svf_bytes=4k`).
    pub config: String,
    /// Disable compiler optimizations.
    pub naive: bool,
    /// Committed-instruction budget.
    pub max_insts: u64,
    /// Sampled-simulation plan (`--sample`): detailed intervals over a
    /// functional fast-forward instead of a full detailed run.
    pub sample: Option<SampleSpec>,
    /// Timing thread budget (`--threads`) for the `--compare` pair's
    /// lockstep fan-out. Bit-identical at any budget.
    pub threads: usize,
    /// Print the characterization profile.
    pub profile: bool,
    /// Print disassembly and exit.
    pub disasm: bool,
    /// Print the compiler's assembly output and exit (MiniC inputs only).
    pub emit_asm: bool,
    /// Also run the machine without its stack structure.
    pub compare: bool,
    /// Print the first N retired instructions (functional trace).
    pub trace: u64,
    /// Write a compact binary trace of the whole run to this path.
    pub dump_trace: Option<String>,
    /// Replay truncated `.svft` traces up to the last complete record
    /// (with a warning) instead of erroring at the cut.
    pub salvage: bool,
    /// Print the preset registry and exit.
    pub list_configs: bool,
}

impl Default for CliOptions {
    fn default() -> CliOptions {
        CliOptions {
            path: String::new(),
            config: "svf".into(),
            naive: false,
            max_insts: u64::MAX,
            sample: None,
            threads: 1,
            profile: false,
            disasm: false,
            emit_asm: false,
            compare: false,
            trace: 0,
            dump_trace: None,
            salvage: false,
            list_configs: false,
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// a missing input path.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut o = CliOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--config" => o.config = value("--config")?.to_string(),
            "--list-configs" => o.list_configs = true,
            "--max-insts" => {
                o.max_insts = value("--max-insts")?.parse().map_err(|_| "bad --max-insts")?;
            }
            "--sample" => o.sample = Some(SampleSpec::parse(value("--sample")?)?),
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
                if o.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--naive" => o.naive = true,
            "--profile" => o.profile = true,
            "--disasm" => o.disasm = true,
            "--emit-asm" => o.emit_asm = true,
            "--compare" => o.compare = true,
            "--trace" => o.trace = value("--trace")?.parse().map_err(|_| "bad --trace")?,
            "--dump-trace" => o.dump_trace = Some(value("--dump-trace")?.to_string()),
            "--salvage" => o.salvage = true,
            p if !p.starts_with('-') && o.path.is_empty() => o.path = p.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.path.is_empty() && !o.list_configs {
        return Err("no input file given".into());
    }
    Ok(o)
}

/// Builds the machine from `--config`: `NAME` or `NAME+field=value,...`.
/// The overlay rides the same parser sweep specs use, so the syntaxes
/// cannot drift apart.
///
/// # Errors
///
/// Unknown presets, malformed overlays, and values the config space
/// rejects.
pub fn build_config(o: &CliOptions) -> Result<CpuConfig, String> {
    let (name, overlay) = o.config.split_once('+').unwrap_or((&o.config, ""));
    let preset = svf_configspace::registry::require_preset(name)?;
    svf_configspace::Overlay::parse(overlay)?.apply(&preset)
}

/// Compiles the input file by extension.
///
/// # Errors
///
/// Propagates I/O, compiler and assembler diagnostics as strings.
pub fn compile_input(o: &CliOptions, source: &str) -> Result<Program, String> {
    if o.path.ends_with(".s") || o.path.ends_with(".asm") {
        svf_asm::assemble(source).map_err(|e| format!("assembly error: {e}"))
    } else {
        let cc_opts = if o.naive {
            svf_cc::Options { regalloc: false, fold: false, peephole: false }
        } else {
            svf_cc::Options::default()
        };
        svf_cc::compile_to_program_with(source, cc_opts).map_err(|e| format!("compile error: {e}"))
    }
}

/// Runs the whole driver, returning the report text the binary prints.
///
/// # Errors
///
/// Any parse, compile, or functional-execution failure.
pub fn run_cli(args: &[String]) -> Result<String, Box<dyn Error>> {
    let o = parse_args(args)?;
    if o.list_configs {
        return Ok(svf_configspace::registry::listing());
    }
    if o.path.ends_with(".svft") {
        return replay_trace(&o);
    }
    let source = std::fs::read_to_string(&o.path)?;
    if o.emit_asm {
        let cc_opts = if o.naive {
            svf_cc::Options { regalloc: false, fold: false, peephole: false }
        } else {
            svf_cc::Options::default()
        };
        return Ok(svf_cc::compile_to_asm_with(&source, cc_opts)
            .map_err(|e| format!("compile error: {e}"))?);
    }
    let program = compile_input(&o, &source)?;
    let mut report = String::new();

    if o.disasm {
        report.push_str(&program.disassemble());
        return Ok(report);
    }

    // Functional run first: program output + instruction count.
    let mut emu = Emulator::new(&program);
    let mut r = Retired::PLACEHOLDER;
    if o.trace > 0 {
        let _ = writeln!(report, "--- first {} retired instructions ---", o.trace);
        while !emu.is_halted() && emu.steps() < o.trace.min(o.max_insts) {
            emu.step_record(&mut r)?;
            let fun = program.function_at(r.pc).unwrap_or("?");
            let mem = r.mem.map_or(String::new(), |m| {
                format!(
                    "  [{} {:#x} ({}B)]",
                    if m.is_store { "store" } else { "load" },
                    m.addr,
                    m.size
                )
            });
            let _ = writeln!(report, "{:>8}  {:#010x} <{}>  {}{}", emu.steps(), r.pc, fun, r.inst, mem);
        }
    }
    if let Some(path) = &o.dump_trace {
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let initial_sp = emu.reg(svf_isa::Reg::SP);
        let mut w = svf_emu::TraceWriter::new(file, program.entry, program.heap_base, initial_sp)?;
        while !emu.is_halted() && emu.steps() < o.max_insts {
            emu.step_record(&mut r)?;
            w.push(&r)?;
        }
        let n = w.records();
        w.finish()?;
        let _ = writeln!(report, "--- {n} records written to {path} ---");
    } else {
        emu.run(o.max_insts.saturating_sub(emu.steps()))?;
    }
    let _ = writeln!(report, "--- program output ---");
    report.push_str(&emu.output_string());
    let _ = writeln!(report, "--- {} instructions committed ---", emu.steps());

    if o.profile {
        let st = svf_experiments::characterize::characterize_program(&program, o.max_insts);
        let _ = writeln!(
            report,
            "memory refs: {:.1}% of instructions; stack {:.1}% of refs; \
             within 8KB of TOS {:.1}%; max depth {} B",
            100.0 * st.mem_frac(),
            100.0 * st.stack_frac(),
            100.0 * st.frac_within(8192),
            st.max_depth_bytes
        );
    }

    let cfg = build_config(&o)?;
    if o.compare {
        // The baseline is the same machine with the stack structure removed;
        // both ride one lockstep pair over a shared functional stream, in
        // the same execution mode (a sampled compare is sampled-vs-sampled).
        let base_cfg = CpuConfig { stack_engine: StackEngine::None, stack_ports: 0, ..cfg.clone() };
        let (stats, base) = run_timed_pair(&mut report, &o, &cfg, &base_cfg, &program);
        let _ = writeln!(
            report,
            "[baseline {} - stack structure] {} cycles, IPC {:.2} -> speedup {:.3}x",
            o.config,
            base.cycles,
            base.ipc(),
            stats.speedup_over(&base)
        );
    } else {
        let stats = run_timed(&mut report, &o, &cfg, &program);
        append_timing_report(&mut report, &o, &stats);
    }
    Ok(report)
}

/// One timing run under the options' execution mode: a full detailed
/// simulation, or — with `--sample` — a sampled one, with a greppable
/// `SAMPLED` coverage line appended (the `scripts/check.sh` smoke gate
/// parses it).
fn run_timed(report: &mut String, o: &CliOptions, cfg: &CpuConfig, program: &Program) -> SimStats {
    match &o.sample {
        Some(spec) => {
            let s = svf_cpu::run_sampled(std::slice::from_ref(cfg), program, o.max_insts, spec)
                .pop()
                .expect("one config in, one estimate out");
            sampled_line(report, &s);
            s.stats
        }
        None => Simulator::new(cfg.clone()).run(program, o.max_insts),
    }
}

/// The `--compare` pair: both machines ride one lockstep batch over a
/// shared functional stream, fanned out across up to `o.threads` timing
/// threads. Reports the machine's lines (and each run's `SAMPLED` line);
/// returns `(machine, baseline)` statistics.
fn run_timed_pair(
    report: &mut String,
    o: &CliOptions,
    cfg: &CpuConfig,
    base_cfg: &CpuConfig,
    program: &Program,
) -> (SimStats, SimStats) {
    let configs = [cfg.clone(), base_cfg.clone()];
    match &o.sample {
        Some(spec) => {
            let mut runs =
                svf_cpu::run_sampled_fanout(&configs, program, o.max_insts, spec, o.threads);
            let base = runs.pop().expect("two configs in, two estimates out");
            let main = runs.pop().expect("two configs in, two estimates out");
            sampled_line(report, &main);
            append_timing_report(report, o, &main.stats);
            sampled_line(report, &base);
            (main.stats, base.stats)
        }
        None => {
            let mut runs =
                svf_cpu::run_lockstep_fanout(&configs, program, o.max_insts, o.threads);
            let base = runs.pop().expect("two configs in, two results out");
            let main = runs.pop().expect("two configs in, two results out");
            append_timing_report(report, o, &main);
            (main, base)
        }
    }
}

/// The greppable `SAMPLED` coverage line (the `scripts/check.sh` smoke
/// gate parses it).
fn sampled_line(report: &mut String, s: &svf_cpu::SampledStats) {
    let _ = writeln!(
        report,
        "--- SAMPLED intervals={} detailed={} fast-forwarded={} warmed={} of {} insts ---",
        s.intervals,
        s.detailed_insts,
        s.fast_forwarded(),
        s.warmed_insts,
        s.total_insts
    );
}

/// Replays a captured `.svft` binary trace (see `--dump-trace`) through
/// the timing model: no compiler, no emulator — the trace *is* the
/// committed instruction stream, and the reported statistics are
/// bit-identical to a live run of the same program under the same
/// configuration.
fn replay_trace(o: &CliOptions) -> Result<String, Box<dyn Error>> {
    if o.sample.is_some() {
        // Sampling fast-forwards an *emulator*; a trace replay has none
        // (the trace is the committed stream, consumed once, in order).
        return Err("--sample does not apply to .svft trace replay".into());
    }
    let cfg = build_config(o)?;
    let file = std::io::BufReader::new(std::fs::File::open(&o.path)?);
    let mut report = String::new();
    let stats = if o.salvage {
        // Salvage mode: a capture killed mid-write replays up to its last
        // complete record, with the cut reported rather than fatal.
        let salvage = svf_emu::SalvageReport::new();
        let src = svf_emu::TraceSource::open_salvage(file, std::sync::Arc::clone(&salvage))?;
        let stats = svf_cpu::run_lockstep_trace(std::slice::from_ref(&cfg), src, o.max_insts)?
            .pop()
            .expect("one config in, one result out");
        if salvage.was_truncated() {
            let _ = writeln!(
                report,
                "--- WARNING: trace truncated mid-record; salvaged the first {} complete records ---",
                salvage.salvaged_records()
            );
        }
        stats
    } else {
        let src = svf_emu::TraceSource::open(file)?;
        svf_cpu::run_lockstep_trace(std::slice::from_ref(&cfg), src, o.max_insts)?
            .pop()
            .expect("one config in, one result out")
    };
    let _ = writeln!(report, "--- replayed {} trace records ---", stats.committed);
    append_timing_report(&mut report, o, &stats);
    Ok(report)
}

/// The timing lines shared by live runs and trace replays — identical
/// stream, identical text.
fn append_timing_report(report: &mut String, o: &CliOptions, stats: &SimStats) {
    let _ = writeln!(report, "[{}] {} cycles, IPC {:.2}", o.config, stats.cycles, stats.ipc());
    let morphed = stats.svf_morphed_loads + stats.svf_morphed_stores;
    if morphed + stats.svf_rerouted > 0 {
        let _ = writeln!(
            report,
            "  SVF: {} morphed, {} re-routed, {} out-of-window, {} squashes",
            morphed, stats.svf_rerouted, stats.svf_out_of_window, stats.svf_squashes
        );
    }
    let _ = writeln!(
        report,
        "  DL1: {} accesses ({:.1}% hit); L2: {} accesses",
        stats.dl1.accesses,
        100.0 * stats.dl1.hit_rate(),
        stats.l2.accesses
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse_args(&args(&[
            "prog.c", "--config", "wide8+predictor=gshare", "--naive", "--max-insts", "1000",
            "--profile", "--compare", "--threads", "2",
        ]))
        .unwrap();
        assert_eq!(o.path, "prog.c");
        assert_eq!(o.config, "wide8+predictor=gshare");
        assert!(o.naive && o.profile && o.compare);
        assert_eq!((o.max_insts, o.threads), (1000, 2));
        let o = parse_args(&args(&["p.c", "--dump-trace", "t.bin", "--trace", "5"])).unwrap();
        assert_eq!(o.dump_trace.as_deref(), Some("t.bin"));
        assert_eq!(o.trace, 5);
        let o = parse_args(&args(&["t.svft", "--salvage"])).unwrap();
        assert!(o.salvage);
    }

    #[test]
    fn sample_flag_parses_and_rejects_bad_specs() {
        let o = parse_args(&args(&["p.c", "--sample", "period=20k,interval=5k"])).unwrap();
        let spec = o.sample.expect("plan parsed");
        assert_eq!(spec.period, 20_000);
        assert_eq!(spec.interval, 5_000);
        let o = parse_args(&args(&["p.c", "--sample", ""])).unwrap();
        assert_eq!(o.sample, Some(SampleSpec::default()), "empty spec is the default plan");
        assert!(parse_args(&args(&["p.c", "--sample", "interval=0"])).is_err());
        assert!(parse_args(&args(&["p.c", "--sample", "bogus"])).is_err());
        assert!(parse_args(&args(&["p.c", "--sample"])).is_err(), "flag needs a value");
        let err = run_cli(&args(&["t.svft", "--sample", ""])).unwrap_err();
        assert!(err.to_string().contains("trace replay"), "{err}");
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let o = parse_args(&args(&["p.c", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(parse_args(&args(&["p.c"])).unwrap().threads, 1, "serial by default");
        assert!(parse_args(&args(&["p.c", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["p.c", "--threads", "many"])).is_err());
        assert!(parse_args(&args(&["p.c", "--threads"])).is_err(), "flag needs a value");
    }

    #[test]
    fn threaded_compare_report_is_byte_identical_to_serial() {
        let path = std::env::temp_dir().join("svf_cli_threads_pair.c");
        std::fs::write(&path, "int main() { return 7; }").unwrap();
        let p = path.to_str().unwrap().to_string();
        let serial = run_cli(&args(&[&p, "--compare"])).unwrap();
        let paired = run_cli(&args(&[&p, "--compare", "--threads", "2"])).unwrap();
        assert_eq!(serial, paired, "the fanned-out pair must reproduce the serial report");
        let sampled = run_cli(&args(&[&p, "--compare", "--sample", ""])).unwrap();
        let sampled_mt =
            run_cli(&args(&[&p, "--compare", "--sample", "", "--threads", "2"])).unwrap();
        assert_eq!(sampled, sampled_mt, "sampled compare too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["p.c", "--bogus"])).is_err());
        assert!(parse_args(&args(&["p.c", "--config"])).is_err(), "flag needs a value");
        assert!(parse_args(&args(&["p.c", "--max-insts", "lots"])).is_err());
    }

    /// The machine `svf-sim` runs with no flags is the one the removed hand
    /// flags defaulted to: 16-wide, (2+2) ports, the 8 KB SVF.
    #[test]
    fn default_machine_is_the_old_hand_built_default() {
        let mut old = CpuConfig::wide16().with_ports(2, 2);
        old.stack_engine = StackEngine::Svf;
        old.svf = svf::SvfConfig::with_size(8 << 10);
        let o = parse_args(&args(&["p.c"])).unwrap();
        assert_eq!(build_config(&o).unwrap(), old);
    }

    #[test]
    fn removed_hand_flags_are_unknown_arguments() {
        for flag in ["--engine", "--width", "--ports", "--svf-kb", "--gshare"] {
            let err = parse_args(&args(&["p.c", flag, "8"])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn config_flag_resolves_presets_and_overlays() {
        let o = parse_args(&args(&["p.c", "--config", "svf"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.stack_engine, StackEngine::Svf);
        assert_eq!((cfg.dl1_ports, cfg.stack_ports), (2, 2));

        let o = parse_args(&args(&["p.c", "--config", "svf+svf_bytes=4k,stack_ports=4"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.stack_ports, 4);
        assert_eq!(cfg.svf.capacity_bytes, 4 << 10);

        let o = parse_args(&args(&["p.c", "--config", "warp-core"])).unwrap();
        assert!(build_config(&o).unwrap_err().contains("unknown config preset"));
        let o = parse_args(&args(&["p.c", "--config", "svf+made_up=1"])).unwrap();
        assert!(build_config(&o).is_err());
    }

    /// Seed behaviour: a 3 KB DL1 panicked inside the simulator.
    #[test]
    fn bad_config_values_are_errors_not_panics() {
        let path = std::env::temp_dir().join("svf_cli_bad_config.c");
        std::fs::write(&path, "int main() { return 0; }").unwrap();
        let p = path.to_str().unwrap().to_string();
        let err = run_cli(&args(&[&p, "--config", "wide16+dl1_bytes=3k"])).unwrap_err();
        assert!(err.to_string().contains("dl1_bytes"), "{err}");
        // Each fits on its own but overflows the lockstep window together.
        for overlay in ["wide16+ifq_size=2000", "wide16+width=1024"] {
            let err = run_cli(&args(&[&p, "--config", overlay])).unwrap_err();
            assert!(err.to_string().contains("lockstep window"), "{overlay}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn list_configs_needs_no_input_file() {
        let o = parse_args(&args(&["--list-configs"])).unwrap();
        assert!(o.list_configs);
        let listing = run_cli(&args(&["--list-configs"])).unwrap();
        assert!(listing.contains("svf") && listing.contains("wide16"), "{listing}");
    }

    #[test]
    fn compiles_minic_and_assembly_by_extension() {
        let o = CliOptions { path: "x.c".into(), ..CliOptions::default() };
        assert!(compile_input(&o, "int main() { return 0; }").is_ok());
        assert!(compile_input(&o, "not C at all").is_err());
        let o = CliOptions { path: "x.s".into(), ..CliOptions::default() };
        assert!(compile_input(&o, "main:\n halt\n").is_ok());
        assert!(compile_input(&o, "int main() {}").is_err());
    }
}
