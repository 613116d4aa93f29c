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

use svf_cpu::{CpuConfig, RunOptions, SampleSpec, SampledStats, StackEngine};
use svf_emu::{Emulator, Retired};
use svf_isa::Program;

/// The `svf-sim` usage text.
pub const USAGE: &str = "\
usage: svf-sim <file.c|file.s> [options]
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
";

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Input path (`.c` MiniC or `.s` assembly).
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

    // Functional run first: program output + instruction count. The
    // listing's header counts the instructions it lists, which the program
    // or `--max-insts` may cut short of `--trace`.
    let mut emu = Emulator::new(&program);
    if o.trace > 0 {
        let mut listing = String::new();
        let mut r = Retired::PLACEHOLDER;
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
            let (n, pc, inst) = (emu.steps(), r.pc, r.inst);
            let _ = writeln!(listing, "{n:>8}  {pc:#010x} <{fun}>  {inst}{mem}");
        }
        let _ = writeln!(report, "--- first {} retired instructions ---", emu.steps());
        report.push_str(&listing);
    }
    emu.run(o.max_insts.saturating_sub(emu.steps()))?;
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

    let runs = run_timed(&o, &program)?;
    timing_report(&mut report, &o, &runs);
    Ok(report)
}

/// The one timing run: the machine, plus with `--compare` its baseline —
/// the same machine with the stack structure removed — riding one lockstep
/// batch over the shared stream, fanned out across up to `o.threads`
/// timing threads. A sampled compare is sampled-vs-sampled. Returns
/// `[machine]` or `[machine, baseline]`.
fn run_timed(o: &CliOptions, program: &Program) -> Result<Vec<SampledStats>, Box<dyn Error>> {
    let cfg = build_config(o)?;
    let mut configs = vec![cfg.clone()];
    if o.compare {
        configs.push(CpuConfig { stack_engine: StackEngine::None, stack_ports: 0, ..cfg });
    }
    let opts = RunOptions { max_insts: o.max_insts, fanout: o.threads, sample: o.sample };
    Ok(svf_cpu::simulate(&configs, program, &opts)?)
}

/// The timing lines of [`run_timed`]'s runs: each run's greppable
/// `SAMPLED` coverage line when sampled (the `scripts/check.sh` smoke gate
/// parses it), the machine's lines, and with `--compare` the speedup over
/// the baseline.
fn timing_report(report: &mut String, o: &CliOptions, runs: &[SampledStats]) {
    for (i, s) in runs.iter().enumerate() {
        if o.sample.is_some() {
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
        if i > 0 {
            continue;
        }
        let stats = &s.stats;
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
    if let [main, base] = runs {
        let _ = writeln!(
            report,
            "[baseline {} - stack structure] {} cycles, IPC {:.2} -> speedup {:.3}x",
            o.config,
            base.stats.cycles,
            base.stats.ipc(),
            main.stats.speedup_over(&base.stats)
        );
    }
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
        let o = parse_args(&args(&["p.c", "--trace", "5"])).unwrap();
        assert_eq!(o.trace, 5);
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
        let huge = "mode=random,seed=1,period=18000000000000000000,interval=1k";
        let err = parse_args(&args(&["p.c", "--sample", huge])).unwrap_err();
        assert!(err.contains("period"), "{err}");
        assert!(parse_args(&args(&["p.c", "--sample"])).is_err(), "flag needs a value");
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

    /// `--trace N` lists at most N instructions, and its header counts the
    /// ones it lists: the whole program when it halts first, `--max-insts`
    /// when that cuts the run.
    #[test]
    fn trace_listing_header_counts_the_listed_instructions() {
        let path = std::env::temp_dir().join(format!("svf_cli_trace_{}.s", std::process::id()));
        std::fs::write(
            &path,
            "main:\n lda $sp, -16($sp)\n li $t0, 5\n stq $t0, 0($sp)\n ldq $a0, 0($sp)\n \
             putint\n lda $sp, 16($sp)\n halt\n",
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let listing = |extra: &[&str]| -> (String, Vec<String>) {
            let report = run_cli(&args(&[&[p, "--trace", "1000"], extra].concat())).unwrap();
            let mut lines = report.lines().skip_while(|l| !l.starts_with("--- first"));
            let header = lines.next().expect("a listing header").to_string();
            (header, lines.take_while(|l| !l.starts_with("---")).map(ToString::to_string).collect())
        };
        let (header, lines) = listing(&[]);
        assert_eq!(lines.len(), 7, "the whole program: {lines:?}");
        assert_eq!(header, "--- first 7 retired instructions ---");
        assert_eq!(lines.iter().filter(|l| l.contains("[store 0x")).count(), 1, "{lines:?}");
        assert!(lines[2].ends_with("(8B)]") && lines[3].contains("[load 0x"), "{lines:?}");
        let (header, lines) = listing(&["--max-insts", "4"]);
        assert_eq!(lines.len(), 4, "capped by --max-insts: {lines:?}");
        assert_eq!(header, "--- first 4 retired instructions ---");
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
        for flag in
            ["--engine", "--width", "--ports", "--svf-kb", "--gshare", "--dump-trace", "--salvage"]
        {
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
