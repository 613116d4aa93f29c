//! Sampled simulation: functional fast-forward with detailed intervals and
//! functional warmup.
//!
//! Full detailed simulation pays the pipeline's cycle loop for every
//! instruction; the functional emulator is orders of magnitude faster. A
//! [`SampleSpec`] picks a set of *measured intervals* along the committed
//! instruction stream; between them the program runs at emulator speed
//! while functional warming keeps each configuration's long-lived
//! structures ([`EngineState`]: cache tags and dirty bits, SVF /
//! stack-cache contents, branch predictor tables) warm off the same
//! committed instructions the timing model would have seen. Each
//! interval then runs the real pipeline on the same machine, picking up
//! where the functional run left it, with warm structures but a cold
//! (drained) pipeline, and the per-interval statistics are pooled and
//! extrapolated to a whole-run estimate.
//!
//! The flow per measured interval:
//!
//! 1. **Fast-forward** the primary emulator to `start - warmup` with
//!    [`Emulator::run`]: the stepping loop with nothing observing it.
//! 2. **Warm up** for `warmup` instructions: the same loop with the
//!    [`Warming`] sink inlined. Each committed instruction touches every
//!    config's structures through the [`EngineState`] methods the
//!    pipeline's fetch and dispatch call, so warming cannot steer a
//!    reference differently. The timing model is functional-first: fetch
//!    (IL1, predictor) and dispatch (SVF window, DL1, stack cache) each
//!    touch their structures in commit order, which is warming's order, so
//!    the L1s, the SVF, the stack cache and the predictor end exactly as a
//!    detailed run leaves them. Only the shared L2 could differ: a detailed
//!    run interleaves IL1 and DL1 misses by cycle, warming by instruction.
//!    `warming_leaves_the_state_a_detailed_run_leaves` pins the whole
//!    state, L2 included, on four kernels and four machines.
//! 3. **Measure**: lend the primary emulator to the detailed lockstep loop,
//!    which steps it over the interval's ramp, measured window and tail,
//!    writing each instruction's facts straight into the lockstep window;
//!    the fast-forward to the next interval resumes from where the loop
//!    stopped. Structure statistics are reset at the interval boundary so
//!    each interval's counters cover only itself.
//! 4. **Extrapolate** with a stratified estimator: each measured interval
//!    represents its *stratum* — every instruction since the previous
//!    interval's measurement boundary (the measurement sits at the end of
//!    its stratum, exactly where fast-forward and warmup leave it). Each
//!    interval's counters are scaled from its measured committed count up
//!    to its stratum size ([`SimStats::scaled`]) and summed; the strata
//!    partition the run, so the reported `committed` is the *exact*
//!    functional total. Stratum-proportional weighting is what keeps a
//!    one-off transient (the cold program start, a phase change) from
//!    being over-weighted when the interval count is small.
//!
//! A spec whose first interval covers the whole program degenerates to a
//! plain full run, bit-identical to a full [`crate::simulate`] — pinned by a
//! test here and, over every golden and oracle row, by the workspace tests.
//!
//! # Bias and the ramp
//!
//! A pipeline restarted at an interval boundary carries no instruction
//! window, and the window's steady state is path-dependent over roughly
//! `ruu_size`-to-few-thousand instructions; measuring immediately would
//! inflate CPI (empirically ~14% at 2k-instruction intervals). The `ramp`
//! lead-in must exceed that horizon — with `ramp ≥ 2k` the measured
//! windows reproduce a continuous run's windowed counters bit-for-bit on
//! the test kernel. The remaining estimator error is genuine sampling
//! error (phase variation between strata), which shrinks with more or
//! longer intervals.

use svf_emu::{Commit, Emulator, StepSink, StreamError};
use svf_isa::{MemRegion, Program, Reg};

use crate::config::CpuConfig;
use crate::lockstep::{drive, run_full, RunOptions};
use crate::pipeline::{EngineState, Pipeline};
use crate::stats::SimStats;

/// How measured intervals are placed along the committed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Interval `k` starts at `k * period` — deterministic, phase-locked
    /// coverage starting at instruction 0.
    Periodic,
    /// Seeded-random placement: the first interval starts at a random
    /// offset in `[0, period - interval]`, and successive starts are
    /// separated by `interval + uniform(0 ..= 2*(period - interval))` —
    /// mean spacing `period`, guaranteed non-overlap. The schedule is a
    /// pure function of the spec, so results are deterministic for a seed
    /// regardless of harness worker count. `period` is at most
    /// `u64::MAX / 2`, so every spacing (at most `2*period - interval`)
    /// fits in a `u64`.
    Random {
        /// Seed for the splitmix64 schedule generator.
        seed: u64,
    },
}

/// The largest `period` a [`SampleMode::Random`] plan accepts: twice it
/// still fits in a `u64`, so the schedule's spacing arithmetic cannot
/// overflow.
const MAX_RANDOM_PERIOD: u64 = u64::MAX / 2;

/// A sampling plan: which instructions run under the detailed model.
///
/// Around each *measured* interval sit three kinds of lead-in/lead-out:
///
/// * `warmup` instructions of **functional** warmup (structures observe
///   the stream through functional warmers, no cycles simulated);
/// * `ramp` instructions of **detailed** pre-roll: simulated by the
///   pipeline but excluded from the interval's statistics, so measurement
///   starts with a full, steady-state instruction window instead of an
///   empty one;
/// * `tail` instructions of detailed post-roll, likewise excluded, so
///   measurement ends while instructions are still streaming in rather
///   than during the de-pipelined drain.
///
/// Ramp and tail trade a little extra detailed work for removing the
/// cold-start/drain cycle bias that would otherwise inflate short
/// intervals' CPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Interval placement policy.
    pub mode: SampleMode,
    /// Mean spacing between interval starts, in committed instructions.
    pub period: u64,
    /// Length of each measured interval, in committed instructions.
    pub interval: u64,
    /// Functional-warmup instructions immediately before each interval's
    /// detailed ramp.
    pub warmup: u64,
    /// Detailed (but unmeasured) instructions simulated before each
    /// interval to refill pipeline occupancy.
    pub ramp: u64,
    /// Detailed (but unmeasured) instructions simulated after each
    /// interval so measurement ends in steady state.
    pub tail: u64,
    /// Maximum number of measured intervals; `0` means unlimited (sample
    /// until the program ends).
    pub max_intervals: u64,
}

impl Default for SampleSpec {
    fn default() -> SampleSpec {
        SampleSpec {
            mode: SampleMode::Periodic,
            period: 50_000,
            interval: 10_000,
            warmup: 5_000,
            ramp: 2_000,
            tail: 1_000,
            max_intervals: 0,
        }
    }
}

impl SampleSpec {
    /// Parses a comma-separated `key=value` spec, e.g.
    /// `"period=50k,interval=10k,warmup=5k"` or
    /// `"mode=random,seed=7,period=100k,interval=20k"`.
    ///
    /// Keys: `mode` (`periodic` | `random`), `period`, `interval`,
    /// `warmup`, `ramp`, `tail`, `intervals` (max count, `0` = unlimited),
    /// `seed` (implies `mode=random`). Counts accept `k`/`m` suffixes.
    /// Unset keys keep the defaults; an empty spec is the default spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown keys, malformed counts,
    /// or a plan [`SampleSpec::validate`] rejects.
    pub fn parse(s: &str) -> Result<SampleSpec, String> {
        let mut spec = SampleSpec::default();
        let mut seed: Option<u64> = None;
        for item in s.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("sample spec item `{item}` is not key=value"))?;
            match key.trim() {
                "mode" => match value.trim() {
                    "periodic" => spec.mode = SampleMode::Periodic,
                    "random" => spec.mode = SampleMode::Random { seed: seed.unwrap_or(0) },
                    other => return Err(format!("unknown sample mode `{other}`")),
                },
                "period" => spec.period = parse_count(value)?,
                "interval" => spec.interval = parse_count(value)?,
                "warmup" => spec.warmup = parse_count(value)?,
                "ramp" => spec.ramp = parse_count(value)?,
                "tail" => spec.tail = parse_count(value)?,
                "intervals" => spec.max_intervals = parse_count(value)?,
                "seed" => seed = Some(parse_count(value)?),
                other => return Err(format!("unknown sample spec key `{other}`")),
            }
        }
        if let Some(seed) = seed {
            spec.mode = SampleMode::Random { seed };
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when `interval` is zero, `period < interval`
    /// (intervals would overlap), or a random-mode `period` exceeds
    /// `u64::MAX / 2` (its spacing would overflow).
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            return Err("sample interval must be positive".into());
        }
        if self.period < self.interval {
            return Err(format!(
                "sample period ({}) must be at least the interval ({})",
                self.period, self.interval
            ));
        }
        if matches!(self.mode, SampleMode::Random { .. }) && self.period > MAX_RANDOM_PERIOD {
            return Err(format!(
                "random sample period ({}) must be at most {MAX_RANDOM_PERIOD}",
                self.period
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mode {
            SampleMode::Periodic => write!(f, "mode=periodic")?,
            SampleMode::Random { seed } => write!(f, "mode=random,seed={seed}")?,
        }
        write!(
            f,
            ",period={},interval={},warmup={},ramp={},tail={}",
            self.period, self.interval, self.warmup, self.ramp, self.tail
        )?;
        if self.max_intervals != 0 {
            write!(f, ",intervals={}", self.max_intervals)?;
        }
        Ok(())
    }
}

/// `"50k"` → `50_000`, `"2m"` → `2_000_000`, plain digits pass through.
fn parse_count(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1_000),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1_000_000),
        _ => (s, 1),
    };
    let n: u64 =
        digits.trim().parse().map_err(|_| format!("malformed count `{s}` in sample spec"))?;
    n.checked_mul(mult).ok_or_else(|| format!("count `{s}` overflows"))
}

/// Functional warming: the sink of the emulator's stepping loop over a
/// warmup window. Each committed instruction touches every config's
/// structures through the [`EngineState`] methods the pipeline's fetch and
/// dispatch call — the IL1 once per line change, the `$sp` window move, the
/// steering of a memory reference — and trains the predictor as fetch
/// does, so the only thing skipped is the cycle accounting.
struct Warming<'a> {
    states: &'a mut [EngineState],
    heap_base: u64,
}

impl StepSink for Warming<'_> {
    #[inline]
    fn commit(&mut self, c: &Commit<'_>) {
        let info = c.info();
        let is_stack = info.is_mem() && MemRegion::classify(c.addr, self.heap_base).is_stack();
        for st in self.states.iter_mut() {
            st.fetch_line(c.pc);
            if info.writes_sp() {
                st.move_sp(c.sp_after);
            }
            if info.is_mem() {
                st.access(c.addr, info.size, is_stack, info.is_store());
            }
            if info.is_control() {
                st.predictor.train(c.pc, info.control, c.taken, c.next_pc);
            }
        }
    }
}

/// Interval start points as a pure function of the spec (see
/// [`SampleMode`]); overlap-free by construction.
struct Schedule {
    mode: SampleMode,
    period: u64,
    interval: u64,
    rng: u64,
    next_start: u64,
    k: u64,
}

impl Schedule {
    fn new(spec: &SampleSpec) -> Schedule {
        let mut s = Schedule {
            mode: spec.mode,
            period: spec.period,
            interval: spec.interval,
            rng: match spec.mode {
                SampleMode::Periodic => 0,
                SampleMode::Random { seed } => seed,
            },
            next_start: 0,
            k: 0,
        };
        if let SampleMode::Random { .. } = s.mode {
            let span = s.period - s.interval; // validate(): period >= interval
            s.next_start = splitmix64(&mut s.rng) % (span + 1);
        }
        s
    }

    fn next(&mut self) -> u64 {
        match self.mode {
            SampleMode::Periodic => {
                let start = self.k.saturating_mul(self.period);
                self.k += 1;
                start
            }
            SampleMode::Random { .. } => {
                let start = self.next_start;
                let span = self.period - self.interval;
                let gap = self.interval + splitmix64(&mut self.rng) % (2 * span + 1);
                self.next_start = self.next_start.saturating_add(gap);
                start
            }
        }
    }
}

/// The splitmix64 step, the same generator the sweep driver seeds jobs
/// with — tiny, stateless between calls, and good enough for interval
/// jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a run measured and estimated for one configuration. A sampled run
/// fills in its stratified estimate and coverage; a full run is one
/// interval covering the whole run, every instruction of it detailed.
#[derive(Debug, Clone)]
pub struct SampledStats {
    /// Whole-run estimate: pooled interval statistics extrapolated to the
    /// full committed count. `stats.committed` is the *exact* functional
    /// total (not an estimate), so downstream comparisons that key on it
    /// behave as for a full run.
    pub stats: SimStats,
    /// Exact committed instructions of the whole (functional) run.
    pub total_insts: u64,
    /// Instructions simulated under the detailed model.
    pub detailed_insts: u64,
    /// Instructions spent in functional warmup windows.
    pub warmed_insts: u64,
    /// Measured intervals that contributed statistics.
    pub intervals: u64,
}

impl SampledStats {
    /// A full detailed run, reported as one interval covering all of it.
    pub(crate) fn whole_run(stats: SimStats) -> SampledStats {
        SampledStats {
            total_insts: stats.committed,
            detailed_insts: stats.committed,
            warmed_insts: 0,
            intervals: 1,
            stats,
        }
    }

    /// Instructions that ran at pure emulator speed (neither measured nor
    /// warming).
    #[must_use]
    pub fn fast_forwarded(&self) -> u64 {
        self.total_insts - self.detailed_insts - self.warmed_insts
    }

    /// Fraction of the run simulated in detail, in `[0, 1]`.
    #[must_use]
    pub fn detailed_fraction(&self) -> f64 {
        if self.total_insts == 0 {
            1.0
        } else {
            self.detailed_insts as f64 / self.total_insts as f64
        }
    }
}

/// Runs every configuration over one sampled execution of `program` and
/// returns per-config estimates in input order: [`crate::simulate`] with a
/// sampling plan. The functional emulator runs the program exactly once
/// end to end; only the measured intervals pay detailed-simulation cost,
/// each driven at `opts.fanout` (the fast-forward and functional warmup
/// are a single serial stream on the calling thread). If the schedule
/// places no interval before the program ends, the run falls back to a
/// plain full run (reported as one interval covering everything).
pub(crate) fn sample(
    configs: &[CpuConfig],
    program: &Program,
    spec: &SampleSpec,
    opts: &RunOptions,
) -> Result<Vec<SampledStats>, StreamError> {
    spec.validate().expect("invalid sample spec");
    let max_insts = opts.max_insts;
    let mut emu = Emulator::new(program);
    let initial_sp = emu.reg(Reg::SP);
    let heap_base = emu.heap_base();

    let mut states: Vec<EngineState> =
        configs.iter().map(|c| EngineState::new(c, initial_sp)).collect();
    // Per-config, per-interval measured statistics, paired with the number
    // of instructions each interval's stratum represents (shared across
    // configs — the schedule is common).
    let mut measured: Vec<Vec<SimStats>> = configs.iter().map(|_| Vec::new()).collect();
    let mut represented: Vec<u64> = Vec::new();
    let mut stratum_start = 0u64;
    let mut detailed = 0u64;
    let mut warmed = 0u64;
    let mut intervals = 0u64;
    let mut schedule = Schedule::new(spec);

    loop {
        if spec.max_intervals != 0 && intervals >= spec.max_intervals {
            break;
        }
        let start = schedule.next();
        if start >= max_insts {
            break; // the measured window would hold no instruction
        }
        let detail_start = start.saturating_sub(spec.ramp);
        let warm_start = detail_start.saturating_sub(spec.warmup);
        // Fast-forward (recordless) to the warmup window.
        if emu.steps() < warm_start {
            emu.run(warm_start - emu.steps())?;
        }
        if emu.is_halted() {
            break;
        }
        // Functional warmup: every config's structures observe the stream,
        // from an SVF window re-aligned with the `$sp` the fast-forward
        // moved unobserved.
        for st in &mut states {
            st.move_sp(emu.reg(Reg::SP));
        }
        let warm_end = detail_start.min(max_insts);
        if emu.steps() < warm_end {
            let before = emu.steps();
            emu.run_with(warm_end - before, &mut Warming { states: &mut states, heap_base })?;
            warmed += emu.steps() - before;
        }
        if emu.is_halted() || emu.steps() >= max_insts {
            break;
        }
        // Detailed interval: run the pipeline on the primary machine over
        // ramp + interval + tail instructions with the stats scoped to the
        // interval.
        let pos = emu.steps();
        let measure_from = start.saturating_sub(pos); // ramp clipped at the stream head
        let measure_to = measure_from.saturating_add(spec.interval);
        let budget = measure_to.saturating_add(spec.tail).min(max_insts - pos);
        let mut pipes: Vec<Pipeline> = configs
            .iter()
            .zip(states.drain(..))
            .map(|(cfg, mut st)| {
                st.reset_stats();
                let mut p = Pipeline::from_state(cfg, st);
                p.set_measure_window(measure_from, measure_to);
                p
            })
            .collect();
        drive(&mut pipes, &mut emu, budget, opts.fanout)?;
        for (slot, pipe) in measured.iter_mut().zip(pipes) {
            let (stats, st) = pipe.finish_into_state();
            slot.push(stats);
            states.push(st);
        }
        // This interval's stratum ends where its *measurement* ends (not
        // where the unmeasured tail ends): everything since the previous
        // measurement boundary — fast-forward, warmup, ramp, the previous
        // tail — is represented by this interval's counters. Anchoring the
        // boundary at the measurement edge keeps a transient interval (the
        // cold program start) from having its average stretched over
        // instructions it did not measure.
        let end_pos = emu.steps();
        let meas_end = (pos + measure_to).min(end_pos);
        represented.push(meas_end - stratum_start);
        stratum_start = meas_end;
        detailed += end_pos - pos;
        intervals += 1;
    }

    if intervals == 0 {
        // The schedule never fired (program or budget shorter than the
        // first start): fall back to a plain full run rather than report
        // nothing, on a fresh emulator unless this one never stepped.
        if emu.steps() > 0 {
            emu = Emulator::new(program);
        }
        return run_full(configs, &mut emu, initial_sp, opts);
    }
    // Finish the functional run so the reported total is exact.
    if !emu.is_halted() && emu.steps() < max_insts {
        emu.run(max_insts - emu.steps())?;
    }
    let total = emu.steps();
    // Whatever ran after the last interval (fast-forward to program end)
    // belongs to the last stratum.
    if let Some(last) = represented.last_mut() {
        *last += total - stratum_start;
    }
    Ok(measured
        .into_iter()
        .map(|ivs| {
            // Stratified extrapolation: each interval's counters are scaled
            // from its measured committed count up to its stratum size, then
            // summed. The strata partition the run, so the extrapolated
            // committed count is the exact functional total by construction
            // (pinned exactly below to make downstream keying reliable).
            let mut pooled = SimStats::default();
            for (stats, &rep) in ivs.iter().zip(&represented) {
                if stats.committed > 0 {
                    pooled.accumulate(&stats.scaled(rep));
                }
            }
            pooled.committed = total;
            SampledStats {
                stats: pooled,
                total_insts: total,
                detailed_insts: detailed,
                warmed_insts: warmed,
                intervals,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PredictorKind, StackEngine};
    use crate::stats::relative_error;
    use crate::{run_lockstep, run_sampled};

    fn kernel() -> Program {
        svf_cc::compile_to_program_with(
            "
            int work(int n) {
                int a = n; int b = n * 2; int c = 0;
                for (int i = 0; i < 30; i = i + 1) {
                    c = c + a * b - i;
                    a = a + 1;
                    b = b - 1;
                }
                return c;
            }
            int main() {
                int s = 0;
                for (int i = 0; i < 40; i = i + 1) s = s + work(i);
                print(s);
                return 0;
            }",
            svf_cc::Options { regalloc: false, ..Default::default() },
        )
        .expect("compiles")
    }

    fn config_set() -> Vec<CpuConfig> {
        let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
        svf_cfg.stack_engine = StackEngine::Svf;
        let mut sc_cfg = CpuConfig::wide8().with_ports(2, 2);
        sc_cfg.stack_engine = StackEngine::StackCache;
        vec![CpuConfig::wide16(), svf_cfg, sc_cfg]
    }

    #[test]
    fn parse_defaults_and_suffixes() {
        assert_eq!(SampleSpec::parse("").unwrap(), SampleSpec::default());
        let s = SampleSpec::parse("period=100k, interval=20k, warmup=1k, ramp=500, tail=250, intervals=5")
            .unwrap();
        assert_eq!(s.period, 100_000);
        assert_eq!(s.interval, 20_000);
        assert_eq!(s.warmup, 1_000);
        assert_eq!(s.ramp, 500);
        assert_eq!(s.tail, 250);
        assert_eq!(s.max_intervals, 5);
        assert_eq!(s.mode, SampleMode::Periodic);
        let r = SampleSpec::parse("mode=random,seed=7,period=2m,interval=10k").unwrap();
        assert_eq!(r.mode, SampleMode::Random { seed: 7 });
        assert_eq!(r.period, 2_000_000);
        // `seed` alone implies random mode, in either key order.
        assert_eq!(SampleSpec::parse("seed=3").unwrap().mode, SampleMode::Random { seed: 3 });
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(SampleSpec::parse("interval=0").is_err(), "zero interval");
        assert!(SampleSpec::parse("period=1k,interval=2k").is_err(), "period < interval");
        assert!(SampleSpec::parse("bogus=1").is_err(), "unknown key");
        assert!(SampleSpec::parse("period=abc").is_err(), "malformed count");
        assert!(SampleSpec::parse("period").is_err(), "not key=value");
        assert!(SampleSpec::parse("mode=sometimes").is_err(), "unknown mode");
        let err = SampleSpec::parse("mode=random,seed=1,period=18000000000000000000,interval=1k")
            .unwrap_err();
        assert!(err.contains("period"), "{err}");
        let top = format!("mode=random,seed=1,period={MAX_RANDOM_PERIOD},interval=1k");
        let mut sched = Schedule::new(&SampleSpec::parse(&top).expect("the bound itself is valid"));
        let (a, b) = (sched.next(), sched.next());
        assert!(b - a >= 1_000, "spacing at the bound is computed, not wrapped");
        assert!(
            SampleSpec::parse("period=18000000000000000000,interval=1k").is_ok(),
            "periodic plans saturate and need no bound"
        );
    }

    #[test]
    fn display_round_trips() {
        for s in ["period=123,interval=45,warmup=6", "mode=random,seed=9,intervals=3"] {
            let spec = SampleSpec::parse(s).unwrap();
            assert_eq!(SampleSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn periodic_schedule_is_multiples_of_period() {
        let spec = SampleSpec::parse("period=10k,interval=1k").unwrap();
        let mut sched = Schedule::new(&spec);
        assert_eq!([sched.next(), sched.next(), sched.next()], [0, 10_000, 20_000]);
    }

    #[test]
    fn random_schedule_is_deterministic_and_non_overlapping() {
        let spec = SampleSpec::parse("mode=random,seed=42,period=10k,interval=2k").unwrap();
        let mut a = Schedule::new(&spec);
        let mut b = Schedule::new(&spec);
        let mut prev_end = 0u64;
        for i in 0..100 {
            let s = a.next();
            assert_eq!(s, b.next(), "same seed, same schedule (draw {i})");
            if i > 0 {
                assert!(s >= prev_end, "interval {i} overlaps its predecessor");
            }
            prev_end = s + spec.interval;
        }
        let different = SampleSpec::parse("mode=random,seed=43,period=10k,interval=2k").unwrap();
        let firsts: Vec<u64> = (0..4).map(|_| Schedule::new(&different).next()).collect();
        assert!(firsts.iter().all(|&f| f == firsts[0]));
    }

    #[test]
    fn degenerate_spec_is_bit_exact_with_full_run() {
        // One interval from instruction 0 covering the whole program is a
        // full detailed run by construction.
        let p = kernel();
        let configs = config_set();
        let spec = SampleSpec::parse("period=100m,interval=100m,warmup=0").unwrap();
        let sampled = run_sampled(&configs, &p, u64::MAX, &spec);
        let full = run_lockstep(&configs, &p, u64::MAX);
        for ((s, f), cfg) in sampled.iter().zip(&full).zip(&configs) {
            assert_eq!(s.stats.to_csv_row(), f.to_csv_row(), "{cfg:?} diverged");
            assert_eq!(s.intervals, 1);
            assert_eq!(s.detailed_insts, s.total_insts);
            assert_eq!(s.fast_forwarded(), 0);
        }
    }

    #[test]
    fn sampled_run_measures_less_and_stays_close() {
        let p = kernel();
        let configs = config_set();
        let spec = SampleSpec::parse("period=10k,interval=2k,warmup=500,ramp=2k,tail=500").unwrap();
        let sampled = run_sampled(&configs, &p, u64::MAX, &spec);
        let full = run_lockstep(&configs, &p, u64::MAX);
        for (s, f) in sampled.iter().zip(&full) {
            assert_eq!(s.stats.committed, f.committed, "committed stays exact");
            assert!(s.intervals > 1, "multiple intervals measured");
            assert!(
                s.detailed_insts < s.total_insts / 2,
                "detailed {} of {} is not a saving",
                s.detailed_insts,
                s.total_insts
            );
            assert!(s.fast_forwarded() > 0);
            let err = relative_error(s.stats.ipc(), f.ipc());
            assert!(err < 0.02, "sampled IPC {} vs full {} ({err:.3})", s.stats.ipc(), f.ipc());
        }
    }

    #[test]
    fn random_sampling_is_deterministic_end_to_end() {
        let p = kernel();
        let configs = config_set();
        let spec = SampleSpec::parse("mode=random,seed=5,period=8k,interval=2k,warmup=500").unwrap();
        let a = run_sampled(&configs, &p, u64::MAX, &spec);
        let b = run_sampled(&configs, &p, u64::MAX, &spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats.to_csv_row(), y.stats.to_csv_row());
            assert_eq!(x.intervals, y.intervals);
            assert_eq!(x.detailed_insts, y.detailed_insts);
        }
    }

    #[test]
    fn max_intervals_caps_measurement() {
        let p = kernel();
        let configs = vec![CpuConfig::wide16()];
        let spec = SampleSpec::parse("period=4k,interval=1k,warmup=0,ramp=0,tail=0,intervals=2").unwrap();
        let s = &run_sampled(&configs, &p, u64::MAX, &spec)[0];
        assert_eq!(s.intervals, 2);
        assert_eq!(s.detailed_insts, 2_000);
    }

    #[test]
    fn empty_schedule_falls_back_to_full_run() {
        let p = kernel();
        let configs = vec![CpuConfig::wide16()];
        // Find a seed whose first random start lands beyond the program.
        let full = run_lockstep(&configs, &p, u64::MAX);
        let total = full[0].committed;
        let seed = (0..64)
            .find(|&seed| {
                let spec =
                    SampleSpec::parse(&format!("mode=random,seed={seed},period=100m,interval=1k"))
                        .unwrap();
                Schedule::new(&spec).next() > total
            })
            .expect("a first start beyond the program exists in 64 seeds");
        let spec =
            SampleSpec::parse(&format!("mode=random,seed={seed},period=100m,interval=1k")).unwrap();
        // The whole program, and a budget that ends before the first
        // start as well as before the program does.
        for budget in [u64::MAX, total / 2] {
            let full = run_lockstep(&configs, &p, budget);
            let s = &run_sampled(&configs, &p, budget, &spec)[0];
            assert_eq!(s.stats.to_csv_row(), full[0].to_csv_row(), "fallback is the full run");
            assert_eq!(s.intervals, 1);
            assert_eq!(s.detailed_insts, s.total_insts);
            assert_eq!(s.total_insts, total.min(budget), "the budget caps the run");
        }
    }

    /// Runs the whole kernel in detail with the stats scoped to
    /// `[from, to)` committed instructions.
    fn full_run_window(cfg: &CpuConfig, p: &Program, from: u64, to: u64) -> SimStats {
        let mut emu = Emulator::new(p);
        let initial_sp = emu.reg(Reg::SP);
        let mut pl = Pipeline::new(cfg, initial_sp);
        pl.set_measure_window(from, to);
        let mut pipes = vec![pl];
        drive(&mut pipes, &mut emu, u64::MAX, 1).unwrap();
        pipes.pop().unwrap().finish()
    }

    #[test]
    fn measurement_windows_are_additive() {
        // The snapshot-delta machinery is consistent: two adjacent windows
        // of a continuous run sum to the covering window, counter for
        // counter.
        let p = kernel();
        let cfg = CpuConfig::wide16();
        let a = full_run_window(&cfg, &p, 10_000, 12_000);
        let b = full_run_window(&cfg, &p, 12_000, 14_000);
        let ab = full_run_window(&cfg, &p, 10_000, 14_000);
        assert_eq!(a.committed, 2_000);
        assert_eq!(b.committed, 2_000);
        let mut sum = a;
        sum.accumulate(&b);
        assert_eq!(sum.to_csv_row(), ab.to_csv_row(), "windows do not compose");
    }

    #[test]
    fn sampled_intervals_reproduce_continuous_windows() {
        // With a ramp past the pipeline's path-dependence horizon, an
        // interval measured from a cold-pipeline restart is bit-identical to
        // the same window measured inside one continuous detailed run.
        let p = kernel();
        let cfg = CpuConfig::wide16();
        let configs = vec![cfg.clone()];
        let spec =
            SampleSpec::parse("period=10k,interval=2k,warmup=500,ramp=2k,tail=500,intervals=2")
                .unwrap();
        let sampled = &run_sampled(&configs, &p, u64::MAX, &spec)[0];
        // Intervals at 0 and 10k; reconstruct the same estimate from
        // continuous-run windowed measurements and the strata the driver
        // used (boundaries at measurement ends): [0, 2k) then the rest.
        let w0 = full_run_window(&cfg, &p, 0, 2_000);
        let w1 = full_run_window(&cfg, &p, 10_000, 12_000);
        let total = sampled.total_insts;
        let mut expect = w0.scaled(2_000);
        expect.accumulate(&w1.scaled(total - 2_000));
        expect.committed = total;
        assert_eq!(sampled.stats.to_csv_row(), expect.to_csv_row());
    }

    #[test]
    fn warming_leaves_the_state_a_detailed_run_leaves() {
        // The first `N` instructions once through the pipeline and once
        // through the warming sink, from cold state. Both touch the
        // structures through the same `EngineState` methods in commit
        // order, so the L1s, the SVF, the stack cache, the predictor and
        // the last fetch line are equal by construction. The L2 is not: it
        // serves IL1 and DL1 misses, which a detailed run interleaves by
        // cycle (fetch runs ahead of dispatch) and warming by instruction,
        // so its equality is a finding on these kernels and machines, not
        // a property of the code.
        const N: u64 = 150_000;
        let mut svf = CpuConfig::wide16().with_ports(2, 2);
        svf.stack_engine = StackEngine::Svf;
        svf.predictor = PredictorKind::Gshare;
        let mut stack_cache = CpuConfig::wide8().with_ports(2, 2);
        stack_cache.stack_engine = StackEngine::StackCache;
        let mut small_dl1 = CpuConfig::wide4();
        small_dl1.hierarchy.dl1.size_bytes = 4 << 10;
        small_dl1.predictor = PredictorKind::Gshare;
        let machines = [
            ("svf gshare", svf),
            ("stack cache", stack_cache),
            ("wide4 4KB DL1 gshare", small_dl1),
            ("wide16", CpuConfig::wide16()),
        ];
        for kernel in ["twolf", "gcc", "vortex", "mcf"] {
            let p = svf_workloads::workload(kernel)
                .expect("kernel exists")
                .compile(svf_workloads::Scale::Test)
                .expect("kernel compiles");
            for (machine, cfg) in &machines {
                let mut emu = Emulator::new(&p);
                let initial_sp = emu.reg(Reg::SP);
                let mut pipes = vec![Pipeline::new(cfg, initial_sp)];
                drive(&mut pipes, &mut emu, N, 1).expect("kernel runs");
                let (_, detailed) = pipes.pop().expect("one pipeline").finish_into_state();

                let mut emu = Emulator::new(&p);
                let heap_base = emu.heap_base();
                let mut warmed = [EngineState::new(cfg, initial_sp)];
                emu.run_with(N, &mut Warming { states: &mut warmed, heap_base })
                    .expect("kernel runs");
                let [warmed] = warmed;

                let case = format!("{kernel} on {machine}");
                assert!(emu.steps() > 50_000, "{case}: only {} instructions", emu.steps());
                assert!(warmed.hier.il1() == detailed.hier.il1(), "{case}: IL1 differs");
                assert!(warmed.hier.dl1() == detailed.hier.dl1(), "{case}: DL1 differs");
                assert!(warmed.hier.l2() == detailed.hier.l2(), "{case}: L2 differs");
                assert!(warmed.predictor == detailed.predictor, "{case}: predictor differs");
                // The rest: the stack engine and the last fetch line.
                assert!(warmed == detailed, "{case}: stack engine or fetch line differs");
            }
        }
    }

    #[test]
    fn respects_the_instruction_budget() {
        let p = kernel();
        let configs = vec![CpuConfig::wide16()];
        let spec = SampleSpec::parse("period=2k,interval=1k,warmup=100").unwrap();
        let s = &run_sampled(&configs, &p, 10_000, &spec)[0];
        assert_eq!(s.total_insts, 10_000, "budget caps the functional total");
        assert!(s.detailed_insts <= 10_000);
        assert_eq!(s.stats.committed, 10_000);
    }
}
