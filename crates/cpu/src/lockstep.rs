//! One functional stream, N timing models: batched lockstep simulation,
//! and [`simulate`], the one entry point every run goes through.
//!
//! A multi-config sweep used to run the functional emulator once *per
//! configuration*. Here the stream is produced once per (program, input):
//! a [`FactsSource`] writes, for each committed instruction, the
//! config-independent [`Facts`] every fetch and dispatch needs (static
//! source/destination registers and classes, dependence chains, memory
//! classification, aliasing store chains, the new `$sp`, the control kind
//! and target) straight into a shared facts-only [`Window`], and every
//! [`Pipeline`] walks the same window in lockstep — paying only for its own
//! config-*dependent* timing. A live run writes the facts from inside the
//! emulator's stepping loop ([`Emulator::run_with`] with [`Fill`] as its
//! sink), so no committed-instruction record is ever built; `.svft` replay
//! feeds the same [`FactsBuilder`] from the [`Retired`] records it decodes.
//!
//! Lockstep is timing-invisible: a pipeline only simulates a cycle when the
//! window holds at least a full fetch group (or the stream has ended), so
//! fetch can never starve mid-cycle on window chunking — every per-cycle
//! decision is identical to a live single-config run, and
//! `tests/golden_stats.rs` pins the equivalence bit-for-bit.
//!
//! # Stream-invariant precomputation
//!
//! Two tables that used to live per-pipeline are provably functions of the
//! instruction stream alone, so the builder maintains them once:
//!
//! * **Rename chains.** The live pipeline's `reg_producer` table maps each
//!   register to its youngest earlier writer's seq; commit-time clearing
//!   only ever removes writers older than the consumer's commit head, which
//!   dispatch filters out anyway (`p >= head_seq`). So "youngest earlier
//!   writer" is a pure stream property, stored per instruction in
//!   [`Facts::deps`] and head-filtered per config at dispatch.
//! * **Alias chains.** The [`AliasTable`] maps each quad-word to its
//!   youngest earlier store (split `$sp`/other base). Commit-time retire
//!   also only blanks already-committed seqs — invisible behind the same
//!   head filter — so the youngest-earlier-store pair is stored per
//!   instruction in [`Facts::prev_sp`]/[`Facts::prev_other`]. The same
//!   filter bounds the table: no config holds a store in flight once the
//!   stream is the batch's largest RUU past it, so [`drive`] hands the
//!   builder that horizon and the table forgets older stores, which read
//!   as [`NO_SEQ`] instead of a seq every consumer filters out. Per-stream
//!   state is bounded by what the machines hold in flight, not by how
//!   many quad-words the program writes.

use std::any::Any;
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock};

use svf_emu::{
    Commit, Emulator, RecordSource, Retired, RunOutcome, StepSink, StreamError, TraceSource,
};
use svf_isa::{ControlKind, MemRegion, Program, Reg, StaticInfo, NO_REG};

use crate::alias::{AliasTable, NO_SEQ};
use crate::config::CpuConfig;
use crate::pipeline::Pipeline;
use crate::sampling::{self, SampleSpec, SampledStats};
use crate::stats::SimStats;

/// Shared lockstep window capacity in instructions. Bounded so the facts
/// stay cache-resident while the whole fan-out streams over them; every
/// simulated machine's `ifq_size + width` must stay below it so retention
/// (`keep`) never blocks production. A power of two, so the window holds
/// exactly this many.
pub const LOCKSTEP_WINDOW: usize = 1024;

/// `Facts::flags` bits. The static ones are the [`StaticInfo`] bits
/// themselves, so the builder copies them with one mask; the low five
/// double as the pipeline's commit flags (see [`COMMIT_FLAG_MASK`]).
pub(crate) const F_MEM: u8 = StaticInfo::MEM;
pub(crate) const F_STORE: u8 = StaticInfo::STORE;
pub(crate) const F_SP_BASE: u8 = StaticInfo::SP_BASE;
pub(crate) const F_STACK: u8 = 1 << 3;
pub(crate) const F_CONTROL: u8 = 1 << 4;
pub(crate) const F_TAKEN: u8 = 1 << 5;
/// The instruction writes `$sp` (the SVF must observe it at decode).
pub(crate) const F_SP_UPDATE: u8 = StaticInfo::WRITES_SP;
/// Non-immediate `$sp` writer: decode interlocks on it (§3.1).
pub(crate) const F_SP_INTERLOCK: u8 = StaticInfo::SP_INTERLOCK;

/// The [`StaticInfo`] bits copied into `Facts::flags` verbatim.
const STATIC_FLAGS: u8 = F_MEM | F_STORE | F_SP_BASE | F_SP_UPDATE | F_SP_INTERLOCK;

/// The `Facts::flags` bits the pipeline stores verbatim in its commit-flags
/// lane.
pub(crate) const COMMIT_FLAG_MASK: u8 = F_MEM | F_STORE | F_SP_BASE | F_STACK | F_CONTROL;

/// "No producer recorded" (same sentinel as the alias table's [`NO_SEQ`]).
pub(crate) const NO_PRODUCER: u64 = u64::MAX;

/// Everything config-independent that fetch and dispatch need from one
/// committed instruction, built once per stream and read by every timing
/// model. One cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Facts {
    /// Seqs of the youngest earlier writers of this instruction's source
    /// registers, in source order (`NO_PRODUCER`-free; only live entries
    /// are stored). Consumers filter against their own commit head.
    pub deps: [u64; 2],
    /// Memory effective address under [`F_MEM`]; under [`F_CONTROL`] the
    /// control target (the next PC, the fall-through for a branch not
    /// taken); otherwise `0`.
    pub addr: u64,
    /// Youngest earlier `$sp`-based store to the same quad-word, or
    /// [`NO_SEQ`] (meaningful under [`F_MEM`]).
    pub prev_sp: u64,
    /// Youngest earlier non-`$sp` store to the same quad-word, or
    /// [`NO_SEQ`].
    pub prev_other: u64,
    /// Instruction address (fetch: I-cache line accounting, the predictor).
    pub pc: u64,
    /// `$sp` after the instruction (the SVF's decode-time update under
    /// [`F_SP_UPDATE`]).
    pub new_sp: u64,
    /// `F_*` property bits.
    pub flags: u8,
    /// Bit `i` set when `deps[i]`'s source register is `$sp` (the SVF drops
    /// that dependence when it resolves the address early).
    pub dep_sp: u8,
    /// Number of live entries in `deps`.
    pub ndeps: u8,
    /// Destination register number, or [`NO_REG`].
    pub dest: u8,
    /// Memory access size in bytes (meaningful under [`F_MEM`]).
    pub size: u8,
    /// Non-memory execution class: 0 ALU, 1 multiply, 2 divide.
    pub kind: u8,
    /// How the instruction transfers control (what gshare trains on).
    pub control: ControlKind,
}

impl Facts {
    pub(crate) const EMPTY: Facts = Facts {
        deps: [0; 2],
        addr: 0,
        prev_sp: NO_SEQ,
        prev_other: NO_SEQ,
        pc: 0,
        new_sp: 0,
        flags: 0,
        dep_sp: 0,
        ndeps: 0,
        dest: NO_REG,
        size: 0,
        kind: 0,
        control: ControlKind::None,
    };
}

/// Stream-side state for fact building: the rename table and the alias
/// table, maintained exactly once per stream (see the module docs for the
/// equivalence argument).
#[derive(Debug)]
pub(crate) struct FactsBuilder {
    reg_producer: [u64; 32],
    alias: AliasTable,
    heap_base: u64,
}

impl FactsBuilder {
    /// A builder for a stream whose program has its heap at `heap_base`
    /// (memory-region classification), read by configs whose RUUs hold at
    /// most `horizon` instructions.
    pub(crate) fn new(heap_base: u64, horizon: u64) -> FactsBuilder {
        FactsBuilder {
            reg_producer: [NO_PRODUCER; 32],
            alias: AliasTable::new(horizon),
            heap_base,
        }
    }

    /// Writes the [`Facts`] of instruction `seq` at `pc` into `f`, advancing
    /// the stream tables. `addr` is its effective address (memory
    /// references), `taken` and `next_pc` its control outcome, and `new_sp`
    /// `$sp` after it. `f` is a window slot still holding an older
    /// instruction's facts, so every field is written; building in place
    /// spares the hot loop a 64-byte copy per instruction.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        f: &mut Facts,
        seq: u64,
        pc: u64,
        info: &StaticInfo,
        addr: u64,
        taken: bool,
        next_pc: u64,
        new_sp: u64,
    ) {
        f.pc = pc;
        f.new_sp = new_sp;
        f.control = info.control;
        f.dest = info.dest;
        f.flags = info.flags & STATIC_FLAGS;
        if info.is_mem() {
            if MemRegion::classify(addr, self.heap_base).is_stack() {
                f.flags |= F_STACK;
            }
            f.addr = addr;
            f.size = info.size;
            f.kind = 0;
            let qw = addr / 8;
            // Probe before recording, exactly like live dispatch: a store
            // must not see itself as its own aliasing predecessor.
            (f.prev_sp, f.prev_other) = self.alias.get(qw);
            if info.is_store() {
                self.alias.record(qw, seq, info.flags & StaticInfo::SP_BASE != 0);
            }
        } else {
            f.addr = 0;
            f.size = 0;
            f.kind = info.class;
            f.prev_sp = NO_SEQ;
            f.prev_other = NO_SEQ;
            if info.is_control() {
                f.flags |= F_CONTROL;
                if taken {
                    f.flags |= F_TAKEN;
                }
                f.addr = next_pc;
            }
        }
        // Sources before destination: an instruction reading its own
        // destination depends on the *previous* writer.
        f.deps = [0; 2];
        f.dep_sp = 0;
        f.ndeps = 0;
        for &src in &info.srcs {
            if src == NO_REG {
                break;
            }
            let p = self.reg_producer[usize::from(src)];
            if p != NO_PRODUCER {
                f.deps[f.ndeps as usize] = p;
                if src == Reg::SP.number() {
                    f.dep_sp |= 1 << f.ndeps;
                }
                f.ndeps += 1;
            }
        }
        if info.dest != NO_REG {
            self.reg_producer[usize::from(info.dest)] = seq;
        }
    }
}

/// Writes the facts of each instruction it is handed into a window slot,
/// seq after seq: the emulator's [`StepSink`] for a live stream, fed
/// [`Retired`] records for a replayed one.
pub(crate) struct Fill<'w> {
    builder: &'w mut FactsBuilder,
    facts: &'w mut [Facts],
    mask: u64,
    /// Seq of the next instruction.
    hi: u64,
}

impl StepSink for Fill<'_> {
    #[inline]
    fn commit(&mut self, c: &Commit<'_>) {
        let f = &mut self.facts[(self.hi & self.mask) as usize];
        self.builder.build(f, self.hi, c.pc, c.info(), c.addr, c.taken, c.next_pc, c.sp_after);
        self.hi += 1;
    }
}

impl Fill<'_> {
    /// The facts of a decoded record: the same builder, with the record's
    /// instruction classified on the spot.
    fn push_retired(&mut self, r: &Retired) {
        let addr = match (r.mem, r.control) {
            (Some(m), _) => m.addr,
            (None, Some(c)) => c.target,
            (None, None) => 0,
        };
        let taken = r.control.is_some_and(|c| c.taken);
        let new_sp = r.sp_update.map_or(r.sp_before, |u| u.new_sp);
        let info = StaticInfo::of(&r.inst);
        let f = &mut self.facts[(self.hi & self.mask) as usize];
        self.builder.build(f, self.hi, r.pc, &info, addr, taken, r.next_pc, new_sp);
        self.hi += 1;
    }
}

/// A producer of a committed-instruction stream for the lockstep window.
pub(crate) trait FactsSource {
    /// The program's heap base (memory-region classification).
    fn heap_base(&self) -> u64;

    /// Hands up to `n` more instructions to `fill`; `Ok(false)` once the
    /// stream has ended (it is never called again then).
    ///
    /// # Errors
    ///
    /// Functional faults / trace corruption, via [`StreamError`].
    fn produce(&mut self, n: u64, fill: &mut Fill<'_>) -> Result<bool, StreamError>;
}

/// Live execution: the facts are written from inside the stepping loop.
impl FactsSource for Emulator {
    fn heap_base(&self) -> u64 {
        Emulator::heap_base(self)
    }

    fn produce(&mut self, n: u64, fill: &mut Fill<'_>) -> Result<bool, StreamError> {
        Ok(self.run_with(n, fill)? == RunOutcome::StepLimit)
    }
}

/// `.svft` replay: each decoded record goes through the same builder.
impl<R: Read> FactsSource for TraceSource<R> {
    fn heap_base(&self) -> u64 {
        RecordSource::heap_base(self)
    }

    fn produce(&mut self, n: u64, fill: &mut Fill<'_>) -> Result<bool, StreamError> {
        let mut r = Retired::PLACEHOLDER;
        for _ in 0..n {
            if !self.next_record(&mut r)? {
                return Ok(false);
            }
            fill.push_retired(&r);
        }
        Ok(true)
    }
}

/// The shared stream a pipeline advances over: a bounded, seq-indexed ring
/// of [`Facts`]. Facts live at `seq & mask`; the window covers
/// `[oldest live seq, hi())`, where the caller of [`Window::fill`] defines
/// "oldest live".
#[derive(Debug)]
pub(crate) struct Window {
    facts: Box<[Facts]>,
    mask: u64,
    hi: u64,
    /// The stream's instruction budget.
    limit: u64,
    done: bool,
}

impl Window {
    /// A window of `capacity` instructions (a power of two) over a stream
    /// of at most `limit`.
    fn new(capacity: usize, limit: u64) -> Window {
        debug_assert!(capacity.is_power_of_two());
        Window {
            facts: vec![Facts::EMPTY; capacity].into_boxed_slice(),
            mask: capacity as u64 - 1,
            hi: 0,
            limit,
            done: false,
        }
    }

    /// Facts for `seq`, which must still be resident.
    #[inline]
    pub(crate) fn fact(&self, seq: u64) -> &Facts {
        debug_assert!(seq < self.hi && self.hi - seq <= self.mask + 1, "seq {seq} not resident");
        &self.facts[(seq & self.mask) as usize]
    }

    /// Instructions produced so far (exclusive upper seq bound).
    #[inline]
    pub(crate) fn hi(&self) -> u64 {
        self.hi
    }

    /// Whether the stream has ended (halt or budget).
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    /// Produces from `src` through `builder` until the window is full
    /// relative to `keep` (the oldest seq any consumer still needs), the
    /// budget is reached, or the stream ends.
    fn fill<S: FactsSource + ?Sized>(
        &mut self,
        src: &mut S,
        builder: &mut FactsBuilder,
        keep: u64,
    ) -> Result<(), StreamError> {
        debug_assert!(keep <= self.hi, "cannot retain instructions never produced");
        let room = keep.saturating_add(self.mask + 1).min(self.limit);
        if self.done || self.hi >= room {
            self.done |= self.hi >= self.limit;
            // The window always has ifq+width headroom over the slowest
            // consumer, so a fill with no room means the stream ended and
            // the pipelines are draining; anything else would loop forever.
            debug_assert!(self.done, "lockstep window stalled");
            return Ok(());
        }
        let mut fill = Fill { builder, facts: &mut self.facts, mask: self.mask, hi: self.hi };
        let more = src.produce(room - self.hi, &mut fill)?;
        self.hi = fill.hi;
        self.done = !more || self.hi >= self.limit;
        Ok(())
    }
}

/// What [`simulate`] runs over. A trace has no emulator to fast-forward,
/// so the type cannot express a sampled trace.
#[derive(Debug)]
pub enum Source<'a, R: Read = std::io::Empty> {
    /// A live run of a program.
    Live {
        /// The program.
        program: &'a Program,
        /// The sampling plan; `None` runs every instruction in detail.
        sample: Option<&'a SampleSpec>,
    },
    /// A `.svft` trace, replayed in full detail: bit-identical to the live
    /// run that captured it.
    Trace(TraceSource<R>),
}

impl<'a> Source<'a> {
    /// [`Source::Live`] (a constructor, so the unused trace reader type
    /// needs no annotation).
    #[must_use]
    pub fn live(program: &'a Program, sample: Option<&'a SampleSpec>) -> Source<'a> {
        Source::Live { program, sample }
    }
}

/// How [`simulate`] runs its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Committed-instruction budget of the stream.
    pub max_insts: u64,
    /// Timing threads (the caller's included), clamped to
    /// `[1, configs.len()]`; results are bit-identical at any fan-out.
    pub fanout: usize,
}

/// Runs every configuration over one shared stream from `source` — the
/// emulator or the trace reader runs once, not once per config — and
/// returns per-config results in input order, each bit-identical to
/// running that config alone. A full run or a trace replay reports one
/// interval covering the whole run.
///
/// # Errors
///
/// A functional fault ([`StreamError::Emu`]) or a truncated or corrupt
/// trace ([`StreamError::Trace`]).
///
/// # Panics
///
/// On a pipeline deadlock (a simulator bug), with the same payload at any
/// fan-out, or a sampling plan that fails [`SampleSpec::validate`].
pub fn simulate<R: Read>(
    configs: &[CpuConfig],
    source: Source<'_, R>,
    opts: &RunOptions,
) -> Result<Vec<SampledStats>, StreamError> {
    match source {
        Source::Live { program, sample: Some(spec) } => {
            sampling::sample(configs, program, spec, opts)
        }
        Source::Live { program, sample: None } => {
            let mut emu = Emulator::new(program);
            let initial_sp = emu.reg(Reg::SP);
            run_full(configs, &mut emu, initial_sp, opts)
        }
        Source::Trace(mut src) => {
            let initial_sp = src.initial_sp();
            run_full(configs, &mut src, initial_sp, opts)
        }
    }
}

/// A full detailed run of every config over `src`, whose stream starts
/// with `$sp` at `initial_sp`.
pub(crate) fn run_full<S: FactsSource>(
    configs: &[CpuConfig],
    src: &mut S,
    initial_sp: u64,
    opts: &RunOptions,
) -> Result<Vec<SampledStats>, StreamError> {
    let mut pipes: Vec<Pipeline> = configs.iter().map(|c| Pipeline::new(c, initial_sp)).collect();
    drive(&mut pipes, src, opts.max_insts, opts.fanout)?;
    Ok(pipes.into_iter().map(|p| SampledStats::whole_run(p.finish())).collect())
}

/// [`simulate`] over a live program in full detail. Panics on a
/// functional fault or a pipeline deadlock. Kept because the repository
/// benchmark (`e2e-bench/`) calls it.
#[must_use]
pub fn run_lockstep(configs: &[CpuConfig], program: &Program, max_insts: u64) -> Vec<SimStats> {
    run_lockstep_fanout(configs, program, max_insts, 1)
}

/// [`simulate`] over a live program in full detail at `fanout` timing
/// threads. Panics on a functional fault or a pipeline deadlock. Kept
/// because the repository benchmark (`e2e-bench/`) calls it.
#[must_use]
pub fn run_lockstep_fanout(
    configs: &[CpuConfig],
    program: &Program,
    max_insts: u64,
    fanout: usize,
) -> Vec<SimStats> {
    simulate(configs, Source::live(program, None), &RunOptions { max_insts, fanout })
        .unwrap_or_else(|e| panic!("functional fault during simulation: {e}"))
        .into_iter()
        .map(|s| s.stats)
        .collect()
}

/// [`simulate`] over a live program sampled under `spec`. Panics on a
/// functional fault, a pipeline deadlock or an invalid `spec`. Kept
/// because the repository benchmark (`e2e-bench/`) calls it.
#[must_use]
pub fn run_sampled(
    configs: &[CpuConfig],
    program: &Program,
    max_insts: u64,
    spec: &SampleSpec,
) -> Vec<SampledStats> {
    simulate(configs, Source::live(program, Some(spec)), &RunOptions { max_insts, fanout: 1 })
        .unwrap_or_else(|e| panic!("functional fault during sampled simulation: {e}"))
}

/// Drives already-constructed pipelines over `src` until they all drain
/// (stream halt or `max_insts` committed instructions): the one drive loop
/// behind [`crate::simulate`], which sampled simulation also runs once per
/// measured interval, with pipelines built from warm [`EngineState`]s and
/// an emulator positioned mid-program.
///
/// The calling thread leads: it owns the source and the facts builder,
/// fills the window between rounds, and advances its own chunk of the
/// pipelines in each round. Above fan-out 1 (clamped to `pipes.len()`),
/// `fanout - 1` scoped workers advance the other chunks behind a
/// [`Rendezvous`]; at fan-out 1 none exists, so a round touches no barrier,
/// lock or atomic. Results are bit-identical at any fan-out: the fill
/// sequence depends only on the global minimum dispatch point, which the
/// chunks accumulate exactly, and each `Pipeline::advance` reads nothing
/// but the immutable window and its own state. A worker's panic reaches
/// the caller with its original payload.
///
/// [`EngineState`]: crate::pipeline::EngineState
pub(crate) fn drive<S: FactsSource>(
    pipes: &mut [Pipeline],
    src: &mut S,
    max_insts: u64,
    fanout: usize,
) -> Result<(), StreamError> {
    for p in pipes.iter() {
        let cfg = p.config();
        assert!(
            cfg.ifq_size + cfg.width < LOCKSTEP_WINDOW,
            "IFQ {} + width {} must fit the {LOCKSTEP_WINDOW}-instruction lockstep window",
            cfg.ifq_size,
            cfg.width
        );
    }
    let horizon = pipes.iter().map(|p| p.config().ruu_size as u64).max().unwrap_or(0);
    let builder = FactsBuilder::new(src.heap_base(), horizon);
    let win = Window::new(LOCKSTEP_WINDOW, max_insts);
    let fanout = fanout.clamp(1, pipes.len().max(1));
    if fanout == 1 {
        return lead(pipes, src, builder, Crew::Alone(win));
    }
    let rv = Rendezvous {
        window: RwLock::new(win),
        start: Barrier::new(fanout),
        end: Barrier::new(fanout),
        min_head: AtomicU64::new(0),
        all_done: AtomicBool::new(true),
        stop: AtomicBool::new(false),
        panicked: Mutex::new(None),
    };
    // Exactly `fanout` chunks, sizes differing by at most one (plain
    // `chunks_mut` could come up short — 4 pipes over 3 threads would
    // yield 2 chunks of 2 and deadlock the 3-party barriers).
    let mut chunks = Vec::with_capacity(fanout);
    let mut rest = pipes;
    for i in 0..fanout {
        let (head, tail) = rest.split_at_mut(rest.len().div_ceil(fanout - i));
        chunks.push(head);
        rest = tail;
    }
    let mut chunks = chunks.into_iter();
    let leader_chunk = chunks.next().expect("fanout > 1 implies pipelines");
    let result = std::thread::scope(|scope| {
        for worker_pipes in chunks {
            let rv = &rv;
            scope.spawn(move || worker_loop(worker_pipes, rv));
        }
        lead(leader_chunk, src, builder, Crew::Shared(&rv))
    });
    // The scope has joined: re-raise a worker (or leader-chunk) panic on
    // the calling thread with its original payload.
    let payload = rv.panicked.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    result
}

/// The leader's loop: run rounds until every pipeline has drained. Every
/// pipeline starts dispatching at seq 0; after that, instructions older
/// than every dispatch point are dead and the window may overwrite them (a
/// finished pipeline's dispatch point sits at the final stream length, so
/// it never constrains).
fn lead<S: FactsSource>(
    chunk: &mut [Pipeline],
    src: &mut S,
    mut builder: FactsBuilder,
    mut crew: Crew<'_>,
) -> Result<(), StreamError> {
    let mut keep = 0;
    let result = loop {
        match crew.round(chunk, src, &mut builder, keep) {
            Ok((false, head)) => keep = head,
            Ok((true, _)) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    crew.stop();
    result
}

/// Who advances the pipelines outside the leader's chunk.
enum Crew<'r> {
    /// Fan-out 1: the leader owns the window and every pipeline.
    Alone(Window),
    /// Workers advance the other chunks; the rendezvous owns the window.
    Shared(&'r Rendezvous),
}

impl Crew<'_> {
    /// One round: fill the window past `keep`, then let every chunk
    /// advance as far as it allows. Returns whether the drive is over
    /// (every pipeline drained, or a chunk panicked) and the minimum
    /// dispatch point, the next `keep`.
    fn round<S: FactsSource>(
        &mut self,
        chunk: &mut [Pipeline],
        src: &mut S,
        builder: &mut FactsBuilder,
        keep: u64,
    ) -> Result<(bool, u64), StreamError> {
        Ok(match self {
            Crew::Alone(win) => {
                win.fill(src, builder, keep)?;
                advance_all(chunk, win)
            }
            Crew::Shared(rv) => {
                // Every worker is parked at, or headed to, the start
                // barrier, so the write lock is uncontended.
                rv.window.write().unwrap_or_else(PoisonError::into_inner).fill(src, builder, keep)?;
                rv.min_head.store(u64::MAX, Ordering::Release);
                rv.all_done.store(true, Ordering::Release);
                rv.start.wait();
                advance_chunk(chunk, rv);
                rv.end.wait();
                let done = rv.has_panicked() || rv.all_done.load(Ordering::Acquire);
                (done, rv.min_head.load(Ordering::Acquire))
            }
        })
    }

    /// Releases the workers for good.
    fn stop(&self) {
        if let Crew::Shared(rv) = self {
            rv.stop.store(true, Ordering::Release);
            rv.start.wait();
        }
    }
}

/// Advances every pipeline of `pipes` over `win`: whether all have
/// drained, and their minimum dispatch point.
fn advance_all(pipes: &mut [Pipeline], win: &Window) -> (bool, u64) {
    let mut done = true;
    let mut head = u64::MAX;
    for p in pipes.iter_mut() {
        done &= p.advance(win);
        head = head.min(p.ifq_head());
    }
    (done, head)
}

/// Rendezvous state for a drive at fan-out above 1: the shared window, the
/// two round barriers, and the accumulators each chunk folds its progress
/// into during a round (reset by the leader between rounds).
///
/// The leader mutates the window exclusively between rounds (write lock
/// while every worker is parked at the round-start barrier); workers only
/// ever read it, concurrently, during a round. The barriers are what
/// actually serialize the two phases — the lock is never contended — but
/// the lock is how the borrow checker sees that production and consumption
/// cannot overlap.
struct Rendezvous {
    window: RwLock<Window>,
    /// Round start: workers block here while the leader owns the window.
    start: Barrier,
    /// Round end: the leader blocks here until every chunk has advanced.
    end: Barrier,
    /// Minimum dispatch point across all chunks (the next fill's `keep`).
    min_head: AtomicU64,
    /// Whether every pipeline in every chunk has drained.
    all_done: AtomicBool,
    /// Leader's termination signal, checked by workers after `start`.
    stop: AtomicBool,
    /// First panic payload out of any chunk, re-raised by the leader once
    /// every thread has parked (so the scope joins cleanly first).
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Rendezvous {
    /// Parks the payload of a panicking chunk; first writer wins.
    fn park_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panicked.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(payload);
    }

    fn has_panicked(&self) -> bool {
        self.panicked.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }
}

/// Advances one chunk of pipelines for one round, folding its progress
/// into the shared accumulators. A panicking pipeline (e.g. the deadlock
/// assert) is caught so this thread still reaches the end-of-round
/// barrier instead of deadlocking the others; the payload is parked for
/// the leader to re-raise.
fn advance_chunk(pipes: &mut [Pipeline], rv: &Rendezvous) {
    let advanced = catch_unwind(AssertUnwindSafe(|| {
        advance_all(pipes, &rv.window.read().unwrap_or_else(PoisonError::into_inner))
    }));
    match advanced {
        Ok((done, head)) => {
            if !done {
                rv.all_done.store(false, Ordering::Release);
            }
            rv.min_head.fetch_min(head, Ordering::AcqRel);
        }
        Err(payload) => rv.park_panic(payload),
    }
}

/// A worker thread's whole life: wait for the round to open, advance its
/// chunk, signal the round closed; exit when the leader raises `stop`.
fn worker_loop(pipes: &mut [Pipeline], rv: &Rendezvous) {
    loop {
        rv.start.wait();
        if rv.stop.load(Ordering::Acquire) {
            return;
        }
        advance_chunk(pipes, rv);
        rv.end.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuConfig, StackEngine};
    use crate::pipeline::Simulator;
    use crate::{run_lockstep, run_lockstep_fanout, simulate, RunOptions, Source};
    use svf_emu::{TraceReader, TraceWriter};
    use svf_isa::{Program, Reg, STACK_BASE};

    /// The whole stream, on one timing thread.
    const WHOLE_RUN: RunOptions = RunOptions { max_insts: u64::MAX, fanout: 1 };

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
                for (int i = 0; i < 25; i = i + 1) s = s + work(i);
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
        vec![CpuConfig::wide16(), svf_cfg, sc_cfg, CpuConfig::wide4()]
    }

    #[test]
    fn lockstep_matches_independent_runs() {
        let p = kernel();
        let configs = config_set();
        let together = run_lockstep(&configs, &p, u64::MAX);
        for (cfg, got) in configs.iter().zip(&together) {
            let alone = Simulator::new(cfg.clone()).run(&p, u64::MAX);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged in lockstep");
        }
    }

    #[test]
    fn lockstep_respects_the_instruction_budget() {
        let p = kernel();
        let configs = config_set();
        let capped = run_lockstep(&configs, &p, 1000);
        for (cfg, got) in configs.iter().zip(&capped) {
            let alone = Simulator::new(cfg.clone()).run(&p, 1000);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged under budget");
        }
    }

    #[test]
    fn fanout_is_bit_identical_to_serial() {
        let p = kernel();
        let configs = config_set();
        let serial = run_lockstep(&configs, &p, u64::MAX);
        // 3 exercises a ragged chunking (4 pipes over 3 threads); 8 clamps
        // to one pipe per thread.
        for fanout in [2, 3, 4, 8] {
            let threaded = run_lockstep_fanout(&configs, &p, u64::MAX, fanout);
            for ((cfg, a), b) in configs.iter().zip(&serial).zip(&threaded) {
                assert_eq!(
                    a.to_csv_row(),
                    b.to_csv_row(),
                    "{cfg:?} diverged at fanout {fanout}"
                );
            }
        }
    }

    #[test]
    fn fanout_respects_the_instruction_budget() {
        let p = kernel();
        let configs = config_set();
        let serial = run_lockstep(&configs, &p, 1000);
        let threaded = run_lockstep_fanout(&configs, &p, 1000, 4);
        for ((cfg, a), b) in configs.iter().zip(&serial).zip(&threaded) {
            assert_eq!(a.to_csv_row(), b.to_csv_row(), "{cfg:?} diverged under budget");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        // A zero-width machine never commits, so its pipeline trips the
        // deadlock assert on whatever thread advances it; the caller must
        // observe the original panic message (the harness keys its
        // bisection/quarantine path off it).
        let p = kernel();
        let mut configs = config_set();
        configs.push(CpuConfig { width: 0, ..CpuConfig::wide4() });
        let msg = deadlock_message(|| run_lockstep_fanout(&configs, &p, u64::MAX, 4));
        assert!(msg.contains("pipeline deadlock"), "unexpected panic payload: {msg:?}");
    }

    /// Runs `f`, which must panic, and returns the panic message.
    fn deadlock_message<T>(f: impl FnOnce() -> T) -> String {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let payload = caught.err().expect("a deadlocked pipeline must panic the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn an_entry_with_no_unit_of_its_class_never_issues() {
        // An SVF with no ports (a machine the config space rejects, built
        // in code): a morphed load that needs a port stays unissued. The
        // issue reservation must give up on it rather than probe forever,
        // so the run fails loudly through the deadlock assert.
        let p = kernel();
        let mut cfg = CpuConfig::wide16().with_ports(2, 0);
        cfg.stack_engine = StackEngine::Svf;
        let msg = deadlock_message(|| Simulator::new(cfg).run(&p, u64::MAX));
        assert!(msg.contains("pipeline deadlock"), "unexpected panic payload: {msg:?}");
        assert!(msg.contains(&format!("issue_at {}", u64::MAX)), "the head never issued: {msg}");
    }

    #[test]
    fn trace_replay_matches_live_execution() {
        let p = kernel();
        // Capture the stream once.
        let mut emu = svf_emu::Emulator::new(&p);
        let initial_sp = emu.reg(Reg::SP);
        assert_eq!(initial_sp, STACK_BASE);
        let mut w =
            TraceWriter::new(Vec::new(), p.entry, p.heap_base, initial_sp).expect("header");
        while !emu.is_halted() {
            w.push(&emu.step().expect("runs")).expect("writes");
        }
        let bytes = w.finish().expect("finish");
        // Replay it under every config and compare against live runs.
        let configs = config_set();
        let src = TraceSource::new(TraceReader::new(bytes.as_slice()).expect("header"));
        let replayed =
            simulate(&configs, Source::Trace(src), &WHOLE_RUN).expect("replays");
        for (cfg, got) in configs.iter().zip(&replayed) {
            let alone = Simulator::new(cfg.clone()).run(&p, u64::MAX);
            assert_eq!(got.stats.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged on replay");
            assert_eq!((got.intervals, got.detailed_insts), (1, got.total_insts), "one whole run");
        }
    }

    #[test]
    fn live_facts_equal_the_facts_of_the_replayed_records() {
        // The two producers of one stream: the emulator's stepping loop
        // writing facts directly, and `.svft` replay rebuilding them from
        // the decoded records of the same run. Every field must agree —
        // dependences, alias chains, the new `$sp`, the control kind and
        // target — over every instruction of every kernel.
        for w in svf_workloads::all() {
            let p = w.compile(svf_workloads::Scale::Test).expect("kernel compiles");
            let mut capture = svf_emu::Emulator::new(&p);
            let mut writer =
                TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE).expect("header");
            while !capture.is_halted() {
                writer.push(&capture.step().expect("kernel runs")).expect("writes");
            }
            let bytes = writer.finish().expect("finish");
            let mut replay = TraceSource::open(bytes.as_slice()).expect("opens");

            let mut live = svf_emu::Emulator::new(&p);
            let horizon = CpuConfig::wide16().ruu_size as u64;
            let mut live_b = FactsBuilder::new(p.heap_base, horizon);
            let mut replay_b = FactsBuilder::new(p.heap_base, horizon);
            let (mut live_w, mut replay_w) =
                (Window::new(LOCKSTEP_WINDOW, u64::MAX), Window::new(LOCKSTEP_WINDOW, u64::MAX));
            let mut seq = 0;
            while !live_w.done() {
                live_w.fill(&mut live, &mut live_b, seq).expect("live stream");
                replay_w.fill(&mut replay, &mut replay_b, seq).expect("replayed stream");
                assert_eq!(live_w.hi(), replay_w.hi(), "{}: stream lengths", w.name);
                for s in seq..live_w.hi() {
                    assert_eq!(live_w.fact(s), replay_w.fact(s), "{}: facts of seq {s}", w.name);
                }
                seq = live_w.hi();
            }
            assert!(replay_w.done(), "{}: the replay ends with the run", w.name);
            assert_eq!(seq, capture.steps(), "{}: every instruction compared", w.name);
        }
    }

    #[test]
    fn the_alias_table_keeps_its_initial_capacity_on_every_kernel() {
        // The whole stream of every Test-scale kernel, built as a detailed
        // wide16 run builds it: the table never outgrows its first 2,048
        // slots, however many quad-words the kernel writes.
        let horizon = CpuConfig::wide16().ruu_size as u64;
        let initial = AliasTable::new(horizon).capacity();
        for w in svf_workloads::all() {
            let p = w.compile(svf_workloads::Scale::Test).expect("kernel compiles");
            let mut emu = svf_emu::Emulator::new(&p);
            let mut builder = FactsBuilder::new(p.heap_base, horizon);
            let mut win = Window::new(LOCKSTEP_WINDOW, u64::MAX);
            while !win.done() {
                let hi = win.hi();
                win.fill(&mut emu, &mut builder, hi).expect("kernel runs");
            }
            assert!(emu.is_halted(), "{}: the whole program ran", w.name);
            assert_eq!(builder.alias.capacity(), initial, "{}: alias table grew", w.name);
        }
    }

    #[test]
    fn truncated_trace_is_an_error_not_a_panic() {
        let p = kernel();
        let mut emu = svf_emu::Emulator::new(&p);
        let mut w = TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE).expect("header");
        for _ in 0..200 {
            w.push(&emu.step().expect("runs")).expect("writes");
        }
        let mut bytes = w.finish().expect("finish");
        bytes.truncate(bytes.len() - 2);
        let src = TraceSource::new(TraceReader::new(bytes.as_slice()).expect("header"));
        let err = simulate(&[CpuConfig::wide16()], Source::Trace(src), &WHOLE_RUN)
            .expect_err("truncated trace must fail");
        assert!(matches!(err, StreamError::Trace(_)), "typed trace error, got {err:?}");
    }
}
