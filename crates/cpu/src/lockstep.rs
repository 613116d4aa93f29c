//! One functional stream, N timing models: batched lockstep simulation.
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
//!   instruction in [`Facts::prev_sp`]/[`Facts::prev_other`].

use std::any::Any;
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use svf_emu::{
    Commit, Emulator, RecordSource, Retired, RunOutcome, StepSink, StreamError, TraceSource,
};
use svf_isa::{ControlKind, MemRegion, Program, Reg, StaticInfo, NO_REG};

use crate::alias::{AliasTable, NO_SEQ};
use crate::config::CpuConfig;
use crate::pipeline::Pipeline;
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
    /// (memory-region classification).
    pub(crate) fn new(heap_base: u64) -> FactsBuilder {
        FactsBuilder { reg_producer: [NO_PRODUCER; 32], alias: AliasTable::new(), heap_base }
    }

    /// Builds the [`Facts`] of instruction `seq` at `pc`, advancing the
    /// stream tables. `addr` is its effective address (memory references),
    /// `taken` and `next_pc` its control outcome, and `new_sp` `$sp` after
    /// it.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        seq: u64,
        pc: u64,
        info: &StaticInfo,
        addr: u64,
        taken: bool,
        next_pc: u64,
        new_sp: u64,
    ) -> Facts {
        let mut f = Facts {
            pc,
            new_sp,
            flags: info.flags & STATIC_FLAGS,
            control: info.control,
            ..Facts::EMPTY
        };
        if info.is_mem() {
            if MemRegion::classify(addr, self.heap_base).is_stack() {
                f.flags |= F_STACK;
            }
            f.addr = addr;
            f.size = info.size;
            let qw = addr / 8;
            // Probe before recording, exactly like live dispatch: a store
            // must not see itself as its own aliasing predecessor.
            let (sp, other) = self.alias.get(qw);
            f.prev_sp = sp;
            f.prev_other = other;
            if info.is_store() {
                self.alias.record(qw, seq, info.flags & StaticInfo::SP_BASE != 0);
            }
        } else {
            f.kind = info.class;
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
            f.dest = info.dest;
        }
        f
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
        let f = self.builder.build(self.hi, c.pc, c.info(), c.addr, c.taken, c.next_pc, c.sp_after);
        self.facts[(self.hi & self.mask) as usize] = f;
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
        let f = self.builder.build(self.hi, r.pc, &info, addr, taken, r.next_pc, new_sp);
        self.facts[(self.hi & self.mask) as usize] = f;
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
    /// budget is reached, or the stream ends. Returns whether anything new
    /// was produced.
    fn fill<S: FactsSource + ?Sized>(
        &mut self,
        src: &mut S,
        builder: &mut FactsBuilder,
        keep: u64,
    ) -> Result<bool, StreamError> {
        debug_assert!(keep <= self.hi, "cannot retain instructions never produced");
        let room = keep.saturating_add(self.mask + 1).min(self.limit);
        if self.done || self.hi >= room {
            self.done |= self.hi >= self.limit;
            return Ok(false);
        }
        let lo = self.hi;
        let mut fill = Fill { builder, facts: &mut self.facts, mask: self.mask, hi: lo };
        let more = src.produce(room - lo, &mut fill)?;
        self.hi = fill.hi;
        self.done = !more || self.hi >= self.limit;
        Ok(self.hi > lo)
    }
}

/// Runs every configuration over one shared functional execution of
/// `program`, in lockstep, and returns per-config statistics in input
/// order. Each result is bit-identical to
/// `Simulator::new(cfg).run(program, max_insts)` — the emulator just runs
/// once instead of `configs.len()` times.
///
/// # Panics
///
/// Panics if the program faults functionally, or if a pipeline deadlocks
/// (either would be a simulator bug).
#[must_use]
pub fn run_lockstep(configs: &[CpuConfig], program: &Program, max_insts: u64) -> Vec<SimStats> {
    run_lockstep_fanout(configs, program, max_insts, 1)
}

/// [`run_lockstep`] with the per-window pipeline advancement fanned out
/// over `fanout` threads (the calling thread plus `fanout - 1` scoped
/// workers). Each thread advances a disjoint chunk of the pipelines over
/// the same shared window behind a per-window barrier, so the statistics
/// are bit-identical to the serial path for any `fanout` — the fill
/// sequence is a pure function of the global slowest dispatch point, and
/// each pipeline reads only the immutable window while mutating only
/// itself. `fanout` is clamped to `[1, configs.len()]`; `1` (or a single
/// config) takes the serial path with zero threading overhead.
///
/// # Panics
///
/// Panics if the program faults functionally, or if a pipeline deadlocks
/// (either would be a simulator bug). A panic on a worker thread is
/// re-raised on the calling thread with its original payload, so callers
/// that `catch_unwind` the serial path observe the same message.
#[must_use]
pub fn run_lockstep_fanout(
    configs: &[CpuConfig],
    program: &Program,
    max_insts: u64,
    fanout: usize,
) -> Vec<SimStats> {
    let mut emu = Emulator::new(program);
    let initial_sp = emu.reg(Reg::SP);
    run_source(configs, &mut emu, initial_sp, max_insts, fanout)
        .unwrap_or_else(|e| panic!("functional fault during simulation: {e}"))
}

/// [`run_lockstep`] over a captured binary trace instead of a live
/// emulator: replaying a lossless trace produces bit-identical statistics
/// to the run that captured it.
///
/// # Errors
///
/// Truncated or corrupt traces surface as [`StreamError::Trace`]; the
/// partial simulation is discarded.
pub fn run_lockstep_trace<R: Read>(
    configs: &[CpuConfig],
    src: TraceSource<R>,
    max_insts: u64,
) -> Result<Vec<SimStats>, StreamError> {
    let mut src = src;
    let initial_sp = src.initial_sp();
    run_source(configs, &mut src, initial_sp, max_insts, 1)
}

/// The lockstep driver: fill the shared window, let every pipeline advance
/// as far as the window allows, repeat until all pipelines drain.
fn run_source<S: FactsSource>(
    configs: &[CpuConfig],
    src: &mut S,
    initial_sp: u64,
    max_insts: u64,
    fanout: usize,
) -> Result<Vec<SimStats>, StreamError> {
    let mut pipes: Vec<Pipeline> = configs.iter().map(|c| Pipeline::new(c, initial_sp)).collect();
    drive_fanout(&mut pipes, src, max_insts, fanout)?;
    Ok(pipes.into_iter().map(Pipeline::finish).collect())
}

/// Drives a set of already-constructed pipelines over `src` until they all
/// drain (stream halt or `max_insts` committed instructions). This is the
/// reusable inner loop of [`run_source`]; sampled simulation calls it once
/// per measured interval with pipelines built from warm [`EngineState`]s
/// and an emulator positioned mid-program. `fanout` spreads the per-window
/// pipeline advancement over that many threads; the serial path is taken
/// whenever the clamped fanout is one, so single-config runs never pay for
/// threading.
///
/// [`EngineState`]: crate::pipeline::EngineState
pub(crate) fn drive_fanout<S: FactsSource>(
    pipes: &mut [Pipeline],
    src: &mut S,
    max_insts: u64,
    fanout: usize,
) -> Result<(), StreamError> {
    let builder = FactsBuilder::new(src.heap_base());
    let win = Window::new(LOCKSTEP_WINDOW, max_insts);
    for p in pipes.iter() {
        let cfg = p.config();
        assert!(
            cfg.ifq_size + cfg.width < LOCKSTEP_WINDOW,
            "IFQ {} + width {} must fit the {LOCKSTEP_WINDOW}-instruction lockstep window",
            cfg.ifq_size,
            cfg.width
        );
    }
    let fanout = fanout.clamp(1, pipes.len().max(1));
    if fanout <= 1 {
        drive_serial(pipes, src, builder, win)
    } else {
        drive_parallel(pipes, src, builder, win, fanout)
    }
}

/// The serial inner loop: one thread fills and advances everything.
fn drive_serial<S: FactsSource>(
    pipes: &mut [Pipeline],
    src: &mut S,
    mut builder: FactsBuilder,
    mut win: Window,
) -> Result<(), StreamError> {
    loop {
        // Instructions older than every pipeline's dispatch point are dead;
        // the window may overwrite them. (A finished pipeline's dispatch
        // point sits at the final stream length, so it never constrains.)
        let keep = pipes.iter().map(Pipeline::ifq_head).min().unwrap_or_else(|| win.hi());
        let fresh = win.fill(src, &mut builder, keep)?;
        let mut all_done = true;
        for p in pipes.iter_mut() {
            all_done &= p.advance(&win);
        }
        if all_done {
            break;
        }
        // The window always has ifq+width headroom over the slowest
        // consumer, so an empty fill with unfinished pipelines means the
        // stream ended and they are still draining — anything else would
        // loop forever.
        debug_assert!(fresh || win.done(), "lockstep window stalled");
    }
    Ok(())
}

/// Rendezvous state for one parallel drive: the shared window, the two
/// round barriers, and the accumulators each chunk folds its progress
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
        let mut slot = self.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.get_or_insert(payload);
    }

    fn has_panicked(&self) -> bool {
        self.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
    }
}

/// Advances one chunk of pipelines for one round, folding its progress
/// into the shared accumulators. A panicking pipeline (e.g. the deadlock
/// assert) is caught so this thread still reaches the end-of-round
/// barrier instead of deadlocking the others; the payload is parked for
/// the leader to re-raise.
fn advance_chunk(pipes: &mut [Pipeline], rv: &Rendezvous) {
    let advanced = catch_unwind(AssertUnwindSafe(|| {
        let win = rv.window.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut done = true;
        let mut head = u64::MAX;
        for p in pipes.iter_mut() {
            done &= p.advance(&win);
            head = head.min(p.ifq_head());
        }
        (done, head)
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

/// The parallel inner loop. The calling thread is the leader: it owns the
/// source and the facts builder, fills the window exclusively between
/// rounds, and advances the first chunk itself during rounds; `fanout - 1`
/// scoped workers (spawned once per drive, not per window) advance the
/// remaining chunks. Bit-identity with [`drive_serial`] holds because the
/// fill sequence depends only on the global minimum dispatch point —
/// which the chunks accumulate exactly — and each `Pipeline::advance`
/// reads nothing but the immutable window and its own state, so chunk
/// assignment and thread interleaving are timing-invisible.
fn drive_parallel<S: FactsSource>(
    pipes: &mut [Pipeline],
    src: &mut S,
    mut builder: FactsBuilder,
    win: Window,
    fanout: usize,
) -> Result<(), StreamError> {
    let rv = Rendezvous {
        window: RwLock::new(win),
        start: Barrier::new(fanout),
        end: Barrier::new(fanout),
        // Every pipeline starts dispatching at seq 0, like the serial
        // path's first `keep`.
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
        loop {
            // Exclusive phase: every worker is parked at (or headed to)
            // the start barrier, so the write lock is uncontended.
            {
                let mut win = rv.window.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                let keep = rv.min_head.load(Ordering::Acquire);
                match win.fill(src, &mut builder, keep) {
                    Ok(fresh) => {
                        // Same invariant as the serial loop: an empty fill
                        // with unfinished pipelines means the stream ended
                        // and they are draining.
                        debug_assert!(fresh || win.done(), "lockstep window stalled");
                    }
                    Err(e) => {
                        rv.stop.store(true, Ordering::Release);
                        rv.start.wait();
                        break Err(e);
                    }
                }
            }
            rv.min_head.store(u64::MAX, Ordering::Release);
            rv.all_done.store(true, Ordering::Release);
            rv.start.wait();
            // Parallel phase: the leader works its own chunk too.
            advance_chunk(leader_chunk, &rv);
            rv.end.wait();
            if rv.has_panicked() || rv.all_done.load(Ordering::Acquire) {
                rv.stop.store(true, Ordering::Release);
                rv.start.wait();
                break Ok(());
            }
        }
    });
    // The scope has joined: re-raise a worker (or leader-chunk) panic on
    // the calling thread with its original payload, exactly as the serial
    // path would have panicked.
    let payload =
        rv.panicked.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackEngine;
    use crate::pipeline::Simulator;
    use svf_emu::{TraceReader, TraceWriter};
    use svf_isa::{Reg, STACK_BASE};

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
        let replayed = run_lockstep_trace(&configs, src, u64::MAX).expect("replays");
        for (cfg, got) in configs.iter().zip(&replayed) {
            let alone = Simulator::new(cfg.clone()).run(&p, u64::MAX);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged on replay");
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
            let mut live_b = FactsBuilder::new(p.heap_base);
            let mut replay_b = FactsBuilder::new(p.heap_base);
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
        let err = run_lockstep_trace(&[CpuConfig::wide16()], src, u64::MAX)
            .expect_err("truncated trace must fail");
        assert!(matches!(err, StreamError::Trace(_)), "typed trace error, got {err:?}");
    }
}
