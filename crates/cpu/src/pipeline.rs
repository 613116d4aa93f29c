//! The out-of-order pipeline model.
//!
//! Functional-first, execution-driven: a shared functional pass (see
//! [`crate::lockstep`]) produces the committed instruction stream plus the
//! config-independent per-record [`Facts`], and this model replays it
//! through fetch → decode/dispatch (with SVF morphing) → issue/execute →
//! commit, charging cycles for structural hazards (widths, RUU/LSQ/IFQ
//! occupancy, D-cache and SVF/stack-cache ports, FU counts), data
//! dependencies (register, memory and SVF-slot producers), cache latencies
//! and front-end stalls. Any number of [`Pipeline`]s can advance over the
//! same stream window in lockstep — that is how multi-config sweeps share
//! one functional execution.
//!
//! # Hot-path layout
//!
//! The per-cycle loop is written for mechanical sympathy; simulated
//! behaviour is pinned bit-identical by `tests/golden_stats.rs` and
//! `tests/pipeline_oracle.rs` at the workspace root:
//!
//! * Seq numbers are dense and monotone, so both machine queues are plain
//!   integer ranges — `head_seq..ifq_head` is the RUU window and
//!   `ifq_head..next_seq` the fetch queue — and all per-entry state lives
//!   in flat ring lanes indexed by `seq & seq_mask`. No queue containers,
//!   no hashing.
//! * Fetch and dispatch run off the precomputed [`Facts`] alone (static
//!   registers and classes, dependence chains, aliasing store chains,
//!   memory classification, the new `$sp`, the control kind and target):
//!   the stream carries no committed-instruction record at all.
//! * **Issue is reserved at dispatch.** The machine dispatches in program
//!   order and issues oldest-first under width, FU and port limits, so
//!   whether an instruction issues in a cycle depends only on the older
//!   instructions issuing in that cycle. Every older instruction has
//!   already fixed its issue cycle when a younger one dispatches, and
//!   nothing younger can take a slot from an older one. Dispatch therefore
//!   computes the exact issue cycle at once: the first cycle from
//!   `max(now + 1, done cycle of every live producer and forwarding
//!   store)` whose entry in a per-cycle reservation ring (used
//!   `[width, ALU, mul/div, DL1 port, stack port]` counts) has a free
//!   issue slot and a free unit of the instruction's class. `ready_at`
//!   (issue + latency) is final from then on. An instruction whose class
//!   has no units stays [`UNISSUED`] and trips the deadlock assert.
//! * The issue stage only applies the events due this cycle, which
//!   dispatch registered in the ring: the §3.2 squashes of morphed loads
//!   whose reserved issue precedes that of the unmorphed store they
//!   alias. A mispredicted branch's fetch unblock is charged at its
//!   dispatch: fetch cannot run between that dispatch and the branch's
//!   issue, so only the order-free `max` into `fetch_resume_at` remains.
//! * Readiness is one compare: `ready_at <= now` (`UNISSUED` is
//!   `u64::MAX`). A reserved issue cycle is always after `now`, so an
//!   entry counts as done exactly when an oldest-first per-cycle issue scan
//!   would have issued and completed it.

use svf::StackValueFile;
use svf_isa::Program;
use svf_mem::{Hierarchy, StackCache};

use crate::alias::NO_SEQ;
use crate::config::{CpuConfig, StackEngine};
use crate::lockstep::{
    Facts, Window, COMMIT_FLAG_MASK, F_CONTROL, F_MEM, F_SP_BASE, F_SP_INTERLOCK, F_SP_UPDATE,
    F_STACK, F_STORE, F_TAKEN, NO_PRODUCER,
};
use crate::predictor::Predictor;
use crate::stats::SimStats;

/// The unit class an instruction occupies in its issue cycle. The
/// discriminant is the class's counter in [`CycleSlots::used`], after the
/// [`WIDTH`] counter of issue slots.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// Integer ops, branches and system ops (ALU pool).
    Alu = 1,
    /// Multiply and divide/remainder (multiplier pool).
    MulDiv = 2,
    /// Loads and stores through the data L1 (D-cache port).
    Dl1Port = 3,
    /// Loads and stores serviced by the stack engine (SVF/stack-cache port).
    StackPort = 4,
    /// Morphed SVF accesses that need no port (register-file forwarding,
    /// morphed stores, the ideal engine): its capacity is unbounded, so
    /// only the issue slot limits it.
    Free = 5,
}

/// Reservation-ring counter of issue slots (the machine width).
const WIDTH: usize = 0;

/// One future cycle's entry in the reservation ring.
#[derive(Debug, Clone, Copy, Default)]
struct CycleSlots {
    /// Issues reserved in this cycle per counter: [`WIDTH`], then each
    /// [`Unit`].
    used: [u32; 6],
    /// §3.2 collision squashes due in this cycle's issue stage.
    squashes: u32,
}

/// What dispatch works out for an instruction before reserving its issue
/// cycle ([`Pipeline::plan`]).
struct Plan {
    unit: Unit,
    /// Cycles from issue to result.
    latency: u64,
    /// Done cycle of the last live producer (register, memory or SVF-slot
    /// dependence); `0` with none, [`UNISSUED`] if one never issues.
    operands_at: u64,
    /// The unmorphed store a morphed load must be squashed by if the load
    /// issues first (§3.2); [`NO_PRODUCER`] if none.
    watched_store: u64,
}

/// `ready_at` and `issue_at` value of an entry that never issues (its
/// class has no units, or a producer never issues).
const UNISSUED: u64 = u64::MAX;

/// The cycle-level simulator of one configuration: a wrapper over
/// [`crate::simulate`] with a batch of one, kept because the repository
/// benchmark (`e2e-bench/`) calls it by name. To run several
/// configurations over one shared stream, sample, fan out or replay a
/// trace, call [`crate::simulate`].
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: CpuConfig,
}

impl Simulator {
    /// Creates a simulator for the given machine model.
    #[must_use]
    pub fn new(cfg: CpuConfig) -> Simulator {
        Simulator { cfg }
    }

    /// Runs `program` for at most `max_insts` committed instructions and
    /// returns the statistics. The functional emulator runs inside; the
    /// returned `committed` count is exact.
    ///
    /// # Panics
    ///
    /// Panics if the program faults functionally, or if the pipeline
    /// deadlocks (which would be a simulator bug).
    #[must_use]
    pub fn run(&self, program: &Program, max_insts: u64) -> SimStats {
        crate::run_lockstep(std::slice::from_ref(&self.cfg), program, max_insts).remove(0)
    }
}

/// The long-lived microarchitectural state a [`Pipeline`] carries between
/// sampled intervals: the cache hierarchy, the stack engine, the branch
/// predictor, and the fetch unit's last-I-line tracking. Sampled simulation
/// warms this functionally between measured intervals, then injects it into
/// a fresh pipeline with [`Pipeline::from_state`]; a drained pipeline hands
/// it back through [`Pipeline::finish_into_state`].
///
/// Every touch of these structures by a committed instruction goes through
/// its methods — the IL1 charge ([`EngineState::fetch_line`]), the
/// decode-order `$sp` window move ([`EngineState::move_sp`]) and the
/// steering of a memory reference ([`EngineState::access`]) — plus
/// [`Predictor::train`]. The pipeline's fetch and dispatch and sampling's
/// functional warming call the same ones, so warming touches exactly what
/// a detailed run would have.
#[derive(Debug, PartialEq)]
pub(crate) struct EngineState {
    /// The Table 2 cache hierarchy (tags, dirty bits, recency).
    pub hier: Hierarchy,
    /// The stack engine and its structure.
    stack: Stack,
    /// Branch predictor tables.
    pub predictor: Predictor,
    /// Last I-cache line fetched (fetch charges the IL1 once per line; the
    /// line boundary must survive interval boundaries to avoid a spurious
    /// extra fetch charge per interval).
    last_fetch_line: u64,
    /// `log2(il1.line_bytes)` — fetch runs once per instruction, so the
    /// line split is a precomputed shift, not a division.
    il1_line_shift: u32,
}

/// The structure behind a config's [`StackEngine`].
#[derive(Debug, PartialEq)]
enum Stack {
    /// [`StackEngine::None`]: stack references go to the DL1.
    None,
    /// [`StackEngine::IdealSvf`]: stack references touch no structure.
    Ideal,
    /// [`StackEngine::Svf`].
    Svf(StackValueFile),
    /// [`StackEngine::StackCache`].
    StackCache(StackCache),
}

/// What serviced one memory reference ([`EngineState::access`]), with the
/// latency it charged.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Serviced {
    /// The DL1 — a non-stack reference, or a stack reference under no
    /// stack engine — with its access latency.
    Dl1(u64),
    /// The DL1, because the stack reference fell outside the SVF window.
    OutOfWindow(u64),
    /// The SVF, with the latency of its DL1 demand fill (`0` without one).
    Svf(u64),
    /// The stack cache, with the L2 latency of its miss (`0` on a hit).
    StackCache(u64),
    /// No structure: the ideal SVF morphs every stack reference.
    Ideal,
}

impl EngineState {
    /// Cold state for a config, exactly what [`Pipeline::new`] builds.
    pub(crate) fn new(cfg: &CpuConfig, initial_sp: u64) -> EngineState {
        let stack = match cfg.stack_engine {
            StackEngine::None => Stack::None,
            StackEngine::IdealSvf => Stack::Ideal,
            StackEngine::Svf => Stack::Svf(StackValueFile::new(cfg.svf, initial_sp)),
            StackEngine::StackCache => Stack::StackCache(StackCache::new(cfg.stack_cache)),
        };
        EngineState {
            hier: Hierarchy::new(cfg.hierarchy.clone()),
            stack,
            predictor: Predictor::new(cfg.predictor, cfg.gshare_history_bits),
            last_fetch_line: u64::MAX,
            il1_line_shift: cfg.hierarchy.il1.line_bytes.trailing_zeros(),
        }
    }

    /// Fetches the instruction at `pc`: the IL1 is charged once per line
    /// change, and its latency returned then; `None` within the line.
    #[inline]
    pub(crate) fn fetch_line(&mut self, pc: u64) -> Option<u64> {
        let line = pc >> self.il1_line_shift;
        if line == self.last_fetch_line {
            return None;
        }
        self.last_fetch_line = line;
        Some(self.hier.inst_fetch(pc))
    }

    /// Moves the SVF window to a new `$sp` (§3.1): at decode, for every
    /// `$sp` writer in program order, and after a fast-forward gap that
    /// moved `$sp` unobserved. A no-op without an SVF or when `$sp` is
    /// unchanged.
    #[inline]
    pub(crate) fn move_sp(&mut self, new_sp: u64) {
        if let Stack::Svf(svf) = &mut self.stack {
            let (old_sp, _) = svf.range();
            svf.on_sp_update(old_sp, new_sp);
        }
    }

    /// Steers one memory reference of `size` bytes at `addr` to the
    /// structure that services it (§3.2): a stack reference to the stack
    /// engine — morphed and rerouted alike into the SVF, which fills from
    /// the DL1 on demand, unless it falls outside the window; into the
    /// stack cache, backed by the L2 — and everything else to the DL1.
    #[inline]
    pub(crate) fn access(&mut self, addr: u64, size: u8, is_stack: bool, is_store: bool) -> Serviced {
        if !is_stack {
            return Serviced::Dl1(self.hier.data_access(addr, is_store));
        }
        match &mut self.stack {
            Stack::None => Serviced::Dl1(self.hier.data_access(addr, is_store)),
            Stack::Ideal => Serviced::Ideal,
            Stack::Svf(svf) => {
                let acc = if is_store { svf.store(addr, size) } else { svf.load(addr, size) };
                match acc {
                    Some(acc) if acc.filled => Serviced::Svf(self.hier.data_access(addr, false)),
                    Some(_) => Serviced::Svf(0),
                    None => Serviced::OutOfWindow(self.hier.data_access(addr, is_store)),
                }
            }
            Stack::StackCache(sc) => {
                let hit = sc.access(addr, is_store);
                Serviced::StackCache(if hit { 0 } else { self.hier.l2_access(addr, is_store) })
            }
        }
    }

    /// Copies every structure's counters into `s`.
    fn observe_into(&self, s: &mut SimStats) {
        s.dl1 = self.hier.dl1().stats();
        s.il1 = self.hier.il1().stats();
        s.l2 = self.hier.l2().stats();
        (s.svf, s.stack_cache) = match &self.stack {
            Stack::Svf(svf) => (Some(svf.stats()), None),
            Stack::StackCache(sc) => (None, Some(sc.stats())),
            Stack::None | Stack::Ideal => (None, None),
        };
    }

    /// Zeroes every structure's statistics counters while keeping the
    /// warmed contents — called at the start of each measured interval so
    /// the interval's stats cover only its own accesses.
    pub(crate) fn reset_stats(&mut self) {
        self.hier.reset_stats();
        match &mut self.stack {
            Stack::Svf(svf) => svf.reset_stats(),
            Stack::StackCache(sc) => sc.reset_stats(),
            Stack::None | Stack::Ideal => {}
        }
    }
}

/// One timing model advancing over a shared record stream. Owned and
/// driven by the lockstep driver in [`crate::lockstep`]; a single-config
/// [`Simulator::run`] is just a one-pipeline lockstep.
pub(crate) struct Pipeline<'a> {
    cfg: &'a CpuConfig,
    /// The caches, stack engine and predictor every instruction touches.
    state: EngineState,
    stats: SimStats,

    now: u64,
    next_seq: u64,
    head_seq: u64,
    /// Seq of the next instruction to dispatch. Seqs are dense, so the
    /// two queue occupancies are plain differences: `head_seq..ifq_head`
    /// is the RUU window and `ifq_head..next_seq` the fetch queue —
    /// neither needs a container.
    ifq_head: u64,
    /// Per-entry lanes, ring-indexed by `seq & seq_mask`: the cycle the
    /// result is available (`issue_at + latency`, fixed at dispatch) ...
    ready_at: Box<[u64]>,
    /// ... the reserved issue cycle (read when a younger morphed load
    /// checks a store for a §3.2 collision) ...
    issue_at: Box<[u64]>,
    /// ... and the commit-time facts (the low [`Facts`] flag bits, see
    /// [`COMMIT_FLAG_MASK`]), so commit never re-derives them.
    commit_flags: Box<[u8]>,
    /// Ring mask: `capacity - 1`, capacity the RUU window rounded up to a
    /// power of two (so no two in-flight seqs alias).
    seq_mask: u64,
    /// Issue reservations by cycle: `ring[t & (len - 1)]` covers cycle `t`
    /// for `now < t < now + len`. The length is a power of two, doubled on
    /// demand when dispatch reserves further ahead.
    ring: Vec<CycleSlots>,
    /// Capacity per reservation counter: the width, then ALUs, multipliers,
    /// DL1 ports, stack ports, and unbounded for [`Unit::Free`].
    caps: [u32; 6],
    lsq_count: usize,

    /// Fetch may not run again before this cycle (mispredict/squash/I-miss).
    fetch_resume_at: u64,
    /// Fetch is waiting for this mispredicted branch to dispatch; its
    /// resolution then moves into `fetch_resume_at`.
    fetch_blocked_on: Option<u64>,
    /// Decode is interlocked on this non-immediate `$sp` writer.
    decode_block_on: Option<u64>,
    /// Instruction stream exhausted (halt or budget).
    stream_done: bool,
    /// The pipeline has drained: window empty, stream ended.
    finished: bool,
    /// Cycle of the most recent commit (deadlock detection across
    /// lockstep pauses).
    last_commit_cycle: u64,

    /// Commit count at which the measurement window opens (`0` disables
    /// the start snapshot — measurement covers the run from the top).
    measure_from: u64,
    /// Commit count at which the measurement window closes (`u64::MAX`
    /// disables the end snapshot — measurement runs to the drain).
    measure_to: u64,
    /// Statistics observed when commit crossed `measure_from`.
    start_snap: Option<Box<SimStats>>,
    /// Statistics observed when commit crossed `measure_to`.
    end_snap: Option<Box<SimStats>>,
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(cfg: &'a CpuConfig, initial_sp: u64) -> Pipeline<'a> {
        Pipeline::from_state(cfg, EngineState::new(cfg, initial_sp))
    }

    /// Builds a pipeline around pre-warmed long-lived structures. The
    /// transient machine state (queues, issue reservations, cycle counter,
    /// stats)
    /// starts empty; sampled simulation uses this to begin each measured
    /// interval with warm caches/predictor but a cold pipeline.
    pub(crate) fn from_state(cfg: &'a CpuConfig, state: EngineState) -> Pipeline<'a> {
        let lanes = cfg.ruu_size.next_power_of_two().max(1);
        let cap = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Pipeline {
            cfg,
            state,
            stats: SimStats::default(),
            now: 0,
            next_seq: 0,
            head_seq: 0,
            ifq_head: 0,
            ready_at: vec![UNISSUED; lanes].into_boxed_slice(),
            issue_at: vec![UNISSUED; lanes].into_boxed_slice(),
            commit_flags: vec![0; lanes].into_boxed_slice(),
            seq_mask: lanes as u64 - 1,
            ring: vec![CycleSlots::default(); 128],
            caps: [
                cap(cfg.width),
                cap(cfg.int_alus),
                cap(cfg.int_mults),
                cap(cfg.dl1_ports),
                cap(cfg.stack_ports),
                u32::MAX,
            ],
            lsq_count: 0,
            fetch_resume_at: 0,
            fetch_blocked_on: None,
            decode_block_on: None,
            stream_done: false,
            finished: false,
            last_commit_cycle: 0,
            measure_from: 0,
            measure_to: u64::MAX,
            start_snap: None,
            end_snap: None,
        }
    }

    /// The machine model this pipeline simulates.
    pub(crate) fn config(&self) -> &'a CpuConfig {
        self.cfg
    }

    /// Restricts reported statistics to the commits in `[from, to)`:
    /// snapshots are taken as commit crosses each bound and
    /// [`Pipeline::finish_into_state`] returns their difference. Sampled
    /// simulation uses this to exclude the cold-pipeline ramp before (and
    /// the de-pipelined drain after) a measured interval while still
    /// simulating those instructions in detail. `from = 0` measures from
    /// the top; `to = u64::MAX` measures through the drain.
    pub(crate) fn set_measure_window(&mut self, from: u64, to: u64) {
        debug_assert!(from < to, "empty measurement window");
        self.measure_from = from;
        self.measure_to = to;
    }

    /// The current statistics as a whole-run-shaped observation: cycle
    /// count up to `now` and structure counters copied out.
    fn observe(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        self.state.observe_into(&mut s);
        s
    }

    /// Oldest record this pipeline may still read: dispatch consumes at
    /// `ifq_head` and everything older lives on only in the per-entry
    /// lanes. The lockstep driver uses the minimum across pipelines as the
    /// window's retention point.
    pub(crate) fn ifq_head(&self) -> u64 {
        self.ifq_head
    }

    /// Simulates cycles against the shared stream window until either the
    /// pipeline drains (returns `true`) or it needs records the window
    /// does not hold yet (returns `false`; call again after a refill).
    ///
    /// Pausing between cycles is timing-invisible: a cycle only runs when
    /// the window holds a full fetch group (or the stream has ended), and
    /// fetch consumes at most `width` records per cycle — so no per-cycle
    /// decision can observe how the stream was chunked, and the result is
    /// bit-identical to an unpaused run.
    pub(crate) fn advance(&mut self, win: &Window) -> bool {
        if self.finished {
            return true;
        }
        let width = self.cfg.width as u64;
        loop {
            if !(win.done() || win.hi() - self.next_seq >= width) {
                return false;
            }
            self.now += 1;
            let committed_before = self.stats.committed;
            self.commit();
            self.issue();
            self.dispatch(win);
            self.fetch(win);
            let occ = self.ifq_head - self.head_seq;
            self.stats.ruu_occupancy_sum += occ;
            self.stats.ruu_occupancy_max = self.stats.ruu_occupancy_max.max(occ);
            self.stats.lsq_occupancy_sum += self.lsq_count as u64;
            if self.stats.committed != committed_before {
                self.last_commit_cycle = self.now;
            }
            if self.stream_done && self.head_seq == self.next_seq {
                self.finished = true; // window and fetch queue both drained
                return true;
            }
            assert!(
                self.now - self.last_commit_cycle < 200_000,
                "pipeline deadlock at cycle {} (head seq {}: {:?})",
                self.now,
                self.head_seq,
                (self.head_seq < self.ifq_head).then(|| {
                    let i = (self.head_seq & self.seq_mask) as usize;
                    format!("issue_at {}, ready_at {}", self.issue_at[i], self.ready_at[i])
                })
            );
        }
    }

    /// Finalizes the statistics of a drained pipeline.
    pub(crate) fn finish(self) -> SimStats {
        self.finish_into_state().0
    }

    /// Finalizes a drained pipeline, returning both its statistics and the
    /// still-warm long-lived structures so a later sampled interval can
    /// resume from them. With a measurement window set
    /// ([`Pipeline::set_measure_window`]) the statistics cover only the
    /// window; otherwise the whole run.
    pub(crate) fn finish_into_state(mut self) -> (SimStats, EngineState) {
        debug_assert!(self.finished, "finish() before the pipeline drained");
        // A window bound past the actual commit count just never fired: the
        // measurement extends to the corresponding end of the run.
        let mut stats = match self.end_snap.take() {
            Some(end) => *end,
            None => self.observe(),
        };
        if let Some(start) = self.start_snap.take() {
            stats = stats.delta(&start);
        }
        (stats, self.state)
    }

    // ---- commit ----

    fn commit(&mut self) {
        let mut n = 0;
        while n < self.cfg.width {
            if self.head_seq == self.ifq_head {
                break; // window empty
            }
            let sidx = (self.head_seq & self.seq_mask) as usize;
            // `UNISSUED` is `u64::MAX`, so one compare covers both "not
            // issued" and "not done yet".
            if self.ready_at[sidx] > self.now {
                break;
            }
            // Everything below runs off the `commit_flags` distilled at
            // dispatch; the window may already have overwritten the facts.
            let cf = self.commit_flags[sidx];
            self.lsq_count -= usize::from(cf & F_MEM != 0);
            self.stats.committed += 1;
            self.stats.mem_refs += u64::from(cf & F_MEM != 0);
            self.stats.stack_refs += u64::from(cf & F_STACK != 0);
            self.stats.branches += u64::from(cf & F_CONTROL != 0);
            // Measurement-window boundaries (two predictable compares; with
            // no window set neither can fire).
            if self.stats.committed == self.measure_from {
                self.start_snap = Some(Box::new(self.observe()));
            } else if self.stats.committed == self.measure_to {
                self.end_snap = Some(Box::new(self.observe()));
            }
            self.head_seq += 1;
            n += 1;
        }
    }

    // ---- issue / execute ----

    /// Applies the events dispatch registered for this cycle, then frees
    /// its ring entry for cycle `now + ring.len()`. Issue itself was
    /// decided at dispatch ([`Pipeline::reserve`]).
    fn issue(&mut self) {
        let slot = self.cycle(self.now);
        let squashes = slot.squashes;
        *slot = CycleSlots::default();
        if squashes != 0 {
            self.stats.svf_squashes += u64::from(squashes);
            self.fetch_resume_at = self.fetch_resume_at.max(self.now + self.cfg.squash_penalty);
        }
    }

    /// Reserves the first cycle from `from` with a free issue slot and a
    /// free `unit`, and returns it; [`UNISSUED`] if `from`
    /// is (a producer never issues) or the class or the width has no units
    /// at all. Every older instruction has already reserved its cycle, so
    /// the answer is exactly the cycle an oldest-first per-cycle issue scan
    /// would pick.
    fn reserve(&mut self, from: u64, unit: Unit) -> u64 {
        let unit = unit as usize;
        if from == UNISSUED || self.caps[WIDTH] == 0 || self.caps[unit] == 0 {
            return UNISSUED;
        }
        let mut t = from;
        loop {
            if t - self.now >= self.ring.len() as u64 {
                self.grow_ring(t - self.now);
            }
            let caps = self.caps;
            let used = &mut self.cycle(t).used;
            if used[WIDTH] < caps[WIDTH] && used[unit] < caps[unit] {
                used[WIDTH] += 1;
                used[unit] += 1;
                return t;
            }
            t += 1;
        }
    }

    /// The reservation-ring entry of cycle `t` (`now <= t < now + len`).
    #[inline]
    fn cycle(&mut self, t: u64) -> &mut CycleSlots {
        let mask = self.ring.len() as u64 - 1;
        &mut self.ring[(t & mask) as usize]
    }

    /// Doubles the reservation ring until `delta` cycles ahead fit, moving
    /// each live cycle (`now + 1 ..`) to its slot in the larger ring.
    fn grow_ring(&mut self, delta: u64) {
        let old_len = self.ring.len() as u64;
        let mut len = old_len;
        while delta >= len {
            len *= 2;
        }
        let mut ring = vec![CycleSlots::default(); len as usize];
        for t in self.now + 1..self.now + old_len {
            ring[(t & (len - 1)) as usize] = self.ring[(t & (old_len - 1)) as usize];
        }
        self.ring = ring;
    }

    // ---- dispatch (decode + rename + stack-engine steering) ----

    fn dispatch(&mut self, win: &Window) {
        for _ in 0..self.cfg.width {
            if (self.ifq_head - self.head_seq) as usize >= self.cfg.ruu_size {
                break;
            }
            // $sp interlock (§3.1): a non-immediate $sp writer blocks decode
            // until it completes.
            if let Some(block) = self.decode_block_on {
                if block < self.head_seq
                    || self.ready_at[(block & self.seq_mask) as usize] <= self.now
                {
                    self.decode_block_on = None;
                } else {
                    self.stats.sp_interlock_stalls += 1;
                    break;
                }
            }
            if self.ifq_head == self.next_seq {
                break; // fetch queue empty
            }
            // Everything issue and commit need comes from the shared facts.
            let f = win.fact(self.ifq_head);
            if f.flags & F_MEM != 0 && self.lsq_count >= self.cfg.lsq_size {
                break;
            }
            let seq = self.ifq_head;
            self.ifq_head += 1;
            let plan = self.plan(f);
            self.lsq_count += usize::from(f.flags & F_MEM != 0);
            if f.flags & F_SP_INTERLOCK != 0 {
                self.decode_block_on = Some(seq);
            }
            let issue = self.reserve(plan.operands_at.max(self.now + 1), plan.unit);
            let done = if issue == UNISSUED { UNISSUED } else { issue + plan.latency };
            let sidx = (seq & self.seq_mask) as usize;
            self.ready_at[sidx] = done;
            self.issue_at[sidx] = issue;
            self.commit_flags[sidx] = f.flags & COMMIT_FLAG_MASK;
            if plan.watched_store != NO_PRODUCER {
                // §3.2: if the older store issues after this morphed load,
                // the collision shows in the store's issue cycle.
                let store_issue = self.issue_at[(plan.watched_store & self.seq_mask) as usize];
                if issue < store_issue && store_issue != UNISSUED {
                    self.cycle(store_issue).squashes += 1;
                }
            }
            // A mispredicted branch resolves at its done cycle. Fetch is
            // blocked until then either way, so the redirect is charged now.
            if self.fetch_blocked_on == Some(seq) && done != UNISSUED {
                self.fetch_blocked_on = None;
                self.fetch_resume_at =
                    self.fetch_resume_at.max(done + self.cfg.redirect_penalty);
            }
        }
    }

    /// Plans a dispatching instruction: steers a memory reference to its
    /// structure ([`EngineState::access`]), then picks the unit class it
    /// issues to, its latency and the done cycle of its last producer — all
    /// off the shared [`Facts`].
    fn plan(&mut self, f: &Facts) -> Plan {
        // Speculative $sp tracking (§3.1): `$sp` writes move the SVF window
        // in decode, in program order.
        if f.flags & F_SP_UPDATE != 0 {
            self.state.move_sp(f.new_sp);
        }

        let mut forward_from = None;
        let mut watched_store = NO_PRODUCER;
        let mut drop_sp_dep = false;

        let (unit, latency) = if f.flags & F_MEM != 0 {
            let is_stack = f.flags & F_STACK != 0;
            let is_store = f.flags & F_STORE != 0;
            let sp_base = f.flags & F_SP_BASE != 0;
            // The youngest-earlier-store chains are precomputed on the
            // stream; only the liveness filter against our own commit head
            // is per-config.
            let sp_live = (f.prev_sp != NO_SEQ && f.prev_sp >= self.head_seq).then_some(f.prev_sp);
            let other_live =
                (f.prev_other != NO_SEQ && f.prev_other >= self.head_seq).then_some(f.prev_other);
            // Youngest in-flight store (any base register) to the quad-word.
            let youngest = match (sp_live, other_live) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let serviced = self.state.access(f.addr, f.size, is_stack, is_store);
            match serviced {
                Serviced::Dl1(lat) | Serviced::OutOfWindow(lat) => {
                    self.stats.svf_out_of_window +=
                        u64::from(matches!(serviced, Serviced::OutOfWindow(_)));
                    drop_sp_dep = self.cfg.no_addr_calc_for_stack && sp_base && is_stack;
                    if is_store {
                        (Unit::Dl1Port, 1)
                    } else if let Some(d) = youngest {
                        // LSQ forwarding from the youngest aliasing store.
                        forward_from = Some(d);
                        (Unit::Dl1Port, self.cfg.store_forward_latency)
                    } else {
                        (Unit::Dl1Port, lat)
                    }
                }
                // Morphed: the address resolved early, in decode.
                Serviced::Svf(fill) if sp_base => {
                    drop_sp_dep = true;
                    if is_store {
                        // Morphed stores are plain register writes in the
                        // pipeline; the SVF array is updated at commit off
                        // the critical path (§3.2: "the morphed references
                        // are committed to the SVF"), so no read-port use.
                        self.stats.svf_morphed_stores += 1;
                        (Unit::Free, 1 + fill)
                    } else {
                        self.stats.svf_morphed_loads += 1;
                        let mut unit = Unit::StackPort;
                        // Register-style forwarding from sp-based stores:
                        // the value is read from the physical register file
                        // through the RAT (§5.3.1), not through an SVF port.
                        if let Some(d) = sp_live {
                            forward_from = Some(d);
                            unit = Unit::Free;
                        }
                        // §3.2: an older non-sp store to the same address
                        // that issues after this load is a squash hazard.
                        if let Some(d) = other_live {
                            if self.cfg.svf_no_squash {
                                forward_from = Some(forward_from.map_or(d, |f| f.max(d)));
                            } else {
                                watched_store = d;
                            }
                        }
                        (unit, 1 + fill)
                    }
                }
                // Rerouted: address calculation and a late bounds check.
                Serviced::Svf(fill) => {
                    self.stats.svf_rerouted += 1;
                    if is_store {
                        (Unit::StackPort, 1 + fill)
                    } else {
                        forward_from = youngest;
                        (Unit::StackPort, self.load_latency(2 + fill, youngest))
                    }
                }
                Serviced::StackCache(miss) => {
                    self.stats.stack_cache_refs += 1;
                    if is_store {
                        (Unit::StackPort, 1 + miss)
                    } else {
                        forward_from = youngest;
                        let lat = self.cfg.stack_cache.hit_latency + miss;
                        (Unit::StackPort, self.load_latency(lat, youngest))
                    }
                }
                Serviced::Ideal => {
                    drop_sp_dep = sp_base;
                    if is_store {
                        self.stats.svf_morphed_stores += 1;
                    } else {
                        self.stats.svf_morphed_loads += 1;
                        forward_from = youngest;
                    }
                    (Unit::Free, 1)
                }
            }
        } else {
            // Non-memory instruction: multiply, divide, or a one-cycle op.
            match f.kind {
                1 => (Unit::MulDiv, self.cfg.mul_latency),
                2 => (Unit::MulDiv, self.cfg.div_latency),
                _ => (Unit::Alu, 1),
            }
        };

        // Register dependences off the precomputed youngest-earlier-writer
        // chains; the liveness filter against our commit head (and the SVF's
        // dropped $sp dependence) is the only per-config part. Live
        // producers are older, so their done cycles are already fixed.
        let done = |p: u64| self.ready_at[(p & self.seq_mask) as usize];
        let mut operands_at = forward_from.map_or(0, done);
        for i in 0..f.ndeps as usize {
            let p = f.deps[i];
            if p >= self.head_seq && !(drop_sp_dep && f.dep_sp & (1 << i) != 0) {
                operands_at = operands_at.max(done(p));
            }
        }

        // Commit reads `ready_at` before the issue stage, so a result counts
        // as done in its issue cycle only if latency is at least one.
        debug_assert!(latency >= 1, "zero-latency execution is not modelled");
        Plan { unit, latency, operands_at, watched_store }
    }

    /// A stack-port load's latency: `lat`, or the store-forwarding latency
    /// if that is longer and an aliasing store is still in flight.
    fn load_latency(&self, lat: u64, youngest: Option<u64>) -> u64 {
        if youngest.is_some() {
            lat.max(self.cfg.store_forward_latency)
        } else {
            lat
        }
    }

    // ---- fetch ----

    fn fetch(&mut self, win: &Window) {
        if self.stream_done {
            return;
        }
        if self.now < self.fetch_resume_at || self.fetch_blocked_on.is_some() {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.width {
            if (self.next_seq - self.ifq_head) as usize >= self.cfg.ifq_size {
                break;
            }
            if self.next_seq == win.hi() {
                // The stream encodes both halt and the instruction budget
                // as its end; `advance` guarantees a cycle never starts
                // without a full fetch group unless the stream is done.
                debug_assert!(win.done(), "cycle ran without a full fetch group");
                self.stream_done = true;
                break;
            }
            let seq = self.next_seq;
            let f = win.fact(seq);
            // I-cache: charged once per line; a miss stalls fetch.
            if let Some(lat) = self.state.fetch_line(f.pc) {
                if lat > self.cfg.hierarchy.il1.hit_latency {
                    self.fetch_resume_at = self.now + lat;
                }
            }
            self.next_seq += 1;
            let is_control = f.flags & F_CONTROL != 0;
            let taken = f.flags & F_TAKEN != 0;
            let correct =
                !is_control || self.state.predictor.train(f.pc, f.control, taken, f.addr);
            if is_control && !correct {
                self.stats.mispredicts += 1;
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if taken || self.now < self.fetch_resume_at {
                break; // fetch group ends at a taken branch or an I-miss
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;
    use svf_emu::Emulator;

    fn compile(src: &str) -> Program {
        svf_cc::compile_to_program(src).expect("compiles")
    }

    /// Compiles without register promotion, for kernels that must keep
    /// their scalars in the stack frame.
    fn compile_naive(src: &str) -> Program {
        svf_cc::compile_to_program_with(src, svf_cc::Options { regalloc: false, ..Default::default() })
            .expect("compiles")
    }

    /// A loop-heavy kernel with plenty of stack traffic.
    fn stack_kernel() -> Program {
        compile_naive(
            "
            int work(int n) {
                int a = n; int b = n * 2; int c = 0;
                for (int i = 0; i < 50; i = i + 1) {
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
        )
    }

    fn run_with(cfg: CpuConfig, p: &Program) -> SimStats {
        Simulator::new(cfg).run(p, 10_000_000)
    }

    #[test]
    fn baseline_completes_and_is_sane() {
        let p = stack_kernel();
        let s = run_with(CpuConfig::wide16(), &p);
        assert!(s.committed > 10_000, "ran the whole program: {}", s.committed);
        assert!(s.cycles > 0);
        let ipc = s.ipc();
        assert!(ipc > 0.3 && ipc <= 16.0, "IPC {ipc} out of plausible range");
        assert!(s.mem_refs > 0);
        assert!(s.stack_refs > 0);
        assert!(s.stack_refs <= s.mem_refs);
    }

    #[test]
    fn committed_matches_functional_execution() {
        let p = stack_kernel();
        let mut emu = Emulator::new(&p);
        emu.run(u64::MAX).unwrap();
        let s = run_with(CpuConfig::wide16(), &p);
        assert_eq!(s.committed, emu.steps());
    }

    #[test]
    fn svf_speeds_up_port_starved_machine() {
        let p = stack_kernel();
        let base = run_with(CpuConfig::wide16().with_ports(1, 0), &p);
        let mut cfg = CpuConfig::wide16().with_ports(1, 1);
        cfg.stack_engine = StackEngine::Svf;
        let svf = run_with(cfg, &p);
        let speedup = svf.speedup_over(&base);
        assert!(speedup > 1.05, "expected SVF speedup on (1+1) vs (1+0), got {speedup:.3}");
        assert!(svf.svf_morphed_loads + svf.svf_morphed_stores > 0);
    }

    #[test]
    fn ideal_svf_at_least_as_fast_as_real() {
        let p = stack_kernel();
        let mut real_cfg = CpuConfig::wide16().with_ports(2, 2);
        real_cfg.stack_engine = StackEngine::Svf;
        let real = run_with(real_cfg, &p);
        let mut ideal_cfg = CpuConfig::wide16().with_ports(2, 0);
        ideal_cfg.stack_engine = StackEngine::IdealSvf;
        let ideal = run_with(ideal_cfg, &p);
        assert!(
            ideal.cycles <= real.cycles + real.cycles / 20,
            "ideal ({}) should not be materially slower than real ({})",
            ideal.cycles,
            real.cycles
        );
    }

    #[test]
    fn gshare_is_slower_than_perfect() {
        let p = compile(
            "
            int seed = 12345;
            int rnd() { seed = seed * 1103515245 + 12345; return (seed >> 16) & 1; }
            int main() {
                int a = 0;
                for (int i = 0; i < 3000; i = i + 1) {
                    if (rnd()) a = a + 3;
                    else a = a - 1;
                }
                print(a);
                return 0;
            }",
        );
        let perfect = run_with(CpuConfig::wide16(), &p);
        let mut g = CpuConfig::wide16();
        g.predictor = PredictorKind::Gshare;
        let gshare = run_with(g, &p);
        assert_eq!(perfect.mispredicts, 0);
        assert!(gshare.mispredicts > 100, "random branches mispredict: {}", gshare.mispredicts);
        assert!(gshare.cycles > perfect.cycles);
    }

    #[test]
    fn squashes_fire_on_pointer_store_then_sp_load() {
        // Write through a pointer to a local, then read the local directly:
        // the classic §3.2 collision. The stored value hangs off a multiply
        // so the store issues late, after the morphed `$sp` load of the same
        // address has already issued early — exactly the eon pattern.
        let p = compile_naive(
            "
            int main() {
                int x = 0;
                int s = 0;
                int* p = &x;
                for (int i = 0; i < 500; i = i + 1) {
                    *p = s * 7 + i;
                    s = s + x;
                }
                print(s);
                return 0;
            }",
        );
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let s = run_with(cfg.clone(), &p);
        assert!(s.svf_squashes > 0, "expected squashes, got {}", s.svf_squashes);

        let mut nsq = cfg;
        nsq.svf_no_squash = true;
        let s2 = run_with(nsq, &p);
        assert_eq!(s2.svf_squashes, 0);
        // In no_squash mode the collision becomes an ordinary forwarding
        // dependence; on this adversarial kernel (every iteration collides)
        // either policy can win, but they must be in the same ballpark.
        assert!(
            s2.cycles < 2 * s.cycles && s.cycles < 2 * s2.cycles,
            "squash ({}) vs no_squash ({}) diverged",
            s.cycles,
            s2.cycles
        );
    }

    #[test]
    fn stack_cache_speeds_up_over_baseline_but_svf_wins() {
        let p = stack_kernel();
        let base = run_with(CpuConfig::wide16().with_ports(2, 0), &p);
        let mut sc_cfg = CpuConfig::wide16().with_ports(2, 2);
        sc_cfg.stack_engine = StackEngine::StackCache;
        let sc = run_with(sc_cfg, &p);
        let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
        svf_cfg.stack_engine = StackEngine::Svf;
        let svf = run_with(svf_cfg, &p);
        assert!(sc.cycles <= base.cycles, "stack cache >= baseline");
        assert!(svf.cycles <= sc.cycles, "SVF >= stack cache");
        assert!(sc.stack_cache_refs > 0);
    }

    #[test]
    fn svf_removes_stack_refs_from_dl1() {
        let p = stack_kernel();
        let base = run_with(CpuConfig::wide16(), &p);
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let svf = run_with(cfg, &p);
        assert!(
            svf.dl1.accesses < base.dl1.accesses / 2,
            "SVF should drain most DL1 accesses: {} vs {}",
            svf.dl1.accesses,
            base.dl1.accesses
        );
    }

    #[test]
    fn morph_fraction_is_high() {
        let p = stack_kernel();
        let mut cfg = CpuConfig::wide16().with_ports(2, 2);
        cfg.stack_engine = StackEngine::Svf;
        let s = run_with(cfg, &p);
        assert!(
            s.morph_fraction() > 0.5,
            "most stack refs morph in the front end: {}",
            s.morph_fraction()
        );
    }

    #[test]
    fn wider_machines_are_not_slower() {
        let p = stack_kernel();
        let w4 = run_with(CpuConfig::wide4(), &p);
        let w16 = run_with(CpuConfig::wide16(), &p);
        assert!(w16.cycles <= w4.cycles);
    }

    #[test]
    fn instruction_budget_is_respected() {
        let p = stack_kernel();
        let s = Simulator::new(CpuConfig::wide16()).run(&p, 1000);
        assert!(s.committed <= 1000 + 64, "budget plus at most one IFQ of slack");
    }
}
