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
//! behaviour is pinned bit-identical by `tests/golden_stats.rs` at the
//! workspace root:
//!
//! * Seq numbers are dense and monotone, so both machine queues are plain
//!   integer ranges — `head_seq..ifq_head` is the RUU window and
//!   `ifq_head..next_seq` the fetch queue — and all per-entry issue state
//!   lives in flat ring buffers indexed by `seq & seq_mask` ([`Slot`] and
//!   the squash-watch lists). No queue containers, no hashing.
//! * Dispatch runs off the precomputed [`Facts`] (decoded registers,
//!   dependence chains, aliasing store chains, memory classification); the
//!   wide `Retired` record is touched only for the rare `sp_update`
//!   payload and to train a non-trivial predictor. Everything commit needs
//!   is packed into the [`Slot`] at dispatch.
//! * Readiness is one compare: `ready_at` is `UNISSUED` until issue and
//!   the completion cycle after.
//! * The issue stage scans only not-yet-issued entries (`ready`, kept in
//!   age order by in-place compaction) instead of the whole window.
//! * Per-cycle scratch (`scratch_squashes`, the watch lists) is hoisted
//!   into reused buffers; steady-state cycles allocate nothing.

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

/// How an instruction executes (which resources and latency it needs).
/// Discriminants are fixed: the value is packed into three bits of a
/// [`SlotLanes`] meta byte and decoded through [`KIND_DECODE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecKind {
    /// Single-cycle integer op, branch, or system op (ALU pool).
    Alu = 0,
    /// Multiply (multiplier pool).
    Mul = 1,
    /// Divide/remainder (multiplier pool, long latency).
    Div = 2,
    /// Load through the data L1 (D-cache port).
    LoadDl1 = 3,
    /// Store through the data L1 (D-cache port).
    StoreDl1 = 4,
    /// Load serviced by the stack engine (SVF/stack-cache port).
    LoadStack = 5,
    /// Store serviced by the stack engine (SVF/stack-cache port).
    StoreStack = 6,
    /// Morphed SVF access in the ideal (infinite-port) engine: no port.
    Free = 7,
}

/// Three-bit meta-field value back to the enum (index = discriminant).
const KIND_DECODE: [ExecKind; 8] = [
    ExecKind::Alu,
    ExecKind::Mul,
    ExecKind::Div,
    ExecKind::LoadDl1,
    ExecKind::StoreDl1,
    ExecKind::LoadStack,
    ExecKind::StoreStack,
    ExecKind::Free,
];

/// Issue-critical state of one in-flight entry, assembled by dispatch
/// ([`Pipeline::build_slot`]) and then scattered into the per-field lanes
/// of [`SlotLanes`]. Everything the per-cycle issue scan reads is here —
/// and so is the little that commit needs (`commit_flags`), so neither
/// the wide record nor the shared facts are touched after dispatch.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Cycle the entry's result is available: [`UNISSUED`] until issue,
    /// then `issue_cycle + latency`. Committed seqs are never consulted
    /// (the `seq < head_seq` fast path in [`Pipeline::entry_ready`] answers
    /// first).
    ready_at: u64,
    /// Producer seqs this entry waits for (register + memory dependences);
    /// no instruction reads more than two registers.
    deps: [u64; 2],
    /// If the youngest aliasing in-flight store should *forward* (register
    /// or LSQ forwarding), its seq; [`NO_PRODUCER`] if none.
    forward_from: u64,
    /// Base latency once issued.
    latency: u64,
    /// Memoized cycle at which every producer is complete, or
    /// [`ELIGIBLE_UNKNOWN`] while some producer has not issued yet.
    /// Producer completion times are fixed at their issue and committed
    /// producers are complete by definition, so once computed this never
    /// changes — resource-blocked entries recheck with one compare instead
    /// of re-walking their dependences every cycle.
    eligible_at: u64,
    ndeps: u8,
    kind: ExecKind,
    /// A store going through a real queue entry (not morphed): issuing it
    /// may reveal §3.2 collisions with already-issued morphed loads.
    unmorphed_store: bool,
    /// Commit-time facts (the low [`Facts`] flag bits, see
    /// [`COMMIT_FLAG_MASK`]) so commit never re-derives them.
    commit_flags: u8,
}

/// `ready_at` value of a dispatched-but-not-issued entry.
const UNISSUED: u64 = u64::MAX;

/// `eligible_at` value while some producer is still unissued.
const ELIGIBLE_UNKNOWN: u64 = u64::MAX;

/// [`SlotLanes`] meta-byte layout: [`ExecKind`] discriminant.
const META_KIND_MASK: u8 = 0b0000_0111;
/// Meta-byte layout: `ndeps` (two bits, values 0–2).
const META_NDEPS_SHIFT: u8 = 3;
const META_NDEPS_MASK: u8 = 0b0001_1000;
/// Meta-byte layout: the `unmorphed_store` flag.
const META_UNMORPHED_STORE: u8 = 0b0010_0000;

/// The in-flight entries' [`Slot`] fields as structure-of-arrays lanes,
/// ring-indexed by `seq & seq_mask`. Each per-cycle stage streams over
/// only the lanes it touches — commit reads `ready_at` + `commit_flags`
/// (9 contiguous bytes per entry instead of a 64-byte struct stride), the
/// issue scan reads `meta`/`eligible_at`/`latency` and writes `ready_at`,
/// wakeup walks `eligible_at` alone — which keeps each lane dense in
/// cache while N sibling pipelines advance on other cores over the same
/// shared window.
///
/// The rarely-read small fields (`kind`, `ndeps`, `unmorphed_store`) pack
/// into one meta byte rather than three one-byte lanes: they are always
/// read together on the paths that need them.
#[derive(Debug)]
struct SlotLanes {
    /// [`Slot::ready_at`] lane.
    ready_at: Box<[u64]>,
    /// [`Slot::eligible_at`] lane.
    eligible_at: Box<[u64]>,
    /// [`Slot::forward_from`] lane.
    forward_from: Box<[u64]>,
    /// [`Slot::latency`] lane.
    latency: Box<[u64]>,
    /// First and second producer seqs ([`Slot::deps`], split per index).
    dep0: Box<[u64]>,
    dep1: Box<[u64]>,
    /// Packed `kind` | `ndeps` | `unmorphed_store` (see the `META_*`
    /// constants).
    meta: Box<[u8]>,
    /// [`Slot::commit_flags`] lane.
    commit_flags: Box<[u8]>,
}

impl SlotLanes {
    fn new(ring: usize) -> SlotLanes {
        SlotLanes {
            ready_at: vec![UNISSUED; ring].into_boxed_slice(),
            eligible_at: vec![ELIGIBLE_UNKNOWN; ring].into_boxed_slice(),
            forward_from: vec![NO_PRODUCER; ring].into_boxed_slice(),
            latency: vec![0; ring].into_boxed_slice(),
            dep0: vec![0; ring].into_boxed_slice(),
            dep1: vec![0; ring].into_boxed_slice(),
            meta: vec![0; ring].into_boxed_slice(),
            commit_flags: vec![0; ring].into_boxed_slice(),
        }
    }

    /// Scatters a freshly built slot across the lanes (dispatch only).
    #[inline]
    fn set(&mut self, i: usize, s: Slot) {
        self.ready_at[i] = s.ready_at;
        self.eligible_at[i] = s.eligible_at;
        self.forward_from[i] = s.forward_from;
        self.latency[i] = s.latency;
        self.dep0[i] = s.deps[0];
        self.dep1[i] = s.deps[1];
        self.meta[i] = (s.kind as u8)
            | (s.ndeps << META_NDEPS_SHIFT)
            | if s.unmorphed_store { META_UNMORPHED_STORE } else { 0 };
        self.commit_flags[i] = s.commit_flags;
    }

    #[inline]
    fn kind(&self, i: usize) -> ExecKind {
        KIND_DECODE[(self.meta[i] & META_KIND_MASK) as usize]
    }

    #[inline]
    fn ndeps(&self, i: usize) -> usize {
        ((self.meta[i] & META_NDEPS_MASK) >> META_NDEPS_SHIFT) as usize
    }

    #[inline]
    fn unmorphed_store(&self, i: usize) -> bool {
        self.meta[i] & META_UNMORPHED_STORE != 0
    }

    /// Producer seq `k` (`k < ndeps(i)`).
    #[inline]
    fn dep(&self, i: usize, k: usize) -> u64 {
        if k == 0 {
            self.dep0[i]
        } else {
            self.dep1[i]
        }
    }
}

/// The cycle-level simulator. Construct with a [`CpuConfig`] and call
/// [`Simulator::run`]. To sweep several configurations over one shared
/// functional execution, see [`crate::run_lockstep`].
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
        let mut out =
            crate::lockstep::run_lockstep(std::slice::from_ref(&self.cfg), program, max_insts);
        out.pop().expect("one config in, one result out")
    }
}

/// The long-lived microarchitectural state a [`Pipeline`] carries between
/// sampled intervals: the cache hierarchy, the stack engine, the branch
/// predictor, and the fetch unit's last-I-line tracking. Sampled simulation
/// warms this functionally between measured intervals, then injects it into
/// a fresh pipeline with [`Pipeline::from_state`]; a drained pipeline hands
/// it back through [`Pipeline::finish_into_state`].
#[derive(Debug)]
pub(crate) struct EngineState {
    /// The Table 2 cache hierarchy (tags, dirty bits, recency).
    pub hier: Hierarchy,
    /// The SVF, when the config runs one.
    pub svf: Option<StackValueFile>,
    /// The decoupled stack cache, when the config runs one.
    pub stack_cache: Option<StackCache>,
    /// Branch predictor tables.
    pub predictor: Predictor,
    /// Last I-cache line fetched (fetch charges the IL1 once per line; the
    /// line boundary must survive interval boundaries to avoid a spurious
    /// extra fetch charge per interval).
    pub last_fetch_line: u64,
}

impl EngineState {
    /// Cold state for a config, exactly what [`Pipeline::new`] builds.
    pub(crate) fn new(cfg: &CpuConfig, initial_sp: u64) -> EngineState {
        let svf = (cfg.stack_engine == StackEngine::Svf)
            .then(|| StackValueFile::new(cfg.svf, initial_sp));
        let stack_cache =
            (cfg.stack_engine == StackEngine::StackCache).then(|| StackCache::new(cfg.stack_cache));
        EngineState {
            hier: Hierarchy::new(cfg.hierarchy.clone()),
            svf,
            stack_cache,
            predictor: Predictor::new(cfg.predictor, cfg.gshare_history_bits),
            last_fetch_line: u64::MAX,
        }
    }

    /// Zeroes every structure's statistics counters while keeping the
    /// warmed contents — called at the start of each measured interval so
    /// the interval's stats cover only its own accesses.
    pub(crate) fn reset_stats(&mut self) {
        self.hier.reset_stats();
        if let Some(svf) = &mut self.svf {
            svf.reset_stats();
        }
        if let Some(sc) = &mut self.stack_cache {
            sc.reset_stats();
        }
    }
}

/// One timing model advancing over a shared record stream. Owned and
/// driven by the lockstep driver in [`crate::lockstep`]; a single-config
/// [`Simulator::run`] is just a one-pipeline lockstep.
pub(crate) struct Pipeline<'a> {
    cfg: &'a CpuConfig,
    hier: Hierarchy,
    svf: Option<StackValueFile>,
    stack_cache: Option<StackCache>,
    predictor: Predictor,
    stats: SimStats,

    now: u64,
    next_seq: u64,
    head_seq: u64,
    /// Seq of the next instruction to dispatch. Seqs are dense, so the
    /// two queue occupancies are plain differences: `head_seq..ifq_head`
    /// is the RUU window and `ifq_head..next_seq` the fetch queue —
    /// neither needs a container.
    ifq_head: u64,
    /// Hot per-entry issue state as per-field lanes, ring-indexed by
    /// `seq & seq_mask`.
    slots: SlotLanes,
    /// Store seq → morphed loads that issued early against it (§3.2), ring-
    /// indexed by `seq & seq_mask`; each list's capacity is reused forever.
    watch: Box<[Vec<u64>]>,
    /// Ring mask: `capacity - 1`, capacity the RUU window rounded up to a
    /// power of two (so no two in-flight seqs alias).
    seq_mask: u64,
    /// Event-driven issue scheduler: unissued seqs whose producers are all
    /// complete as of `now`, in age order. Only these are scanned each
    /// cycle — dep-blocked entries sit in `waiters`/`wheel` instead.
    ready: Vec<u64>,
    /// Count of `ready` entries per [`ExecKind`] (index `kind as usize`):
    /// lets the issue scan stop as soon as no remaining entry's resource
    /// class has free units.
    ready_kinds: [usize; 8],
    /// Wakeup wheel: `wheel[t % len]` holds seqs whose `eligible_at == t`;
    /// drained when `now` reaches `t`. Length is a power of two larger
    /// than any producer latency (grown on demand).
    wheel: Vec<Vec<u64>>,
    /// Producer seq → consumers waiting for it to *issue* (only then is
    /// their eligibility cycle computable), ring-indexed like `slots`.
    waiters: Box<[Vec<u64>]>,
    /// Reused merge buffer for wheel wakeups.
    scratch: Vec<u64>,
    /// Reused per-cycle squash-victim list.
    scratch_squashes: Vec<u64>,
    lsq_count: usize,

    /// Fetch may not run again before this cycle (mispredict/squash/I-miss).
    fetch_resume_at: u64,
    /// Fetch is waiting for this branch to resolve.
    fetch_blocked_on: Option<u64>,
    /// Decode is interlocked on this non-immediate `$sp` writer.
    decode_block_on: Option<u64>,
    /// Last I-cache line fetched.
    last_fetch_line: u64,
    /// `log2(il1.line_bytes)` — fetch runs once per instruction, so the
    /// line split is a precomputed shift, not a division.
    il1_line_shift: u32,
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
    /// transient machine state (queues, scheduler, cycle counter, stats)
    /// starts empty; sampled simulation uses this to begin each measured
    /// interval with warm caches/predictor but a cold pipeline.
    pub(crate) fn from_state(cfg: &'a CpuConfig, state: EngineState) -> Pipeline<'a> {
        let ring = cfg.ruu_size.next_power_of_two().max(1);
        Pipeline {
            cfg,
            hier: state.hier,
            svf: state.svf,
            stack_cache: state.stack_cache,
            predictor: state.predictor,
            stats: SimStats::default(),
            now: 0,
            next_seq: 0,
            head_seq: 0,
            ifq_head: 0,
            slots: SlotLanes::new(ring),
            watch: vec![Vec::new(); ring].into_boxed_slice(),
            seq_mask: ring as u64 - 1,
            ready: Vec::with_capacity(cfg.ruu_size),
            ready_kinds: [0; 8],
            wheel: vec![Vec::new(); 128],
            waiters: vec![Vec::new(); ring].into_boxed_slice(),
            scratch: Vec::with_capacity(cfg.ruu_size),
            scratch_squashes: Vec::new(),
            lsq_count: 0,
            fetch_resume_at: 0,
            fetch_blocked_on: None,
            decode_block_on: None,
            last_fetch_line: state.last_fetch_line,
            il1_line_shift: cfg.hierarchy.il1.line_bytes.trailing_zeros(),
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
        s.dl1 = self.hier.dl1().stats();
        s.il1 = self.hier.il1().stats();
        s.l2 = self.hier.l2().stats();
        s.svf = self.svf.as_ref().map(|v| v.stats());
        s.stack_cache = self.stack_cache.as_ref().map(|v| v.stats());
        s
    }

    /// Oldest record this pipeline may still read: dispatch consumes at
    /// `ifq_head` and everything older lives on only in [`Slot`]s. The
    /// lockstep driver uses the minimum across pipelines as the window's
    /// retention point.
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
                    let s = &self.slots;
                    (s.kind(i), s.ready_at[i], [s.dep0[i], s.dep1[i]], s.ndeps(i))
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
        let state = EngineState {
            hier: self.hier,
            svf: self.svf,
            stack_cache: self.stack_cache,
            predictor: self.predictor,
            last_fetch_line: self.last_fetch_line,
        };
        (stats, state)
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
            if self.slots.ready_at[sidx] > self.now {
                break;
            }
            // Everything below runs off the `commit_flags` distilled at
            // dispatch; the wide `Retired` record is long gone.
            let cf = self.slots.commit_flags[sidx];
            self.lsq_count -= usize::from(cf & F_MEM != 0);
            if cf & F_STORE != 0 {
                // Drop any §3.2 watches parked on us (only stores collect
                // them).
                self.watch[sidx].clear();
            } else {
                debug_assert!(self.watch[sidx].is_empty(), "watches on a non-store");
            }
            debug_assert!(self.waiters[sidx].is_empty(), "committed with waiters attached");
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

    #[inline]
    fn entry_ready(&self, seq: u64) -> bool {
        // Committed seqs are complete; in-flight seqs answer from their
        // ring slot (producers are always dispatched before consumers, so
        // the slot is live).
        seq < self.head_seq || {
            debug_assert!(seq < self.ifq_head, "querying a not-yet-dispatched seq");
            self.slots.ready_at[(seq & self.seq_mask) as usize] <= self.now
        }
    }

    /// Completion cycle of a producer: `0` if committed (complete at or
    /// before any cycle a consumer can ask about), [`UNISSUED`] if still
    /// waiting to issue, otherwise its fixed done cycle.
    #[inline]
    fn producer_done(&self, seq: u64) -> u64 {
        if seq < self.head_seq {
            0
        } else {
            self.slots.ready_at[(seq & self.seq_mask) as usize]
        }
    }

    fn issue(&mut self) {
        let now = self.now;
        // Wake entries whose eligibility cycle has arrived. Wakeups can be
        // any age, so merge them (sorted) into the age-ordered ready list.
        let widx = (now & (self.wheel.len() as u64 - 1)) as usize;
        if !self.wheel[widx].is_empty() {
            let mut bucket = std::mem::take(&mut self.wheel[widx]);
            bucket.sort_unstable();
            // Merge and count per-kind readiness in the same pass over the
            // woken entries.
            self.scratch.clear();
            let (mut a, mut b) = (0, 0);
            while a < self.ready.len() && b < bucket.len() {
                if self.ready[a] < bucket[b] {
                    self.scratch.push(self.ready[a]);
                    a += 1;
                } else {
                    let s = bucket[b];
                    debug_assert_eq!(self.slots.eligible_at[(s & self.seq_mask) as usize], now);
                    self.ready_kinds[self.slots.kind((s & self.seq_mask) as usize) as usize] += 1;
                    self.scratch.push(s);
                    b += 1;
                }
            }
            self.scratch.extend_from_slice(&self.ready[a..]);
            for &s in &bucket[b..] {
                debug_assert_eq!(self.slots.eligible_at[(s & self.seq_mask) as usize], now);
                self.ready_kinds[self.slots.kind((s & self.seq_mask) as usize) as usize] += 1;
                self.scratch.push(s);
            }
            std::mem::swap(&mut self.ready, &mut self.scratch);
            bucket.clear();
            self.wheel[widx] = bucket; // keep the bucket's capacity
        }
        if self.ready.is_empty() {
            return; // nothing can issue; squashes/wakeups only follow issues
        }

        let mut issue_slots = self.cfg.width;
        let mut alu = self.cfg.int_alus;
        let mut mult = self.cfg.int_mults;
        let mut dl1_ports = self.cfg.dl1_ports;
        let mut stack_ports = self.cfg.stack_ports;
        let head = self.head_seq;

        self.scratch_squashes.clear();
        // Oldest-first over *ready* entries only, compacting survivors in
        // place. `remaining` counts the not-yet-visited entries per kind so
        // the scan can stop once no visitable entry has a free unit — the
        // issue order and resource consumption match a full-window scan.
        let mut ready = std::mem::take(&mut self.ready);
        let mut remaining = self.ready_kinds;
        let mut kept = 0;
        let mut i = 0;
        while i < ready.len() {
            if issue_slots == 0
                || !(remaining[ExecKind::Free as usize] > 0
                    || (alu > 0 && remaining[ExecKind::Alu as usize] > 0)
                    || (mult > 0
                        && remaining[ExecKind::Mul as usize]
                            + remaining[ExecKind::Div as usize]
                            > 0)
                    || (dl1_ports > 0
                        && remaining[ExecKind::LoadDl1 as usize]
                            + remaining[ExecKind::StoreDl1 as usize]
                            > 0)
                    || (stack_ports > 0
                        && remaining[ExecKind::LoadStack as usize]
                            + remaining[ExecKind::StoreStack as usize]
                            > 0))
            {
                break;
            }
            let seq = ready[i];
            i += 1;
            let sidx = (seq & self.seq_mask) as usize;
            let kind = self.slots.kind(sidx);
            debug_assert_eq!(self.slots.ready_at[sidx], UNISSUED);
            debug_assert!(self.slots.eligible_at[sidx] <= now);
            remaining[kind as usize] -= 1;
            let have_resource = match kind {
                ExecKind::Alu => alu > 0,
                ExecKind::Mul | ExecKind::Div => mult > 0,
                ExecKind::LoadDl1 | ExecKind::StoreDl1 => dl1_ports > 0,
                ExecKind::LoadStack | ExecKind::StoreStack => stack_ports > 0,
                ExecKind::Free => true,
            };
            if !have_resource {
                ready[kept] = seq;
                kept += 1;
                continue;
            }
            // Consume resources and issue.
            match kind {
                ExecKind::Alu => alu -= 1,
                ExecKind::Mul | ExecKind::Div => mult -= 1,
                ExecKind::LoadDl1 | ExecKind::StoreDl1 => dl1_ports -= 1,
                ExecKind::LoadStack | ExecKind::StoreStack => stack_ports -= 1,
                ExecKind::Free => {}
            }
            issue_slots -= 1;
            self.ready_kinds[kind as usize] -= 1;
            let done = now + self.slots.latency[sidx];
            self.slots.ready_at[sidx] = done;
            // Our completion cycle is now fixed: consumers blocked on us
            // can compute (or keep chasing) their eligibility.
            if !self.waiters[sidx].is_empty() {
                let mut ws = std::mem::take(&mut self.waiters[sidx]);
                for &w in &ws {
                    self.schedule(w);
                }
                ws.clear();
                self.waiters[sidx] = ws; // keep the list's capacity
            }
            if self.slots.unmorphed_store(sidx) && !self.watch[sidx].is_empty() {
                // A non-sp store issuing late may reveal §3.2 collisions
                // with morphed loads that already issued.
                let mut victims = std::mem::take(&mut self.watch[sidx]);
                for &v in &victims {
                    if v >= head
                        && v < self.ifq_head
                        && self.slots.ready_at[(v & self.seq_mask) as usize] != UNISSUED
                    {
                        self.scratch_squashes.push(v);
                    }
                }
                victims.clear();
                self.watch[sidx] = victims; // keep the list's capacity
            }
            // Resolve a fetch block waiting on this branch.
            if self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
                let resume = done + self.cfg.redirect_penalty;
                self.fetch_resume_at = self.fetch_resume_at.max(resume);
            }
        }
        // Width or resources exhausted: the rest stays ready — one memmove,
        // skipped entirely when nothing ahead of the tail issued.
        let tail = ready.len() - i;
        if kept != i {
            ready.copy_within(i.., kept);
        }
        ready.truncate(kept + tail);
        // `schedule` during the scan only targets future cycles (a producer
        // finishing at `now + latency` can't ready anyone *this* cycle), so
        // nothing was pushed onto the (taken) ready list behind our back.
        debug_assert!(self.ready.is_empty());
        self.ready = ready;
        for _victim in &self.scratch_squashes {
            self.stats.svf_squashes += 1;
            self.fetch_resume_at = self.fetch_resume_at.max(now + self.cfg.squash_penalty);
        }
    }

    /// Routes an unissued entry to the right scheduler structure: onto an
    /// unissued producer's waiter list, into the wakeup wheel for a future
    /// eligibility cycle, or straight into the ready list.
    fn schedule(&mut self, seq: u64) {
        let sidx = (seq & self.seq_mask) as usize;
        let mut t = 0u64;
        for k in 0..self.slots.ndeps(sidx) {
            let d = self.slots.dep(sidx, k);
            let done = self.producer_done(d);
            if done == UNISSUED {
                self.waiters[(d & self.seq_mask) as usize].push(seq);
                return;
            }
            t = t.max(done);
        }
        let forward_from = self.slots.forward_from[sidx];
        if forward_from != NO_PRODUCER {
            let done = self.producer_done(forward_from);
            if done == UNISSUED {
                self.waiters[(forward_from & self.seq_mask) as usize].push(seq);
                return;
            }
            t = t.max(done);
        }
        self.slots.eligible_at[sidx] = t;
        if t <= self.now {
            // Only reachable from dispatch (producers all complete): `seq`
            // is the youngest in flight, so pushing keeps the age order.
            debug_assert!(self.ready.last().is_none_or(|&r| r < seq));
            self.ready.push(seq);
            self.ready_kinds[self.slots.kind(sidx) as usize] += 1;
        } else {
            let delta = t - self.now;
            if delta >= self.wheel.len() as u64 {
                self.grow_wheel(delta);
            }
            let widx = (t & (self.wheel.len() as u64 - 1)) as usize;
            self.wheel[widx].push(seq);
        }
    }

    /// Doubles the wheel until `delta` cycles ahead fit, re-bucketing the
    /// queued entries by their stored eligibility cycle.
    fn grow_wheel(&mut self, delta: u64) {
        let mut len = self.wheel.len();
        while delta >= len as u64 {
            len *= 2;
        }
        let old = std::mem::replace(&mut self.wheel, vec![Vec::new(); len]);
        for bucket in old {
            for seq in bucket {
                let t = self.slots.eligible_at[(seq & self.seq_mask) as usize];
                debug_assert!(t > self.now && t - self.now < len as u64);
                self.wheel[(t & (len as u64 - 1)) as usize].push(seq);
            }
        }
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
                if self.entry_ready(block) {
                    self.decode_block_on = None;
                } else {
                    self.stats.sp_interlock_stalls += 1;
                    break;
                }
            }
            if self.ifq_head == self.next_seq {
                break; // fetch queue empty
            }
            // Everything issue and commit need comes from the shared facts;
            // the wide record is only consulted for `sp_update` payloads.
            let f = win.fact(self.ifq_head);
            if f.flags & F_MEM != 0 && self.lsq_count >= self.cfg.lsq_size {
                break;
            }
            let seq = self.ifq_head;
            self.ifq_head += 1;
            let slot = self.build_slot(seq, f, win);
            self.lsq_count += usize::from(f.flags & F_MEM != 0);
            if f.flags & F_SP_INTERLOCK != 0 {
                self.decode_block_on = Some(seq);
            }
            let sidx = (seq & self.seq_mask) as usize;
            debug_assert!(self.watch[sidx].is_empty(), "watch ring slot was recycled dirty");
            debug_assert!(self.waiters[sidx].is_empty(), "waiter ring slot was recycled dirty");
            self.slots.set(sidx, slot);
            self.schedule(seq);
        }
    }

    /// Builds the hot-path slot for a dispatching instruction: classifies
    /// the execution kind, steers memory references to the right structure,
    /// computes latencies and collects dependences — all off the shared
    /// [`Facts`].
    #[allow(clippy::too_many_lines)]
    fn build_slot(&mut self, seq: u64, f: &Facts, win: &Window) -> Slot {
        // Speculative $sp tracking (§3.1): immediate adjustments update the
        // stack engine in decode, in program order. The payload lives in
        // the wide record (rare enough not to bloat the facts).
        if f.flags & F_SP_UPDATE != 0 {
            if let Some(svf) = self.svf.as_mut() {
                let sp = win.record(seq).sp_update.expect("F_SP_UPDATE implies a payload");
                svf.on_sp_update(sp.old_sp, sp.new_sp);
            }
        }

        let mut morphed = false;
        let mut forward_from = None;
        let mut kind;
        let mut latency;
        let mut drop_sp_dep = false;

        if f.flags & F_MEM != 0 {
            let is_stack = f.flags & F_STACK != 0;
            let is_store = f.flags & F_STORE != 0;
            let sp_base = f.flags & F_SP_BASE != 0;
            let addr = f.addr;
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
            enum Route {
                Dl1,
                Morph,
                Reroute,
                StackCache,
                IdealMorph,
            }
            let route = match (self.cfg.stack_engine, is_stack) {
                (StackEngine::IdealSvf, true) => Route::IdealMorph,
                (StackEngine::StackCache, true) => Route::StackCache,
                (StackEngine::Svf, true) => {
                    let svf = self.svf.as_ref().expect("svf engine");
                    if !svf.in_range(addr) {
                        self.stats.svf_out_of_window += 1;
                        Route::Dl1
                    } else if sp_base {
                        Route::Morph
                    } else {
                        Route::Reroute
                    }
                }
                _ => Route::Dl1,
            };

            match route {
                Route::Dl1 => {
                    let lat = self.hier.data_access(addr, is_store);
                    if is_store {
                        kind = ExecKind::StoreDl1;
                        latency = 1;
                    } else {
                        kind = ExecKind::LoadDl1;
                        latency = lat;
                        // LSQ forwarding from the youngest aliasing store.
                        if let Some(d) = youngest {
                            forward_from = Some(d);
                            latency = self.cfg.store_forward_latency;
                        }
                    }
                    if self.cfg.no_addr_calc_for_stack && sp_base && is_stack {
                        drop_sp_dep = true;
                    }
                }
                Route::Morph => {
                    morphed = true;
                    drop_sp_dep = true; // early address resolution in decode
                    let svf = self.svf.as_mut().expect("svf engine");
                    if is_store {
                        self.stats.svf_morphed_stores += 1;
                        let acc = svf.store(addr, f.size).expect("in range");
                        // Morphed stores are plain register writes in the
                        // pipeline; the SVF array is updated at commit off
                        // the critical path (§3.2: "the morphed references
                        // are committed to the SVF"), so no read-port use.
                        kind = ExecKind::Free;
                        latency =
                            1 + if acc.filled { self.hier.data_access(addr, false) } else { 0 };
                    } else {
                        self.stats.svf_morphed_loads += 1;
                        let acc = svf.load(addr, f.size).expect("in range");
                        kind = ExecKind::LoadStack;
                        latency =
                            1 + if acc.filled { self.hier.data_access(addr, false) } else { 0 };
                        // Register-style forwarding from sp-based stores:
                        // the value is read from the physical register file
                        // through the RAT (§5.3.1), not through an SVF port.
                        if let Some(d) = sp_live {
                            forward_from = Some(d);
                            kind = ExecKind::Free;
                        }
                        // §3.2: an older non-sp store to the same address
                        // that has not issued yet is a squash hazard.
                        if let Some(d) = other_live {
                            if self.cfg.svf_no_squash {
                                forward_from = Some(forward_from.map_or(d, |f| f.max(d)));
                            } else {
                                // The store is in flight, so its watch-ring
                                // slot is live.
                                self.watch[(d & self.seq_mask) as usize].push(seq);
                            }
                        }
                    }
                }
                Route::Reroute => {
                    self.stats.svf_rerouted += 1;
                    let svf = self.svf.as_mut().expect("svf engine");
                    let penalty = 2; // address calc + late bounds check (§3)
                    if is_store {
                        let acc = svf.store(addr, f.size).expect("in range");
                        kind = ExecKind::StoreStack;
                        latency =
                            1 + if acc.filled { self.hier.data_access(addr, false) } else { 0 };
                    } else {
                        let acc = svf.load(addr, f.size).expect("in range");
                        kind = ExecKind::LoadStack;
                        latency = penalty
                            + if acc.filled { self.hier.data_access(addr, false) } else { 0 };
                        if let Some(d) = youngest {
                            forward_from = Some(d);
                            latency = latency.max(self.cfg.store_forward_latency);
                        }
                    }
                }
                Route::StackCache => {
                    self.stats.stack_cache_refs += 1;
                    let sc = self.stack_cache.as_mut().expect("stack cache engine");
                    let hit = sc.access(addr, is_store);
                    let miss_extra = if hit { 0 } else { self.hier.l2_access(addr, is_store) };
                    if is_store {
                        kind = ExecKind::StoreStack;
                        latency = 1 + miss_extra;
                    } else {
                        kind = ExecKind::LoadStack;
                        latency = sc.hit_latency() + miss_extra;
                        if let Some(d) = youngest {
                            forward_from = Some(d);
                            latency = latency.max(self.cfg.store_forward_latency);
                        }
                    }
                }
                Route::IdealMorph => {
                    morphed = true;
                    drop_sp_dep = sp_base;
                    if is_store {
                        self.stats.svf_morphed_stores += 1;
                        kind = ExecKind::Free;
                        latency = 1;
                    } else {
                        self.stats.svf_morphed_loads += 1;
                        kind = ExecKind::Free;
                        latency = 1;
                        forward_from = youngest;
                    }
                }
            }
        } else {
            // Non-memory instruction.
            kind = match f.kind {
                1 => ExecKind::Mul,
                2 => ExecKind::Div,
                _ => ExecKind::Alu,
            };
            latency = match kind {
                ExecKind::Mul => self.cfg.mul_latency,
                ExecKind::Div => self.cfg.div_latency,
                _ => 1,
            };
        }

        // Register dependences off the precomputed youngest-earlier-writer
        // chains; the liveness filter against our commit head (and the SVF's
        // dropped $sp dependence) is the only per-config part.
        let mut deps = [0u64; 2];
        let mut ndeps = 0u8;
        for i in 0..f.ndeps as usize {
            if drop_sp_dep && f.dep_sp & (1 << i) != 0 {
                continue;
            }
            let p = f.deps[i];
            if p >= self.head_seq {
                deps[ndeps as usize] = p;
                ndeps += 1;
            }
        }

        // The event-driven scheduler wakes consumers strictly after their
        // producer's issue cycle; zero-latency producers would need
        // same-cycle wakeup, which no modelled unit has.
        debug_assert!(latency >= 1, "zero-latency execution is not modelled");
        Slot {
            ready_at: UNISSUED,
            deps,
            forward_from: forward_from.unwrap_or(NO_PRODUCER),
            latency,
            eligible_at: ELIGIBLE_UNKNOWN,
            ndeps,
            kind,
            unmorphed_store: f.flags & F_STORE != 0 && !morphed,
            commit_flags: f.flags & COMMIT_FLAG_MASK,
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
            // I-cache: charge once per line.
            let line = f.pc >> self.il1_line_shift;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let lat = self.hier.inst_fetch(f.pc);
                if lat > self.cfg.hierarchy.il1.hit_latency {
                    self.fetch_resume_at = self.now + lat;
                }
            }
            self.next_seq += 1;
            let is_control = f.flags & F_CONTROL != 0;
            let taken = f.flags & F_TAKEN != 0;
            let correct =
                if is_control { self.predictor.predict_and_update(win.record(seq)) } else { true };
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
