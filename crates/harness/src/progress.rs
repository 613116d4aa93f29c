//! Run-level observability: a live progress line and a final throughput
//! summary (jobs done/total, aggregate simulated Mcycles/s, ETA).

use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Default, Clone, Copy)]
struct State {
    done: usize,
    resumed: usize,
    /// Jobs answered by an earlier job with the same content key.
    shared: usize,
    failed: usize,
    retried: usize,
    timeouts: usize,
    cycles: u64,
    /// Instructions simulated under the detailed model by sampled runs.
    detailed_insts: u64,
    /// Instructions fast-forwarded at functional speed by sampled runs.
    fast_forwarded: u64,
    /// Job-level worker threads this run spawned (0 until the runner says).
    workers: usize,
    /// Widest intra-batch timing fan-out observed so far.
    max_fanout: usize,
    /// Worker utilization, known once the workers have finished.
    util: Option<f64>,
}

/// Shared progress tracker; workers report each finished job.
#[derive(Debug)]
pub(crate) struct Progress {
    enabled: bool,
    name: String,
    total: usize,
    started: Instant,
    state: Mutex<State>,
}

impl Progress {
    pub(crate) fn new(name: &str, total: usize, enabled: bool) -> Progress {
        Progress {
            enabled,
            name: name.to_string(),
            total,
            started: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Records one finished job and repaints the progress line.
    pub(crate) fn record(&self, simulated_cycles: u64, resumed: bool, failed: bool) {
        let snapshot = {
            let mut st = self.state.lock().expect("progress state");
            st.done += 1;
            st.resumed += usize::from(resumed);
            st.failed += usize::from(failed);
            st.cycles += simulated_cycles;
            *st
        };
        if self.enabled {
            eprint!("\r{}", self.line(snapshot));
        }
    }

    /// Records the jobs answered by an earlier identical job: never
    /// attempted, so outside `done` and the total; painted as `shared=N`.
    pub(crate) fn record_shared(&self, shared: usize) {
        self.state.lock().expect("progress state").shared = shared;
    }

    /// Records one retry (a failed attempt that will be re-run). Retries
    /// don't advance `done` — the job is still in flight — but they show up
    /// in the line so a run stuck in retry storms is visibly so.
    pub(crate) fn record_retry(&self) {
        let snapshot = {
            let mut st = self.state.lock().expect("progress state");
            st.retried += 1;
            *st
        };
        if self.enabled {
            eprint!("\r{}", self.line(snapshot));
        }
    }

    /// Records one watchdog expiry (the attempt was abandoned; a retry may
    /// follow). Like retries, timeouts don't advance `done`.
    pub(crate) fn record_timeout(&self) {
        let snapshot = {
            let mut st = self.state.lock().expect("progress state");
            st.timeouts += 1;
            *st
        };
        if self.enabled {
            eprint!("\r{}", self.line(snapshot));
        }
    }

    /// Records one sampled execution's coverage split: how many
    /// instructions ran under the detailed model vs at functional
    /// fast-forward speed. Doesn't advance `done` (the owning job or batch
    /// reports separately); the split shows up on the line so a sampled
    /// run's cost saving is visible while it happens.
    pub(crate) fn record_sample(&self, detailed: u64, fast_forwarded: u64) {
        let snapshot = {
            let mut st = self.state.lock().expect("progress state");
            st.detailed_insts += detailed;
            st.fast_forwarded += fast_forwarded;
            *st
        };
        if self.enabled {
            eprint!("\r{}", self.line(snapshot));
        }
    }

    /// Declares the run's parallelism shape: how many job workers were
    /// spawned and the starting intra-batch fan-out (normally 1). Painted
    /// as a `jobs×fanout` segment once both are known; until then the line
    /// keeps its historical form, so zero never renders.
    pub(crate) fn set_parallelism(&self, workers: usize, fanout: usize) {
        let mut st = self.state.lock().expect("progress state");
        st.workers = workers;
        st.max_fanout = st.max_fanout.max(fanout);
    }

    /// Records the timing fan-out one lockstep batch was granted; the line
    /// reports the widest grant seen, i.e. the run's best effective
    /// parallelism `jobs × fanout`. Doesn't advance `done` or repaint on
    /// its own — the owning batch reports right after.
    pub(crate) fn record_fanout(&self, fanout: usize) {
        let mut st = self.state.lock().expect("progress state");
        st.max_fanout = st.max_fanout.max(fanout);
    }

    /// Records the finished run's worker utilization (busy time over
    /// `workers × wall`); the summary paints it as `util`.
    pub(crate) fn set_utilization(&self, util: f64) {
        self.state.lock().expect("progress state").util = Some(util);
    }

    /// Finishes the line and returns the run-level summary text.
    pub(crate) fn finish(&self) -> String {
        let snapshot = *self.state.lock().expect("progress state");
        let line = self.line(snapshot);
        if self.enabled {
            eprintln!("\r{line}");
        }
        line
    }

    fn line(&self, st: State) -> String {
        let elapsed = self.started.elapsed();
        // A first paint, or a fully-resumed run, can land here with
        // effectively zero elapsed time; a rate against that denominator
        // is meaningless garbage (formerly up to 1e15 "Mcyc/s"). Below a
        // millisecond there is no signal — report zero.
        let secs = elapsed.as_secs_f64();
        let mcyc_s =
            if secs < 1e-3 || st.cycles == 0 { 0.0 } else { st.cycles as f64 / 1e6 / secs };
        let jobs_s = if secs < 1e-3 || st.done == 0 { 0.0 } else { st.done as f64 / secs };
        // With no finished jobs there is no basis for an estimate: show
        // "--" rather than a made-up "0s".
        let eta = if st.done >= self.total {
            Some(Duration::ZERO)
        } else if st.done == 0 {
            None
        } else {
            Some(elapsed.mul_f64((self.total - st.done) as f64 / st.done as f64))
        };
        let eta_text = match eta {
            Some(d) => fmt_eta(d),
            None => "--".to_string(),
        };
        let mut line = format!(
            "[{}] {}/{} jobs  {mcyc_s:.1} Mcyc/s  {jobs_s:.1} jobs/s  eta {eta_text}",
            self.name, st.done, self.total,
        );
        // Effective parallelism: job workers × widest timing fan-out any
        // batch was granted. Guarded so an unset (zero) shape — e.g. the
        // unit tests that drive Progress directly — never paints `0x0`.
        if st.workers > 0 && st.max_fanout > 0 {
            line.push_str(&format!("  ({}x{} jobs x fanout)", st.workers, st.max_fanout));
        }
        if let Some(util) = st.util {
            line.push_str(&format!("  (util {util:.2})"));
        }
        // Sampled coverage: only painted once a sampled execution reported,
        // so full runs keep the historical line verbatim.
        if st.detailed_insts > 0 || st.fast_forwarded > 0 {
            line.push_str(&format!(
                "  (sampled: {} detailed / {} ff insts)",
                fmt_insts(st.detailed_insts),
                fmt_insts(st.fast_forwarded)
            ));
        }
        if st.resumed > 0 {
            line.push_str(&format!("  ({} resumed)", st.resumed));
        }
        if st.shared > 0 {
            line.push_str(&format!("  (shared={})", st.shared));
        }
        if st.retried > 0 {
            line.push_str(&format!("  ({} retried)", st.retried));
        }
        if st.timeouts > 0 {
            line.push_str(&format!("  ({} timed out)", st.timeouts));
        }
        if st.failed > 0 {
            line.push_str(&format!("  ({} FAILED)", st.failed));
        }
        line
    }
}

/// Humanizes an instruction count: `741`, `3.5k`, `12.7M` — sampled sweeps
/// move hundreds of millions of instructions, unreadable raw.
fn fmt_insts(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Humanizes an ETA: seconds under a minute (`42s`), minutes + seconds
/// under an hour (`12m05s`), hours + minutes beyond (`3h07m`) — a
/// thousand-job sweep's five-digit second count is unreadable raw.
fn fmt_eta(d: Duration) -> String {
    let total = d.as_secs_f64().round() as u64;
    if total < 60 {
        format!("{total}s")
    } else if total < 3600 {
        format!("{}m{:02}s", total / 60, total % 60)
    } else {
        format!("{}h{:02}m", total / 3600, (total % 3600) / 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_resumed_and_failed() {
        let p = Progress::new("demo", 3, false);
        p.record(1_000_000, false, false);
        p.record(0, true, false);
        p.record(0, false, true);
        let line = p.finish();
        assert!(line.contains("[demo] 3/3 jobs"), "{line}");
        assert!(line.contains("(1 resumed)"), "{line}");
        assert!(line.contains("(1 FAILED)"), "{line}");
    }

    #[test]
    fn shared_jobs_sit_beside_resumed_and_stay_out_of_the_total() {
        // Five jobs, two of them repeats of an earlier content key: the
        // total counts the three attempted jobs only.
        let p = Progress::new("demo", 3, false);
        p.record_shared(2);
        p.record(0, true, false);
        p.record(0, true, false);
        p.record(0, true, false);
        let line = p.finish();
        assert!(line.contains("[demo] 3/3 jobs"), "{line}");
        assert!(line.contains("(3 resumed)  (shared=2)"), "{line}");
        let quiet = Progress::new("demo", 1, false);
        quiet.record_shared(0);
        quiet.record(1, false, false);
        assert!(!quiet.finish().contains("shared"), "no repeats, no segment");
    }

    #[test]
    fn summary_counts_retries_and_timeouts() {
        let p = Progress::new("demo", 2, false);
        p.record_timeout();
        p.record_retry();
        p.record(100, false, false);
        p.record(100, false, false);
        let line = p.finish();
        assert!(line.contains("2/2 jobs"), "retries don't advance done: {line}");
        assert!(line.contains("(1 retried)"), "{line}");
        assert!(line.contains("(1 timed out)"), "{line}");
        assert!(!line.contains("FAILED"), "{line}");
    }

    #[test]
    fn eta_is_zero_when_done() {
        let p = Progress::new("demo", 1, false);
        p.record(0, false, false);
        assert!(p.finish().contains("eta 0s"));
    }

    #[test]
    fn no_finished_jobs_shows_unknown_eta_and_zero_rate() {
        let p = Progress::new("demo", 2, false);
        let line = p.finish();
        assert!(line.contains("0/2 jobs"), "{line}");
        assert!(line.contains("0.0 Mcyc/s"), "{line}");
        assert!(line.contains("0.0 jobs/s"), "{line}");
        assert!(line.contains("eta --"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn eta_humanizes_across_magnitudes() {
        assert_eq!(fmt_eta(Duration::ZERO), "0s");
        assert_eq!(fmt_eta(Duration::from_secs(42)), "42s");
        assert_eq!(fmt_eta(Duration::from_secs(725)), "12m05s");
        assert_eq!(fmt_eta(Duration::from_secs(11_220)), "3h07m");
        assert_eq!(fmt_eta(Duration::from_secs_f64(59.6)), "1m00s", "rounds, never 60s");
    }

    #[test]
    fn sampled_coverage_appears_once_reported() {
        let p = Progress::new("demo", 2, false);
        p.record(100, false, false);
        assert!(!p.finish().contains("sampled"), "no sampling, no segment");
        p.record_sample(12_000, 3_400_000);
        p.record(100, false, false);
        let line = p.finish();
        assert!(line.contains("2/2 jobs"), "record_sample must not advance done: {line}");
        assert!(line.contains("(sampled: 12.0k detailed / 3.4M ff insts)"), "{line}");
    }

    #[test]
    fn sampled_coverage_accumulates_and_guards_zero() {
        let p = Progress::new("demo", 1, false);
        // A degenerate spec can fast-forward nothing; the segment must
        // still render (the detailed count carries the signal).
        p.record_sample(500, 0);
        p.record_sample(250, 0);
        p.record(1, false, false);
        let line = p.finish();
        assert!(line.contains("(sampled: 750 detailed / 0 ff insts)"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn parallelism_segment_reports_the_widest_fanout() {
        let p = Progress::new("demo", 2, false);
        p.set_parallelism(4, 1);
        p.record(100, false, false);
        assert!(p.finish().contains("(4x1 jobs x fanout)"), "{}", p.finish());
        // A wide batch borrows idle seats; the line keeps the peak.
        p.record_fanout(3);
        p.record_fanout(2);
        p.record(100, false, false);
        let line = p.finish();
        assert!(line.contains("(4x3 jobs x fanout)"), "{line}");
        assert!(line.contains("2/2 jobs"), "record_fanout must not advance done: {line}");
    }

    #[test]
    fn utilization_appears_once_the_run_reports_it() {
        let p = Progress::new("demo", 1, false);
        p.set_parallelism(2, 1);
        p.record(100, false, false);
        assert!(!p.finish().contains("util"), "unknown until the workers finish");
        p.set_utilization(0.934);
        let line = p.finish();
        assert!(line.contains("(2x1 jobs x fanout)  (util 0.93)"), "{line}");
    }

    #[test]
    fn unset_parallelism_never_paints_zero() {
        let p = Progress::new("demo", 1, false);
        p.record(100, false, false);
        let line = p.finish();
        assert!(!line.contains("jobs x fanout"), "{line}");
        assert!(!line.contains("0x0"), "{line}");
    }

    #[test]
    fn instruction_counts_humanize_across_magnitudes() {
        assert_eq!(fmt_insts(0), "0");
        assert_eq!(fmt_insts(741), "741");
        assert_eq!(fmt_insts(3_500), "3.5k");
        assert_eq!(fmt_insts(999_949), "999.9k");
        assert_eq!(fmt_insts(12_700_000), "12.7M");
    }

    #[test]
    fn instant_completion_reports_a_sane_rate() {
        // Resumed jobs complete in microseconds; the rate must not explode
        // against the near-zero elapsed time (it used to reach ~1e15).
        let p = Progress::new("demo", 1, false);
        p.record(5_000_000, true, false);
        let line = p.finish();
        let rate: f64 = line
            .split(" Mcyc/s")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("rate parses: {line}"));
        assert!(rate.is_finite() && rate < 1e6, "absurd rate in {line}");
    }
}
