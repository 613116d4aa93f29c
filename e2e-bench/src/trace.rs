//! In-memory span recording and self-time accounting.
//!
//! The benchmark records a span around every call it makes into a layer's
//! public function. Spans carry the layer they time, the bench thread that
//! ran them, the job (program) they belong to, and their parent — which
//! may live on another thread: the span that waits for a set of worker
//! threads is the parent of each worker's span. Self time is a span's
//! duration minus the part of it its children cover; summed over all
//! spans it counts every traced thread-second exactly once.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::quote;

/// The layer name of spans that time the benchmark's own bookkeeping
/// (the root, pass and worker spans) rather than a call into the program.
pub const GLUE: &str = "bench";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: usize,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<usize>,
    /// What was called (`"emu.run"`, …).
    pub name: &'static str,
    /// The layer the call belongs to (`"emu"`, …, or [`GLUE`]).
    pub layer: &'static str,
    /// Bench thread index (0 is the main thread).
    pub thread: usize,
    /// Job (program index) the span worked for, if any.
    pub job: Option<usize>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Units of work the call did (instructions, cycles, accesses, …).
    pub work: u64,
}

impl Span {
    /// `end - start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span sits: its parent, bench thread and job.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// Parent span id.
    pub parent: Option<usize>,
    /// Bench thread index.
    pub thread: usize,
    /// Job index.
    pub job: Option<usize>,
}

impl At {
    /// A child position under `parent` on the same thread and job.
    #[must_use]
    pub fn under(self, parent: usize) -> At {
        At {
            parent: Some(parent),
            ..self
        }
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::default(),
        }
    }

    /// Times `f` as one span at `at`. `f` receives the new span's id (to
    /// parent its own children) and returns its result together with the
    /// units of work it did.
    pub fn span<R>(
        &self,
        at: At,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(usize) -> (R, u64),
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (result, work) = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent: at.parent,
            name,
            layer,
            thread: at.thread,
            job: at.job,
            start_ns,
            end_ns,
            work,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(span);
        result
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span, in the order given: its duration minus the
/// union of its children's intervals (clipped to its own). Children on
/// other threads may overlap each other; their union is subtracted once.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<usize, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of traced thread-time attributed to a program layer: Σ self time
/// of non-[`GLUE`] spans over Σ self time of all spans. 0 for an empty
/// trace.
#[must_use]
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let total: u64 = selfs.iter().sum();
    let layered: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.layer != GLUE)
        .map(|(_, t)| t)
        .sum();
    if total == 0 {
        0.0
    } else {
        layered as f64 / total as f64
    }
}

/// The trace as a JSON document (`workload`, `seed`, and one object per
/// span with its self time).
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"coverage\": {}, \"spans\": [\n",
        quote(workload),
        coverage(spans)
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"layer\": {}, \"thread\": {}, \
             \"job\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"work\": {}}}{}",
            s.id,
            opt(s.parent),
            quote(s.name),
            quote(s.layer),
            s.thread,
            opt(s.job),
            s.start_ns,
            s.end_ns,
            s.work,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        layer: &'static str,
        thread: usize,
        a: u64,
        b: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer,
            thread,
            job: None,
            start_ns: a,
            end_ns: b,
            work: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children_once() {
        let spans = [
            span(0, None, GLUE, 0, 0, 100),
            span(1, Some(0), "emu", 0, 10, 30),
            span(2, Some(1), "cpu", 0, 15, 20),
            // Overlaps the first child: the union (10..50) is subtracted.
            span(3, Some(0), "cpu", 0, 20, 50),
            // Sticks out of its parent: only the clipped part counts.
            span(4, Some(0), "mem", 0, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 15, 5, 30, 30]);
    }

    #[test]
    fn cross_thread_children_count_each_thread_second_once() {
        // A main-thread span waits for two workers; each worker runs one
        // layer call. Both workers overlap for most of the wait.
        let spans = [
            span(0, None, GLUE, 0, 0, 100),
            span(1, Some(0), GLUE, 1, 0, 90),
            span(2, Some(0), GLUE, 2, 5, 100),
            span(3, Some(1), "emu", 1, 0, 90),
            span(4, Some(2), "cpu", 2, 10, 95),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10, 90, 85]);
        let cov = coverage(&spans);
        assert!((cov - 175.0 / 185.0).abs() < 1e-12, "{cov}");
    }

    #[test]
    fn coverage_of_pure_glue_is_zero_and_empty_is_zero() {
        assert_eq!(coverage(&[span(0, None, GLUE, 0, 0, 10)]), 0.0);
        assert_eq!(coverage(&[]), 0.0);
        assert_eq!(coverage(&[span(0, None, "emu", 0, 0, 10)]), 1.0);
    }

    #[test]
    fn tracer_records_parents_and_work() {
        let t = Tracer::new();
        let root = At {
            parent: None,
            thread: 0,
            job: None,
        };
        let v = t.span(root, "outer", GLUE, |id| {
            let inner = t.span(root.under(id), "inner", "emu", |_| (7, 42));
            (inner + 1, 0)
        });
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("recorded");
        let outer = spans.iter().find(|s| s.name == "outer").expect("recorded");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.work, 42);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_json("w", 1, &spans).contains("\"layer\": \"emu\""));
    }
}
