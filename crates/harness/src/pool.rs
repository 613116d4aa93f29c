//! The worker pool: a shared atomic work queue drained by scoped threads,
//! with per-item panic isolation and failure classification, plus the
//! thread budget shared between job workers and intra-batch fan-out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::error::JobError;

/// Arbiter for one machine-wide thread budget shared between job-level
/// workers and intra-batch timing fan-out.
///
/// A budget of `total` threads first funds the `workers` job threads; the
/// remainder is a spare pool that lockstep batches [`claim`](Self::claim)
/// extra timing threads from as they start, so `jobs × fanout` never
/// exceeds `total`. When a job worker drains the queue and exits it
/// [returns its seat](Self::worker_exited) to the spare pool. Only the
/// next claim uses it — a later piece of the batch plan, a retry or a
/// bisection half started by a surviving worker; a batch already running
/// keeps the fan-out it claimed. With `total <= workers` the spare pool
/// starts empty and every claim before the first seat donation is a
/// serial fanout of 1.
pub struct ThreadBudget {
    spare: AtomicUsize,
}

impl ThreadBudget {
    /// Budget `total` threads across `workers` job threads; whatever is
    /// left over funds intra-batch fan-out.
    pub fn new(total: usize, workers: usize) -> Self {
        ThreadBudget { spare: AtomicUsize::new(total.saturating_sub(workers)) }
    }

    /// A budget with no spare threads: every claim yields fanout 1.
    pub fn serial() -> Self {
        ThreadBudget { spare: AtomicUsize::new(0) }
    }

    /// Claims up to `width - 1` extra threads for a batch of `width`
    /// pipelines (the calling thread is always the first). The claim is
    /// best-effort: it takes whatever the spare pool holds, never blocks,
    /// and returns the threads when dropped.
    pub fn claim(&self, width: usize) -> FanoutClaim<'_> {
        let want = width.saturating_sub(1);
        let taken = self
            .spare
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| Some(s - s.min(want)))
            .map(|prev| prev.min(want))
            .unwrap_or(0);
        FanoutClaim { budget: self, extra: taken }
    }

    /// Returns a job worker's seat to the spare pool after it drains the
    /// queue, so the next batch a surviving worker claims can fan out
    /// wider.
    pub fn worker_exited(&self) {
        self.spare.fetch_add(1, Ordering::Release);
    }

    /// Spare threads currently available to claims (test/diagnostic hook).
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::Acquire)
    }
}

/// RAII grant of extra timing threads from a [`ThreadBudget`]; returns
/// them to the pool on drop.
pub struct FanoutClaim<'a> {
    budget: &'a ThreadBudget,
    extra: usize,
}

impl FanoutClaim<'_> {
    /// Total timing threads this batch may use: the calling thread plus
    /// every extra granted (always `>= 1`).
    pub fn fanout(&self) -> usize {
        1 + self.extra
    }
}

impl Drop for FanoutClaim<'_> {
    fn drop(&mut self) {
        if self.extra > 0 {
            self.budget.spare.fetch_add(self.extra, Ordering::Release);
        }
    }
}

/// Renders a payload from [`catch_unwind`] as a readable failure message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Applies `f` to every item on up to `workers` threads, returning results
/// in item order. A panicking call is isolated to its own item and reported
/// as a classified `Err` ([`JobError::Panic`], or [`JobError::Injected`]
/// for fault-plan panics); sibling items still complete. With
/// `workers == 1` this degenerates to a plain (but still panic-isolated)
/// serial map.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, JobError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = catch_unwind(AssertUnwindSafe(|| f(item)))
                    .map_err(|p| JobError::from_panic(p.as_ref()));
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("every item visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let serial = parallel_map(1, &items, |x| x * x);
        let wide = parallel_map(8, &items, |x| x * x);
        assert_eq!(serial, wide);
        assert_eq!(wide[7], Ok(49));
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map(4, &items, |&x| {
            assert!(x != 3, "item three explodes");
            x
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("item 3 failed");
                assert!(matches!(e, JobError::Panic(_)), "classified as a panic: {e:?}");
                assert!(e.to_string().contains("item three explodes"), "{e}");
            } else {
                assert_eq!(*r, Ok(i as u64), "siblings of a panicking item survive");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<Result<u64, JobError>> = parallel_map(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn budget_claims_are_capped_by_width_and_spare() {
        // 8 threads, 2 workers => 6 spare.
        let budget = ThreadBudget::new(8, 2);
        assert_eq!(budget.spare(), 6);

        // A 4-wide batch wants 3 extras and gets them all.
        let a = budget.claim(4);
        assert_eq!(a.fanout(), 4);
        assert_eq!(budget.spare(), 3);

        // A 6-wide batch wants 5 extras but only 3 remain.
        let b = budget.claim(6);
        assert_eq!(b.fanout(), 4);
        assert_eq!(budget.spare(), 0);

        // The pool is dry: further claims run serial, never negative.
        let c = budget.claim(10);
        assert_eq!(c.fanout(), 1);
        assert_eq!(budget.spare(), 0);

        // Drops return exactly what was granted.
        drop(b);
        assert_eq!(budget.spare(), 3);
        drop(a);
        drop(c);
        assert_eq!(budget.spare(), 6);
    }

    #[test]
    fn exhausted_budget_yields_serial_fanout() {
        let budget = ThreadBudget::serial();
        assert_eq!(budget.claim(8).fanout(), 1);
        // A width-1 (or degenerate width-0) batch never asks for extras.
        let roomy = ThreadBudget::new(16, 1);
        assert_eq!(roomy.claim(1).fanout(), 1);
        assert_eq!(roomy.claim(0).fanout(), 1);
        assert_eq!(roomy.spare(), 15);
    }

    #[test]
    fn exiting_workers_donate_their_seats() {
        // 4 threads fully consumed by 4 workers: no spare at first.
        let budget = ThreadBudget::new(4, 4);
        assert_eq!(budget.claim(6).fanout(), 1);

        // Two workers drain the queue and exit; a wide batch on a
        // surviving worker borrows both idle seats.
        budget.worker_exited();
        budget.worker_exited();
        let claim = budget.claim(6);
        assert_eq!(claim.fanout(), 3);
        drop(claim);
        assert_eq!(budget.spare(), 2);
    }
}
