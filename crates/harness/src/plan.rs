//! The batch plan: how one [`Harness::run`](crate::Harness::run) cuts its
//! fresh jobs into lockstep batches and hands them to the workers.
//!
//! Jobs sharing a program form a *group* ([`group_jobs`]). After resume,
//! each group's fresh jobs split into a *shared* set, which rides lockstep
//! batches, and an *isolated tail*: fault-planned or quarantined jobs as
//! batches of one, then a lone sharer (a shared set of one). The shared set
//! is cut into contiguous *pieces* in job-id order, at most
//! `cap = ⌈fresh / (2 × workers)⌉` jobs each and sizes differing by at most
//! one, so every worker gets at least two pieces and a run ends with about
//! one piece of idle time instead of one whole group. With one worker
//! nothing is cut.
//!
//! The pieces queue in group order. The worker that finishes a group's
//! *last* piece runs that group's tail, so a tail job — a planted `abort`,
//! say — starts only once every shared result of its group is stored.
//!
//! A piece costs one functional pass of its program; lockstep is
//! timing-invisible, so the cut never changes a result.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::pool::ThreadBudget;

/// Partitions `(job index, program key)` pairs into groups: per program
/// key when `lockstep` (in first-appearance order, members in id order),
/// singletons otherwise.
pub(crate) fn group_jobs(jobs: &[(usize, u128)], lockstep: bool) -> Vec<Vec<usize>> {
    if !lockstep {
        return jobs.iter().map(|&(i, _)| vec![i]).collect();
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_program: HashMap<u128, usize> = HashMap::new();
    for &(i, program) in jobs {
        match by_program.entry(program) {
            Entry::Occupied(e) => groups[*e.get()].push(i),
            Entry::Vacant(v) => {
                v.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// One queue entry: a contiguous piece of a group's shared jobs. A group
/// with no shared batch queues one empty piece, which only leads to its
/// tail.
#[derive(Debug)]
struct Piece {
    group: usize,
    jobs: Vec<usize>,
}

/// Every fresh job of a run, as queued pieces plus per-group tails.
#[derive(Debug)]
pub(crate) struct Plan {
    pieces: Vec<Piece>,
    /// Per group, the batches its last piece's worker runs afterwards.
    tails: Vec<Vec<Vec<usize>>>,
}

impl Plan {
    /// Plans `groups` — each group's *fresh* job indices, in id order, so
    /// resumed jobs never count toward the cap — for `workers` workers.
    /// `isolated` marks jobs that must run as batches of one.
    pub(crate) fn new(
        groups: Vec<Vec<usize>>,
        isolated: impl Fn(usize) -> bool,
        workers: usize,
    ) -> Plan {
        let fresh: usize = groups.iter().map(Vec::len).sum();
        let cap = if workers > 1 { fresh.div_ceil(2 * workers) } else { usize::MAX };
        let mut plan = Plan { pieces: Vec::new(), tails: Vec::new() };
        for members in groups.into_iter().filter(|g| !g.is_empty()) {
            let group = plan.tails.len();
            let (alone, shared): (Vec<usize>, Vec<usize>) =
                members.into_iter().partition(|&i| isolated(i));
            let mut tail: Vec<Vec<usize>> = alone.into_iter().map(|i| vec![i]).collect();
            if shared.len() > 1 {
                let n = shared.len();
                let k = n.div_ceil(cap);
                let mut rest = shared.as_slice();
                for p in 0..k {
                    let (piece, after) = rest.split_at(n / k + usize::from(p < n % k));
                    plan.pieces.push(Piece { group, jobs: piece.to_vec() });
                    rest = after;
                }
            } else {
                tail.extend(shared.into_iter().map(|i| vec![i]));
                plan.pieces.push(Piece { group, jobs: Vec::new() });
            }
            plan.tails.push(tail);
        }
        plan
    }

    /// Queued pieces: the most workers the plan can keep busy.
    pub(crate) fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Drains the queue on `workers` scoped threads, calling `execute` on
    /// every batch, and returns each worker's busy time. A worker that
    /// finds the queue empty donates its seat to `budget`, so the next
    /// batch anyone claims — a later piece, a retry or a bisection half —
    /// may fan out wider; a batch already running keeps its fan-out.
    pub(crate) fn drain(
        &self,
        workers: usize,
        budget: &ThreadBudget,
        execute: impl Fn(&[usize]) + Sync,
    ) -> Vec<Duration> {
        let next = AtomicUsize::new(0);
        let mut left: Vec<AtomicUsize> = self.tails.iter().map(|_| AtomicUsize::new(0)).collect();
        for piece in &self.pieces {
            *left[piece.group].get_mut() += 1;
        }
        let worker = || {
            let mut busy = Duration::ZERO;
            while let Some(piece) = self.pieces.get(next.fetch_add(1, Ordering::Relaxed)) {
                let t0 = Instant::now();
                if !piece.jobs.is_empty() {
                    execute(&piece.jobs);
                }
                // The worker finishing a group's last piece runs its tail.
                // AcqRel: each finisher releases its piece's stores, and
                // the last one acquires them all before the tail starts.
                if left[piece.group].fetch_sub(1, Ordering::AcqRel) == 1 {
                    for batch in &self.tails[piece.group] {
                        execute(batch);
                    }
                }
                busy += t0.elapsed();
            }
            budget.worker_exited();
            busy
        };
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Barrier, Mutex};

    use super::*;

    fn pieces(plan: &Plan) -> Vec<Vec<usize>> {
        plan.pieces.iter().map(|p| p.jobs.clone()).collect()
    }

    /// Every job the plan runs, pieces then tails, sorted.
    fn covered(plan: &Plan) -> Vec<usize> {
        let mut all: Vec<usize> = plan
            .pieces
            .iter()
            .flat_map(|p| p.jobs.iter().copied())
            .chain(plan.tails.iter().flatten().flatten().copied())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn oversized_groups_split_into_balanced_contiguous_pieces() {
        // The random sweep's shape: two programs x 32 points at 2 workers.
        let groups = vec![(0..32).collect(), (32..64).collect()];
        let plan = Plan::new(groups, |_| false, 2);
        let expect: Vec<Vec<usize>> =
            vec![(0..16).collect(), (16..32).collect(), (32..48).collect(), (48..64).collect()];
        assert_eq!(pieces(&plan), expect, "cap 16: four pieces of 16 in id order");
        assert!(plan.tails.iter().all(Vec::is_empty));

        // 11 jobs, cap 2 at 3 workers: six pieces of 2 or 1, never 3.
        let plan = Plan::new(vec![(0..11).collect()], |_| false, 3);
        let sizes: Vec<usize> = plan.pieces.iter().map(|p| p.jobs.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2, 2, 2, 1]);
        assert_eq!(covered(&plan), (0..11).collect::<Vec<_>>(), "every job exactly once");
        for w in plan.pieces.windows(2) {
            assert!(w[0].jobs.last() < w[1].jobs.first(), "pieces follow id order");
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one_and_cover_exactly() {
        for workers in 2..6 {
            for n in 2..40 {
                let plan = Plan::new(vec![(0..n).collect()], |_| false, workers);
                let sizes: Vec<usize> = plan.pieces.iter().map(|p| p.jobs.len()).collect();
                let cap = n.div_ceil(2 * workers);
                assert!(sizes.iter().all(|s| (1..=cap).contains(s)), "{n}/{workers}: {sizes:?}");
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{n}/{workers}: unbalanced {sizes:?}");
                assert_eq!(plan.len(), n.div_ceil(cap), "{n}/{workers}: fewest pieces under cap");
                assert_eq!(covered(&plan), (0..n).collect::<Vec<_>>(), "{n}/{workers}");
            }
        }
    }

    #[test]
    fn one_worker_or_singleton_groups_never_split() {
        let plan = Plan::new(vec![(0..32).collect(), (32..64).collect()], |_| false, 1);
        assert_eq!(pieces(&plan), vec![(0..32).collect::<Vec<_>>(), (32..64).collect()]);

        // Eleven one-job groups (the sampled workload's shape): each lone
        // job is its group's tail behind an empty piece, as before.
        let plan = Plan::new((0..11).map(|i| vec![i]).collect(), |_| false, 2);
        assert_eq!(plan.len(), 11);
        assert!(plan.pieces.iter().all(|p| p.jobs.is_empty()));
        assert_eq!(plan.tails, (0..11).map(|i| vec![vec![i]]).collect::<Vec<_>>());
    }

    #[test]
    fn cap_counts_fresh_jobs_only() {
        // Two 32-job programs, 16 of the first already resumed: 48 fresh
        // jobs at 2 workers give cap 12, not the 16 that 64 would.
        let groups = vec![(16..32).collect(), (32..64).collect()];
        let plan = Plan::new(groups, |_| false, 2);
        let sizes: Vec<usize> = plan.pieces.iter().map(|p| p.jobs.len()).collect();
        assert_eq!(sizes, vec![8, 8, 11, 11, 10]);
        // Fully resumed groups drop out of the plan.
        let plan = Plan::new(vec![Vec::new(), (0..4).collect()], |_| false, 2);
        assert_eq!(plan.tails.len(), 1);
        assert_eq!(covered(&plan), vec![0, 1, 2, 3]);
    }

    #[test]
    fn isolated_jobs_and_a_lone_sharer_form_the_tail_in_order() {
        // Jobs 1 and 4 isolated: shared {0, 2, 3, 5} splits, tail [1], [4].
        let plan = Plan::new(vec![(0..6).collect()], |i| i == 1 || i == 4, 2);
        assert_eq!(pieces(&plan), vec![vec![0, 2], vec![3, 5]]);
        assert_eq!(plan.tails, vec![vec![vec![1], vec![4]]]);

        // A lone sharer runs after the isolated jobs, behind an empty piece.
        let plan = Plan::new(vec![vec![2, 3]], |i| i == 2, 2);
        assert_eq!(pieces(&plan), vec![Vec::<usize>::new()]);
        assert_eq!(plan.tails, vec![vec![vec![2], vec![3]]]);
    }

    #[test]
    fn a_groups_tail_runs_only_after_its_last_piece() {
        // Group 0 = pieces {0,1}, {2,3} and tail [4]; group 1 = {5,6},
        // {7,8}. The barrier holds the first piece until the other worker
        // has run every other piece, so it finishes last: the tail must
        // wait for it, not for group 0's highest-numbered piece.
        let groups = vec![(0..5).collect(), (5..9).collect()];
        let plan = Plan::new(groups, |i| i == 4, 2);
        assert_eq!(plan.len(), 4);
        let events: Mutex<Vec<(&str, Vec<usize>)>> = Mutex::new(Vec::new());
        let record = |what, batch: &[usize]| {
            events.lock().expect("event log").push((what, batch.to_vec()));
        };
        let barrier = Barrier::new(2);
        let busy = plan.drain(2, &ThreadBudget::serial(), |batch| {
            record("start", batch);
            match batch[0] {
                0 => {
                    barrier.wait();
                }
                7 => {
                    record("end", batch);
                    barrier.wait();
                    return;
                }
                _ => {}
            }
            record("end", batch);
        });
        assert_eq!(busy.len(), 2);
        let events = events.into_inner().expect("event log");
        let at = |what: &str, batch: &[usize]| {
            events.iter().position(|(w, b)| *w == what && b == batch).expect("event recorded")
        };
        let tail_start = at("start", &[4]);
        assert!(at("end", &[7, 8]) < at("end", &[0, 1]), "{events:?}");
        assert!(at("end", &[0, 1]) < tail_start, "tail ran before the last piece: {events:?}");
        let starts = events.iter().filter(|(w, _)| *w == "start").count();
        assert_eq!(starts, 5, "every batch runs exactly once: {events:?}");
    }
}
