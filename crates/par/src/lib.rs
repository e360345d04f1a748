//! # hbc-par — deterministic work-stealing parallelism
//!
//! The substrate the rest of the workspace parallelises on: a scoped-thread
//! runner that spreads independent work items over all cores while keeping
//! the result *bit-identical* to a sequential pass for any thread count.
//!
//! It started life inside `hbc_core::engine`, but training (`hbc-nfc`) needs
//! the same runner and must not depend on the framework crate, so the generic
//! half lives here. `hbc_core::engine` re-bases its beat/record evaluation on
//! this crate and adds the domain-specific batching and report merging on
//! top.
//!
//! Design constraints:
//!
//! * **One scheduling loop** — [`Par::for_each`] is the runner's only
//!   scheduler: workers repeatedly claim the next item from one shared
//!   iterator (shared-queue work stealing), so one slow item never stalls
//!   the rest of the batch. Items may be exclusive borrows, so each worker
//!   can mutate its own disjoint item in place.
//! * **Determinism** — [`Par::map`] runs on [`Par::for_each`] over pairs of
//!   an item and its own result slot, and reads the slots back in
//!   submission order, so it returns exactly what a sequential
//!   `items.iter().map(f).collect()` would, regardless of scheduling. Any
//!   ordered reduction over the output (report merges, GA selection) is
//!   therefore bit-identical to the sequential run.
//! * **No external dependencies** — the build environment has no registry
//!   access, so the runner uses `std::thread::scope` instead of rayon. The
//!   API is deliberately rayon-shaped (`map`-style combinators) so a future
//!   PR can swap the substrate without touching call sites.
//! * **No `'static` bounds** — a [`Par`] holds no threads between calls; each
//!   call spins up a scoped pool and tears it down on return, so closures may
//!   freely borrow datasets and trained models from the caller's stack.
//!   That spawn costs tens of microseconds per call, so a caller whose batch
//!   is smaller than that in work should run it through [`Par::sequential`]
//!   (the same code path, on the caller's thread) instead of fanning out —
//!   as `hbc_core::StreamHub::ingest` does below its fan-out threshold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Work-stealing parallel runner.
///
/// Cheap to construct and `Copy`; the only state is the thread-count policy.
///
/// ```
/// use hbc_par::Par;
///
/// let squares = Par::default().map(&[1, 2, 3, 4], |&x: &i32| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Par {
    threads: Option<NonZeroUsize>,
}

impl Par {
    /// A runner using one worker per available core.
    pub fn new() -> Self {
        Par::default()
    }

    /// A runner with an explicit thread-count policy; `None` means one
    /// worker per available core.
    pub fn with_threads(threads: Option<NonZeroUsize>) -> Self {
        Par { threads }
    }

    /// A runner pinned to one worker — the reference sequential path that
    /// parallel runs are asserted bit-identical against.
    pub fn sequential() -> Self {
        Par {
            threads: NonZeroUsize::new(1),
        }
    }

    /// The configured thread-count policy (`None` = all cores).
    pub fn threads(&self) -> Option<NonZeroUsize> {
        self.threads
    }

    /// The number of workers a call on `items` items would use.
    pub fn workers_for(&self, items: usize) -> usize {
        let hw = self.threads.map(NonZeroUsize::get).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        hw.min(items).max(1)
    }

    /// Runs `f` on every item `items` yields, each item exactly once.
    ///
    /// Workers claim the next item from the shared iterator, so a slow item
    /// (a long record, an expensive training candidate) never stalls the
    /// others. Items may be exclusive borrows (`slice.iter_mut()`): each
    /// worker then mutates its own disjoint item in place. The worker count
    /// follows the iterator's upper size hint; with one worker the items run
    /// on the caller's thread, in iterator order.
    pub fn for_each<I, F>(&self, items: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        F: Fn(I::Item) + Sync,
    {
        let items = items.into_iter();
        let workers = self.workers_for(items.size_hint().1.unwrap_or(usize::MAX));
        if workers <= 1 {
            items.for_each(f);
            return;
        }
        let items = Mutex::new(items);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = items
                        .lock()
                        .expect("item iterator poisoned: its next() panicked")
                        .next();
                    let Some(item) = next else {
                        break;
                    };
                    f(item);
                });
            }
        });
    }

    /// Applies `f` to every item, returning the results in item order.
    ///
    /// Runs through [`Par::for_each`]: each item's result lands in its own
    /// slot, so the output order — and therefore any ordered reduction over
    /// it — is independent of scheduling.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.for_each(results.iter_mut().zip(items), |(slot, item)| {
            *slot = Some(f(item));
        });
        results
            .into_iter()
            .map(|result| result.expect("for_each visits every item"))
            .collect()
    }

    /// Fallible [`Par::map`]: every item runs, and the error reported is
    /// the first *in item order*, so it is deterministic.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing item.
    pub fn try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    fn four_workers() -> Par {
        Par::with_threads(NonZeroUsize::new(4))
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = four_workers().map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert_eq!(doubled, Par::sequential().map(&items, |&x| x * 2));
        assert!(Par::default().map(&[] as &[usize], |&x| x).is_empty());
    }

    #[test]
    fn try_map_reports_the_first_error_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let failed = four_workers().try_map(&items, |&x| -> Result<usize, String> {
            if x % 10 == 3 {
                Err(format!("bad item {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(failed.expect_err("items 3, 13, ... fail"), "bad item 3");
        let ok = four_workers().try_map(&items, |&x| Ok::<usize, String>(x));
        assert_eq!(ok.expect("no failures"), items);
    }

    #[test]
    fn workers_never_exceed_items() {
        let par = Par::default();
        assert_eq!(par.workers_for(0), 1);
        assert_eq!(par.workers_for(1), 1);
        assert!(par.workers_for(10_000) >= 1);
        let two = Par::with_threads(NonZeroUsize::new(2));
        assert_eq!(two.workers_for(10_000), 2);
        assert_eq!(Par::sequential().workers_for(10_000), 1);
        assert_eq!(two.threads(), NonZeroUsize::new(2));
    }

    #[test]
    fn for_each_visits_every_item_once_in_place() {
        for par in [
            Par::sequential(),
            Par::with_threads(NonZeroUsize::new(2)),
            four_workers(),
        ] {
            // (value, visits): each worker mutates its own disjoint item.
            let mut items: Vec<(usize, usize)> = (0..1000).map(|i| (i, 0)).collect();
            par.for_each(&mut items, |(value, visits)| {
                *value *= 2;
                *visits += 1;
            });
            let expected: Vec<(usize, usize)> = (0..1000).map(|i| (2 * i, 1)).collect();
            assert_eq!(items, expected, "{par:?}");
        }
    }

    #[test]
    fn for_each_with_one_worker_runs_in_iterator_order() {
        let order = Mutex::new(Vec::new());
        Par::sequential().for_each((0..100).rev(), |i| {
            order.lock().expect("order log").push(i);
        });
        let order = order.into_inner().expect("order log");
        assert_eq!(order, (0..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn for_each_tolerates_an_overstated_size_hint() {
        // `filter_map` reports its input length as the upper bound, so the
        // runner sizes its pool for far more items than the iterator yields.
        for (len, keep) in [(1000, 3), (8, 8)] {
            let seen = Mutex::new(Vec::new());
            let items = (0..len).filter_map(|i| (i % keep == 0).then_some(i / keep));
            assert_eq!(items.size_hint().1, Some(len));
            four_workers().for_each(items, |i| seen.lock().expect("seen").push(i));
            let mut seen = seen.into_inner().expect("seen");
            seen.sort_unstable();
            assert_eq!(seen, (0..len.div_ceil(keep)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn for_each_runs_items_on_distinct_threads() {
        // As in `map_runs_items_on_distinct_threads`: both items wait on the
        // barrier, so the call only returns if two workers run at once.
        let barrier = Barrier::new(2);
        let ids = Mutex::new(HashSet::new());
        Par::with_threads(NonZeroUsize::new(2)).for_each(0..2, |_| {
            barrier.wait();
            ids.lock().expect("ids").insert(std::thread::current().id());
        });
        assert_eq!(ids.into_inner().expect("ids").len(), 2);
    }

    #[test]
    fn map_runs_items_on_distinct_threads() {
        // Two items rendezvous on a barrier: the map can only complete if two
        // workers claim one item each and reach the barrier concurrently, so
        // completion proves genuine multi-threaded execution.
        let barrier = Barrier::new(2);
        let ids = Par::with_threads(NonZeroUsize::new(2)).map(&[0, 1], |_| {
            barrier.wait();
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 2);
    }
}
