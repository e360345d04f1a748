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
//! * **Determinism** — results land in per-index slots and are read back in
//!   submission order, so [`Par::map`] returns exactly what a sequential
//!   `items.iter().map(f).collect()` would, regardless of scheduling. Any
//!   ordered reduction over the output (report merges, GA selection) is
//!   therefore bit-identical to the sequential run.
//! * **Dynamic load balance** — workers repeatedly claim the next unclaimed
//!   index from a shared atomic cursor (shared-queue work stealing), so one
//!   slow item never stalls the rest of the batch.
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
use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Applies `f` to every item, returning the results in item order.
    ///
    /// Work is distributed dynamically: each worker repeatedly claims the
    /// next unclaimed index from a shared atomic cursor, so a slow item (a
    /// long record, an expensive training candidate) never stalls the others.
    /// Results land in per-index slots, making the output order — and
    /// therefore any ordered reduction over it — independent of scheduling.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers_for(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    let result = f(item);
                    *slots[index]
                        .lock()
                        .expect("result slot poisoned: a worker panicked") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned: a worker panicked")
                    .expect("every index below the cursor was filled")
            })
            .collect()
    }

    /// Fallible [`Par::map`]: short-circuits on the first error *in item
    /// order* (all items still run, but the reported error is deterministic).
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
