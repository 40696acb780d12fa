//! The one worker pool: every parallel section of training, scanning,
//! ensembles and evaluation fans out through [`parallel_map_with`].
//!
//! * `threads` follows one rule, [`resolve_threads`]: `0` means all
//!   available cores, and a section never runs more workers than it has
//!   items.
//! * Workers claim item indices from a shared atomic cursor, so uneven
//!   per-item cost balances itself, and each result lands in its item's
//!   slot: output order is input order at any thread count.
//! * At one worker the items run in a plain loop on the calling thread,
//!   with no thread spawned.
//! * A panic in any item, at any thread count, surfaces as
//!   [`StatsError::WorkerPanicked`] naming the section; partial results
//!   are dropped. At one worker the loop runs inside `catch_unwind`, so
//!   the serial path and the threaded one fail the same way.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A worker panicked inside a parallel section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// A worker panicked in the named section; partial results were
    /// discarded.
    WorkerPanicked(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::WorkerPanicked(section) => {
                write!(f, "worker thread panicked in {section}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Resolves a configured thread count: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Applies `f(index, item)` to every item of `items` on up to `threads`
/// workers (0 = all cores), returning the results in input order. A
/// panic in `f` surfaces as [`StatsError::WorkerPanicked`] naming
/// `section`.
pub fn parallel_map<T, R, F>(
    items: &[T],
    threads: usize,
    section: &'static str,
    f: F,
) -> Result<Vec<R>, StatsError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, threads, section, || (), |_, i, t| f(i, t))
}

/// Like [`parallel_map`], with per-worker mutable state: each worker
/// calls `init` once and threads the state through its items (the scan
/// engine passes a pattern cache here). Results must not depend on the
/// state for the output to stay the same at every thread count.
pub fn parallel_map_with<T, R, S, Init, F>(
    items: &[T],
    threads: usize,
    section: &'static str,
    init: Init,
    f: F,
) -> Result<Vec<R>, StatsError>
where
    T: Sync,
    R: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len()).max(1);
    if threads == 1 {
        // The state and every item run inside the guard, so a panic
        // anywhere in the section unwinds to here, as a worker's would
        // unwind to its join.
        return panic::catch_unwind(AssertUnwindSafe(|| {
            let mut state = init();
            items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect()
        }))
        .map_err(|_| StatsError::WorkerPanicked(section));
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (Some(item), Some(slot)) = (items.get(i), slots.get(i)) else {
                            break;
                        };
                        let r = f(&mut state, i, item);
                        // A slot's `Option` is whole whether or not a
                        // worker panicked holding it, so poisoning is
                        // recovered from.
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    }
                })
            })
            .collect();
        join_all(workers)
    });
    if panicked {
        return Err(StatsError::WorkerPanicked(section));
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .ok_or(StatsError::WorkerPanicked(section))
        })
        .collect()
}

/// Joins every scoped worker and reports whether any panicked. Each one
/// is joined: `std::thread::scope` re-raises the panic of a thread left
/// unjoined.
pub fn join_all(workers: Vec<std::thread::ScopedJoinHandle<'_, ()>>) -> bool {
    workers
        .into_iter()
        .map(|w| w.join())
        .filter(Result::is_err)
        .count()
        > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_every_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [0, 1, 2, 8, 200] {
            let out = parallel_map(&items, threads, "double", |_, &x| x * 2).unwrap();
            assert_eq!(out, expect, "{threads} threads");
        }
        let none: Vec<usize> = parallel_map(&[] as &[usize], 4, "empty", |_, &x| x).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn a_panicking_item_is_a_typed_error_at_every_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4] {
            let err = parallel_map(&items, threads, "boom", |_, &x| {
                assert!(x != 50, "planted panic");
                x
            })
            .unwrap_err();
            assert_eq!(err, StatsError::WorkerPanicked("boom"), "{threads} threads");
        }
        // One item forces the serial loop whatever `threads` says.
        let err = parallel_map(&[7usize], 8, "single", |_, _| -> usize {
            panic!("planted")
        });
        assert_eq!(err, Err(StatsError::WorkerPanicked("single")));
    }

    #[test]
    fn a_panicking_init_is_a_typed_error_at_every_thread_count() {
        let items = [1usize, 2, 3];
        for threads in [1, 3] {
            let err = parallel_map_with(
                &items,
                threads,
                "init",
                || -> usize { panic!("planted") },
                |s, _, &x| *s + x,
            );
            assert_eq!(
                err,
                Err(StatsError::WorkerPanicked("init")),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn state_is_initialized_once_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let inits = AtomicUsize::new(0);
            let out = parallel_map_with(
                &items,
                threads,
                "state",
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _, &x| x,
            )
            .unwrap();
            assert_eq!(out, items);
            assert_eq!(inits.load(Ordering::Relaxed), threads);
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(
            resolve_threads(0),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(resolve_threads(3), 3);
    }
}
