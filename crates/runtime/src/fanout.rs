//! The one scoped-thread fan-out behind every parallel loop in the
//! workspace: shard driving, serving ensembles, Monte-Carlo topologies
//! and sweep cells.
//!
//! Workers claim item indices from an atomic counter and write each
//! result into its own index-addressed slot, so the output order never
//! depends on thread scheduling. Errors are deterministic too: once an
//! error is recorded no worker claims a new index, and every index below
//! it was already claimed and runs to completion, so the lowest failing
//! index is always among the recorded results.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Resolves a worker-thread request: `0` means one per available CPU.
pub fn worker_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f(index, &mut item)` over `items` on up to `threads` scoped
/// worker threads (`0` = one per available CPU) and returns the results
/// in index order.
///
/// # Errors
///
/// Returns the error of the lowest failing index, whatever the thread
/// count or scheduling.
pub fn par_map<I, T, E, F>(items: &mut [I], threads: usize, f: F) -> Result<Vec<T>, E>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(usize, &mut I) -> Result<T, E> + Sync,
{
    let workers = worker_threads(threads).min(items.len());
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(index, item)| f(index, item))
            .collect();
    }

    let slots: Vec<_> = items
        .iter_mut()
        .map(|item| Mutex::new((item, None::<Result<T, E>>)))
        .collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !failed.load(Ordering::SeqCst) {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(slot) = slots.get(index) else {
                        break;
                    };
                    // A poisoned lock only means another worker panicked
                    // while holding it; the scope re-raises that panic, so
                    // recover the data rather than panicking twice.
                    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let outcome = f(index, slot.0);
                    if outcome.is_err() {
                        failed.store(true, Ordering::SeqCst);
                    }
                    slot.1 = Some(outcome);
                }
            });
        }
    });
    // Only indices above a recorded error can be unclaimed, and the
    // in-order collect stops at that error before reaching them.
    slots
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0, 1, 2, 4, 8] {
            let mut items: Vec<usize> = (0..16).collect();
            let out: Result<Vec<usize>, ()> = par_map(&mut items, threads, |index, item| {
                *item += 100;
                Ok(index * 10)
            });
            assert_eq!(out, Ok((0..16).map(|i| i * 10).collect()));
            assert_eq!(items, (100..116).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_lowest_index_error_wins_for_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            for _ in 0..50 {
                let out: Result<Vec<usize>, usize> =
                    par_map(&mut [(); 16], threads, |index, _| match index {
                        3 => {
                            // Let index 7 fail first whenever it can.
                            std::thread::yield_now();
                            Err(3)
                        }
                        7 => Err(7),
                        _ => Ok(index),
                    });
                assert_eq!(out, Err(3), "threads = {threads}");
            }
        }
    }
}
