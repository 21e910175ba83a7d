//! The workspace's one worker pool.
//!
//! The Figure 1 pipeline computes expensive metrics on hundreds of
//! growing snapshots, and a late snapshot of a multi-million-edge trace
//! is tens of megabytes. `pool_map` runs a task per item on a few
//! scoped threads (`std::thread::scope`; the work is CPU-bound, so there
//! is no async): workers pull items from the caller's iterator one at a
//! time, so snapshots produced lazily are never held more than one per
//! worker, and results come back in input order. Each worker keeps its
//! own state across the items it runs, e.g. one evolving
//! [`EngineState`](crate::engine::EngineState) for the day sweep.
//!
//! Two layers sit on it: [`crate::engine::day_sweep`] (contiguous day
//! chunks, one engine state per worker) and
//! [`crate::supervisor::try_par_map_labeled`] (one supervised attempt
//! loop per item). [`par_map`] is the infallible facade over the latter:
//! tasks run isolated under `catch_unwind`, and the first failure is
//! re-raised *from the coordinating thread* with the task's label, index
//! and original panic payload intact.

use crate::supervisor::{try_par_map, SupervisorConfig};
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::Mutex;

/// Run `task` on every item of `items` with `workers` threads and return
/// the results in input order.
///
/// Workers take `(index, item)` pairs from the iterator under one lock,
/// so at most `workers` items are out of it at any moment. A worker
/// builds its state with `init` when it takes its first item and passes
/// it to each of its tasks; the items one worker takes have ascending
/// indices. With `workers <= 1` (or at most one item) everything runs
/// inline on the calling thread with a single state.
///
/// # Panics
///
/// A panic in `task` or in the iterator stops that worker; once the
/// others have drained the iterator, the first such panic is re-raised
/// on the calling thread with its original payload.
pub(crate) fn pool_map<I, T, S, R>(
    items: I,
    workers: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize, T) -> R + Sync,
) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
{
    let items = items.into_iter().enumerate();
    let workers = workers.min(items.size_hint().1.unwrap_or(usize::MAX));
    if workers <= 1 {
        let mut state = None;
        return items
            .map(|(index, item)| task(state.get_or_insert_with(&init), index, item))
            .collect();
    }
    let source = Mutex::new(items);
    let worker = || {
        let mut state = None;
        let mut out = Vec::new();
        loop {
            // A poisoned lock means the iterator panicked in another
            // worker, whose join re-raises that panic.
            let next = source.lock().ok().and_then(|mut it| it.next());
            let Some((index, item)) = next else { break };
            out.push((index, task(state.get_or_insert_with(&init), index, item)));
        }
        out
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let mut done = Vec::new();
        for handle in handles {
            // The scope joins the other workers before this unwinds on.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Map `f` over `items` using `workers` threads, preserving input order in
/// the output. At most `workers` items are in flight at a time.
///
/// Falls back to a sequential map when `workers <= 1`.
///
/// # Panics
///
/// If `f` panics for any item, `par_map` finishes supervising the
/// remaining tasks and then panics with the failing task's index and
/// original payload (see [`crate::supervisor::TaskFailure`]).
pub fn par_map<I, T, R, F>(items: I, workers: usize, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cfg = SupervisorConfig {
        workers: workers.max(1),
        ..SupervisorConfig::default()
    };
    // try_par_map lends each task its item so it can retry it; par_map's
    // contract is by value, so each item travels in a cell its task
    // empties exactly once (retries are off: a task runs once).
    let cells = items.into_iter().map(|item| Cell::new(Some(item)));
    try_par_map(cells, &cfg, |_, cell| {
        Ok(f(cell.take().expect("each task runs exactly once")))
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|failure| panic!("{failure}")))
    .collect()
}

/// A reasonable worker count for CPU-bound fan-out: the `OSN_WORKERS`
/// environment variable if set to a positive integer, otherwise the
/// number of available hardware threads minus one for the coordinating
/// thread, clamped to `[1, 16]`.
///
/// Worker count never affects results — only how fast they arrive — so
/// it is deliberately excluded from checkpoint `meta.txt`.
pub fn default_workers() -> usize {
    if let Ok(raw) = std::env::var("OSN_WORKERS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(64);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(1)
        .clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = par_map(0..100u64, 4, |x| x * x);
        let expected: Vec<u64> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_fallback() {
        let out = par_map(0..10u64, 1, |x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work() {
        // items with wildly different costs must still come back in order
        let out = par_map(0..32u64, 4, |x| {
            let spin = if x % 7 == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc & 1)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, x);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(std::iter::empty::<u64>(), 4, |x| x);
        assert!(out.is_empty());
    }

    /// An item that counts how many of its kind are alive.
    struct Held<'a> {
        index: u64,
        live: &'a AtomicUsize,
    }

    impl Drop for Held<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pool_holds_at_most_workers_items_and_keeps_order() {
        for workers in [1usize, 2, 3, 5] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let items = (0..60u64).map(|index| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                Held { index, live: &live }
            });
            let out = pool_map(
                items,
                workers,
                || 0u32,
                |runs, index, item| {
                    *runs += 1;
                    // Uneven costs: every seventh item is slow.
                    let spin = if item.index % 7 == 0 { 200_000 } else { 10 };
                    let mut acc = 0u64;
                    for i in 0..spin {
                        acc = std::hint::black_box(acc.wrapping_add(i ^ item.index));
                    }
                    (index, item.index, acc & 1)
                },
            );
            assert_eq!(live.load(Ordering::SeqCst), 0, "every item dropped");
            assert!(
                peak.load(Ordering::SeqCst) <= workers,
                "{workers} workers held {} items at once",
                peak.load(Ordering::SeqCst)
            );
            for (i, &(index, value, _)) in out.iter().enumerate() {
                assert_eq!((index, value), (i, i as u64), "{workers} workers");
            }
        }
    }

    #[test]
    fn pool_state_is_per_worker_and_sees_ascending_indices() {
        let out = pool_map(0..40u64, 3, Vec::new, |seen: &mut Vec<usize>, index, x| {
            assert!(seen.last().is_none_or(|&last| last < index));
            seen.push(index);
            x * 2
        });
        assert_eq!(out, (0..40).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reraises_the_original_panic() {
        let caught = std::panic::catch_unwind(|| {
            pool_map(
                0..8u64,
                4,
                || (),
                |_, _, x| {
                    if x == 5 {
                        panic!("shard died on item 5");
                    }
                    x
                },
            )
        });
        let payload = caught.expect_err("the task's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"shard died on item 5")
        );
    }

    #[test]
    fn default_workers_positive() {
        let w = default_workers();
        assert!(w >= 1);
    }

    #[test]
    fn panic_carries_original_payload() {
        // The supervisor must surface the task's own message, not a
        // generic "worker thread panicked".
        let caught = std::panic::catch_unwind(|| {
            par_map(0..8u64, 4, |x| {
                if x == 3 {
                    panic!("poisoned snapshot day-3");
                }
                x
            })
        });
        let payload = caught.expect_err("par_map must re-raise task panics");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            text.contains("poisoned snapshot day-3") && text.contains("index 3"),
            "payload lost: {text}"
        );
    }
}
