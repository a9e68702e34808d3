//! The fleet's one worker pool: an order-preserving parallel map that both
//! [`Session`](crate::Session) and [`ServiceSession`](crate::ServiceSession)
//! run their jobs on.
//!
//! [`with_pool`] spawns the workers once and keeps them for the whole
//! body it runs, so a service that maps one batch per scheduling round
//! pays for thread start-up once per run, not once per round. A batch is
//! handed over whole: the coordinator installs it under one lock and wakes
//! at most one worker per item beyond its own, and the woken workers then
//! claim items until the batch is empty. The calling thread works the
//! batch too, so `workers` counts it.
//!
//! Every item carries a key (the job index). Worker `key % workers`
//! claims it first, so a job that recurs batch after batch — a service
//! resident advancing every round — keeps running on one thread while
//! the load allows: the engine state it allocates is freed by the thread
//! that allocated it, instead of crossing to another thread's allocator
//! arena each round. A worker whose own items are gone takes the last
//! unclaimed item of the fullest other worker, so a slow item never
//! stalls the rest.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Result as ItemResult;

/// The worker count a session uses when none is configured: the OS's
/// available parallelism, or 1 when it cannot tell.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `body` with a pool of `workers` threads (the calling thread
/// included) that each apply `f` to the `(key, item)` pairs of the
/// batches `body` submits through [`Pool::map`].
///
/// With one worker no thread is spawned and batches run inline. However
/// `body` ends — returning, returning early through `?`, or panicking —
/// the pool closes and every worker is joined before `with_pool` returns
/// or the panic continues.
pub(crate) fn with_pool<T: Send, R: Send, O>(
    workers: usize,
    f: impl Fn(usize, T) -> R + Sync,
    body: impl FnOnce(&Pool<'_, T, R>) -> O,
) -> O {
    let workers = workers.max(1);
    let shared = Shared {
        batch: Mutex::new(Batch {
            items: Vec::new(),
            lanes: (0..workers).map(|_| VecDeque::new()).collect(),
            results: Vec::new(),
            pending: 0,
            closed: false,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    let pool = Pool {
        workers,
        f: &f,
        shared: &shared,
    };
    std::thread::scope(|scope| {
        for worker in 1..workers {
            let pool = &pool;
            scope.spawn(move || pool.work(worker));
        }
        let out = catch_unwind(AssertUnwindSafe(|| body(&pool)));
        // Closing the pool, however `body` ended, is what lets the scope
        // join the workers.
        shared.lock().closed = true;
        shared.work.notify_all();
        out.unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// A running pool (see [`with_pool`]).
pub(crate) struct Pool<'p, T, R> {
    workers: usize,
    f: &'p (dyn Fn(usize, T) -> R + Sync),
    shared: &'p Shared<T, R>,
}

/// State the coordinator and the workers share.
struct Shared<T, R> {
    batch: Mutex<Batch<T, R>>,
    /// Wakes workers: a batch arrived, or the pool closed.
    work: Condvar,
    /// Wakes the coordinator: the batch's last result landed.
    done: Condvar,
}

/// The batch in flight.
struct Batch<T, R> {
    /// The batch's `(key, item)` pairs by input position; `None` once
    /// claimed.
    items: Vec<Option<(usize, T)>>,
    /// Per worker, the positions of its unclaimed own items (`key %
    /// workers`), in input order. Each position sits in exactly one lane.
    lanes: Vec<VecDeque<usize>>,
    /// One slot per item, filled as items finish (a panic is kept as its
    /// payload until the whole batch is done).
    results: Vec<Option<ItemResult<R>>>,
    /// Items claimed or unclaimed whose result has not landed.
    pending: usize,
    closed: bool,
}

impl<T, R> Batch<T, R> {
    /// The next item for `worker`: its own lane's front, else the back of
    /// the fullest lane.
    fn claim(&mut self, worker: usize) -> Option<(usize, usize, T)> {
        let pos = match self.lanes[worker].pop_front() {
            Some(pos) => pos,
            None => self.lanes.iter_mut().max_by_key(|l| l.len())?.pop_back()?,
        };
        let (key, item) = self.items[pos].take()?;
        Some((pos, key, item))
    }
}

impl<T, R> Shared<T, R> {
    fn lock(&self) -> MutexGuard<'_, Batch<T, R>> {
        // Items run unlocked and inside `catch_unwind`, so no panic can
        // poison the lock; recover rather than cascade if one ever did.
        self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Send, R: Send> Pool<'_, T, R> {
    /// Maps the pool's function over `items`; result `i` is
    /// `f(key, item)` for the `i`-th `(key, item)` pair, whatever order
    /// the workers claimed the items in.
    ///
    /// A panic that escapes `f` is re-raised here with its payload: on a
    /// multi-worker pool once the rest of the batch has finished (the
    /// first one in input order when several items panic), inline at
    /// once. The pool stays usable. Callers that must survive one catch
    /// it inside `f`.
    pub(crate) fn map(&self, items: Vec<(usize, T)>) -> Vec<R> {
        if self.workers == 1 {
            return items.into_iter().map(|(key, t)| (self.f)(key, t)).collect();
        }
        let n = items.len();
        let mut batch = self.shared.lock();
        for (pos, (key, _)) in items.iter().enumerate() {
            batch.lanes[key % self.workers].push_back(pos);
        }
        batch.items = items.into_iter().map(Some).collect();
        batch.results = (0..n).map(|_| None).collect();
        batch.pending = n;
        // The coordinator takes items too, so one item needs no helper.
        for _ in 1..n.min(self.workers) {
            self.shared.work.notify_one();
        }
        batch = self.drain(batch, 0);
        while batch.pending > 0 {
            batch = self
                .shared
                .done
                .wait(batch)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let results = std::mem::take(&mut batch.results);
        drop(batch);
        // Every item left its lane once and stored exactly one result
        // before `pending` reached zero, so every slot is filled.
        results
            .into_iter()
            .flatten()
            .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Runs items of the current batch as `worker` until none is left
    /// unclaimed, returning the (re-acquired) lock.
    fn drain<'g>(
        &'g self,
        mut batch: MutexGuard<'g, Batch<T, R>>,
        worker: usize,
    ) -> MutexGuard<'g, Batch<T, R>> {
        while let Some((pos, key, item)) = batch.claim(worker) {
            drop(batch);
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(key, item)));
            batch = self.shared.lock();
            batch.results[pos] = Some(result);
            batch.pending -= 1;
            if batch.pending == 0 {
                self.shared.done.notify_one();
            }
        }
        batch
    }

    /// A worker thread's life: drain each batch, sleep until the next,
    /// exit when the pool closes.
    fn work(&self, worker: usize) {
        let mut batch = self.shared.lock();
        loop {
            batch = self.drain(batch, worker);
            if batch.closed {
                return;
            }
            batch = self
                .shared
                .work
                .wait(batch)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Work whose cost grows with `i` and varies with its residue, so
    /// workers finish items out of order.
    fn uneven(i: usize, x: u64) -> u64 {
        let mut acc = x;
        for r in 0..((i % 7) * 2_000 + i * 50) as u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(r);
        }
        std::hint::black_box(acc);
        x * 10
    }

    /// Runs `test` under a watchdog thread that aborts the process if
    /// the test has not finished within a generous bound: a hung pool
    /// must fail the run, not stall it (a hung worker cannot be joined,
    /// so failing the one test is not an option).
    fn with_watchdog(test: impl FnOnce()) {
        std::thread::scope(|scope| {
            let (done, wait) = mpsc::channel::<()>();
            scope.spawn(move || {
                if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(WATCHDOG) {
                    eprintln!("pool test still running after {WATCHDOG:?}: aborting");
                    std::process::abort();
                }
            });
            test();
            // Also dropped when `test` panics, releasing the watchdog.
            drop(done);
        });
    }

    /// Items keyed by their position.
    fn keyed<T>(items: impl IntoIterator<Item = T>) -> Vec<(usize, T)> {
        items.into_iter().enumerate().collect()
    }

    #[test]
    fn keeps_input_order_across_batches_for_any_worker_count() {
        // Keys spread over the workers, all on one worker (the others
        // must steal everything), and reversed against input order.
        let key_rules: [fn(usize) -> usize; 3] = [|i| i, |_| 0, |i| 100 - i];
        with_watchdog(|| {
            for workers in [1, 2, 4, 8] {
                for (rule, key_of) in key_rules.iter().enumerate() {
                    with_pool(
                        workers,
                        |key, x: u64| uneven(key, x),
                        |pool| {
                            for batch in 0..5u64 {
                                let items: Vec<(usize, u64)> = (0..37)
                                    .map(|i| (key_of(i), batch * 37 + i as u64))
                                    .collect();
                                let want: Vec<u64> = items.iter().map(|(_, x)| x * 10).collect();
                                assert_eq!(
                                    pool.map(items),
                                    want,
                                    "{workers} workers, key rule {rule}, batch {batch}"
                                );
                            }
                        },
                    );
                }
            }
        });
    }

    #[test]
    fn f_receives_each_items_key() {
        with_watchdog(|| {
            for workers in [1, 3] {
                let got = with_pool(
                    workers,
                    |key, s: &str| format!("{key}{s}"),
                    |pool| pool.map(vec![(7, "a"), (0, "b"), (7, "c"), (5, "d")]),
                );
                assert_eq!(got, ["7a", "0b", "7c", "5d"], "{workers} workers");
            }
        });
    }

    #[test]
    fn handles_empty_batches_and_more_workers_than_items() {
        with_watchdog(|| {
            for workers in [1, 8] {
                with_pool(
                    workers,
                    |key, s: &str| format!("{key}{s}"),
                    |pool| {
                        assert!(pool.map(Vec::new()).is_empty());
                        assert_eq!(pool.map(keyed(["a", "b", "c"])), ["0a", "1b", "2c"]);
                        assert!(pool.map(Vec::new()).is_empty());
                        assert_eq!(pool.map(keyed(["z"])), ["0z"]);
                    },
                );
            }
        });
    }

    #[test]
    fn item_panic_is_reraised_after_its_batch_and_the_pool_shuts_down() {
        with_watchdog(|| {
            for workers in [1, 4] {
                let ran = AtomicUsize::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_pool(
                        workers,
                        |i, x: u64| {
                            ran.fetch_add(1, Ordering::Relaxed);
                            if i == 11 {
                                panic!("item eleven failed");
                            }
                            uneven(i, x)
                        },
                        |pool| pool.map(keyed(0..20)),
                    )
                }));
                let payload = caught.expect_err("a panicking item must not yield a Vec");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"item eleven failed"),
                    "{workers} workers"
                );
                if workers > 1 {
                    // The panic waits for the batch: every item ran.
                    assert_eq!(ran.load(Ordering::Relaxed), 20, "{workers} workers");
                }
            }
        });
    }

    #[test]
    fn pool_survives_a_caught_item_panic() {
        with_watchdog(|| {
            with_pool(
                3,
                |i, x: u64| {
                    if x == 99 {
                        panic!("bad item");
                    }
                    uneven(i, x)
                },
                |pool| {
                    let bad = catch_unwind(AssertUnwindSafe(|| pool.map(keyed([1, 99, 2]))));
                    assert!(bad.is_err());
                    assert_eq!(pool.map(keyed([1, 2, 3])), [10, 20, 30]);
                },
            );
        });
    }

    #[test]
    fn early_return_or_coordinator_panic_releases_the_workers() {
        with_watchdog(|| {
            for workers in [2, 4] {
                let early: Result<(), String> = with_pool(workers, uneven, |pool| {
                    pool.map(keyed(0..9));
                    Err("stop".to_string())?;
                    pool.map(keyed(0..9));
                    Ok(())
                });
                assert_eq!(early, Err("stop".to_string()));

                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_pool(workers, uneven, |pool| {
                        pool.map(keyed(0..9));
                        panic!("coordinator died mid-run");
                    })
                }));
                let payload = caught.expect_err("the coordinator's panic propagates");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"coordinator died mid-run")
                );
            }
        });
    }
}
