//! The fleet's one worker pool: an order-preserving parallel map that both
//! [`Session`](crate::Session) and [`ServiceSession`](crate::ServiceSession)
//! run their jobs on.

use std::sync::{Mutex, PoisonError};

/// The worker count a session uses when none is configured: the OS's
/// available parallelism, or 1 when it cannot tell.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `workers` threads; result `i` is
/// `f(i, items[i])`, whatever order the workers claimed the items in.
///
/// `workers` is clamped to `1..=items.len()`. With one worker the items
/// run inline on the calling thread. Otherwise scoped threads pull the
/// next unclaimed item from a shared queue, so a slow item never stalls
/// the rest. A panic that escapes `f` propagates out of this call once
/// every worker has stopped; callers that must survive one catch it
/// inside `f`.
pub(crate) fn map_ordered<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Each item leaves the queue exactly once and yields exactly one
    // result, so sorting the results by index restores input order with
    // every index present.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement:
                        // `f` runs unlocked, and no panic can poison it.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        let mut results = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(done) => results.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(results.len(), n);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    #[test]
    fn keeps_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 10).collect();
        for workers in [1, 2, 4, 8] {
            let got = map_ordered(workers, items.clone(), |i, x| {
                assert_eq!(i as u64, x, "index passed to f must be the item's");
                uneven(i, x)
            });
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn handles_empty_input_and_more_workers_than_items() {
        let none: Vec<u32> = map_ordered(8, Vec::<u32>::new(), |_, x| x);
        assert!(none.is_empty());
        let got = map_ordered(16, vec!["a", "b", "c"], |i, s| format!("{i}{s}"));
        assert_eq!(got, ["0a", "1b", "2c"]);
    }

    #[test]
    fn escaping_panic_propagates_instead_of_a_short_vec() {
        for workers in [1, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_ordered(workers, (0..20u64).collect(), |i, x| {
                    if i == 11 {
                        panic!("item eleven failed");
                    }
                    uneven(i, x)
                })
            }));
            let payload = caught.expect_err("a panicking item must not yield a Vec");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"item eleven failed"),
                "{workers} workers"
            );
        }
    }
}
