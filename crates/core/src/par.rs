//! The workspace's one parallel helper: an order-keeping map over a slice
//! on a fixed number of scoped threads. The landmark table of
//! [`crate::hier`] builds its trees with it, and so do the experiment
//! engine and the sweep binaries in `lowlat_sim`. The timeline's trace
//! synthesis claims aggregates off an atomic counter the same way, but on
//! threads of its own: its calling thread decides a minute while helpers
//! synthesize the next, which a map that blocks its caller cannot do.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count used when the caller does not pin one.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Maps `f` over `items` on up to `workers` threads (at least one, at most
/// one per item): workers steal indices off one atomic counter and every
/// result lands in its item's slot, so the output is in input order
/// whatever the worker count or scheduling.
///
/// # Panics
/// Re-raises a worker's panic.
pub fn par_map<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    // Relaxed: the counter publishes nothing but the index itself; results
    // travel through the join.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_input_order_whatever_the_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = par_map(&items, 1, |&i| i * i);
        assert_eq!(serial, items.iter().map(|i| i * i).collect::<Vec<_>>());
        for workers in [0, 2, 8, 200] {
            assert_eq!(par_map(&items, workers, |&i| i * i), serial, "{workers} workers");
        }
        assert_eq!(par_map(&[] as &[u64], 4, |&i| i), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64, 9], 8, |&i| i + 1), vec![8, 10], "fewer items than workers");
    }
}
