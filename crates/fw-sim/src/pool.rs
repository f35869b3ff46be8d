//! A deterministic worker pool for fan-out/merge phases.
//!
//! Parallel phases in this workspace — suite dataset preparation and
//! scenario×seed cells — follow the same shape: a fixed list of independent jobs whose *results must come back
//! in input order* no matter which worker finished first. [`WorkerPool`]
//! is that shape with the determinism spelled out:
//!
//! * `threads == 1` runs the jobs inline on the caller thread, in order —
//!   this is the sequential reference path, byte-for-byte identical to a
//!   plain loop (no threads are spawned at all).
//! * `threads > 1` claims job indices from an atomic counter and writes
//!   each result into its input slot, so the returned `Vec` is ordered by
//!   input index regardless of scheduling.
//!
//! Everything is `std`-only (scoped threads), with no work stealing or
//! channels to keep the completion semantics trivially auditable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool that maps jobs to results in input order.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool running `threads` workers; zero is clamped to one (the
    /// sequential reference).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(index, item)` over every item and return the results in
    /// input order.
    ///
    /// With one thread the jobs run inline, in order, on the caller
    /// thread — the sequential reference. With more, up to
    /// `min(threads, items.len())` scoped workers claim indices from an
    /// atomic cursor; each result lands in its input slot, so the output
    /// order is independent of worker completion order.
    pub fn map_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let n = items.len();
        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = jobs[i].lock().unwrap().take().expect("job claimed twice");
                    let out = f(i, item);
                    *slots[i].lock().unwrap() = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("worker dropped a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let out = pool.map_ordered(vec![10, 20, 30], |i, x| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            x * 2
        });
        assert_eq!(out, vec![20, 40, 60]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_results_come_back_in_input_order() {
        let pool = WorkerPool::new(4);
        // Skew the work so late indices finish first if scheduling leaks
        // into ordering.
        let items: Vec<u64> = (0..64).collect();
        let out = pool.map_ordered(items, |i, x| {
            let spins = (64 - i as u64) * 500;
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k ^ x);
            }
            (i as u64, x, acc & 1)
        });
        for (i, (idx, x, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn parallel_matches_sequential_reference() {
        let items: Vec<u32> = (0..40).collect();
        let seq = WorkerPool::new(1).map_ordered(items.clone(), |i, x| (i, x * x));
        let par = WorkerPool::new(4).map_ordered(items, |i, x| (i, x * x));
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_ordered(vec![1], |_, x| x + 1), vec![2]);
    }
}
