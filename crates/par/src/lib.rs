//! # mcpart-par — deterministic fork-join parallelism
//!
//! A tiny, dependency-free work-stealing pool over [`std::thread::scope`]
//! in the spirit of `mcpart-rng`: just enough parallelism for the
//! partitioning pipeline, with a hard determinism contract.
//!
//! ## The determinism contract
//!
//! [`parallel_map`] runs one closure per input item on up to `jobs`
//! worker threads and returns the results **in input order**. Callers
//! must make each item's computation a pure function of `(index, item)`
//! — no shared mutable state, no RNG shared across items (derive
//! per-item streams with `mcpart_rng`-style seed splitting instead).
//! Under that discipline the output is bit-identical for every `jobs`
//! value, including `1`, which is what lets `--jobs 8` reproduce
//! `--jobs 1` placements exactly.
//!
//! Work distribution is a shared atomic cursor: idle workers steal the
//! next unclaimed index, so a few slow items do not serialize the tail
//! the way fixed chunking would.
//!
//! ## Sizing
//!
//! `jobs == 0` means "auto": use [`available_jobs`] (the OS-reported
//! available parallelism). A process-wide default for code without a
//! config path (the experiment harness) is set with
//! [`set_default_jobs`] and read with [`default_jobs`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod fault;
pub mod supervise;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use supervise::AbortHandle;

/// The parallelism the host offers (≥ 1). Falls back to 1 when the OS
/// cannot report it.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Process-wide default worker count; 0 = "auto" (resolve to
/// [`available_jobs`] at use time).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count used by [`default_jobs`]
/// (`0` restores "auto"). Results never depend on this value — only
/// wall-clock time does — so a CLI flag may set it freely.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The process-wide default worker count: the last
/// [`set_default_jobs`] value, or [`available_jobs`] when unset.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available_jobs(),
        n => n,
    }
}

/// Resolves a requested worker count: `0` means [`available_jobs`],
/// anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_jobs()
    } else {
        jobs
    }
}

/// Applies `f` to every item and returns the results in input order.
///
/// With `jobs <= 1` (after resolving `0` to the host parallelism) or
/// fewer than two items this runs inline on the caller's thread —
/// the sequential path has zero threading overhead and is the
/// reference behaviour the parallel path must reproduce bit-for-bit.
///
/// # Panics
///
/// A panic in `f` propagates to the caller (workers are joined by
/// [`std::thread::scope`]), matching the sequential behaviour.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // The receiver outlives the scope, so a send only fails
                // after a sibling panicked and tore the channel down;
                // stop stealing work in that case.
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx.iter() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("every item produced a result")).collect()
}

/// A shared work budget for tasks fanned out by [`parallel_map`]: a
/// lock-free meter that many workers spend concurrently.
///
/// Whether the budget is ever exceeded depends only on the *total*
/// demand, not on thread interleaving: if the sum of all attempted
/// spends exceeds the limit, some spend crosses the boundary under
/// every schedule, and if it does not, none can. Callers therefore get
/// a deterministic ok/exhausted outcome even though the exact task that
/// observes exhaustion first may vary.
#[derive(Debug)]
pub struct SharedBudget {
    limit: Option<u64>,
    spent: std::sync::atomic::AtomicU64,
    abort: AbortHandle,
}

impl SharedBudget {
    /// A meter with an optional limit (`None` = unlimited).
    pub fn new(limit: Option<u64>) -> Self {
        SharedBudget::with_abort(limit, AbortHandle::default())
    }

    /// A meter whose spends also fail once `abort` fires — the hook the
    /// [`supervise::Watchdog`] uses to stop a runaway unit at its next
    /// fuel charge instead of killing its thread.
    pub fn with_abort(limit: Option<u64>, abort: AbortHandle) -> Self {
        SharedBudget { limit, spent: std::sync::atomic::AtomicU64::new(0), abort }
    }

    /// Spends one unit; returns `false` once the total crosses the
    /// limit or the abort handle fired (callers must stop working).
    pub fn spend(&self) -> bool {
        if self.abort.is_aborted() {
            return false;
        }
        let total = self.spent.fetch_add(1, Ordering::Relaxed) + 1;
        match self.limit {
            Some(limit) => total <= limit,
            None => true,
        }
    }

    /// Spends `n` units at once (retry backoff fuel); returns `false`
    /// once the total crosses the limit or the abort handle fired.
    pub fn charge(&self, n: u64) -> bool {
        if self.abort.is_aborted() {
            return false;
        }
        let total = self.spent.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        match self.limit {
            Some(limit) => total <= limit,
            None => true,
        }
    }

    /// Whether a failed spend was caused by the watchdog rather than
    /// the meter itself.
    pub fn is_aborted(&self) -> bool {
        self.abort.is_aborted()
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Units spent so far (exact only after all workers joined).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(4, &items, |i, &x| x * 2 + i as u64);
        let expect: Vec<u64> = (0..100).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| {
            // A per-item "stream": mix index and value, no shared state.
            let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            for _ in 0..50 {
                h = h.rotate_left(13).wrapping_mul(5).wrapping_add(1);
            }
            h
        };
        let seq = parallel_map(1, &items, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(parallel_map(jobs, &items, f), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: [u32; 0] = [];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_resolves_to_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let items: Vec<u32> = (0..10).collect();
        let out = parallel_map(0, &items, |_, &x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn default_jobs_roundtrip() {
        let before = default_jobs();
        assert!(before >= 1);
        set_default_jobs(5);
        assert_eq!(default_jobs(), 5);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(parallel_map(64, &items, |_, &x| x * x), vec![0, 1, 4]);
    }

    #[test]
    fn shared_budget_is_deterministic_in_outcome() {
        let b = SharedBudget::new(Some(10));
        let items: Vec<u32> = (0..4).collect();
        // 4 tasks × 3 spends = 12 > 10: some spend fails under any
        // interleaving.
        let results =
            parallel_map(4, &items, |_, _| (0..3).map(|_| b.spend()).collect::<Vec<bool>>());
        let failed = results.iter().flatten().filter(|ok| !**ok).count();
        assert!(failed >= 1, "total demand above the limit must be observed");
        assert_eq!(b.limit(), Some(10));
        assert_eq!(b.spent(), 12);
        let unlimited = SharedBudget::new(None);
        assert!((0..1000).all(|_| unlimited.spend()));
    }
}
