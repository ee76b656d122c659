//! Memory-management instrumentation (F7).
//!
//! The compiler's memory-management pass inserts `MemoryAcquire` at the head
//! of each variable's live interval and `MemoryRelease` at its tail; both
//! are no-ops for unmanaged (machine) objects and reference-count updates
//! for managed ones. This module provides the counters the test suite uses
//! to assert that acquires and releases balance, and that copy-on-write
//! actually copies (the QSort 1.2× story in §6).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ACQUIRES: Cell<u64> = const { Cell::new(0) };
    static RELEASES: Cell<u64> = const { Cell::new(0) };
    static TENSOR_COPIES: Cell<u64> = const { Cell::new(0) };
    static FRAME_HITS: Cell<u64> = const { Cell::new(0) };
    static FRAME_MISSES: Cell<u64> = const { Cell::new(0) };
}

// Cross-thread aggregation (the serve worker pool). The hot recording path
// stays thread-local and non-atomic; each worker *flushes* its local
// counters into these process-wide totals. Managed values never cross
// threads (see the Send/Sync audit in `wolfram-serve`), so per-thread
// balance remains meaningful — but a run's total leak accounting must sum
// over every worker, which is what these totals provide.
static GLOBAL_ACQUIRES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_RELEASES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TENSOR_COPIES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FRAME_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FRAME_MISSES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the instrumentation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// `MemoryAcquire` calls on managed values.
    pub acquires: u64,
    /// `MemoryRelease` calls on managed values.
    pub releases: u64,
    /// Copy-on-write tensor copies performed.
    pub tensor_copies: u64,
    /// Calls served by a recycled frame from a machine's frame pool.
    pub frame_hits: u64,
    /// Calls that allocated a fresh frame (pool empty).
    pub frame_misses: u64,
}

impl MemoryStats {
    /// Whether every acquire has a matching release.
    pub fn balanced(&self) -> bool {
        self.acquires == self.releases
    }
}

/// Records an acquire of a managed value.
#[inline]
pub fn record_acquire() {
    ACQUIRES.with(|c| c.set(c.get() + 1));
}

/// Records a release of a managed value.
#[inline]
pub fn record_release() {
    RELEASES.with(|c| c.set(c.get() + 1));
}

/// Records a copy-on-write tensor copy.
#[inline]
pub fn record_tensor_copy() {
    TENSOR_COPIES.with(|c| c.set(c.get() + 1));
}

/// Records a call served by a pooled frame.
#[inline]
pub fn record_frame_hit() {
    FRAME_HITS.with(|c| c.set(c.get() + 1));
}

/// Records a call that allocated a fresh frame.
#[inline]
pub fn record_frame_miss() {
    FRAME_MISSES.with(|c| c.set(c.get() + 1));
}

/// Reads the current counters for this thread.
pub fn stats() -> MemoryStats {
    MemoryStats {
        acquires: ACQUIRES.with(Cell::get),
        releases: RELEASES.with(Cell::get),
        tensor_copies: TENSOR_COPIES.with(Cell::get),
        frame_hits: FRAME_HITS.with(Cell::get),
        frame_misses: FRAME_MISSES.with(Cell::get),
    }
}

/// Resets the counters for this thread.
pub fn reset_stats() {
    ACQUIRES.with(|c| c.set(0));
    RELEASES.with(|c| c.set(0));
    TENSOR_COPIES.with(|c| c.set(0));
    FRAME_HITS.with(|c| c.set(0));
    FRAME_MISSES.with(|c| c.set(0));
}

/// Moves this thread's counters into the process-wide totals, resetting
/// the thread-local view. Pool workers call this after each request so
/// [`global_stats`] reflects every thread's activity.
pub fn flush_thread_stats() {
    let s = stats();
    reset_stats();
    GLOBAL_ACQUIRES.fetch_add(s.acquires, Ordering::Relaxed);
    GLOBAL_RELEASES.fetch_add(s.releases, Ordering::Relaxed);
    GLOBAL_TENSOR_COPIES.fetch_add(s.tensor_copies, Ordering::Relaxed);
    GLOBAL_FRAME_HITS.fetch_add(s.frame_hits, Ordering::Relaxed);
    GLOBAL_FRAME_MISSES.fetch_add(s.frame_misses, Ordering::Relaxed);
}

/// The process-wide totals accumulated by [`flush_thread_stats`].
pub fn global_stats() -> MemoryStats {
    MemoryStats {
        acquires: GLOBAL_ACQUIRES.load(Ordering::Relaxed),
        releases: GLOBAL_RELEASES.load(Ordering::Relaxed),
        tensor_copies: GLOBAL_TENSOR_COPIES.load(Ordering::Relaxed),
        frame_hits: GLOBAL_FRAME_HITS.load(Ordering::Relaxed),
        frame_misses: GLOBAL_FRAME_MISSES.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide totals (call before a measured run).
pub fn reset_global_stats() {
    GLOBAL_ACQUIRES.store(0, Ordering::Relaxed);
    GLOBAL_RELEASES.store(0, Ordering::Relaxed);
    GLOBAL_TENSOR_COPIES.store(0, Ordering::Relaxed);
    GLOBAL_FRAME_HITS.store(0, Ordering::Relaxed);
    GLOBAL_FRAME_MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset_stats();
        record_acquire();
        record_acquire();
        record_release();
        record_tensor_copy();
        let s = stats();
        assert_eq!(
            s,
            MemoryStats {
                acquires: 2,
                releases: 1,
                tensor_copies: 1,
                ..MemoryStats::default()
            }
        );
        assert!(!s.balanced());
        record_release();
        assert!(stats().balanced());
        reset_stats();
        assert_eq!(stats(), MemoryStats::default());
    }

    #[test]
    fn flush_aggregates_across_threads() {
        reset_global_stats();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    reset_stats();
                    record_acquire();
                    record_release();
                    record_tensor_copy();
                    record_frame_hit();
                    record_frame_miss();
                    flush_thread_stats();
                    // Flushing resets the thread-local view.
                    assert_eq!(stats(), MemoryStats::default());
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let g = global_stats();
        assert_eq!(g.acquires, 4);
        assert_eq!(g.releases, 4);
        assert_eq!(g.tensor_copies, 4);
        assert_eq!(g.frame_hits, 4);
        assert_eq!(g.frame_misses, 4);
        assert!(g.balanced());
        reset_global_stats();
        assert_eq!(global_stats(), MemoryStats::default());
    }
}
