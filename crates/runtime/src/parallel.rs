//! The data-parallel tier's whole-tensor kernels: deterministic chunking
//! run on scoped threads.
//!
//! # Determinism
//!
//! The central invariant: **chunk boundaries depend only on the data
//! length and `min_elems_per_chunk`, never on the thread count.** Threads
//! only decide how many hands drain the fixed chunk list. Every kernel
//! here is elementwise or computes whole output rows, so each output cell
//! is the same expression however the rows are split: a chunked call is
//! bit-identical to one sequential call, for every thread count. There
//! are no chunked reductions; a Dot with a vector result or operand runs
//! [`crate::linalg::ddot`] / [`crate::linalg::dgemv`] on the calling
//! thread.
//!
//! # Threads
//!
//! `for_each_row_block` splits the output into disjoint `split_at_mut`
//! stripes and runs them on `std::thread::scope` threads spawned for the
//! call; the caller works beside them, and all join before it returns.
//! With one thread, or one chunk, it is a single plain call of the
//! kernel. Threads pay only for large whole-tensor work: one spawn and
//! join costs tens of microseconds, and at 32 Ki elements two threads
//! lose to one (EXPERIMENTS.md, "Data-parallel tier").
//!
//! # Memory accounting
//!
//! Threads only ever see raw `&[f64]`/`&mut [f64]` stripes — `Arc`-managed
//! values never cross threads — so they normally touch no refcount
//! counters. Each spawned thread still calls
//! [`crate::memory::flush_thread_stats`] before it exits, keeping
//! [`crate::memory::global_stats`] balanced no matter what a stripe does.

use crate::simd::{self, SimdOp};
use std::sync::Mutex;

/// Upper bound on threads spawned per call (the caller works beside
/// them), however large `num_threads` is.
const MAX_SPAWNED: usize = 31;

/// Tuning knobs for the data-parallel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Threads to use. `0` means auto-detect via
    /// `std::thread::available_parallelism`.
    pub num_threads: usize,
    /// Minimum elements per chunk. Work below this length is one chunk;
    /// above it, the chunk count is `len / min` (floor), so every chunk
    /// holds at least `min` elements.
    pub min_elems_per_chunk: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            num_threads: 0,
            min_elems_per_chunk: 16 * 1024,
        }
    }
}

impl ParallelConfig {
    /// The resolved thread count (`num_threads`, or the machine's
    /// available parallelism when 0).
    pub fn threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.num_threads
        }
    }

    /// Deterministic chunk count for `len` elements: a function of the
    /// length and `min_elems_per_chunk` only — *never* the thread count —
    /// so results are reproducible across thread configurations.
    pub fn chunk_count(&self, len: usize) -> usize {
        let min = self.min_elems_per_chunk.max(1);
        if len < min {
            1
        } else {
            len / min
        }
    }
}

/// Half-open element range of chunk `i` out of `n_chunks` over `len`
/// elements. Balanced partition: every chunk gets `len/n_chunks` elements
/// ±1, boundaries in monotone order, exactly covering `0..len`.
fn chunk_bounds(len: usize, n_chunks: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < n_chunks);
    (len * i / n_chunks, len * (i + 1) / n_chunks)
}

/// Runs `f(row_start, row_end, stripe)` over `rows` rows of `row_len`
/// elements of `out`, where `stripe` is `out[row_start*row_len ..
/// row_end*row_len]`.
///
/// With `threads.min(n_chunks) <= 1` that is one call over all rows.
/// Otherwise the rows are split into the `n_chunks` stripes of
/// [`chunk_bounds`], which up to that many threads (the caller one of
/// them) take in chunk order from a shared list. A panic in any stripe
/// is re-raised here once every thread has joined.
///
/// With `row_len == 1` this is a plain striped split of a flat slice.
fn for_each_row_block<T: Send>(
    threads: usize,
    n_chunks: usize,
    rows: usize,
    row_len: usize,
    out: &mut [T],
    f: &(dyn Fn(usize, usize, &mut [T]) + Sync),
) {
    let out = &mut out[..rows * row_len];
    let threads = threads.min(n_chunks);
    if threads <= 1 {
        f(0, rows, out);
        return;
    }
    let mut stripes = Vec::with_capacity(n_chunks);
    let mut rest = out;
    for i in 0..n_chunks {
        let (r0, r1) = chunk_bounds(rows, n_chunks, i);
        let (stripe, tail) = rest.split_at_mut((r1 - r0) * row_len);
        stripes.push((r0, r1, stripe));
        rest = tail;
    }
    let stripes = Mutex::new(stripes.into_iter());
    let drain = || loop {
        // The guard is a temporary: it is released before `f` runs, so a
        // panicking stripe cannot poison the list.
        let next = stripes.lock().expect("stripe list lock poisoned").next();
        let Some((r0, r1, stripe)) = next else { break };
        f(r0, r1, stripe);
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(MAX_SPAWNED + 1) {
            s.spawn(|| {
                drain();
                crate::memory::flush_thread_stats();
            });
        }
        drain();
    });
}

/// Chunked elementwise `out[i] = a[i] op b[i]` (Listable zip). Exact:
/// per-element results are independent, so any chunking is bit-identical
/// to the sequential loop.
pub fn zip_f64(cfg: &ParallelConfig, op: SimdOp, a: &[f64], b: &[f64], out: &mut [f64]) {
    let len = out.len();
    let n_chunks = cfg.chunk_count(len);
    for_each_row_block(cfg.threads(), n_chunks, len, 1, out, &|lo, hi, o| {
        simd::vv(op, &a[lo..hi], &b[lo..hi], o);
    });
}

/// Chunked elementwise tensor ⊗ scalar map. `rev` swaps operand order
/// (`out[i] = s op a[i]` instead of `a[i] op s`), matching the machine's
/// reversed-operand scalar forms.
pub fn map_f64(cfg: &ParallelConfig, op: SimdOp, a: &[f64], s: f64, rev: bool, out: &mut [f64]) {
    let len = out.len();
    let n_chunks = cfg.chunk_count(len);
    for_each_row_block(cfg.threads(), n_chunks, len, 1, out, &|lo, hi, o| {
        if rev {
            simd::sv(op, s, &a[lo..hi], o);
        } else {
            simd::vs(op, &a[lo..hi], s, o);
        }
    });
}

/// Row-block-parallel matrix multiply: each stripe of output rows
/// `r0..r1` is one [`crate::linalg::dgemm`] call on the corresponding
/// rows of `a`. The per-element accumulation order inside a row depends
/// only on the k-loop, so this is bit-identical to the sequential `dgemm`
/// for every thread count.
pub fn dgemm(
    cfg: &ParallelConfig,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(a.len() == m * k && b.len() == k * n && out.len() == m * n);
    // Chunk on output elements so `min_elems_per_chunk` keeps its meaning,
    // then round to whole rows.
    let n_chunks = cfg.chunk_count(m * n).min(m.max(1));
    for_each_row_block(cfg.threads(), n_chunks, m, n, out, &|r0, r1, stripe| {
        crate::linalg::dgemm(&a[r0 * k..r1 * k], b, stripe, r1 - r0, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize, min: usize) -> ParallelConfig {
        ParallelConfig {
            num_threads: threads,
            min_elems_per_chunk: min,
        }
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for len in [0usize, 1, 2, 7, 64, 100, 101, 1023] {
            for n_chunks in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for i in 0..n_chunks {
                    let (lo, hi) = chunk_bounds(len, n_chunks, i);
                    assert_eq!(lo, covered, "len={len} chunks={n_chunks} i={i}");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn chunk_count_is_thread_independent_and_respects_min() {
        let a = cfg(1, 100);
        let b = cfg(8, 100);
        for len in [0usize, 1, 99, 100, 199, 200, 1000] {
            assert_eq!(a.chunk_count(len), b.chunk_count(len));
            let n = a.chunk_count(len);
            if len >= 100 {
                // Every chunk holds at least `min` elements.
                for i in 0..n {
                    let (lo, hi) = chunk_bounds(len, n, i);
                    assert!(hi - lo >= 100, "len={len} chunk {i} has {}", hi - lo);
                }
            } else {
                assert_eq!(n, 1, "below threshold must be a single chunk");
            }
        }
    }

    #[test]
    fn single_element_and_empty_inputs() {
        let c = cfg(4, 8);
        let mut empty: [f64; 0] = [];
        zip_f64(&c, SimdOp::Add, &[], &[], &mut empty);
        let mut out = [0.0];
        zip_f64(&c, SimdOp::Mul, &[3.0], &[4.0], &mut out);
        assert_eq!(out[0], 12.0);
    }

    #[test]
    fn below_threshold_runs_sequentially() {
        // One chunk => one kernel call on the caller; results must equal
        // a plain loop bitwise.
        let c = cfg(8, 1000);
        let a: Vec<f64> = (0..100).map(|i| i as f64 * 0.25).collect();
        let b: Vec<f64> = (0..100).map(|i| 100.0 - i as f64).collect();
        assert_eq!(c.chunk_count(a.len()), 1);
        let mut out = vec![0.0; 100];
        zip_f64(&c, SimdOp::Add, &a, &b, &mut out);
        for i in 0..100 {
            assert_eq!(out[i].to_bits(), (a[i] + b[i]).to_bits());
        }
    }

    #[test]
    fn chunk_boundary_off_by_one_lengths() {
        // Lengths straddling exact chunk multiples: every element must be
        // written exactly once.
        for len in [255usize, 256, 257, 511, 512, 513] {
            let c = cfg(4, 128);
            let a: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let mut out = vec![f64::NAN; len];
            map_f64(&c, SimdOp::Add, &a, 1.0, false, &mut out);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as f64 + 1.0, "len={len} i={i}");
            }
        }
    }

    #[test]
    fn thread_counts_give_identical_results() {
        let a: Vec<f64> = (0..4096).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut base_zip = vec![0.0; a.len()];
        zip_f64(&cfg(1, 256), SimdOp::Mul, &a, &b, &mut base_zip);
        for threads in [2usize, 8] {
            let mut out = vec![0.0; a.len()];
            zip_f64(&cfg(threads, 256), SimdOp::Mul, &a, &b, &mut out);
            for i in 0..a.len() {
                assert_eq!(out[i].to_bits(), base_zip[i].to_bits());
            }
        }
    }

    #[test]
    fn parallel_dgemm_matches_sequential_bitwise() {
        let (m, k, n) = (17, 13, 19);
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut seq = vec![0.0; m * n];
        crate::linalg::dgemm(&a, &b, &mut seq, m, k, n);
        for threads in [1usize, 2, 8] {
            let c = ParallelConfig {
                num_threads: threads,
                min_elems_per_chunk: 16,
            };
            let mut out = vec![0.0; m * n];
            dgemm(&c, &a, &b, &mut out, m, k, n);
            for i in 0..m * n {
                assert_eq!(
                    out[i].to_bits(),
                    seq[i].to_bits(),
                    "threads={threads} i={i}"
                );
            }
        }
    }

    #[test]
    fn one_thread_or_one_chunk_is_one_call_over_every_row() {
        for (threads, n_chunks) in [(1usize, 7usize), (8, 1)] {
            let calls = Mutex::new(Vec::new());
            let mut out = vec![0u8; 10 * 3];
            for_each_row_block(threads, n_chunks, 10, 3, &mut out, &|r0, r1, stripe| {
                calls.lock().unwrap().push((r0, r1, stripe.len()));
            });
            assert_eq!(
                calls.into_inner().unwrap(),
                [(0, 10, 30)],
                "threads={threads} chunks={n_chunks}"
            );
        }
    }

    #[test]
    fn stripes_cover_every_row_once_across_threads() {
        let mut out = vec![0usize; 101 * 2];
        for_each_row_block(4, 7, 101, 2, &mut out, &|r0, r1, stripe| {
            assert_eq!(stripe.len(), (r1 - r0) * 2);
            for (j, cell) in stripe.iter_mut().enumerate() {
                *cell += r0 * 2 + j + 1;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn a_panicking_stripe_reaches_the_caller_and_the_next_call_runs() {
        let caller = std::thread::spawn(|| {
            let mut out = vec![0.0f64; 64];
            for_each_row_block(4, 8, 64, 1, &mut out, &|r0, _, _| {
                assert_ne!(r0, 24, "boom");
            });
        });
        assert!(
            caller.join().is_err(),
            "panic must be re-raised at the caller"
        );
        let a: Vec<f64> = (0..2048).map(|i| i as f64).collect();
        let mut sum = vec![0.0; a.len()];
        map_f64(&cfg(4, 128), SimdOp::Add, &a, 1.0, false, &mut sum);
        assert!(sum.iter().enumerate().all(|(i, &v)| v == i as f64 + 1.0));
    }
}
