//! The data-parallel tier: a persistent worker pool plus deterministic
//! chunked kernels for whole-tensor builtins.
//!
//! # Determinism
//!
//! The central invariant: **chunk boundaries depend only on the data
//! length and `min_elems_per_chunk`, never on the thread count.** Threads
//! only decide how many workers drain the fixed chunk list; every chunk
//! computes a pure function of its input range, and reduction partials
//! are merged sequentially in chunk order. Running the same op with 1, 2,
//! or 8 threads therefore produces bit-identical results.
//!
//! Elementwise chunked ops (zip/map, dgemm row blocks) are bit-identical to the sequential path outright. Chunked *float
//! reductions* ([`sum_f64`], [`dot_f64`]) are reassociated — per-chunk
//! partials (themselves 4-lane SIMD sums, see [`crate::simd`]) folded
//! left-to-right in chunk order — which differs from the interpreter's
//! strict sequential fold by a few ULPs. The difftest ULP + cancellation
//! equivalence relation covers exactly this.
//!
//! # Memory accounting
//!
//! Workers only ever see raw `&[f64]`/`&mut [f64]` chunks — `Arc`-managed
//! values never cross threads — so they normally touch no refcount
//! counters. They still call [`crate::memory::flush_thread_stats`] after
//! every task as belt-and-braces, keeping [`crate::memory::global_stats`]
//! balanced no matter what a task does.

use crate::simd::{self, SimdOp};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool workers, however large `num_threads` is.
const MAX_WORKERS: usize = 31;

/// Tuning knobs for the data-parallel tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Worker threads to use. `0` means auto-detect via
    /// `std::thread::available_parallelism`.
    pub num_threads: usize,
    /// Minimum elements per chunk. Work below this length runs on the
    /// sequential path; above it, the chunk count is `len / min` (floor),
    /// so every chunk holds at least `min` elements.
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
    /// The resolved worker count (`num_threads`, or the machine's
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
pub fn chunk_bounds(len: usize, n_chunks: usize, i: usize) -> (usize, usize) {
    debug_assert!(i < n_chunks);
    (len * i / n_chunks, len * (i + 1) / n_chunks)
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

struct BatchState {
    remaining: usize,
    panicked: bool,
}

/// Completion latch for one `run_chunks` batch.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

/// One queued chunk. `run` is a lifetime-erased borrow of the caller's
/// closure: sound because [`run_chunks`] installs a [`BatchGuard`] the
/// moment the jobs are queued, which blocks on the batch latch until
/// every queued job has finished — on normal return *and* on unwind — so
/// the borrow outlives all uses.
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    index: usize,
    batch: Arc<Batch>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Lazily grows the pool so at least `want` workers exist (capped).
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
        while *spawned < want {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("wolfram-par-{}", *spawned))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared
                    .work
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_job(job);
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock. Every mutex
/// in this module protects data that stays consistent across panics
/// (counters, a job queue of plain values), so poisoning carries no extra
/// meaning here — and the batch latch *must* keep counting down even
/// after a panic, or [`BatchGuard`] could never open.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_job(job: Job) {
    let ok =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (job.run)(job.index))).is_ok();
    // Keep process-wide leak accounting balanced even if a task touched
    // managed-value counters on this thread.
    crate::memory::flush_thread_stats();
    let mut st = lock_unpoisoned(&job.batch.state);
    st.remaining -= 1;
    if !ok {
        st.panicked = true;
    }
    if st.remaining == 0 {
        job.batch.done.notify_all();
    }
}

/// Holds a batch open: created as soon as a batch's jobs are queued, and
/// its `Drop` blocks until every one of them has finished. Queued jobs
/// hold a lifetime-erased borrow of the caller's closure, so the guard is
/// what makes [`run_chunks`] sound even if the calling frame unwinds
/// between enqueueing and draining: the closure cannot be dropped while
/// any worker might still call it.
struct BatchGuard<'a> {
    batch: &'a Batch,
}

impl BatchGuard<'_> {
    /// Blocks until the batch latch opens; returns the panicked flag.
    /// Never panics (poisoned locks are recovered), so it is safe to run
    /// during an unwind.
    fn wait(&self) -> bool {
        let mut st = lock_unpoisoned(&self.batch.state);
        while st.remaining > 0 {
            st = self
                .batch
                .done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.panicked
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

/// Runs `f(0), f(1), ..., f(n_tasks-1)` across the pool using up to
/// `threads` threads (the caller participates as one of them), blocking
/// until every task has completed. With `threads <= 1` the tasks run
/// inline on the caller, in index order.
///
/// Tasks must be independent; a panicking task poisons only its batch and
/// is re-raised here as a panic after the batch drains.
pub fn run_chunks(threads: usize, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    let threads = threads.min(n_tasks);
    if threads <= 1 {
        for i in 0..n_tasks {
            f(i);
        }
        return;
    }
    let pool = pool();
    pool.ensure_workers(threads - 1);
    let batch = Arc::new(Batch {
        state: Mutex::new(BatchState {
            remaining: n_tasks,
            panicked: false,
        }),
        done: Condvar::new(),
    });
    // SAFETY: the 'static lifetime is a lie told only to the queue. Jobs
    // holding this borrow exist only once queued below, and from that
    // point the `BatchGuard` (dropped at every exit from this function,
    // unwinding included) blocks until all of them have run, so the
    // borrow never outlives `f`.
    let run: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    {
        // The recovered lock and plain pushes cannot unwind, so the
        // guard below is always armed once any borrow is queued.
        let mut q = lock_unpoisoned(&pool.shared.queue);
        for index in 0..n_tasks {
            q.push_back(Job {
                run,
                index,
                batch: Arc::clone(&batch),
            });
        }
    }
    let guard = BatchGuard { batch: &batch };
    pool.shared.work.notify_all();
    // The caller participates: drain jobs (ours or another batch's) until
    // the queue is empty, then wait for stragglers on the latch.
    loop {
        let job = lock_unpoisoned(&pool.shared.queue).pop_front();
        match job {
            Some(job) => run_job(job),
            None => break,
        }
    }
    let panicked = guard.wait();
    assert!(!panicked, "parallel worker task panicked");
}

/// Chunk task for [`for_each_row_block`]: called as
/// `f(chunk, row_start, row_end, stripe)`.
pub type RowBlockFn<'a, T> = dyn Fn(usize, usize, usize, &mut [T]) + Sync + 'a;

/// Splits `out` into `n_chunks` disjoint row-block stripes and runs
/// `f(chunk, row_start, row_end, stripe)` for each, in parallel when
/// `threads > 1`. Chunk `i` covers rows `chunk_bounds(rows, n_chunks, i)`
/// and its stripe is `out[row_start*row_len .. row_end*row_len]`.
///
/// With `row_len == 1` this is a plain striped split of a flat slice.
pub fn for_each_row_block<T: Send>(
    threads: usize,
    n_chunks: usize,
    rows: usize,
    row_len: usize,
    out: &mut [T],
    f: &RowBlockFn<'_, T>,
) {
    assert!(out.len() >= rows * row_len, "row-block output too short");
    if n_chunks <= 1 || threads <= 1 {
        for i in 0..n_chunks {
            let (r0, r1) = chunk_bounds(rows, n_chunks, i);
            f(i, r0, r1, &mut out[r0 * row_len..r1 * row_len]);
        }
        return;
    }
    struct SendPtr<T>(*mut T);
    unsafe impl<T: Send> Send for SendPtr<T> {}
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    let base = SendPtr(out.as_mut_ptr());
    run_chunks(threads, n_chunks, &|i| {
        // Capture the whole wrapper, not the raw-pointer field (the
        // field alone would not be `Sync`).
        let base = &base;
        let (r0, r1) = chunk_bounds(rows, n_chunks, i);
        // SAFETY: `chunk_bounds` partitions `0..rows` into disjoint,
        // in-bounds, monotone ranges, so each task receives an exclusive
        // sub-slice of `out` and no two tasks alias.
        let stripe = unsafe {
            std::slice::from_raw_parts_mut(base.0.add(r0 * row_len), (r1 - r0) * row_len)
        };
        f(i, r0, r1, stripe);
    });
}

// ---------------------------------------------------------------------------
// Chunked whole-tensor kernels.
// ---------------------------------------------------------------------------

/// Chunked elementwise `out[i] = a[i] op b[i]` (Listable zip). Exact:
/// per-element results are independent, so any chunking is bit-identical
/// to the sequential loop.
pub fn zip_f64(cfg: &ParallelConfig, op: SimdOp, a: &[f64], b: &[f64], out: &mut [f64]) {
    let len = out.len();
    let n_chunks = cfg.chunk_count(len);
    for_each_row_block(cfg.threads(), n_chunks, len, 1, out, &|_, lo, hi, o| {
        simd::vv(op, &a[lo..hi], &b[lo..hi], o);
    });
}

/// Chunked elementwise tensor ⊗ scalar map. `rev` swaps operand order
/// (`out[i] = s op a[i]` instead of `a[i] op s`), matching the machine's
/// reversed-operand scalar forms.
pub fn map_f64(cfg: &ParallelConfig, op: SimdOp, a: &[f64], s: f64, rev: bool, out: &mut [f64]) {
    let len = out.len();
    let n_chunks = cfg.chunk_count(len);
    for_each_row_block(cfg.threads(), n_chunks, len, 1, out, &|_, lo, hi, o| {
        if rev {
            simd::sv(op, s, &a[lo..hi], o);
        } else {
            simd::vs(op, &a[lo..hi], s, o);
        }
    });
}

/// Chunked sum. Per-chunk partials (SIMD 4-lane sums) are merged sequentially in chunk order — the deterministic chunk-tree
/// reduction order documented in DESIGN.md.
pub fn sum_f64(cfg: &ParallelConfig, a: &[f64]) -> f64 {
    let n_chunks = cfg.chunk_count(a.len());
    let mut partials = vec![0.0f64; n_chunks];
    let len = a.len();
    for_each_row_block(
        cfg.threads(),
        n_chunks,
        n_chunks,
        1,
        &mut partials,
        &|i, _, _, p| {
            let (lo, hi) = chunk_bounds(len, n_chunks, i);
            p[0] = simd::sum(&a[lo..hi]);
        },
    );
    partials.into_iter().sum()
}

/// Chunked dot product with the same partial-merge order as [`sum_f64`].
pub fn dot_f64(cfg: &ParallelConfig, a: &[f64], b: &[f64]) -> f64 {
    assert!(a.len() == b.len(), "dot length mismatch");
    let n_chunks = cfg.chunk_count(a.len());
    let mut partials = vec![0.0f64; n_chunks];
    let len = a.len();
    for_each_row_block(
        cfg.threads(),
        n_chunks,
        n_chunks,
        1,
        &mut partials,
        &|i, _, _, p| {
            let (lo, hi) = chunk_bounds(len, n_chunks, i);
            p[0] = simd::dot(&a[lo..hi], &b[lo..hi]);
        },
    );
    partials.into_iter().sum()
}

/// Row-block-parallel matrix multiply: chunk `i` computes output rows
/// `chunk_bounds(m, n_chunks, i)` via [`crate::linalg::dgemm`] on the
/// corresponding rows of `a`. The per-element accumulation order inside
/// a row depends only on the k-loop, so this is bit-identical to the
/// sequential `dgemm` for every thread count.
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
    for_each_row_block(cfg.threads(), n_chunks, m, n, out, &|_, r0, r1, stripe| {
        crate::linalg::dgemm(&a[r0 * k..r1 * k], b, stripe, r1 - r0, k, n);
    });
}

/// Row-block-parallel matrix × vector. Each output element is one row
/// dot through the reassociated [`simd::dot`] (deterministic per row).
pub fn dgemv(cfg: &ParallelConfig, a: &[f64], x: &[f64], out: &mut [f64], m: usize, n: usize) {
    assert!(a.len() == m * n && x.len() == n && out.len() == m);
    let n_chunks = cfg.chunk_count(m * n).min(m.max(1));
    for_each_row_block(cfg.threads(), n_chunks, m, 1, out, &|_, r0, _, stripe| {
        for (i, slot) in stripe.iter_mut().enumerate() {
            *slot = simd::dot(&a[(r0 + i) * n..(r0 + i + 1) * n], x);
        }
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
        assert_eq!(sum_f64(&c, &[]), 0.0);
        assert_eq!(sum_f64(&c, &[2.5]), 2.5);
        let mut out = [0.0];
        zip_f64(&c, SimdOp::Mul, &[3.0], &[4.0], &mut out);
        assert_eq!(out[0], 12.0);
    }

    #[test]
    fn below_threshold_runs_sequentially() {
        // One chunk => the sequential path (no pool dispatch); results
        // must equal a plain loop bitwise.
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
        let base = cfg(1, 256);
        let base_sum = sum_f64(&base, &a);
        let base_dot = dot_f64(&base, &a, &b);
        let mut base_zip = vec![0.0; a.len()];
        zip_f64(&base, SimdOp::Mul, &a, &b, &mut base_zip);
        for threads in [2usize, 8] {
            let c = cfg(threads, 256);
            assert_eq!(
                sum_f64(&c, &a).to_bits(),
                base_sum.to_bits(),
                "threads={threads}"
            );
            assert_eq!(dot_f64(&c, &a, &b).to_bits(), base_dot.to_bits());
            let mut out = vec![0.0; a.len()];
            zip_f64(&c, SimdOp::Mul, &a, &b, &mut out);
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
    fn dgemv_is_deterministic_across_threads() {
        let (m, n) = (37, 29);
        let a: Vec<f64> = (0..m * n).map(|i| (i as f64 * 0.11).sin()).collect();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut base = vec![0.0; m];
        dgemv(&cfg(1, 8), &a, &x, &mut base, m, n);
        for threads in [2usize, 8] {
            let mut out = vec![0.0; m];
            dgemv(&cfg(threads, 8), &a, &x, &mut out, m, n);
            for i in 0..m {
                assert_eq!(out[i].to_bits(), base[i].to_bits());
            }
        }
    }

    #[test]
    fn pool_survives_task_panic() {
        let caught = std::panic::catch_unwind(|| {
            run_chunks(4, 8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err(), "panic must be re-raised at the caller");
        // The pool must still be usable afterwards.
        let a: Vec<f64> = (0..2048).map(|i| i as f64).collect();
        let s = sum_f64(&cfg(4, 128), &a);
        assert_eq!(s, (2047.0 * 2048.0) / 2.0);
    }
}
