//! The data-parallel tier through the serve pool: parallel artifacts
//! must be cached separately from scalar ones (fingerprint separation
//! observed end to end), produce identical results, and leave the
//! process-wide memory counters balanced even though the compiled code
//! runs the tier's batched loops from inside a serve worker.
//!
//! Like `memory_balance.rs`, this lives in its own test binary so no
//! concurrently running test can perturb the process-wide totals
//! mid-assertion.

use wolfram_runtime::{memory, ParallelConfig};
use wolfram_serve::{CacheStatus, CompilerOptions, ServeConfig, ServePool, ServeRequest};

#[test]
fn data_parallel_requests_balance_and_cache_separately() {
    memory::reset_global_stats();
    let pool = ServePool::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // A vectorizable loop over a managed tensor: the tier plants a
    // vec.loop plan, so batched acquire/release accounting runs inside a
    // serve worker.
    let src = "Function[{Typed[v, \"Tensor\"[\"Real64\", 1]], Typed[n, \"MachineInteger\"]}, \
               Module[{out, i}, out = ConstantArray[0., {n}]; i = 1; \
               While[i <= n, out[[i]] = 2.0*v[[i]] + 1.0; i = i + 1]; out]]";
    let n = 64usize;
    let vec_arg = format!(
        "{{{}}}",
        (0..n)
            .map(|k| format!("{:.1}", k as f64))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let args = [vec_arg, n.to_string()];
    let parallel_options = CompilerOptions {
        data_parallel: true,
        parallel: ParallelConfig {
            num_threads: 2,
            min_elems_per_chunk: 16,
        },
        ..CompilerOptions::default()
    };

    let scalar_first = pool.call(ServeRequest::new(src, args.clone()));
    let scalar_again = pool.call(ServeRequest::new(src, args.clone()));
    let par_first =
        pool.call(ServeRequest::new(src, args.clone()).with_options(parallel_options.clone()));
    let par_again =
        pool.call(ServeRequest::new(src, args.clone()).with_options(parallel_options.clone()));

    // Same answer from both tiers, bit for bit in the rendering.
    let expected = scalar_first.result.as_deref().expect("scalar runs");
    assert_eq!(par_first.result.as_deref(), Ok(expected));
    assert_eq!(par_again.result.as_deref(), Ok(expected));

    // Distinct artifacts: the parallel request missed even though the
    // scalar artifact for the identical source was already resident.
    assert_eq!(scalar_first.cache, CacheStatus::Miss);
    assert_eq!(scalar_again.cache, CacheStatus::Hit);
    assert_eq!(par_first.cache, CacheStatus::Miss);
    assert_eq!(par_again.cache, CacheStatus::Hit);

    // Shut down so every worker has flushed its thread-local counters,
    // then require global balance across serve workers AND the runtime
    // pool workers the parallel artifact dispatched to.
    pool.shutdown();
    let stats = memory::global_stats();
    assert!(stats.acquires > 0, "managed runs must record acquires");
    assert!(
        stats.balanced(),
        "acquire/release imbalance with data_parallel: {stats:?}"
    );
}
