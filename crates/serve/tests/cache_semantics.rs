//! Cache-semantics integration tests from the serving-layer checklist:
//! single-flight under contention, options-fingerprint separation, the
//! LRU bound observed through the pool, and artifact determinism over
//! the difftest corpus.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use wolfram_compiler_core::Compiler;
use wolfram_serve::{CacheStatus, CompilerOptions, ServeConfig, ServePool, ServeRequest};

const INC: &str = "Function[{Typed[n, \"MachineInteger\"]}, n + 1]";

fn pool(workers: usize, cache_cap: usize) -> ServePool {
    ServePool::start(ServeConfig {
        workers,
        cache_cap,
        ..ServeConfig::default()
    })
}

fn g(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// N clients race the same uncached program across four workers; the
/// shared cache's compute ticket lets exactly one compile happen, and
/// everyone else hits the artifact it produced.
#[test]
fn single_flight_under_contention() {
    let pool = pool(4, 64);
    let clients = 16;
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                barrier.wait();
                let reply = pool.call(ServeRequest::new(INC, ["41"]));
                assert_eq!(reply.result.as_deref(), Ok("42"));
            });
        }
    });
    let m = pool.metrics();
    assert_eq!(g(&m.compiles), 1, "single-flight: exactly one compile");
    assert_eq!(g(&m.cache_misses), 1);
    assert_eq!(g(&m.cache_hits), clients as u64 - 1);
    assert_eq!(g(&m.admitted), clients as u64);
    assert_eq!(g(&m.ok), clients as u64);
}

/// Same source under different `CompilerOptions` must not collide: the
/// options fingerprint is part of the cache key.
#[test]
fn options_fingerprint_separates_artifacts() {
    let pool = pool(2, 64);
    let plain = ServeRequest::new(INC, ["1"]);
    let unoptimized = CompilerOptions {
        optimization_level: 0,
        ..CompilerOptions::default()
    };
    let tweaked = ServeRequest::new(INC, ["1"]).with_options(unoptimized);

    assert_eq!(pool.call(plain.clone()).cache, CacheStatus::Miss);
    // Different options: a distinct artifact, so a second miss...
    assert_eq!(pool.call(tweaked.clone()).cache, CacheStatus::Miss);
    // ...while repeats of either variant hit their own entry.
    assert_eq!(pool.call(plain).cache, CacheStatus::Hit);
    assert_eq!(pool.call(tweaked).cache, CacheStatus::Hit);
    let m = pool.metrics();
    assert_eq!(g(&m.compiles), 2);
    assert_eq!(g(&m.cache_misses), 2);
    assert_eq!(g(&m.cache_hits), 2);
}

/// The per-shard LRU bound is visible through the pool: a single-shard
/// pool with room for two artifacts recompiles the one evicted by the
/// third distinct program.
#[test]
fn lru_bound_evicts_through_the_pool() {
    let pool = pool(1, 2);
    let programs = [
        "Function[{Typed[n, \"MachineInteger\"]}, n + 1]",
        "Function[{Typed[n, \"MachineInteger\"]}, n + 2]",
        "Function[{Typed[n, \"MachineInteger\"]}, n + 3]",
    ];
    for (i, src) in programs.iter().enumerate() {
        let reply = pool.call(ServeRequest::new(*src, ["10"]));
        assert_eq!(reply.result.as_deref().unwrap(), (11 + i).to_string());
        assert_eq!(reply.cache, CacheStatus::Miss);
    }
    // Inserting the third program evicted the first (LRU), so it misses
    // again; the second and third are still resident.
    assert_eq!(
        pool.call(ServeRequest::new(programs[0], ["10"])).cache,
        CacheStatus::Miss
    );
    assert_eq!(
        pool.call(ServeRequest::new(programs[2], ["10"])).cache,
        CacheStatus::Hit
    );
    let m = pool.metrics();
    assert_eq!(g(&m.compiles), 4);
    assert!(g(&m.cache_evictions) >= 2, "{}", g(&m.cache_evictions));
}

/// Determinism over the difftest corpus: two independent compilers emit
/// byte-identical artifact text, and a cached artifact answers exactly
/// like a fresh compile (cache-off pool) for every recorded argument set.
#[test]
fn corpus_artifacts_are_deterministic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../difftest/corpus");
    let entries = wolfram_difftest::corpus::load_dir(&dir).expect("load difftest corpus");
    assert!(!entries.is_empty(), "corpus must not be empty");

    let cached = pool(2, 256);
    let uncached = pool(2, 0); // cache disabled: every request recompiles

    for (path, entry) in &entries {
        // Byte-identical artifact text from two fresh compilers.
        let a = Compiler::new(CompilerOptions::default()).export_string(&entry.func, "Assembler");
        let b = Compiler::new(CompilerOptions::default()).export_string(&entry.func, "Assembler");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "nondeterministic artifact for {}",
            path.display()
        );

        let src = entry.func.to_input_form();
        for args in &entry.arg_sets {
            let rendered: Vec<String> = args.iter().map(|v| v.to_expr().to_input_form()).collect();
            let warm = cached.call(ServeRequest::new(&src, rendered.clone()));
            let warm_again = cached.call(ServeRequest::new(&src, rendered.clone()));
            let cold = uncached.call(ServeRequest::new(&src, rendered));
            assert_eq!(
                warm.result,
                warm_again.result,
                "cached replay diverged for {}",
                path.display()
            );
            assert_eq!(
                warm.result,
                cold.result,
                "cached vs fresh compile diverged for {}",
                path.display()
            );
        }
    }
    assert!(cached.metrics().hit_rate() > 0.0);
    assert_eq!(g(&uncached.metrics().cache_hits), 0);
}
