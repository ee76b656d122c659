//! The Send/Sync audit, positive direction: everything the shared
//! two-level cache stores or hands between threads must be `Send + Sync`.
//! (The remaining negative half — `CompiledCodeFunction`, the *execution*
//! handle with its `Rc` engine and machine, must NOT be `Send` — is the
//! `compile_fail` doctest in the crate root.)
//!
//! Before the shared-cache rework these assertions were the inverse:
//! compiled artifacts and `Value` were `Rc`-based and thread-confined,
//! and the pool's sharding had to guarantee they never moved. Now the
//! artifact types are `Arc`-based by construction, a single compilation
//! serves every worker, and these tests pin that property at compile
//! time so an accidental `Rc` reintroduction fails CI here, loudly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use wolfram_serve::{
    BoundedQueue, Claim, CompilerOptions, DiskCache, Entry, ServeConfig, ServeError, ServeMetrics,
    ServePool, ServeReply, ServeRequest, SharedArtifactCache, Tier,
};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_artifact_types_are_send_and_sync() {
    // The compiled-artifact family: what the level-1 cache stores.
    assert_send_sync::<wolfram_compiler_core::CompiledArtifact>();
    assert_send_sync::<wolfram_bytecode::CompiledFunction>();
    // The data embedded inside artifacts (constants, interned strings,
    // big integers, tensors, expression forms).
    assert_send_sync::<wolfram_runtime::Value>();
    assert_send_sync::<wolfram_runtime::Tensor>();
    assert_send_sync::<wolfram_expr::Expr>();
}

#[test]
fn service_boundary_types_are_send_and_sync() {
    assert_send_sync::<ServeRequest>();
    assert_send_sync::<ServeReply>();
    assert_send_sync::<ServeError>();
    assert_send_sync::<ServeMetrics>();
    assert_send_sync::<BoundedQueue<ServeRequest>>();
    assert_send_sync::<CompilerOptions>();
    // The cache layers themselves.
    assert_send_sync::<SharedArtifactCache<wolfram_compiler_core::CompiledArtifact>>();
    assert_send_sync::<DiskCache>();
    // `&ServePool` is what client threads (and connection handlers)
    // share.
    assert_send_sync::<ServePool>();
}

/// Sixteen threads race distinct *spellings* of one program (cache-key
/// canonicalization folds them together) through one pool: the shared
/// store plus single-flight tickets must produce exactly one compile.
#[test]
fn sixteen_threads_one_program_one_compile() {
    let pool = Arc::new(ServePool::start(ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    }));
    let threads = 16;
    let barrier = Arc::new(Barrier::new(threads));
    let failures = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let pool = Arc::clone(&pool);
            let barrier = Arc::clone(&barrier);
            let failures = Arc::clone(&failures);
            std::thread::spawn(move || {
                // Vary whitespace and sugar: different request texts
                // (taken by different workers), one canonical program
                // (one cache key).
                let pad = " ".repeat(i + 1);
                let body = if i % 2 == 0 {
                    "x * x + 1"
                } else {
                    "Plus[Times[x, x], 1]"
                };
                let source = format!("Function[{pad}{{Typed[x, \"MachineInteger\"]}},{pad}{body}]");
                barrier.wait();
                for n in 0..8 {
                    let reply = pool.call(ServeRequest::new(&source, [format!("{n}")]));
                    if reply.result.as_deref() != Ok(format!("{}", n * n + 1).as_str()) {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(failures.load(Ordering::Relaxed), 0, "every reply correct");
    let compiles = pool.metrics().compiles.load(Ordering::Relaxed);
    assert_eq!(
        compiles, 1,
        "16 threads x 8 calls of one canonical program must compile exactly once"
    );
    assert_eq!(pool.resident_artifacts(), 1);
    let hits = pool.metrics().cache_hits.load(Ordering::Relaxed);
    let misses = pool.metrics().cache_misses.load(Ordering::Relaxed);
    assert_eq!(hits + misses, 16 * 8);
    assert_eq!(misses, 1, "only the compiling claimant may count a miss");
}

/// The single-flight claim protocol directly: concurrent claimants of one
/// key produce one compute ticket, everyone else blocks and then hits.
#[test]
fn shared_cache_claim_is_exported_and_single_flight() {
    let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(4, 8);
    let key = wolfram_serve::CacheKey {
        program: [1, 2],
        options: 3,
    };
    match cache.claim(key) {
        Claim::Compute(ticket) => {
            assert_eq!(ticket.key(), key);
            ticket.fulfill(Entry {
                artifact: 7,
                tier: Tier::Bytecode,
                compile_ns: 100,
                hits: 0,
            });
        }
        Claim::Hit { .. } => panic!("empty cache cannot hit"),
    }
    match cache.claim(key) {
        Claim::Hit { artifact, tier, .. } => {
            assert_eq!(artifact, 7);
            assert_eq!(tier, Tier::Bytecode);
        }
        Claim::Compute(_) => panic!("fulfilled key must hit"),
    }
}

/// Truncating a disk-cache entry under a *live pool* must fall back to a
/// clean recompile (and overwrite), never an error or a panic.
#[test]
fn pool_recompiles_through_disk_corruption() {
    let dir = std::env::temp_dir().join(format!(
        "wolfram-serve-audit-corrupt-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let source = "Function[{Typed[n, \"MachineInteger\"]}, n + n]";
    let config = || ServeConfig {
        workers: 2,
        tier_policy: wolfram_serve::TierPolicy::BytecodeOnly,
        disk_cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold pool: compiles once, stores the image.
    {
        let pool = ServePool::start(config());
        let reply = pool.call(ServeRequest::new(source, ["21"]));
        assert_eq!(reply.result.as_deref(), Ok("42"));
        assert_eq!(pool.metrics().disk_stores.load(Ordering::Relaxed), 1);
    }

    // Truncate the stored entry to half its length.
    let disk = DiskCache::open(&dir).unwrap();
    assert_eq!(disk.entry_count(), 1);
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().ends_with(".wlbc"))
        .unwrap()
        .path();
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    // Restarted pool: the corrupt entry is detected, counted, recompiled,
    // and overwritten — and the answer is still right.
    {
        let pool = ServePool::start(config());
        let reply = pool.call(ServeRequest::new(source, ["21"]));
        assert_eq!(reply.result.as_deref(), Ok("42"));
        assert_eq!(pool.metrics().disk_corrupt.load(Ordering::Relaxed), 1);
        assert_eq!(pool.metrics().disk_hits.load(Ordering::Relaxed), 0);
        assert_eq!(pool.metrics().compiles.load(Ordering::Relaxed), 1);
        assert_eq!(pool.metrics().disk_stores.load(Ordering::Relaxed), 1);
    }

    // Third start: the overwritten entry now disk-hits with zero
    // compiles — the warm-restart guarantee.
    {
        let pool = ServePool::start(config());
        let reply = pool.call(ServeRequest::new(source, ["21"]));
        assert_eq!(reply.result.as_deref(), Ok("42"));
        assert_eq!(
            reply.cache,
            wolfram_serve::CacheStatus::DiskHit,
            "overwritten entry must serve from disk"
        );
        assert_eq!(pool.metrics().compiles.load(Ordering::Relaxed), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
