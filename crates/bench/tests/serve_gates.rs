//! The serving pool under concurrent load: a closed loop of Zipf-sampled
//! requests, every reply checked against the catalog's ground truth. A
//! stale or mis-keyed cache entry answers with the *wrong program's*
//! value, so a wrong reply here is a cache bug, not noise. How fast the
//! pool is is `benchmark/`'s business (`serve_warm`, `serve_mixed`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use wolfram_bench::serve_load::{Catalog, Zipf};
use wolfram_serve::{ServeConfig, ServePool, ServeRequest};

/// Drives `requests` calls through a fresh pool from `2 * workers`
/// closed-loop client threads and checks the pool's own accounting.
fn zipf_load(catalog: &Catalog, workers: usize, cache_cap: usize, requests: u64, seed: u64) {
    let case = format!("{workers} worker(s), cache cap {cache_cap}");
    let zipf = Zipf::new(catalog.len(), 1.1);
    let pool = ServePool::start(ServeConfig {
        workers,
        cache_cap,
        ..ServeConfig::default()
    });
    let arg = catalog.arg().to_string();
    let issued = AtomicU64::new(0);
    std::thread::scope(|s| {
        for client in 0..2 * workers as u64 {
            let (pool, zipf, arg, issued, case) = (&pool, &zipf, &arg, &issued, &case);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ client.wrapping_mul(0x9E37));
                while issued.fetch_add(1, Ordering::Relaxed) < requests {
                    let rank = zipf.sample(&mut rng);
                    let reply = pool.call(ServeRequest::new(catalog.source(rank), [arg.as_str()]));
                    assert_eq!(
                        reply.result.as_deref(),
                        Ok(catalog.expected(rank)),
                        "{case}: program {rank} answered wrongly"
                    );
                }
            });
        }
    });

    let m = pool.metrics();
    let ok = m.ok.load(Ordering::Relaxed);
    let compiles = m.compiles.load(Ordering::Relaxed);
    assert_eq!(ok, requests, "{case}: a request was lost or refused");
    if cache_cap > 0 {
        assert!(m.hit_rate() > 0.0, "{case}: the cache never hit");
        assert!(
            compiles <= catalog.len() as u64,
            "{case}: {compiles} compiles of {} programs",
            catalog.len()
        );
    } else {
        assert_eq!(compiles, ok, "{case}: every request compiles with no cache");
    }
    pool.shutdown();
}

#[test]
fn zipf_load_matches_ground_truth_at_every_pool_shape() {
    let catalog = Catalog::new(12, 64);
    for (workers, cache_cap) in [(1, 0), (1, 512), (4, 512), (8, 0), (8, 512)] {
        zipf_load(&catalog, workers, cache_cap, 240, 0x5E12_F00D);
    }
    // A catalog smaller than the client count: every program is contended
    // from its first request.
    zipf_load(&Catalog::new(3, 16), 2, 512, 30, 0xBEEF);
}
