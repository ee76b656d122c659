//! The artifact cache's admission filter on `serve_mixed`'s traffic,
//! replayed through the cache alone: no compiler, no pool, no clock.
//!
//! The benchmark's `serve_mixed` workload sends 64 catalog programs at
//! Zipf(1.1), one request in ten a never-seen program, to one worker
//! whose cache holds 32 artifacts, after a warm-up pass over the catalog
//! coldest first. Replayed here through a one-shard
//! `SharedArtifactCache<u32>`, 100,000 claims at seed 3 give a hit share
//! of 0.765 with the admission filter. The same replay through strict LRU
//! (every compiled artifact inserted) gives 0.692, and holding the 32
//! most requested programs resident would give 0.9 × H(32, 1.1) /
//! H(64, 1.1) ≈ 0.795. The test only counts; how fast the pool is is
//! `benchmark/`'s business.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wolfram_bench::serve_load::Zipf;
use wolfram_serve::{CacheKey, Claim, Entry, SharedArtifactCache, Tier};

const CATALOG: u64 = 64;
const CAPACITY: usize = 32;
const FRESH_SHARE: f64 = 0.10;
const CLAIMS: u64 = 100_000;

/// Claims `program`, compiling (fulfilling) on a miss; true on a hit.
fn request(cache: &std::sync::Arc<SharedArtifactCache<u32>>, program: u64) -> bool {
    let key = CacheKey {
        program: [program, !program],
        options: 0,
    };
    match cache.claim(key) {
        Claim::Hit { .. } => true,
        Claim::Compute(ticket) => {
            ticket.fulfill(Entry {
                artifact: 0,
                tier: Tier::Native,
                compile_ns: 0,
                hits: 0,
            });
            false
        }
    }
}

#[test]
fn the_admission_filter_keeps_serve_mixed_hot_programs_resident() {
    let cache = SharedArtifactCache::new(1, CAPACITY);
    for program in (0..CATALOG).rev() {
        request(&cache, program);
    }
    let zipf = Zipf::new(CATALOG as usize, 1.1);
    let mut rng = StdRng::seed_from_u64(3);
    let mut fresh = CATALOG;
    let mut hits = 0u64;
    for _ in 0..CLAIMS {
        let program = if rng.gen_bool(FRESH_SHARE) {
            fresh += 1;
            fresh
        } else {
            zipf.sample(&mut rng) as u64
        };
        hits += u64::from(request(&cache, program));
    }
    let hit_share = hits as f64 / CLAIMS as f64;
    assert!(hit_share >= 0.74, "hit share {hit_share:.3}");
}
