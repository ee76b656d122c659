//! The content-addressed artifact cache.
//!
//! Two layers live here:
//!
//! - [`ArtifactCache`]: a strict least-recently-used map from
//!   [`CacheKey`] to a compiled artifact tagged with its tier (bytecode
//!   vs native). Lock-free and single-owner; the building block.
//! - [`SharedArtifactCache`]: the process-wide store every pool worker
//!   shares. Now that artifacts are `Send + Sync`
//!   ([`wolfram_compiler_core::CompiledArtifact`]), one compilation
//!   serves every thread: the store is a vector of `Mutex`-guarded
//!   [`ArtifactCache`] shards (keyed by canonical-key hash), each with a [`Condvar`] that implements
//!   cross-worker **single-flight**: the first claimant of an absent key
//!   gets a [`ComputeTicket`] and compiles; every other claimant blocks
//!   on the condvar and wakes to a hit. N concurrent requests for one
//!   uncached program — even different textual spellings taken by
//!   different pool workers — trigger exactly one compile.
//!
//! Each shard puts a frequency **admission filter** (the TinyLFU idea) in
//! front of its LRU: `claim` counts every lookup of a key, hit or miss,
//! and a compiled entry that would evict is inserted only if its key is
//! requested at least as often as the LRU victim (a tie evicts, as plain
//! LRU does). A program seen once no longer displaces a hot one, so it
//! does not cost the hot one a recompile. The counts are exact and aged:
//! every `10 × cap` claims they are halved and zeros dropped, which keeps
//! the table small and lets a newly hot key in within about two such
//! windows. A key another claimant waited on is always inserted, so
//! single-flight still means one compile.

use crate::key::CacheKey;
use std::collections::{hash_map, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Which engine an artifact targets (the Titzer-style tier tag: bytecode
/// compiles fast and runs slow; native compiles slow and runs fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The legacy bytecode VM (§2.2) — the cheap tier.
    Bytecode,
    /// The native register machine — the optimizing tier.
    Native,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Bytecode => "bytecode",
            Tier::Native => "native",
        })
    }
}

/// A resident cache entry.
#[derive(Debug)]
pub struct Entry<A> {
    /// The compiled artifact.
    pub artifact: A,
    /// Which tier compiled it.
    pub tier: Tier,
    /// Nanoseconds the compile took (reported on hits so callers can see
    /// what the cache saved them).
    pub compile_ns: u64,
    /// Times this entry has been served since insertion (drives adaptive
    /// tier promotion).
    pub hits: u64,
}

/// Monotonic counters for one shard's cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a resident artifact.
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

/// A strict-LRU, capacity-bounded artifact cache.
///
/// `cap == 0` disables caching entirely (every lookup misses and inserts
/// are dropped) — the bench harness uses this as the cache-off baseline.
#[derive(Debug)]
pub struct ArtifactCache<A> {
    cap: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot<A>>,
    /// Most-recently-used slot, or `usize::MAX` when empty.
    head: usize,
    /// Least-recently-used slot, or `usize::MAX` when empty.
    tail: usize,
    free: Vec<usize>,
    counters: CacheCounters,
}

#[derive(Debug)]
struct Slot<A> {
    key: CacheKey,
    entry: Entry<A>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<A> ArtifactCache<A> {
    /// A cache bounded to `cap` entries (0 disables caching).
    pub fn new(cap: usize) -> Self {
        ArtifactCache {
            cap,
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            counters: CacheCounters::default(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// This shard's counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    fn unlink(&mut self, ix: usize) {
        let (prev, next) = (self.slots[ix].prev, self.slots[ix].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, ix: usize) {
        self.slots[ix].prev = NIL;
        self.slots[ix].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = ix;
        }
        self.head = ix;
        if self.tail == NIL {
            self.tail = ix;
        }
    }

    /// Looks up `key`, counting a hit or miss. A hit is promoted to
    /// most-recently-used and its hit count incremented.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<&mut Entry<A>> {
        match self.map.get(key).copied() {
            Some(ix) => {
                self.counters.hits += 1;
                self.unlink(ix);
                self.push_front(ix);
                let e = &mut self.slots[ix].entry;
                e.hits += 1;
                Some(e)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly compiled artifact as most-recently-used,
    /// evicting the least-recently-used entry if the cache is full.
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: CacheKey, entry: Entry<A>) -> Option<CacheKey> {
        if self.cap == 0 {
            return None;
        }
        if let Some(ix) = self.map.get(&key).copied() {
            // Replacement (e.g. tier promotion): keep one slot per key.
            self.unlink(ix);
            self.push_front(ix);
            self.slots[ix].entry = entry;
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.cap {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = self.slots[lru].key;
            self.map.remove(&old);
            self.free.push(lru);
            self.counters.evictions += 1;
            evicted = Some(old);
        }
        let ix = match self.free.pop() {
            Some(ix) => {
                self.slots[ix] = Slot {
                    key,
                    entry,
                    prev: NIL,
                    next: NIL,
                };
                ix
            }
            None => {
                self.slots.push(Slot {
                    key,
                    entry,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, ix);
        self.push_front(ix);
        evicted
    }

    /// The key inserting `key` would evict: the least-recently-used
    /// entry of a full cache that does not hold `key`.
    pub fn would_evict(&self, key: &CacheKey) -> Option<CacheKey> {
        let full = self.cap > 0 && self.map.len() == self.cap;
        (full && !self.map.contains_key(key)).then(|| self.slots[self.tail].key)
    }

    /// Keys from most- to least-recently used (tests assert exact LRU
    /// order through this).
    pub fn keys_by_recency(&self) -> Vec<CacheKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut ix = self.head;
        while ix != NIL {
            out.push(self.slots[ix].key);
            ix = self.slots[ix].next;
        }
        out
    }
}

/// What a [`SharedArtifactCache::claim`] resolved to.
pub enum Claim<A> {
    /// The artifact is resident (possibly because another thread just
    /// finished compiling it while we waited).
    Hit {
        /// A clone of the shared artifact.
        artifact: A,
        /// The tier that compiled it.
        tier: Tier,
        /// What the resident artifact cost to compile.
        compile_ns: u64,
        /// Times the entry has served (after this claim).
        hits: u64,
    },
    /// This claimant owns the compile: no other thread will compile this
    /// key until the ticket is fulfilled or dropped.
    Compute(ComputeTicket<A>),
}

/// The single-flight compile permit for one key. Exactly one exists per
/// in-flight key; holders must either [`ComputeTicket::fulfill`] it with
/// a compiled entry or drop it (compile failure), which releases every
/// waiter to retry — the next claimant becomes the new owner.
pub struct ComputeTicket<A> {
    cache: Arc<SharedArtifactCache<A>>,
    key: CacheKey,
    fulfilled: bool,
}

/// What [`ComputeTicket::fulfill`] did with the compiled entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Inserted without displacing anything.
    Admitted,
    /// Inserted in place of this least-recently-used key.
    Evicted(CacheKey),
    /// Dropped: the key is requested less often than the entry it would
    /// have evicted.
    Refused,
}

impl<A> ComputeTicket<A> {
    /// The key this ticket owns.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// Publishes the compiled entry, unless the admission filter refuses
    /// it, and wakes every waiter. A key another claimant waited on is
    /// always admitted, so the waiters wake to a hit.
    pub fn fulfill(mut self, entry: Entry<A>) -> Admission {
        self.fulfilled = true;
        let shard = self.cache.shard(&self.key);
        let mut st = lock(&shard.state);
        let waited = st.inflight.remove(&self.key).unwrap_or(false);
        let refuse = st
            .lru
            .would_evict(&self.key)
            .is_some_and(|victim| !waited && st.freq.of(&self.key) < st.freq.of(&victim));
        let admission = if refuse {
            Admission::Refused
        } else {
            st.lru
                .insert(self.key, entry)
                .map_or(Admission::Admitted, Admission::Evicted)
        };
        shard.cv.notify_all();
        admission
    }
}

impl<A> Drop for ComputeTicket<A> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Compile failed (or the holder panicked): release the key so
        // waiters stop blocking and the next claimant retries.
        let shard = self.cache.shard(&self.key);
        let mut st = lock(&shard.state);
        st.inflight.remove(&self.key);
        shard.cv.notify_all();
    }
}

struct ShardState<A> {
    lru: ArtifactCache<A>,
    /// Keys currently being compiled by some thread, each with whether
    /// another claimant is waiting for it.
    inflight: HashMap<CacheKey, bool>,
    freq: Frequency,
}

/// The admission filter's request counts: exact, halved every `window`
/// claims with zeros dropped.
struct Frequency {
    counts: HashMap<CacheKey, u32>,
    claims: usize,
    window: usize,
}

impl Frequency {
    fn bump(&mut self, key: CacheKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.claims += 1;
        if self.claims == self.window {
            self.claims = 0;
            self.counts.retain(|_, n| {
                *n /= 2;
                *n > 0
            });
        }
    }

    fn of(&self, key: &CacheKey) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

struct Shard<A> {
    state: Mutex<ShardState<A>>,
    cv: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A worker that panics mid-insert leaves consistent state (inserts
    // are single calls); keep serving rather than poisoning the pool.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide artifact store: sharded `Mutex<ArtifactCache>` with
/// per-shard condvars for cross-thread single-flight.
///
/// Storage sharding is by canonical [`CacheKey`] hash and exists only to
/// cut lock contention. Capacity is `shards * cap_per_shard` total
/// entries.
pub struct SharedArtifactCache<A> {
    shards: Vec<Shard<A>>,
}

impl<A> SharedArtifactCache<A> {
    fn shard(&self, key: &CacheKey) -> &Shard<A> {
        // The key is already two independent FNV lanes; fold in the
        // options word and spread with a multiply-shift.
        let h = (key.program[0] ^ key.program[1].rotate_left(32) ^ key.options)
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
        &self.shards[(h >> 33) as usize % self.shards.len()]
    }
}

impl<A: Clone> SharedArtifactCache<A> {
    /// A store with `shards` lock shards of `cap_per_shard` entries each.
    pub fn new(shards: usize, cap_per_shard: usize) -> Arc<Self> {
        let n = shards.max(1);
        Arc::new(SharedArtifactCache {
            shards: (0..n)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        lru: ArtifactCache::new(cap_per_shard),
                        inflight: HashMap::new(),
                        freq: Frequency {
                            counts: HashMap::new(),
                            claims: 0,
                            window: 10 * cap_per_shard.max(1),
                        },
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
        })
    }

    /// Resolves `key` to a hit or a compute permit, blocking while
    /// another thread holds the permit. Counts the lookup for the
    /// admission filter.
    ///
    /// The caller MUST resolve a returned [`ComputeTicket`] promptly
    /// (fulfill or drop); holding it parks every concurrent claimant of
    /// the same key.
    pub fn claim(self: &Arc<Self>, key: CacheKey) -> Claim<A> {
        let shard = self.shard(&key);
        let mut st = lock(&shard.state);
        st.freq.bump(key);
        loop {
            if let Some(e) = st.lru.lookup(&key) {
                return Claim::Hit {
                    artifact: e.artifact.clone(),
                    tier: e.tier,
                    compile_ns: e.compile_ns,
                    hits: e.hits,
                };
            }
            match st.inflight.entry(key) {
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(false);
                    return Claim::Compute(ComputeTicket {
                        cache: Arc::clone(self),
                        key,
                        fulfilled: false,
                    });
                }
                hash_map::Entry::Occupied(mut waited) => *waited.get_mut() = true,
            }
            st = shard.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Replaces (or inserts) an entry outside the single-flight protocol
    /// — tier promotion publishes its upgraded artifact through this.
    /// Returns the evicted key, if any.
    pub fn publish(&self, key: CacheKey, entry: Entry<A>) -> Option<CacheKey> {
        let shard = self.shard(&key);
        let mut st = lock(&shard.state);
        st.lru.insert(key, entry)
    }

    /// Total resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).lru.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            program: [n, n ^ 0xabcd],
            options: 7,
        }
    }

    fn entry(v: u32) -> Entry<u32> {
        Entry {
            artifact: v,
            tier: Tier::Native,
            compile_ns: 0,
            hits: 0,
        }
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        let mut c = ArtifactCache::new(3);
        for n in 0..3 {
            assert_eq!(c.insert(key(n), entry(n as u32)), None);
        }
        assert_eq!(c.keys_by_recency(), vec![key(2), key(1), key(0)]);
        // Touch 0: it becomes MRU, so 1 is now the eviction victim.
        assert!(c.lookup(&key(0)).is_some());
        assert_eq!(c.keys_by_recency(), vec![key(0), key(2), key(1)]);
        assert_eq!(c.insert(key(3), entry(3)), Some(key(1)));
        assert_eq!(c.keys_by_recency(), vec![key(3), key(0), key(2)]);
        // And the next eviction takes 2, then 0.
        assert_eq!(c.insert(key(4), entry(4)), Some(key(2)));
        assert_eq!(c.insert(key(5), entry(5)), Some(key(0)));
        assert_eq!(c.counters().evictions, 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = ArtifactCache::new(2);
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), entry(1));
        assert_eq!(c.lookup(&key(1)).unwrap().artifact, 1);
        assert_eq!(c.lookup(&key(1)).unwrap().hits, 2);
        assert_eq!(
            c.counters(),
            CacheCounters {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn replacement_keeps_one_slot_per_key() {
        let mut c = ArtifactCache::new(2);
        c.insert(key(1), entry(1));
        c.insert(key(2), entry(2));
        // Tier promotion replaces in place: no eviction, len unchanged.
        let mut promoted = entry(10);
        promoted.tier = Tier::Native;
        assert_eq!(c.insert(key(1), promoted), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key(1)).unwrap().artifact, 10);
        assert_eq!(c.counters().evictions, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ArtifactCache::new(0);
        assert_eq!(c.insert(key(1), entry(1)), None);
        assert!(c.lookup(&key(1)).is_none());
        assert!(c.is_empty());
        assert_eq!(c.counters().misses, 1);
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut c = ArtifactCache::new(2);
        for n in 0..100 {
            c.insert(key(n), entry(n as u32));
        }
        // 100 inserts through a 2-slot cache allocate only 2 slots.
        assert_eq!(c.slots.len(), 2);
        assert_eq!(c.counters().evictions, 98);
    }

    #[test]
    fn shared_cache_single_flight_under_contention() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // 16 threads race to claim the same absent key; exactly one gets
        // the compute ticket, everyone else blocks and wakes to a hit.
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(4, 8);
        let compiles = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let compiles = Arc::clone(&compiles);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.claim(key(7)) {
                        Claim::Compute(ticket) => {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Hold the permit long enough that the other
                            // 15 threads really do pile up on the condvar.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            ticket.fulfill(entry(42));
                            42
                        }
                        Claim::Hit { artifact, .. } => artifact,
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn dropped_ticket_releases_waiters_to_retry() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(1, 8);
        let Claim::Compute(ticket) = cache.claim(key(1)) else {
            panic!("first claim must be a compute");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.claim(key(1)) {
                Claim::Compute(t) => {
                    // The failed compile fell to us; succeed this time.
                    t.fulfill(entry(9));
                    "retried"
                }
                Claim::Hit { .. } => "hit",
            })
        };
        // Simulated compile failure: drop without fulfilling.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(ticket);
        assert_eq!(waiter.join().unwrap(), "retried");
        // And the retry's artifact is now resident for everyone.
        match cache.claim(key(1)) {
            Claim::Hit { artifact, .. } => assert_eq!(artifact, 9),
            Claim::Compute(_) => panic!("artifact should be resident"),
        }
    }

    /// Claims `key` on a one-shard cache and fulfills a compute with
    /// `entry(n)`: what happened, or `None` on a hit.
    fn request(cache: &Arc<SharedArtifactCache<u32>>, n: u64) -> Option<Admission> {
        match cache.claim(key(n)) {
            Claim::Compute(t) => Some(t.fulfill(entry(n as u32))),
            Claim::Hit { .. } => None,
        }
    }

    fn recency(cache: &SharedArtifactCache<u32>) -> Vec<CacheKey> {
        lock(&cache.shards[0].state).lru.keys_by_recency()
    }

    #[test]
    fn a_key_seen_once_does_not_displace_a_more_requested_one() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(1, 2);
        for n in [1, 2] {
            assert_eq!(request(&cache, n), Some(Admission::Admitted));
            assert_eq!(request(&cache, n), None);
        }
        // Key 3 has one request against the victim's two.
        assert_eq!(request(&cache, 3), Some(Admission::Refused));
        assert_eq!(recency(&cache), vec![key(2), key(1)]);
        // Its second request ties the victim, and a tie evicts.
        assert_eq!(request(&cache, 3), Some(Admission::Evicted(key(1))));
        assert_eq!(recency(&cache), vec![key(3), key(2)]);
    }

    #[test]
    fn at_equal_counts_the_shard_evicts_in_exact_lru_order() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(1, 3);
        for n in 0..3 {
            assert_eq!(request(&cache, n), Some(Admission::Admitted));
        }
        // Every key at two requests, touched in the order 1, 0, 2: key 1
        // is the victim.
        for n in [1, 0, 2] {
            assert_eq!(request(&cache, n), None);
        }
        assert_eq!(recency(&cache), vec![key(2), key(0), key(1)]);
        // Each new key is refused at one request and evicts at two, taking
        // the least recently used key each time.
        for (n, victim) in [(3, 1), (4, 0), (5, 2)] {
            assert_eq!(request(&cache, n), Some(Admission::Refused));
            assert_eq!(request(&cache, n), Some(Admission::Evicted(key(victim))));
        }
        assert_eq!(recency(&cache), vec![key(5), key(4), key(3)]);
    }

    #[test]
    fn a_key_the_filter_would_refuse_compiles_once_for_two_claimants() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(1, 1);
        assert_eq!(request(&cache, 1), Some(Admission::Admitted));
        for _ in 0..4 {
            assert_eq!(request(&cache, 1), None);
        }
        let Claim::Compute(ticket) = cache.claim(key(2)) else {
            panic!("first claim must be a compute");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.claim(key(2)) {
                Claim::Hit { artifact, .. } => artifact,
                Claim::Compute(_) => panic!("the waiter compiled a second time"),
            })
        };
        // Fulfill only once the waiter is parked on the key.
        while !lock(&cache.shards[0].state).inflight[&key(2)] {
            std::thread::yield_now();
        }
        // Two requests against five: refused, were it not waited on.
        assert_eq!(ticket.fulfill(entry(2)), Admission::Evicted(key(1)));
        assert_eq!(waiter.join().unwrap(), 2);
    }

    #[test]
    fn a_newly_hot_key_is_admitted_within_two_ageing_windows() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(1, 2);
        let window = 20;
        // Keys 1 and 2 take every request for ten windows.
        for i in 0..10 * window {
            request(&cache, 1 + i % 2);
        }
        // Then only key 3 is requested.
        let admitted_after = (1..=4 * window)
            .find(|_| matches!(request(&cache, 3), Some(Admission::Evicted(_))))
            .expect("key 3 is admitted");
        assert!(
            (2..=2 * window).contains(&admitted_after),
            "admitted after {admitted_after} requests"
        );
    }

    #[test]
    fn publish_replaces_entry_in_place() {
        let cache: Arc<SharedArtifactCache<u32>> = SharedArtifactCache::new(2, 4);
        let Claim::Compute(t) = cache.claim(key(3)) else {
            panic!("expected compute");
        };
        t.fulfill(Entry {
            artifact: 1,
            tier: Tier::Bytecode,
            compile_ns: 10,
            hits: 0,
        });
        // Tier promotion path: replace with the native artifact.
        cache.publish(
            key(3),
            Entry {
                artifact: 2,
                tier: Tier::Native,
                compile_ns: 99,
                hits: 0,
            },
        );
        match cache.claim(key(3)) {
            Claim::Hit {
                artifact,
                tier,
                compile_ns,
                ..
            } => {
                assert_eq!((artifact, tier, compile_ns), (2, Tier::Native, 99));
            }
            Claim::Compute(_) => panic!("expected hit"),
        }
        assert_eq!(cache.len(), 1);
    }
}
