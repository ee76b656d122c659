//! Service observability: request counters, cache counters, queue depth,
//! and log-scale latency histograms with the compile/execute split.
//!
//! Everything is lock-free atomics so workers record on the hot path
//! without coordination; rendering reads a consistent-enough snapshot
//! (monotonic counters may be mid-update, which is fine for stats).

use std::sync::atomic::{AtomicU64, Ordering};

/// A log₂-bucketed latency histogram over nanoseconds.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` ns, so the full range
/// covers 1 ns to ~584 years in 64 buckets with ≤ 2× quantile error —
/// plenty for p50/p99 on a serving path measured in µs-to-ms.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, ns: u64) {
        let ix = 63 - u64::leading_zeros(ns.max(1)) as usize;
        self.buckets[ix].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The quantile `q` in `[0, 1]`, reported as the upper bound of the
    /// bucket containing it (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (ix, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (ix + 1).min(63);
            }
        }
        1u64 << 63
    }
}

/// Formats nanoseconds human-readably for the stats table.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Pool-wide counters and histograms. One instance is shared (via `Arc`)
/// by every worker, the admission path, and the stats renderer.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests admitted into the pool queue.
    pub admitted: AtomicU64,
    /// Requests rejected at admission with `Overloaded`.
    pub rejected: AtomicU64,
    /// Requests completing with a value.
    pub ok: AtomicU64,
    /// Requests failing to compile.
    pub compile_errors: AtomicU64,
    /// Requests failing at runtime (other than aborts).
    pub runtime_errors: AtomicU64,
    /// Requests stopped by their deadline (`Aborted`).
    pub aborted: AtomicU64,
    /// Soft numeric failures that re-ran under the interpreter (§3 F2).
    pub fallbacks: AtomicU64,
    /// Compiles performed (cache misses that reached the compiler).
    pub compiles: AtomicU64,
    /// Bytecode→native tier promotions performed.
    pub promotions: AtomicU64,
    /// Cache hits across all shards.
    pub cache_hits: AtomicU64,
    /// Cache misses across all shards.
    pub cache_misses: AtomicU64,
    /// LRU evictions across all shards.
    pub cache_evictions: AtomicU64,
    /// Compiled artifacts the admission filter kept out of the cache.
    pub cache_refused: AtomicU64,
    /// In-memory misses served from the disk cache (no compile ran).
    pub disk_hits: AtomicU64,
    /// Artifacts written to the disk cache.
    pub disk_stores: AtomicU64,
    /// Disk entries rejected as corrupt/stale (each cost one recompile).
    pub disk_corrupt: AtomicU64,
    /// Queued requests skipped because their connection had died.
    pub abandoned: AtomicU64,
    /// Requests currently in the pool queue.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_depth_max: AtomicU64,
    /// Time spent compiling (cache misses only).
    pub compile_latency: Histogram,
    /// Time spent executing (every served request).
    pub execute_latency: Histogram,
    /// End-to-end request latency as the client saw it (queue + compile +
    /// execute), recorded by the pool on completion.
    pub request_latency: Histogram,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let h = self.cache_hits.load(Ordering::Relaxed) as f64;
        let m = self.cache_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Every counter as stable `name` → value pairs: the machine-readable
    /// face of [`ServeMetrics::render`], served over the wire as the
    /// `!stats` request and asserted on by the CI warm-restart gate.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("admitted", g(&self.admitted)),
            ("rejected", g(&self.rejected)),
            ("ok", g(&self.ok)),
            ("compile_errors", g(&self.compile_errors)),
            ("runtime_errors", g(&self.runtime_errors)),
            ("aborted", g(&self.aborted)),
            ("fallbacks", g(&self.fallbacks)),
            ("abandoned", g(&self.abandoned)),
            ("compiles", g(&self.compiles)),
            ("promotions", g(&self.promotions)),
            ("cache_hits", g(&self.cache_hits)),
            ("cache_misses", g(&self.cache_misses)),
            ("cache_evictions", g(&self.cache_evictions)),
            ("cache_refused", g(&self.cache_refused)),
            ("disk_hits", g(&self.disk_hits)),
            ("disk_stores", g(&self.disk_stores)),
            ("disk_corrupt", g(&self.disk_corrupt)),
            ("request_p50_ns", self.request_latency.quantile_ns(0.50)),
            ("request_p99_ns", self.request_latency.quantile_ns(0.99)),
        ]
    }

    /// Renders the stats table the CLI prints.
    pub fn render(&self) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("serve stats\n");
        out.push_str(&format!(
            "  requests   admitted {:>8}  rejected {:>6}  ok {:>8}  compile-err {:>4}  runtime-err {:>4}  aborted {:>5}  fallback {:>4}  abandoned {:>4}\n",
            g(&self.admitted),
            g(&self.rejected),
            g(&self.ok),
            g(&self.compile_errors),
            g(&self.runtime_errors),
            g(&self.aborted),
            g(&self.fallbacks),
            g(&self.abandoned),
        ));
        out.push_str(&format!(
            "  cache      hits {:>12}  misses {:>8}  evictions {:>6}  refused {:>6}  hit-rate {:>6.1}%  compiles {:>6}  promotions {:>4}\n",
            g(&self.cache_hits),
            g(&self.cache_misses),
            g(&self.cache_evictions),
            g(&self.cache_refused),
            self.hit_rate() * 100.0,
            g(&self.compiles),
            g(&self.promotions),
        ));
        out.push_str(&format!(
            "  disk       hits {:>12}  stores {:>8}  corrupt {:>8}\n",
            g(&self.disk_hits),
            g(&self.disk_stores),
            g(&self.disk_corrupt),
        ));
        out.push_str(&format!(
            "  queue      depth {:>11}  max {:>11}\n",
            g(&self.queue_depth),
            g(&self.queue_depth_max),
        ));
        for (name, h) in [
            ("compile", &self.compile_latency),
            ("execute", &self.execute_latency),
            ("request", &self.request_latency),
        ] {
            out.push_str(&format!(
                "  {name}    n {:>12}  mean {:>9}  p50 {:>9}  p99 {:>9}\n",
                h.count(),
                fmt_ns(h.mean_ns()),
                fmt_ns(h.quantile_ns(0.50)),
                fmt_ns(h.quantile_ns(0.99)),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000); // ~1µs
        }
        h.record(1_000_000); // one 1ms outlier
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        assert!((1_000..=2_048).contains(&p50), "{p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 <= 2_048, "p99 {p99} should still be in the 1µs bucket");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 1_000_000, "{p100}");
        assert!(h.mean_ns() >= 1_000 && h.mean_ns() < 100_000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn render_mentions_every_section() {
        let m = ServeMetrics::new();
        m.admitted.fetch_add(1, Ordering::Relaxed);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        let table = m.render();
        for needle in [
            "requests", "cache", "queue", "compile", "execute", "hit-rate",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        assert!((m.hit_rate() - 0.75).abs() < 1e-9);
    }
}
