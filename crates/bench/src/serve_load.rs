//! The request mix of an evaluation service, shared by the benchmark's
//! serve workloads and the serve gates under `tests/`.
//!
//! A catalog of distinct programs whose *execution* is cheap
//! (microseconds) but whose *compilation* is not (milliseconds), requested
//! with a Zipf-skewed popularity mix — a few hot programs dominate, a long
//! tail recurs rarely. That shape is exactly what a content-addressed
//! compile cache exploits.
//!
//! Each program carries its ground-truth value computed in Rust, so a
//! stale or mis-keyed cache entry — which would return the *wrong
//! program's* answer — shows up as a wrong reply, not just a slowdown.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf(s) sampler over ranks `0..n` by inverse CDF on precomputed
/// cumulative weights `1/(r+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (s ≈ 1 is the classic
    /// heavy skew; larger `s` concentrates more mass on rank 0).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty catalog");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// The program catalog: `n` distinct functions, each a small accumulation
/// loop parameterized by a constant so every rank compiles to a distinct
/// artifact (distinct cache key) but executes in microseconds.
pub struct Catalog {
    sources: Vec<String>,
    /// Ground-truth result per rank for the fixed argument.
    expected: Vec<String>,
    arg: i64,
}

impl Catalog {
    /// Builds `n` programs evaluated at the fixed argument `arg`.
    pub fn new(n: usize, arg: i64) -> Catalog {
        let mut sources = Vec::with_capacity(n);
        let mut expected = Vec::with_capacity(n);
        for k in 0..n as i64 {
            sources.push(format!(
                "Function[{{Typed[n, \"MachineInteger\"]}}, \
                 Module[{{acc = 0, i = 0}}, \
                 While[i < n, acc = acc + i*i + {k}; i = i + 1]; acc]]"
            ));
            // sum_{i<arg} (i^2 + k)
            let truth: i64 = (0..arg).map(|i| i * i + k).sum();
            expected.push(truth.to_string());
        }
        Catalog {
            sources,
            expected,
            arg,
        }
    }

    /// Number of distinct programs.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The source text for a rank.
    pub fn source(&self, rank: usize) -> &str {
        &self.sources[rank]
    }

    /// The ground-truth result for a rank at the fixed argument.
    pub fn expected(&self, rank: usize) -> &str {
        &self.expected[rank]
    }

    /// The fixed argument every program is evaluated at.
    pub fn arg(&self) -> i64 {
        self.arg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed_and_exhaustive() {
        let z = Zipf::new(8, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 8];
        for _ in 0..4_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[7], "{counts:?}");
        assert!(
            counts[0] as f64 >= 0.25 * 4_000.0,
            "rank 0 should dominate: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "tail must occur: {counts:?}");
    }
}
