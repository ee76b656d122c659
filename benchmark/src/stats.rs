//! Order statistics, the geometric mean and the FNV-1a input fingerprint.

/// A reported value: the median of `n` samples with its quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// Median and quartiles of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every metric is measured at least once.
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let (q1, value, q3) = quartiles(samples);
        Stat {
            value,
            n: samples.len(),
            q1,
            q3,
        }
    }

    /// A value measured once (a count, a share, a peak).
    pub fn single(value: f64) -> Stat {
        Stat {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// `(q3 - q1) / median`, the run-to-run spread the bounds are judged
    /// against; 0 for a single sample.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance rule uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis; like Python, the end
        // intervals extrapolate when the position falls outside the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// The `q`-quantile (nearest rank) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    (sum / values.len() as f64).exp()
}

/// 64-bit FNV-1a, chained through `state` so several inputs fold into one
/// fingerprint.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The FNV-1a offset basis: the start state of a fingerprint.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the first KiB of an input into a fingerprint.
pub fn fnv1a_head(state: u64, bytes: &[u8]) -> u64 {
    fnv1a(state, &bytes[..bytes.len().min(1024)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_and_geomean() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_known_vector() {
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
