//! Order statistics for the report: medians over passes, nearest-rank
//! percentiles over simulated delays, and the log₂ histogram the traced
//! pass aggregates per-event callback spans into.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice: the
/// smallest element with at least `p` % of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Count, total, maximum and a log₂-bucket histogram of span durations in
/// nanoseconds. Bucket `b` holds durations in `[2^(b-1), 2^b)`, bucket 0
/// holds zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub buckets: [u64; 65],
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; 65],
        }
    }
}

impl SpanStats {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[(u64::BITS - ns.leading_zeros()) as usize] += 1;
    }

    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Upper edge (exclusive, in ns) of the bucket holding the nearest-rank
    /// `p`-th percentile: the true percentile lies within a factor of two
    /// below it.
    pub fn percentile_upper_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
            }
        }
        self.max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_sorted_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_agrees_with_a_counting_oracle() {
        // Deterministic pseudo-random samples (LCG), sorted.
        let mut x = 12345u64;
        let mut v: Vec<u64> = (0..997)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 44
            })
            .collect();
        v.sort_unstable();
        for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let got = percentile_sorted(&v, p).expect("non-empty");
            // Oracle: smallest value with at least p% of samples <= it.
            let need = (p / 100.0 * v.len() as f64).ceil().max(1.0) as usize;
            let oracle = *v
                .iter()
                .find(|&&c| v.iter().filter(|&&s| s <= c).count() >= need)
                .expect("max qualifies");
            assert_eq!(got, oracle, "p{p}");
        }
        assert_eq!(percentile_sorted::<u64>(&[], 50.0), None);
    }

    #[test]
    fn histogram_percentile_brackets_the_exact_one() {
        let mut h = SpanStats::default();
        let mut samples: Vec<u64> = (1..=5000u64).map(|i| i * i % 7919 + 1).collect();
        samples.push(0);
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        assert_eq!(h.count, samples.len() as u64);
        assert_eq!(h.total_ns, samples.iter().sum::<u64>());
        assert_eq!(h.max_ns, *samples.last().expect("non-empty"));
        for p in [50.0, 99.0, 100.0] {
            let exact = percentile_sorted(&samples, p).expect("non-empty");
            let upper = h.percentile_upper_ns(p);
            assert!(
                exact < upper && upper <= exact.max(1) * 2,
                "p{p}: {exact} vs {upper}"
            );
        }
    }
}
