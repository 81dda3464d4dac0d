//! Order statistics shared by every report.

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (default `exclusive` method), so a spread printed here matches the one
/// a script computes from the same values. A single value is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, cut) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can move `j` past the exact rank at the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread measure the benchmark's bounds are
/// stated in.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Sub-buckets per power of two in a [`Histogram`].
const SUB_BITS: u32 = 7;
/// Smallest and one past the largest power of two a [`Histogram`] resolves
/// (128 ns to about 18 minutes); values outside are clamped.
const MIN_EXP: u32 = SUB_BITS;
const MAX_EXP: u32 = 40;

/// A log-linear histogram of nanosecond latencies in fixed memory: 128
/// buckets per power of two, so a percentile read at a bucket midpoint is
/// within 0.4% of the recorded value.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; ((MAX_EXP - MIN_EXP) << SUB_BITS) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        let v = ns.clamp(1 << MIN_EXP, (1 << MAX_EXP) - 1);
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        self.counts[(((e - MIN_EXP) << SUB_BITS) as u64 + sub) as usize] += 1;
        self.total += 1;
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Latencies recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `q`, as the midpoint of its bucket, in
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += u64::from(c);
                seen >= rank
            })
            .expect("rank within the total");
        let e = i as u32 / (1 << SUB_BITS) + MIN_EXP;
        let sub = (i % (1 << SUB_BITS)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        ((1u64 << e) + sub * width) as f64 + width as f64 / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_stay_within_bucket_resolution() {
        let mut h = Histogram::default();
        for us in 1..=1_000u64 {
            h.record(us * 1_000);
        }
        assert_eq!(h.count(), 1_000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
            let got = h.percentile(q);
            assert!(
                (got - exact).abs() / exact < 0.004,
                "q {q}: {got} vs {exact}"
            );
        }
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.count(), 2_000);
        assert_eq!(twice.percentile(0.5), h.percentile(0.5));
        // Nearest rank: with ten values p99 is the largest, p50 the fifth.
        let mut ten = Histogram::default();
        (1..=10u64).for_each(|v| ten.record(v << 20));
        assert_eq!(ten.percentile(0.99), ten.percentile(1.0));
        assert!((ten.percentile(0.5) / (5 << 20) as f64 - 1.0).abs() < 0.004);
        // Out-of-range values clamp instead of panicking.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 1_002);
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // Two points extrapolate past both ends, as Python does.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
