//! The metric primitives: atomic counters, gauges, and the log-scaled
//! histogram.
//!
//! Every type here is recorded with `&self` through relaxed atomics — no
//! locks, no allocation on the hot path. Handles are shared as
//! `Arc<Counter>` etc.; cloning a handle is one refcount bump and recording
//! through it is one `fetch_add`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing integer counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` and returns the *new* total (useful for 1-in-N sampling
    /// decisions keyed off an event index).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        // Relaxed: an independent event count — fetch_add is atomic per
        // series, and no other memory is ordered against it.
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // Relaxed: exposition reads a monotonic count; staleness by a few
        // events is inherent to sampling, ordering buys nothing.
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` counter (fractional accumulation, e.g.
/// microjoules of sense energy). Adds are a CAS loop over the value's bit
/// pattern — still lock-free, slightly more expensive than [`Counter`].
#[derive(Debug, Default)]
pub struct FloatCounter(AtomicU64);

impl FloatCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    /// Adds `v` (negative additions are a caller bug but are not checked —
    /// the type encodes intent, not an invariant).
    #[inline]
    pub fn add(&self, v: f64) {
        // Relaxed: the CAS loop's correctness comes from compare_exchange
        // itself (lost races reload and retry); the bit pattern is the only
        // shared state, so no acquire/release pairing is needed.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) // Relaxed: see CAS note above.
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // Relaxed: point-in-time sample of a monotonic sum.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A last-write-wins `f64` gauge (queue depth, realtime factor, alarm
/// state, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        // Relaxed: last-write-wins by definition of a gauge; the stored
        // bits are self-contained, nothing downstream is ordered on them.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) — a CAS loop like
    /// [`FloatCounter::add`], for gauges that track a live population
    /// (healthy replicas, in-flight windows) where concurrent increments
    /// and decrements must not lose updates the way racing
    /// `set(get() ± 1)` pairs would.
    #[inline]
    pub fn add(&self, delta: f64) {
        // Relaxed: the CAS loop's correctness comes from compare_exchange
        // itself (lost races reload and retry); the bit pattern is the only
        // shared state, so no acquire/release pairing is needed.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) // Relaxed: see CAS note above.
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // Relaxed: reads whichever write most recently landed.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed log-scaled histogram: bucket `i` covers values up to
/// `growth^i` units, so resolution is a constant relative error
/// (`growth − 1`) across the whole range — HdrHistogram in miniature.
///
/// Generalized out of the serving latency collector so every subsystem
/// shares one type: for latencies the unit is **microseconds** with the
/// [`latency`](Self::latency) shape (420 buckets of 5% — 1 µs to ~17 min);
/// for dimensionless quantities (batch sizes, …) use
/// [`new`](Self::new) with whatever shape fits.
///
/// Recording is one relaxed `fetch_add` on the bucket plus one CAS on the
/// running sum; quantile queries walk the bucket array once and report the
/// **geometric midpoint** of the containing bucket — the unbiased point
/// estimate for log-scaled buckets (reporting the upper bound instead
/// would overstate every percentile by up to one bucket width).
#[derive(Debug)]
pub struct LogHistogram {
    growth: f64,
    ln_growth: f64,
    counts: Box<[AtomicU64]>,
    sum: FloatCounter,
}

/// Latency-shaped histogram constants: 5% buckets from 1 µs to ~17 min.
pub const LATENCY_BUCKETS: usize = 420;
/// Per-bucket growth factor of the latency shape (≈5% resolution).
pub const LATENCY_GROWTH: f64 = 1.05;

impl LogHistogram {
    /// A histogram with `buckets` buckets growing by `growth` per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `growth <= 1.0`.
    pub fn new(buckets: usize, growth: f64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(growth > 1.0, "growth factor must exceed 1");
        Self {
            growth,
            ln_growth: growth.ln(),
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum: FloatCounter::new(),
        }
    }

    /// The standard latency shape (microsecond unit): 420 buckets of 5%,
    /// 1 µs floor, ~17 min ceiling.
    pub fn latency() -> Self {
        Self::new(LATENCY_BUCKETS, LATENCY_GROWTH)
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Per-bucket growth factor.
    pub fn growth(&self) -> f64 {
        self.growth
    }

    /// The bucket covering `value` (unit-agnostic): values at or below 1
    /// unit land in bucket 0, values beyond the last bound clamp into the
    /// top bucket.
    #[inline]
    pub fn bucket_of(&self, value: f64) -> usize {
        if value <= 1.0 {
            return 0;
        }
        (value.ln() / self.ln_growth)
            .ceil()
            .min((self.counts.len() - 1) as f64) as usize
    }

    /// Geometric midpoint of bucket `i`'s bounds — the unbiased point
    /// estimate for a log-scaled bucket.
    #[inline]
    pub fn bucket_mid(&self, i: usize) -> f64 {
        self.growth.powf(i as f64 - 0.5)
    }

    /// Upper bound of bucket `i` (`growth^i` units).
    #[inline]
    pub fn bucket_bound(&self, i: usize) -> f64 {
        self.growth.powf(i as f64)
    }

    /// Records one observation of `value` units.
    #[inline]
    pub fn record_value(&self, value: f64) {
        self.count_value(value, 1);
        self.add_sum(value);
    }

    /// Records one duration (microsecond unit).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_secs_f64() * 1e6);
    }

    /// Counts `n` observations of `value` units in its bucket but leaves
    /// the running sum to [`add_sum`](Self::add_sum), so a caller that
    /// counts values one by one can add their sum once.
    #[inline]
    pub fn count_value(&self, value: f64, n: u64) {
        // Relaxed: each bucket is an independent event counter; a scrape
        // racing a record may miss the newest sample, which is fine.
        self.counts[self.bucket_of(value)].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `sum` units to the running sum of the counted values.
    #[inline]
    pub fn add_sum(&self, sum: f64) {
        self.sum.add(sum);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        // Relaxed: bucket reads need no mutual consistency — quantiles and
        // totals are statistical summaries, not linearizable snapshots.
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values (units).
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Point-in-time copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed)) // Relaxed: statistical snapshot, as in `count`.
            .collect()
    }

    /// Values at several quantiles in **one** histogram pass: the
    /// per-bucket atomics are loaded once and every requested quantile is
    /// resolved against the same cumulative walk. Returns bucket
    /// midpoints (units); an empty histogram reports zero everywhere.
    pub fn value_quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; qs.len()];
        }
        let targets: Vec<u64> = qs
            .iter()
            .map(|q| ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64)
            .collect();
        let mut out = vec![self.bucket_mid(counts.len() - 1); qs.len()];
        let mut resolved = vec![false; qs.len()];
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            let mut all_done = true;
            for (j, &target) in targets.iter().enumerate() {
                if !resolved[j] {
                    if seen >= target {
                        out[j] = self.bucket_mid(i);
                        resolved[j] = true;
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
        }
        out
    }

    /// Single-quantile form of [`value_quantiles`](Self::value_quantiles).
    pub fn value_quantile(&self, q: f64) -> f64 {
        self.value_quantiles(&[q])[0]
    }

    /// [`value_quantiles`](Self::value_quantiles) for duration histograms
    /// (microsecond unit).
    pub fn duration_quantiles(&self, qs: &[f64]) -> Vec<Duration> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![Duration::ZERO; qs.len()];
        }
        self.value_quantiles(qs)
            .into_iter()
            .map(|us| Duration::from_secs_f64(us / 1e6))
            .collect()
    }

    /// Single-quantile form of
    /// [`duration_quantiles`](Self::duration_quantiles).
    pub fn duration_quantile(&self, q: f64) -> Duration {
        self.duration_quantiles(&[q])[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_add_returns_new_total() {
        let c = Counter::new();
        assert_eq!(c.add(3), 3);
        c.inc();
        assert_eq!(c.add(2), 6);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn float_counter_accumulates_fractions() {
        let c = FloatCounter::new();
        for _ in 0..1000 {
            c.add(0.125);
        }
        assert!((c.get() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
    }

    #[test]
    fn gauge_add_survives_concurrent_updates() {
        let g = Arc::new(Gauge::new());
        g.set(100.0);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        // Two threads add, two subtract: net zero.
                        g.add(if t % 2 == 0 { 1.0 } else { -1.0 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("gauge updater");
        }
        assert_eq!(g.get(), 100.0, "racing add/sub pairs must not lose updates");
    }

    #[test]
    fn histogram_floor_clamp_and_midpoints() {
        let h = LogHistogram::new(10, 2.0);
        // 1-unit floor: everything at or below one unit is bucket 0.
        assert_eq!(h.bucket_of(0.0), 0);
        assert_eq!(h.bucket_of(1.0), 0);
        assert_eq!(h.bucket_of(0.3), 0);
        // Beyond the top bound (2^9 = 512) clamps into the last bucket.
        assert_eq!(h.bucket_of(1e12), 9);
        h.record_value(1e12);
        assert_eq!(h.value_quantile(0.5), h.bucket_mid(9));
        // Midpoints sit strictly inside their bucket bounds…
        for i in 1..h.buckets() {
            assert!(h.bucket_mid(i) > h.bucket_bound(i - 1));
            assert!(h.bucket_mid(i) < h.bucket_bound(i));
        }
        // …and are strictly monotonic across buckets.
        for i in 1..h.buckets() {
            assert!(h.bucket_mid(i) > h.bucket_mid(i - 1));
        }
    }

    #[test]
    fn latency_shape_matches_historical_serving_semantics() {
        // The serving stats pinned these semantics before the histogram
        // moved here: bucket = ceil(ln(µs)/ln(1.05)), midpoint =
        // 1.05^(i − 0.5). Any drift shifts every serving percentile.
        let h = LogHistogram::latency();
        for &us in &[3u64, 47, 1000, 12_345, 800_000, 5_000_000] {
            h.record_value(0.0); // keep a bucket-0 floor entry around
            let bucket = ((us as f64).ln() / 1.05f64.ln()).ceil();
            assert_eq!(h.bucket_of(us as f64), bucket as usize);
            assert_eq!(h.bucket_mid(bucket as usize), 1.05f64.powf(bucket - 0.5));
        }
    }

    #[test]
    fn concurrent_hammering_loses_nothing() {
        // 8 threads × 50_000 events each on a shared counter, float
        // counter and histogram: totals must be exact, not approximate —
        // relaxed ordering reorders, it never drops.
        let counter = Arc::new(Counter::new());
        let fcounter = Arc::new(FloatCounter::new());
        let hist = Arc::new(LogHistogram::latency());
        let threads = 8;
        let per_thread = 50_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let counter = Arc::clone(&counter);
                let fcounter = Arc::clone(&fcounter);
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        counter.inc();
                        fcounter.add(0.5);
                        // Spread across many buckets, thread-dependent.
                        hist.record_value((1 + t as u64 * 1000 + i % 997) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread");
        }
        let total = threads as u64 * per_thread;
        assert_eq!(counter.get(), total);
        assert!((fcounter.get() - total as f64 * 0.5).abs() < 1e-6);
        assert_eq!(hist.count(), total);
        assert_eq!(hist.bucket_counts().iter().sum::<u64>(), total);
    }

    #[test]
    fn quantiles_track_recorded_distribution() {
        let h = LogHistogram::latency();
        for _ in 0..90 {
            h.record_value(100.0);
        }
        for _ in 0..10 {
            h.record_value(10_000.0);
        }
        let p50 = h.value_quantile(0.5);
        let p99 = h.value_quantile(0.99);
        assert!((90.0..=120.0).contains(&p50), "{p50}");
        assert!((9_000.0..=12_000.0).contains(&p99), "{p99}");
        assert!((h.sum() - (90.0 * 100.0 + 10.0 * 10_000.0)).abs() < 1e-6);
        // Multi-quantile pass matches individual queries.
        let qs = [0.1, 0.5, 0.9, 0.95, 0.99, 1.0];
        for (q, got) in qs.iter().zip(h.value_quantiles(&qs)) {
            assert_eq!(got, h.value_quantile(*q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::latency();
        assert_eq!(h.value_quantile(0.99), 0.0);
        assert_eq!(h.duration_quantile(0.99), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn duration_roundtrip_uses_microsecond_unit() {
        let h = LogHistogram::latency();
        h.record(Duration::from_micros(1000));
        let got = h.duration_quantile(0.5).as_secs_f64() * 1e6;
        assert!((got / 1000.0 - 1.0).abs() < 0.026, "{got}µs");
    }
}
