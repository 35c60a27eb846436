//! Streaming statistics: time-weighted means, Welford accumulators,
//! fixed-bin histograms used by the record manager and the bench harness,
//! and log-bucketed duration histograms ([`LogHistogram`]) for wall-clock
//! latencies whose percentiles must be kept in bounded memory.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Time-weighted statistic over a piecewise-constant signal, e.g. a
/// device's free-qubit level. Records `(t, value)` change points and
/// integrates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: f64,
    last_t: f64,
    last_v: f64,
    integral: f64,
    min: f64,
    max: f64,
}

impl TimeWeighted {
    /// Starts tracking at time `t0` with initial value `v0`.
    pub fn new(t0: f64, v0: f64) -> Self {
        TimeWeighted {
            start: t0,
            last_t: t0,
            last_v: v0,
            integral: 0.0,
            min: v0,
            max: v0,
        }
    }

    /// Records that the signal changed to `v` at time `t` (must be ≥ the
    /// previous change time).
    pub fn record(&mut self, t: f64, v: f64) {
        debug_assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.integral += self.last_v * (t - self.last_t);
        self.last_t = t;
        self.last_v = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The time-weighted mean over `[t0, now]`.
    pub fn mean_at(&self, now: f64) -> f64 {
        let span = now - self.start;
        if span <= 0.0 {
            return self.last_v;
        }
        (self.integral + self.last_v * (now - self.last_t)) / span
    }

    /// Minimum value seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Current (latest) value.
    pub fn current(&self) -> f64 {
        self.last_v
    }
}

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-range, fixed-bin histogram (used for the Fig. 6 fidelity
/// distributions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` equal bins.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(nbins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `(low_edge, high_edge)` of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let (a, b) = self.bin_edges(i);
        0.5 * (a + b)
    }

    /// Index of the fullest bin (ties broken toward lower index).
    pub fn mode_bin(&self) -> usize {
        let mut best = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            if c > self.bins[best] {
                best = i;
            }
        }
        best
    }

    /// Renders a simple ASCII bar chart, `width` characters at the mode.
    pub fn ascii(&self, width: usize) -> String {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (a, b) = self.bin_edges(i);
            let bar = "#".repeat((c as usize * width).div_ceil(peak as usize).min(width));
            out.push_str(&format!("[{a:8.4},{b:8.4}) {c:>7} {bar}\n"));
        }
        out
    }
}

/// Sub-buckets per octave of [`LogHistogram`], as a power of two.
const LOG_SUB_BITS: u32 = 5;
const LOG_SUB: u64 = 1 << LOG_SUB_BITS;
/// `2 · LOG_SUB` exact buckets below `2 · LOG_SUB` ns, then `LOG_SUB` per
/// octave for the `63 − LOG_SUB_BITS` octaves up to `u64::MAX` ns.
const LOG_BUCKETS: usize = ((65 - LOG_SUB_BITS) as u64 * LOG_SUB) as usize;

/// A histogram of durations in log-spaced buckets: bounded memory,
/// mergeable, with quantiles of a documented relative error.
///
/// Durations are kept at nanosecond resolution (a sub-nanosecond duration
/// counts as 0). Below 64 ns every nanosecond has a bucket of its own;
/// above, each octave `[2^k, 2^(k+1))` is split into 32 equal sub-buckets,
/// up to `u64::MAX` ns (about 584 years), where anything longer lands.
/// A quantile is the midpoint of the bucket holding the order statistic it
/// asks for, so it lies within [`LogHistogram::RELATIVE_ERROR`] (1/64,
/// about 1.6%) of that sample. The count, the sum (and so the mean) and
/// the maximum are kept exactly, not read off the buckets.
///
/// The resolution is fixed: every histogram has the same buckets, so any
/// two merge, and 1,920 counters (15 KiB) hold any number of samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: Duration,
    max: Duration,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Largest relative distance between a [`LogHistogram::quantile`] and
    /// the order statistic it estimates: half a sub-bucket, `1/(2·32)`.
    pub const RELATIVE_ERROR: f64 = 1.0 / (2 * LOG_SUB) as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; LOG_BUCKETS],
            count: 0,
            sum: Duration::ZERO,
            max: Duration::ZERO,
        }
    }

    /// The bucket of a duration of `ns` nanoseconds.
    fn index(ns: u64) -> usize {
        if ns < 2 * LOG_SUB {
            return ns as usize;
        }
        // `shift` drops all but the top `LOG_SUB_BITS + 1` bits, so
        // `ns >> shift` lies in `[LOG_SUB, 2·LOG_SUB)`.
        let shift = 63 - ns.leading_zeros() - LOG_SUB_BITS;
        (shift as u64 * LOG_SUB + (ns >> shift)) as usize
    }

    /// The midpoint of bucket `i`, in nanoseconds (the exact value below
    /// `2 · LOG_SUB`).
    fn midpoint_ns(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * LOG_SUB {
            return i as f64;
        }
        let shift = i / LOG_SUB - 1;
        let low = (i - shift * LOG_SUB) << shift;
        low as f64 + (1u64 << (shift - 1)) as f64
    }

    /// Adds one duration.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(d);
        self.max = self.max.max(d);
    }

    /// Adds every sample of `other`: the result equals the histogram of
    /// both sample sets recorded into one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the samples, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum.as_secs_f64()
    }

    /// Exact mean of the samples, in seconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum.as_secs_f64() / self.count as f64
        }
    }

    /// The largest sample, in seconds; 0 when empty.
    pub fn max(&self) -> f64 {
        self.max.as_secs_f64()
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`) in seconds; 0 when empty.
    ///
    /// Estimates the order statistic of 0-based rank `round(p·(n − 1))`,
    /// one of the two that a linearly interpolated percentile (as
    /// `qcs_qcloud::sla::percentile` computes it) lies between, to within
    /// [`LogHistogram::RELATIVE_ERROR`]. Never above the exact maximum.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p * (self.count - 1) as f64).round() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return (Self::midpoint_ns(i) / 1e9).min(self.max());
            }
        }
        unreachable!("the rank is below the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_are_contiguous_and_bracket_their_values() {
        let mut last = 0;
        for ns in (0..200_000u64).chain((40..64).map(|b| (1u64 << b) + 12_345)) {
            let i = LogHistogram::index(ns);
            assert!(i >= last, "bucket order broke at {ns}");
            if ns < 200_000 {
                assert!(i <= last + 1, "gap at {ns}");
            }
            last = i;
            let mid = LogHistogram::midpoint_ns(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 * LogHistogram::RELATIVE_ERROR,
                "{ns} ns -> bucket {i} midpoint {mid}"
            );
        }
        assert_eq!(LogHistogram::index(u64::MAX), LOG_BUCKETS - 1);
    }

    #[test]
    fn log_histogram_end_buckets_take_zero_sub_nanosecond_and_huge() {
        let mut h = LogHistogram::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs_f64(0.4e-9));
        assert_eq!(h.buckets[0], 2);
        h.record(Duration::MAX);
        h.record(Duration::from_nanos(u64::MAX));
        assert_eq!(h.buckets[LOG_BUCKETS - 1], 2);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
        assert_eq!(h.count(), 4);
        // The maximum stays exact past the top bucket's range.
        assert_eq!(h.max(), Duration::MAX.as_secs_f64());
        assert_eq!(h.quantile(0.0), 0.0);
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn log_histogram_count_mean_and_max_are_exact() {
        let mut h = LogHistogram::new();
        for us in [1u64, 2, 3, 4] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10e-6);
        assert_eq!(h.mean(), 2.5e-6);
        assert_eq!(h.max(), 4e-6);
        // The interpolated median 2.5 µs lies between the order statistics
        // 2 and 3 µs; the estimate is one of them, within the error.
        let p50 = h.quantile(0.5);
        assert!(
            (p50 - 3e-6).abs() <= 3e-6 * LogHistogram::RELATIVE_ERROR,
            "{p50}"
        );
        assert!((h.quantile(0.0) - 1e-6).abs() <= 1e-6 * LogHistogram::RELATIVE_ERROR);
        assert_eq!(h.quantile(1.0), 4e-6);
    }

    #[test]
    fn log_histogram_empty_summarises_to_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn log_histogram_merge_equals_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..500u64 {
            let d = Duration::from_nanos(i * i * 37 + 5);
            if i % 3 == 0 { &mut a } else { &mut b }.record(d);
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a, all);
        a.merge(&LogHistogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let mut tw = TimeWeighted::new(0.0, 10.0);
        tw.record(2.0, 20.0); // 10 for 2s
        tw.record(4.0, 0.0); // 20 for 2s
                             // mean over [0,8]: (10*2 + 20*2 + 0*4)/8 = 7.5
        assert!((tw.mean_at(8.0) - 7.5).abs() < 1e-12);
        assert_eq!(tw.min(), 0.0);
        assert_eq!(tw.max(), 20.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_empty_span() {
        let tw = TimeWeighted::new(5.0, 3.0);
        assert_eq!(tw.mean_at(5.0), 3.0);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - 3.5).abs() < 1e-12);
        let naive_var = xs.iter().map(|x| (x - 3.5) * (x - 3.5)).sum::<f64>() / xs.len() as f64;
        assert!((w.variance() - naive_var).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 6.0);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 5.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn welford_empty() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.min().is_nan());
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(-0.1);
        h.push(0.05);
        h.push(0.05);
        h.push(0.95);
        h.push(1.0);
        h.push(2.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.mode_bin(), 0);
        let (a, b) = h.bin_edges(0);
        assert!((a - 0.0).abs() < 1e-12 && (b - 0.1).abs() < 1e-12);
        assert!((h.bin_center(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn histogram_ascii_renders() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for _ in 0..8 {
            h.push(0.3);
        }
        h.push(0.8);
        let art = h.ascii(20);
        assert!(art.contains('#'));
        assert_eq!(art.lines().count(), 4);
    }
}
