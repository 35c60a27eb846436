//! Scheduler decision-latency summaries.
//!
//! The engine wall-clocks a fixed 1-in-16 sample of a service shard's
//! `decide` calls into that shard's [`LogHistogram`]: the calls its
//! `SchedTelemetry::decisions` count numbers 0, 16, 32, … (see
//! `simenv::consult`), so a shard with `n` decides times `n.div_ceil(16)`
//! of them and the first is always timed. The exact decide count stays in
//! [`crate::sched::SchedTelemetry::decisions`]. At teardown the harness
//! summarises each shard's histogram and their merge. The *timings* are
//! host-dependent and never feed back into the simulation, so the
//! job-record stream of a timed run stays bit-identical to an untimed
//! one — replay tests compare records, not latencies.

use qcs_desim::LogHistogram;
use serde::{Deserialize, Serialize};

/// Order statistics over one run's timed decision latencies (µs): the
/// deterministic 1-in-16 sample of `decide` calls the engine times (see
/// the module docs), not every call.
///
/// Over that sample, `count`, `mean_us` and `max_us` are exact; `p50_us`
/// and `p99_us` are histogram estimates within
/// [`LogHistogram::RELATIVE_ERROR`] (1/64, about 1.6%) of an order
/// statistic next to the interpolated percentile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencySummary {
    /// `decide` calls timed: `decisions.div_ceil(16)` per shard, where
    /// `decisions` is the shard's exact count.
    pub count: usize,
    /// Median timed latency (µs).
    pub p50_us: f64,
    /// 99th-percentile timed latency (µs).
    pub p99_us: f64,
    /// Mean timed latency (µs).
    pub mean_us: f64,
    /// Worst timed call (µs); an untimed call may have been slower.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises a histogram of `decide` durations; zeros when it is
    /// empty.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        LatencySummary {
            count: h.count() as usize,
            p50_us: h.quantile(0.5) * 1e6,
            p99_us: h.quantile(0.99) * 1e6,
            mean_us: h.mean() * 1e6,
            max_us: h.max() * 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn summary_order_statistics() {
        let mut h = LogHistogram::new();
        for us in [1u64, 2, 3, 4] {
            h.record(Duration::from_micros(us));
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 4);
        assert!((s.mean_us - 2.5).abs() < 1e-9);
        assert!((s.max_us - 4.0).abs() < 1e-9);
        // The interpolated median 2.5 µs lies between 2 and 3 µs.
        let eps = LogHistogram::RELATIVE_ERROR;
        assert!(
            s.p50_us >= 2.0 * (1.0 - eps) && s.p50_us <= 3.0 * (1.0 + eps),
            "{}",
            s.p50_us
        );
        let z = LatencySummary::from_histogram(&LogHistogram::new());
        assert_eq!(z.count, 0);
        assert_eq!(z.p50_us, 0.0);
        assert_eq!(z.p99_us, 0.0);
        assert_eq!(z.mean_us, 0.0);
        assert_eq!(z.max_us, 0.0);
    }
}
