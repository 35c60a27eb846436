//! Properties of [`LogHistogram`], the bounded-memory latency histogram:
//!
//! * **Quantiles within the documented error** — every quantile lies
//!   within [`LogHistogram::RELATIVE_ERROR`] of the two order statistics a
//!   linearly interpolated percentile (`qcs_qcloud::sla::percentile`, rank
//!   `p·(n − 1)`) lies between, on random samples spread over many octaves
//!   with frequent duplicates.
//! * **Merge is the union** — histograms of the parts of a sample, merged
//!   in any grouping, equal the histogram of the whole.
//! * **Exact moments** — count, sum, mean and maximum equal the ones
//!   computed from the samples themselves.

use std::time::Duration;

use proptest::prelude::*;
use qcs_desim::stats::LogHistogram;

/// Durations spread over 0 ns to about 10^15 ns: a mantissa below 1024
/// shifted by up to 40 bits, so small values repeat often.
fn samples() -> impl Strategy<Value = Vec<Duration>> {
    proptest::collection::vec(
        (0u64..1024, 0u32..40).prop_map(|(m, s)| Duration::from_nanos(m << s)),
        1..600,
    )
}

fn histogram(samples: &[Duration]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &d in samples {
        h.record(d);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quantiles_bracket_the_interpolated_order_statistics(
        xs in samples(),
        p in 0.0f64..=1.0,
    ) {
        let h = histogram(&xs);
        let mut sorted: Vec<f64> = xs.iter().map(|d| d.as_nanos() as f64 / 1e9).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let eps = LogHistogram::RELATIVE_ERROR;
        for p in [p, 0.0, 0.5, 0.99, 1.0] {
            let rank = p * (sorted.len() - 1) as f64;
            let lo = sorted[rank.floor() as usize];
            let hi = sorted[rank.ceil() as usize];
            let q = h.quantile(p);
            // Rounding the seconds conversion may cost an ulp or two.
            prop_assert!(
                q >= lo * (1.0 - eps) * (1.0 - 1e-12) && q <= hi * (1.0 + eps) * (1.0 + 1e-12),
                "p = {}: estimate {} outside [{}, {}] widened by {}",
                p, q, lo, hi, eps
            );
        }
    }

    #[test]
    fn merge_equals_the_histogram_of_the_union(
        xs in samples(),
        cuts in proptest::collection::vec(0usize..600, 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(xs.len())).collect();
        cuts.sort_unstable();
        let mut merged = LogHistogram::new();
        let mut start = 0;
        for end in cuts.into_iter().chain([xs.len()]) {
            merged.merge(&histogram(&xs[start..end]));
            start = end;
        }
        prop_assert_eq!(merged, histogram(&xs));
    }

    #[test]
    fn count_sum_mean_and_max_are_exact(xs in samples()) {
        let h = histogram(&xs);
        let sum: Duration = xs.iter().sum();
        let max = xs.iter().max().copied().unwrap_or_default();
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.sum(), sum.as_secs_f64());
        prop_assert_eq!(h.mean(), sum.as_secs_f64() / xs.len() as f64);
        prop_assert_eq!(h.max(), max.as_secs_f64());
    }
}
