//! Scheduler decision-latency instrumentation.
//!
//! [`InstrumentedScheduler`] wraps any [`Scheduler`] and wall-clocks every
//! `decide` call into a shared sample buffer the harness summarises after
//! the run. The *timings* are host-dependent (they never feed back into
//! the simulation), so the job-record stream of an instrumented run stays
//! bit-identical to an uninstrumented one — replay tests compare records,
//! not latencies.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::job::QJob;
use crate::sched::{CloudState, Scheduler, SchedulingDecision};
use crate::sla::percentile_sorted;

/// Shared buffer of per-`decide` wall-clock durations (µs).
pub type LatencySamples = Arc<Mutex<Vec<f64>>>;

/// A [`Scheduler`] wrapper that records each `decide` call's wall-clock
/// duration in microseconds.
pub struct InstrumentedScheduler {
    inner: Box<dyn Scheduler>,
    samples: LatencySamples,
}

impl InstrumentedScheduler {
    /// Wraps `inner`; durations accumulate into `samples`.
    pub fn new(inner: Box<dyn Scheduler>, samples: LatencySamples) -> Self {
        InstrumentedScheduler { inner, samples }
    }
}

impl Scheduler for InstrumentedScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let t0 = Instant::now();
        let decision = self.inner.decide(queue, state);
        self.samples.lock().push(t0.elapsed().as_secs_f64() * 1e6);
        decision
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Order statistics over one run's decision latencies (µs).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LatencySummary {
    /// `decide` calls measured.
    pub count: usize,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Worst call (µs).
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises a sample buffer; zeros when no calls were measured.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                p50_us: 0.0,
                p99_us: 0.0,
                mean_us: 0.0,
                max_us: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        LatencySummary {
            count: samples.len(),
            p50_us: percentile_sorted(&sorted, 50.0),
            p99_us: percentile_sorted(&sorted, 99.0),
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            max_us: samples.iter().fold(0.0f64, |a, &b| a.max(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::policies::scheduler_by_name;
    use crate::sched::DeviceSpec;

    #[test]
    fn wrapper_times_calls_and_preserves_decisions() {
        let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
        let mut plain = scheduler_by_name("speed", 7, 1).unwrap();
        let mut wrapped =
            InstrumentedScheduler::new(scheduler_by_name("speed", 7, 1).unwrap(), samples.clone());
        assert_eq!(wrapped.name(), plain.name());
        let params = SimParams::default();
        let specs = vec![DeviceSpec {
            capacity: 127,
            error_score: 0.01,
            clops: 220_000.0,
            qv_layers: 7.0,
        }];
        let state = CloudState::new(&specs, &params);
        let queue = vec![QJob {
            id: crate::job::JobId(1),
            num_qubits: 100,
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time: 0.0,
        }];
        let a = wrapped.decide(&queue, &state);
        let b = plain.decide(&queue, &state);
        assert_eq!(a, b, "instrumentation must not change the decision");
        assert_eq!(samples.lock().len(), 1);
        assert!(samples.lock()[0] >= 0.0);
    }

    proptest::proptest! {
        /// One sort serves both percentiles, bit for bit what
        /// `sla::percentile` computes from its own sorted copy.
        #[test]
        fn summary_percentiles_match_sla_percentile(
            samples in proptest::collection::vec(0u32..64, 1..1_000),
            scale in 0.01f64..100.0,
        ) {
            // Few distinct values, so duplicates are common.
            let samples: Vec<f64> = samples.iter().map(|&v| v as f64 * scale).collect();
            let s = LatencySummary::from_samples(&samples);
            proptest::prop_assert_eq!(
                s.p50_us.to_bits(),
                crate::sla::percentile(&samples, 50.0).to_bits()
            );
            proptest::prop_assert_eq!(
                s.p99_us.to_bits(),
                crate::sla::percentile(&samples, 99.0).to_bits()
            );
        }
    }

    #[test]
    fn summary_order_statistics() {
        let s = LatencySummary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50_us, 2.5);
        assert_eq!(s.max_us, 4.0);
        assert_eq!(s.mean_us, 2.5);
        let z = LatencySummary::from_samples(&[]);
        assert_eq!(z.count, 0);
        assert_eq!(z.p99_us, 0.0);
    }
}
