//! Admission control for the service-mode intake.
//!
//! The policy is a pure function of `(queue depth, throttle attempts)` —
//! no RNG, no wall clock — so an identically-seeded service run replays
//! its admission decisions bit for bit.

use serde::{Deserialize, Serialize};

/// Why the intake turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The shard's pending queue was at capacity on first offer.
    QueueFull,
    /// The job exhausted its throttle budget and the queue was still at
    /// capacity on the final re-offer.
    ThrottledOut,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::ThrottledOut => "throttled_out",
        })
    }
}

/// The intake's verdict on one (re-)offer of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Enqueue now.
    Accept,
    /// Hold the job for [`AdmissionPolicy::throttle_delay_s`] seconds and
    /// offer it again.
    Throttle,
    /// Terminal refusal — the job leaves the system as
    /// [`crate::records::FinalStatus::Rejected`].
    Reject(RejectReason),
}

/// Deterministic accept / throttle / reject policy over the shard's
/// pending-queue depth.
///
/// Depth bands (evaluated per offer; `attempts` counts throttle rounds
/// already served):
///
/// * `depth < throttle_watermark` — accept immediately;
/// * `throttle_watermark ≤ depth < queue_capacity` — throttle while
///   budget remains, accept grudgingly on the last re-offer;
/// * `depth ≥ queue_capacity` — reject a fresh job outright
///   ([`RejectReason::QueueFull`]); a throttled job keeps retrying until
///   its budget runs out ([`RejectReason::ThrottledOut`]).
///
/// Every job therefore reaches `Accept` or `Reject` within
/// `max_throttle_attempts` rounds — admission can defer work but never
/// park it forever, the invariant the service proptests pin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Queue depth at which throttling starts.
    pub throttle_watermark: usize,
    /// Queue depth at which fresh jobs are rejected outright.
    pub queue_capacity: usize,
    /// Backoff between re-offers of a throttled job (seconds).
    pub throttle_delay_s: f64,
    /// Maximum throttle rounds before the verdict becomes final.
    pub max_throttle_attempts: u32,
}

impl AdmissionPolicy {
    /// An intake that admits everything (the closed-batch behaviour).
    pub fn open() -> Self {
        AdmissionPolicy {
            throttle_watermark: usize::MAX,
            queue_capacity: usize::MAX,
            throttle_delay_s: 1.0,
            max_throttle_attempts: 0,
        }
    }

    /// Validates the band ordering and backoff: a policy that can throttle
    /// needs a finite, positive delay (NaN and +∞ would reach the kernel as
    /// a resume time).
    pub fn validate(&self) -> Result<(), String> {
        if self.throttle_watermark > self.queue_capacity {
            return Err(format!(
                "throttle_watermark {} exceeds queue_capacity {}",
                self.throttle_watermark, self.queue_capacity
            ));
        }
        let delay = self.throttle_delay_s;
        if self.max_throttle_attempts > 0 && !(delay.is_finite() && delay > 0.0) {
            return Err(format!(
                "throttle_delay_s must be finite and positive, got {delay}"
            ));
        }
        Ok(())
    }

    /// Decides one (re-)offer. `queue_depth` is the shard's pending-queue
    /// length at the offer instant; `attempts` is the number of throttle
    /// rounds this job has already served (0 on first offer).
    pub fn decide(&self, queue_depth: usize, attempts: u32) -> AdmissionDecision {
        if queue_depth < self.throttle_watermark {
            return AdmissionDecision::Accept;
        }
        if attempts >= self.max_throttle_attempts {
            // Budget exhausted: final verdict on this offer.
            return if queue_depth < self.queue_capacity {
                AdmissionDecision::Accept
            } else if attempts == 0 {
                AdmissionDecision::Reject(RejectReason::QueueFull)
            } else {
                AdmissionDecision::Reject(RejectReason::ThrottledOut)
            };
        }
        if queue_depth >= self.queue_capacity && attempts == 0 {
            // A saturated queue sheds fresh load immediately rather than
            // stacking backoff timers on top of it.
            return AdmissionDecision::Reject(RejectReason::QueueFull);
        }
        AdmissionDecision::Throttle
    }
}

/// Intake accounting for one service run (aggregated over shards in the
/// [`crate::service::ServiceReport`]).
///
/// Invariant (checked by [`AdmissionTelemetry::conserves`] and the service
/// proptests): every submitted job ends accepted or rejected —
/// `accepted + rejected_queue_full + rejected_throttled_out == submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionTelemetry {
    /// Jobs offered to the intake.
    pub submitted: u64,
    /// Jobs that reached a pending queue (immediately or after throttle).
    pub accepted: u64,
    /// Throttle rounds served (one job can contribute several).
    pub throttle_events: u64,
    /// Accepted jobs that were throttled at least once first.
    pub throttled_then_admitted: u64,
    /// Jobs rejected on first offer against a full queue.
    pub rejected_queue_full: u64,
    /// Jobs rejected after exhausting their throttle budget.
    pub rejected_throttled_out: u64,
}

impl AdmissionTelemetry {
    /// Total terminal rejections.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_throttled_out
    }

    /// Whether every submitted job is accounted for (no silent loss).
    pub fn conserves(&self) -> bool {
        self.accepted + self.rejected() == self.submitted
    }

    /// Adds another intake's counters to these: each kernel's intake
    /// counts in its own world, and the engine sums them at teardown.
    pub(super) fn absorb(&mut self, other: &AdmissionTelemetry) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.throttle_events += other.throttle_events;
        self.throttled_then_admitted += other.throttled_then_admitted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_throttled_out += other.rejected_throttled_out;
    }

    /// Books one offer's verdict. `attempts` is the throttle rounds the job
    /// has served: 0 on its arrival, which also counts it as submitted.
    pub(super) fn count(&mut self, attempts: u32, verdict: AdmissionDecision) {
        if attempts == 0 {
            self.submitted += 1;
        }
        match verdict {
            AdmissionDecision::Accept => {
                self.accepted += 1;
                if attempts > 0 {
                    self.throttled_then_admitted += 1;
                }
            }
            AdmissionDecision::Throttle => self.throttle_events += 1,
            AdmissionDecision::Reject(RejectReason::QueueFull) => self.rejected_queue_full += 1,
            AdmissionDecision::Reject(RejectReason::ThrottledOut) => {
                self.rejected_throttled_out += 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdmissionPolicy {
        AdmissionPolicy {
            throttle_watermark: 4,
            queue_capacity: 8,
            throttle_delay_s: 30.0,
            max_throttle_attempts: 3,
        }
    }

    #[test]
    fn bands_partition_depths() {
        let p = policy();
        assert_eq!(p.decide(0, 0), AdmissionDecision::Accept);
        assert_eq!(p.decide(3, 0), AdmissionDecision::Accept);
        assert_eq!(p.decide(4, 0), AdmissionDecision::Throttle);
        assert_eq!(p.decide(7, 0), AdmissionDecision::Throttle);
        assert_eq!(
            p.decide(8, 0),
            AdmissionDecision::Reject(RejectReason::QueueFull)
        );
        assert_eq!(
            p.decide(100, 0),
            AdmissionDecision::Reject(RejectReason::QueueFull)
        );
    }

    #[test]
    fn throttled_jobs_get_second_chances_then_final_verdict() {
        let p = policy();
        // Mid-band re-offers keep throttling while budget remains.
        assert_eq!(p.decide(6, 1), AdmissionDecision::Throttle);
        assert_eq!(p.decide(9, 2), AdmissionDecision::Throttle);
        // Budget exhausted: grudging accept below capacity, reject at it.
        assert_eq!(p.decide(6, 3), AdmissionDecision::Accept);
        assert_eq!(
            p.decide(8, 3),
            AdmissionDecision::Reject(RejectReason::ThrottledOut)
        );
        // A drained queue admits instantly on any re-offer.
        assert_eq!(p.decide(1, 2), AdmissionDecision::Accept);
    }

    #[test]
    fn every_offer_sequence_terminates() {
        // Regardless of depth script, by `max_throttle_attempts` rounds the
        // verdict is Accept or Reject — never Throttle.
        let p = policy();
        for depth in 0..20 {
            let d = p.decide(depth, p.max_throttle_attempts);
            assert!(
                !matches!(d, AdmissionDecision::Throttle),
                "depth {depth} still throttling at budget"
            );
        }
    }

    #[test]
    fn open_policy_accepts_everything() {
        let p = AdmissionPolicy::open();
        p.validate().unwrap();
        assert_eq!(p.decide(0, 0), AdmissionDecision::Accept);
        assert_eq!(p.decide(1_000_000, 0), AdmissionDecision::Accept);
    }

    #[test]
    fn validation_rejects_inverted_bands() {
        let mut p = policy();
        p.throttle_watermark = 10;
        assert!(p.validate().is_err());
        let mut p = policy();
        p.throttle_delay_s = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_zero_delays() {
        for delay in [f64::NAN, f64::INFINITY, -0.0] {
            let mut p = policy();
            p.throttle_delay_s = delay;
            assert!(p.validate().is_err(), "delay {delay} passed validation");
            // A policy that never throttles never waits out its delay.
            p.max_throttle_attempts = 0;
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "invalid admission policy")]
    fn service_rejects_a_nan_throttle_delay_before_running() {
        let mut admission = policy();
        admission.throttle_delay_s = f64::NAN;
        crate::service::ServiceHarness::new(
            vec![qcs_calibration::ibm_fleet(7)],
            |_| crate::policies::scheduler_by_name("speed", 7, 1).unwrap(),
            crate::jobgen::poisson_arrivals(4, 0.05, &crate::JobDistribution::default(), 7),
            crate::config::SimParams::default(),
            crate::service::ServiceConfig {
                admission,
                routing: crate::service::RoutingPolicy::Hash,
            },
            7,
        );
    }

    #[test]
    fn telemetry_conservation() {
        let t = AdmissionTelemetry {
            submitted: 10,
            accepted: 7,
            throttle_events: 5,
            throttled_then_admitted: 2,
            rejected_queue_full: 2,
            rejected_throttled_out: 1,
        };
        assert_eq!(t.rejected(), 3);
        assert!(t.conserves());
    }
}
