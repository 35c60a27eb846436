//! Hybrid speed–fidelity allocation: a single tunable trade-off knob.
//!
//! The paper's case study exposes a discrete trade-off (speed vs
//! error-aware). This policy interpolates between them: each device is
//! scored `w · err_norm + (1 − w) · slow_norm` (both terms normalised to
//! `[0, 1]` within the current fleet snapshot) and devices are filled in
//! ascending score order, spilling on contention like the speed policy.
//!
//! * `w = 0` reproduces speed-based ordering (fastest first);
//! * `w = 1` orders purely by error score (fidelity-*leaning*, but
//!   availability-greedy rather than quality-strict — it will not wait);
//! * sweeping `w` traces the speed–fidelity Pareto front
//!   (`cargo run -p qcs-bench --release --bin pareto`).

use crate::broker::{AllocationPlan, Broker, CloudView, StaticOrder};
use crate::job::QJob;
use crate::partition::greedy_fill;
use crate::policies::speed::ordered;

/// Weighted speed–fidelity policy; see the module docs.
#[derive(Debug, Clone)]
pub struct HybridBroker {
    weight: f64,
    strict: bool,
    name: String,
    /// Ascending-score device order. The score and its normalisers read
    /// only `clops` and `error_score`, so the order is static.
    order: StaticOrder,
}

impl HybridBroker {
    /// Creates the availability-greedy policy with fidelity weight
    /// `w ∈ [0, 1]` (spills to lower-ranked devices on contention, like
    /// the paper's speed mode).
    pub fn new(weight: f64) -> Self {
        Self::build(weight, false)
    }

    /// Creates the **quality-strict** variant: the partition is computed
    /// from the score-ranked devices' full capacities and the broker waits
    /// until exactly those devices are free (the discipline that gives the
    /// paper's error-aware mode its fidelity edge). Sweeping `w` over the
    /// strict variant traces the real speed–fidelity frontier; the greedy
    /// variant shows that ordering *without* waiting buys little.
    pub fn strict(weight: f64) -> Self {
        Self::build(weight, true)
    }

    fn build(weight: f64, strict: bool) -> Self {
        assert!(
            (0.0..=1.0).contains(&weight),
            "fidelity weight must lie in [0, 1], got {weight}"
        );
        let name = if strict {
            format!("hybrid-strict({weight:.2})")
        } else {
            format!("hybrid({weight:.2})")
        };
        HybridBroker {
            weight,
            strict,
            name,
            order: StaticOrder::default(),
        }
    }

    /// The fidelity weight `w`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Whether this is the quality-strict variant.
    pub fn is_strict(&self) -> bool {
        self.strict
    }
}

impl Broker for HybridBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        let w = self.weight;
        let order = self.order.sorted(view, |view, out| {
            // Normalisers over the snapshot (guard against degenerate fleets).
            let max_err = view
                .devices
                .iter()
                .map(|d| d.error_score)
                .fold(f64::EPSILON, f64::max);
            let max_clops = view
                .devices
                .iter()
                .map(|d| d.clops)
                .fold(f64::EPSILON, f64::max);
            view.order_by(
                |d| {
                    let err_norm = d.error_score / max_err;
                    let slow_norm = 1.0 - d.clops / max_clops;
                    ordered(w * err_norm + (1.0 - w) * slow_norm)
                },
                out,
            )
        });
        if self.strict {
            let target = crate::partition::capacity_fill(order, view, job.num_qubits);
            let satisfiable = target
                .iter()
                .all(|&(dev, amt)| view.devices[dev.index()].free >= amt);
            return if satisfiable {
                AllocationPlan::Dispatch(target)
            } else {
                AllocationPlan::Wait
            };
        }
        match greedy_fill(order, view, job.num_qubits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};
    use crate::device::DeviceId;

    #[test]
    fn zero_weight_matches_speed_ordering() {
        // test_view: device 0 is fastest and lowest-error.
        let view = test_view(&[127, 127, 127]);
        let mut h = HybridBroker::new(0.0);
        let mut s = crate::policies::SpeedBroker::new();
        assert_eq!(
            h.select(&test_job(200), &view),
            s.select(&test_job(200), &view)
        );
    }

    #[test]
    fn full_weight_orders_by_error() {
        // Invert the correlation: make the *fastest* device the *noisiest*.
        let mut view = test_view(&[127, 127, 127]);
        view.devices[0].error_score = 0.5;
        view.devices[2].error_score = 0.001;
        let mut h = HybridBroker::new(1.0);
        let AllocationPlan::Dispatch(parts) = h.select(&test_job(200), &view) else {
            panic!("expected dispatch");
        };
        assert_eq!(parts[0].0, DeviceId(2), "lowest-error device first");
        assert_ne!(parts.iter().map(|p| p.0).next(), Some(DeviceId(0)));
    }

    #[test]
    fn intermediate_weight_trades_off() {
        // Device 0: fast + noisy; device 1: slow + clean; device 2: slow +
        // noisy (dominated). A mid-weight policy must never start with the
        // dominated device.
        let mut view = test_view(&[127, 127, 127]);
        view.devices[0].clops = 220_000.0;
        view.devices[0].error_score = 0.4;
        view.devices[1].clops = 30_000.0;
        view.devices[1].error_score = 0.01;
        view.devices[2].clops = 30_000.0;
        view.devices[2].error_score = 0.4;
        for w in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut h = HybridBroker::new(w);
            let AllocationPlan::Dispatch(parts) = h.select(&test_job(140), &view) else {
                panic!("expected dispatch at w={w}");
            };
            assert_ne!(
                parts[0].0,
                DeviceId(2),
                "dominated device chosen first at w={w}"
            );
        }
    }

    #[test]
    fn waits_when_fleet_full() {
        let view = test_view(&[10, 10, 10]);
        let mut h = HybridBroker::new(0.5);
        assert_eq!(h.select(&test_job(200), &view), AllocationPlan::Wait);
    }

    #[test]
    fn plans_validate() {
        let view = test_view(&[127, 60, 127, 90, 40]);
        let job = test_job(250);
        for w in [0.0, 0.3, 0.7, 1.0] {
            let mut h = HybridBroker::new(w);
            h.select(&job, &view).validate(&job, &view).unwrap();
        }
    }

    #[test]
    fn name_encodes_weight() {
        assert_eq!(HybridBroker::new(0.25).name(), "hybrid(0.25)");
        assert_eq!(HybridBroker::new(0.25).weight(), 0.25);
        assert!(!HybridBroker::new(0.25).is_strict());
        assert_eq!(HybridBroker::strict(0.75).name(), "hybrid-strict(0.75)");
        assert!(HybridBroker::strict(0.75).is_strict());
    }

    #[test]
    fn strict_full_weight_matches_fidelity_policy() {
        // At w = 1 the strict hybrid reduces to the paper's error-aware
        // mode: same target, same waiting discipline.
        let view = test_view(&[100, 127, 127]);
        let mut strict = HybridBroker::strict(1.0);
        let mut fid = crate::policies::FidelityBroker::new();
        let job = test_job(200);
        assert_eq!(strict.select(&job, &view), fid.select(&job, &view));
        let view_free = test_view(&[127, 127, 127]);
        assert_eq!(
            strict.select(&job, &view_free),
            fid.select(&job, &view_free)
        );
    }

    #[test]
    fn strict_waits_greedy_spills() {
        // Preferred device busy: greedy spills, strict waits.
        let view = test_view(&[100, 127, 127]);
        let job = test_job(200);
        assert_eq!(
            HybridBroker::strict(0.5).select(&job, &view),
            AllocationPlan::Wait
        );
        assert!(matches!(
            HybridBroker::new(0.5).select(&job, &view),
            AllocationPlan::Dispatch(_)
        ));
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn rejects_out_of_range_weight() {
        HybridBroker::new(1.5);
    }
}
