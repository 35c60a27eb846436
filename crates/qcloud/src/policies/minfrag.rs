//! Minimum-fragmentation allocation: use as few devices as possible.
//!
//! Every extra device in a partition costs a communication link (λ·q
//! seconds, Eq. 9) and a fidelity factor (φ, Eq. 8). This policy greedily
//! packs the job into the devices with the most free qubits, minimising the
//! device count `k` under current availability — the `T_comm`-optimal
//! baseline that bounds from below what any policy can achieve on
//! communication overhead.

use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::device::DeviceId;
use crate::job::QJob;
use crate::partition::greedy_fill;
use crate::policies::speed::ordered;

/// Fewest-devices-first packing (largest free capacity first; ties broken
/// by lower error score, then device id).
#[derive(Debug, Default, Clone)]
pub struct MinFragBroker {
    /// Device order buffer, reused across selects.
    order: Vec<DeviceId>,
}

impl MinFragBroker {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broker for MinFragBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        view.order_by(
            |d| (std::cmp::Reverse(d.free), ordered(d.error_score)),
            &mut self.order,
        );
        match greedy_fill(&self.order, view, job.num_qubits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        "minfrag"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};

    #[test]
    fn packs_into_fewest_devices() {
        // Free: 40, 127, 90 → a 160-qubit job fits in {127, 90} (k = 2),
        // not {40, 127, ...} (k = 3).
        let view = test_view(&[40, 127, 90]);
        let AllocationPlan::Dispatch(parts) = MinFragBroker::new().select(&test_job(160), &view)
        else {
            panic!("expected dispatch");
        };
        assert_eq!(parts, vec![(DeviceId(1), 127), (DeviceId(2), 33)]);
    }

    #[test]
    fn achieves_minimal_k_across_random_states() {
        // Exhaustive check: greedy largest-first always matches the true
        // minimal device count (which, for capacity packing, it does).
        let frees = [
            vec![127, 127, 127, 127, 127],
            vec![30, 60, 90, 120, 127],
            vec![127, 10, 10, 10, 127],
            vec![64, 64, 64, 64, 64],
        ];
        for free in &frees {
            let view = test_view(free);
            for q in [130u64, 180, 250] {
                let plan = MinFragBroker::new().select(&test_job(q), &view);
                let AllocationPlan::Dispatch(parts) = plan else {
                    assert!(free.iter().sum::<u64>() < q, "waited despite capacity");
                    continue;
                };
                // True minimum k: take devices in descending free order.
                let mut sorted = free.clone();
                sorted.sort_unstable_by_key(|&f| std::cmp::Reverse(f));
                let mut need = q as i64;
                let mut min_k = 0;
                for f in sorted {
                    if need <= 0 {
                        break;
                    }
                    need -= f as i64;
                    min_k += 1;
                }
                assert_eq!(parts.len(), min_k, "free={free:?} q={q}");
            }
        }
    }

    #[test]
    fn ties_prefer_lower_error() {
        // Equal free capacity everywhere: the tie-break should pick the
        // lowest-error device (device 0 in test_view).
        let view = test_view(&[127, 127, 127]);
        let AllocationPlan::Dispatch(parts) = MinFragBroker::new().select(&test_job(130), &view)
        else {
            panic!("expected dispatch");
        };
        assert_eq!(parts[0].0, DeviceId(0));
    }

    #[test]
    fn waits_when_infeasible() {
        let view = test_view(&[50, 50]);
        assert_eq!(
            MinFragBroker::new().select(&test_job(130), &view),
            AllocationPlan::Wait
        );
    }

    #[test]
    fn plan_validates() {
        let view = test_view(&[90, 127, 30, 127]);
        let job = test_job(250);
        let plan = MinFragBroker::new().select(&job, &view);
        plan.validate(&job, &view).unwrap();
    }
}
