//! Random-order baseline: a lower anchor for every metric.

use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::device::DeviceId;
use crate::job::QJob;
use crate::partition::greedy_fill;
use qcs_desim::Xoshiro256StarStar;

/// Shuffles device order per decision, then fills greedily.
#[derive(Debug, Clone)]
pub struct RandomBroker {
    rng: Xoshiro256StarStar,
    /// Device order buffer, reused across selects.
    order: Vec<DeviceId>,
}

impl RandomBroker {
    /// Creates the policy with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        RandomBroker {
            rng: Xoshiro256StarStar::new(seed ^ 0x52414E444F4D21),
            order: Vec::new(),
        }
    }
}

impl Broker for RandomBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        self.order.clear();
        self.order.extend(view.devices.iter().map(|d| d.id));
        self.rng.shuffle(&mut self.order);
        match greedy_fill(&self.order, view, job.num_qubits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        "random"
    }

    fn draws_when_unplaceable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};

    #[test]
    fn allocations_are_valid_and_vary() {
        let view = test_view(&[127, 127, 127, 127, 127]);
        let mut b = RandomBroker::new(1);
        let job = test_job(190);
        let mut first_devices = std::collections::HashSet::new();
        for _ in 0..50 {
            let plan = b.select(&job, &view);
            plan.validate(&job, &view).unwrap();
            if let AllocationPlan::Dispatch(parts) = plan {
                first_devices.insert(parts[0].0);
            }
        }
        assert!(
            first_devices.len() >= 3,
            "random order should vary the primary device"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let view = test_view(&[127, 127, 127]);
        let job = test_job(150);
        let mut b1 = RandomBroker::new(7);
        let mut b2 = RandomBroker::new(7);
        for _ in 0..10 {
            assert_eq!(b1.select(&job, &view), b2.select(&job, &view));
        }
    }
}
