//! Fair allocation (paper §5, "Fair Mode"): balance load by preferring the
//! least-utilised devices, spilling as needed.

use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::device::DeviceId;
use crate::job::QJob;
use crate::partition::greedy_fill;
use crate::policies::speed::ordered;

/// Lowest-utilisation-first, availability-greedy.
#[derive(Debug, Default, Clone)]
pub struct FairBroker {
    /// Device order buffer, reused across selects.
    order: Vec<DeviceId>,
}

impl FairBroker {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broker for FairBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        // Least *cumulatively* utilised first (time-weighted mean), ties by
        // id. Using the historical mean instead of the instantaneous busy
        // fraction makes the policy rotate load evenly over the whole
        // fleet instead of chasing whichever device most recently released
        // qubits.
        view.order_by(|d| ordered(d.mean_utilization), &mut self.order);
        match greedy_fill(&self.order, view, job.num_qubits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        "fair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};

    #[test]
    fn prefers_idle_devices() {
        // Device 2 fully idle, device 0 mostly busy.
        let view = test_view(&[27, 80, 127]);
        let mut b = FairBroker::new();
        let AllocationPlan::Dispatch(parts) = b.select(&test_job(150), &view) else {
            panic!("expected dispatch")
        };
        // Order by busy fraction: 2 (0%), 1 (37%), 0 (79%).
        assert_eq!(parts, vec![(DeviceId(2), 127), (DeviceId(1), 23)]);
    }

    #[test]
    fn balanced_fleet_ties_broken_by_id() {
        let view = test_view(&[127, 127, 127]);
        let mut b = FairBroker::new();
        let AllocationPlan::Dispatch(parts) = b.select(&test_job(140), &view) else {
            panic!("expected dispatch")
        };
        assert_eq!(parts, vec![(DeviceId(0), 127), (DeviceId(1), 13)]);
    }

    #[test]
    fn waits_when_insufficient() {
        let view = test_view(&[10, 10, 10]);
        let mut b = FairBroker::new();
        assert_eq!(b.select(&test_job(100), &view), AllocationPlan::Wait);
    }
}
