//! Round-robin baseline: rotates the starting device per job, spreading
//! load without inspecting calibration or speed.

use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::device::DeviceId;
use crate::job::QJob;
use crate::partition::greedy_fill;

/// Rotating-start, availability-greedy baseline (not in the paper; useful
/// as a sanity anchor between `fair` and `random`).
#[derive(Debug, Default, Clone)]
pub struct RoundRobinBroker {
    next_start: usize,
    /// Device order buffer, reused across selects.
    order: Vec<DeviceId>,
}

impl RoundRobinBroker {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broker for RoundRobinBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        let n = view.devices.len();
        let start = self.next_start % n;
        self.order.clear();
        self.order
            .extend((0..n).map(|i| view.devices[(start + i) % n].id));
        match greedy_fill(&self.order, view, job.num_qubits) {
            Some(parts) => {
                self.next_start = (start + 1) % n;
                AllocationPlan::Dispatch(parts)
            }
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        "roundrobin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};

    #[test]
    fn start_rotates_across_jobs() {
        let view = test_view(&[127, 127, 127]);
        let mut b = RoundRobinBroker::new();
        let AllocationPlan::Dispatch(p1) = b.select(&test_job(130), &view) else {
            panic!()
        };
        let AllocationPlan::Dispatch(p2) = b.select(&test_job(130), &view) else {
            panic!()
        };
        let AllocationPlan::Dispatch(p3) = b.select(&test_job(130), &view) else {
            panic!()
        };
        assert_eq!(p1[0].0, DeviceId(0));
        assert_eq!(p2[0].0, DeviceId(1));
        assert_eq!(p3[0].0, DeviceId(2));
    }

    #[test]
    fn waiting_does_not_advance_rotation() {
        let view = test_view(&[10, 10, 10]);
        let mut b = RoundRobinBroker::new();
        assert_eq!(b.select(&test_job(100), &view), AllocationPlan::Wait);
        let full = test_view(&[127, 127, 127]);
        let AllocationPlan::Dispatch(p) = b.select(&test_job(130), &full) else {
            panic!()
        };
        assert_eq!(p[0].0, DeviceId(0), "rotation must not advance on Wait");
    }
}
