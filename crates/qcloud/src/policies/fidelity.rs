//! Error-aware allocation (paper §5, "Error-aware Mode"): maximise circuit
//! fidelity by targeting the devices with the lowest error scores.
//!
//! This policy is **quality-strict**: it computes its preferred partition
//! from the error-ranked devices' *full capacities* and dispatches only
//! when those exact devices can supply it — otherwise it waits. That is the
//! behaviour needed to reproduce Table 2: the error-aware strategy attains
//! the best fidelity and the lowest communication time (k stays minimal)
//! at the price of roughly doubled makespan from queueing on the premium
//! devices.

use crate::broker::{AllocationPlan, Broker, CloudView, StaticOrder};
use crate::job::QJob;
use crate::partition::capacity_fill;
use crate::policies::speed::ordered;

/// Lowest-error-first, quality-strict.
#[derive(Debug, Default, Clone)]
pub struct FidelityBroker {
    /// Lowest-error-first device order; its key reads only static columns.
    order: StaticOrder,
}

impl FidelityBroker {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broker for FidelityBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        let order = self.order.sorted(view, |view, out| {
            view.order_by(|d| ordered(d.error_score), out)
        });
        let target = capacity_fill(order, view, job.num_qubits);
        let satisfiable = target
            .iter()
            .all(|&(dev, amt)| view.devices[dev.index()].free >= amt);
        if satisfiable {
            AllocationPlan::Dispatch(target)
        } else {
            AllocationPlan::Wait
        }
    }

    fn name(&self) -> &str {
        "fidelity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};
    use crate::device::DeviceId;

    #[test]
    fn targets_lowest_error_devices() {
        // test_view error scores ascend with id: device 0 is cleanest.
        let view = test_view(&[127, 127, 127]);
        let mut b = FidelityBroker::new();
        let AllocationPlan::Dispatch(parts) = b.select(&test_job(200), &view) else {
            panic!("expected dispatch")
        };
        assert_eq!(parts, vec![(DeviceId(0), 127), (DeviceId(1), 73)]);
    }

    #[test]
    fn waits_instead_of_spilling() {
        // Device 0 busy: the speed policy would spill to device 2; the
        // fidelity policy waits for its preferred pair.
        let view = test_view(&[100, 127, 127]);
        let mut b = FidelityBroker::new();
        assert_eq!(b.select(&test_job(200), &view), AllocationPlan::Wait);
    }

    #[test]
    fn dispatches_when_preferred_devices_free() {
        let view = test_view(&[127, 80, 127]);
        let mut b = FidelityBroker::new();
        // Needs (127, 73): device 1 has 80 free ≥ 73 → dispatch.
        let AllocationPlan::Dispatch(parts) = b.select(&test_job(200), &view) else {
            panic!("expected dispatch")
        };
        assert_eq!(parts, vec![(DeviceId(0), 127), (DeviceId(1), 73)]);
    }

    #[test]
    fn minimal_device_count() {
        // 127 ≤ q ≤ 254 always yields exactly 2 devices (lowest comm).
        let view = test_view(&[127, 127, 127, 127, 127]);
        let mut b = FidelityBroker::new();
        for q in [130u64, 190, 250] {
            let plan = b.select(&test_job(q), &view);
            assert_eq!(plan.device_count(), 2, "q = {q}");
        }
    }
}
