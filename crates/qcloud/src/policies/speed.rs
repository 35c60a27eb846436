//! Speed-based allocation (paper §5, "Speed-based Mode"): minimise runtime
//! by preferring the fastest (highest-CLOPS) devices, spilling to slower
//! ones when the fast devices lack free qubits.

use crate::broker::{AllocationPlan, Broker, CloudView, StaticOrder};
use crate::job::QJob;
use crate::partition::greedy_fill;

/// Fastest-first, availability-greedy.
#[derive(Debug, Default, Clone)]
pub struct SpeedBroker {
    /// Fastest-first device order; its key reads only static columns.
    order: StaticOrder,
}

impl SpeedBroker {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broker for SpeedBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        // Highest CLOPS first; ties broken by lower error score, then id.
        let order = self.order.sorted(view, |view, out| {
            view.order_by(
                |d| (std::cmp::Reverse(ordered(d.clops)), ordered(d.error_score)),
                out,
            )
        });
        match greedy_fill(order, view, job.num_qubits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
        }
    }

    fn name(&self) -> &str {
        "speed"
    }
}

/// Total-order wrapper for f64 keys in sort tuples.
#[derive(PartialEq, PartialOrd)]
pub(crate) struct Ordered(f64);
pub(crate) fn ordered(x: f64) -> Ordered {
    Ordered(x)
}
impl std::cmp::Eq for Ordered {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Ordered {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};
    use crate::device::DeviceId;

    #[test]
    fn prefers_fastest_devices() {
        // test_view: clops descending with id (220k, 210k, 200k, ...).
        let view = test_view(&[127, 127, 127]);
        let mut b = SpeedBroker::new();
        let plan = b.select(&test_job(200), &view);
        let AllocationPlan::Dispatch(parts) = plan else {
            panic!("expected dispatch")
        };
        assert_eq!(parts, vec![(DeviceId(0), 127), (DeviceId(1), 73)]);
    }

    #[test]
    fn spills_when_fast_devices_busy() {
        let view = test_view(&[20, 127, 127]);
        let mut b = SpeedBroker::new();
        let AllocationPlan::Dispatch(parts) = b.select(&test_job(200), &view) else {
            panic!("expected dispatch")
        };
        assert_eq!(
            parts,
            vec![(DeviceId(0), 20), (DeviceId(1), 127), (DeviceId(2), 53)]
        );
    }

    #[test]
    fn waits_when_fleet_cannot_fit() {
        let view = test_view(&[20, 30, 40]);
        let mut b = SpeedBroker::new();
        assert_eq!(b.select(&test_job(200), &view), AllocationPlan::Wait);
    }

    #[test]
    fn plan_validates() {
        let view = test_view(&[127, 64, 127]);
        let job = test_job(250);
        let mut b = SpeedBroker::new();
        let plan = b.select(&job, &view);
        plan.validate(&job, &view).unwrap();
    }
}
