//! The seed oracle shared by the FIFO parity suites (`seed_parity.rs` and
//! `scheduler_proptests.rs`).
//!
//! [`SnapshotAdapter`] replays the seed scheduler's *mechanics* through the
//! public scheduling API: a fleet snapshot cloned on every consult, one scan
//! of the window, and at most one dispatch per decision. The production
//! [`qcs_qcloud::FifoAdapter`] batches every reachable dispatch against the
//! incrementally maintained state instead; both must produce the same
//! record streams bit for bit.

use qcs_qcloud::broker::{AllocationPlan, Broker, CloudView};
use qcs_qcloud::sched::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use qcs_qcloud::{DeviceId, QJob};

/// The seed scheduler's mechanics, verbatim: rebuild a fresh fleet snapshot
/// for every consult (allocating), scan the window once, and return at most
/// **one** dispatch with `wait: None` so the simulation immediately
/// re-consults — exactly the consult-rebuild-dispatch cycle the seed's
/// scheduling coroutine ran.
pub struct SnapshotAdapter {
    broker: Box<dyn Broker>,
    window: usize,
}

impl SnapshotAdapter {
    /// Wraps `broker` with a scan window of `window` jobs, as
    /// [`qcs_qcloud::FifoAdapter::new`] does.
    pub fn new(broker: Box<dyn Broker>, window: usize) -> Self {
        assert!(window >= 1, "scan window must be at least 1");
        SnapshotAdapter { broker, window }
    }
}

impl Scheduler for SnapshotAdapter {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        // Deliberate per-consult snapshot allocation (the seed's
        // `build_view`).
        let view: CloudView = state.view().clone();
        let scan = self.window.min(queue.len());
        for (vi, job) in queue.iter().enumerate().take(scan) {
            if let AllocationPlan::Dispatch(parts) = self.broker.select(job, &view) {
                AllocationPlan::validate_parts(&parts, job, &view).unwrap_or_else(|e| {
                    panic!(
                        "broker '{}' produced an invalid plan: {e}",
                        self.broker.name()
                    )
                });
                return SchedulingDecision {
                    dispatches: vec![Dispatch {
                        queue_index: vi,
                        parts,
                    }],
                    wait: None,
                };
            }
        }
        SchedulingDecision::wait(blocked_reason(&queue[0], state, &view))
    }

    fn name(&self) -> &str {
        self.broker.name()
    }
}

/// Why the oldest job is stuck: the seed's classification. When the online
/// fleet falls short but the qubits idle on offline devices would cover the
/// gap, the outage is to blame rather than the load.
fn blocked_reason(job: &QJob, state: &CloudState, view: &CloudView) -> WaitReason {
    if view.total_free() >= job.num_qubits {
        return WaitReason::PolicyHold;
    }
    let offline_extra: u64 = (0..state.len())
        .map(|i| DeviceId(i as u32))
        .filter(|&d| state.is_offline(d))
        .map(|d| state.actual_level(d))
        .sum();
    if offline_extra > 0 && view.total_free() + offline_extra >= job.num_qubits {
        WaitReason::DeviceOffline
    } else {
        WaitReason::InsufficientCapacity
    }
}
