//! Ports per-job [`Broker`] policies onto the queue-aware [`Scheduler`]
//! trait.
//!
//! [`FifoAdapter`] preserves the seed scheduler's exact semantics — head-of
//! -line blocking with an optional bounded scan window — while batching all
//! dispatches reachable at one instant into a single decision against the
//! incrementally maintained state. [`SnapshotAdapter`] preserves the seed's
//! *mechanics* too (a freshly allocated snapshot per consult, one dispatch
//! per decision): it exists as the parity oracle for `tests/seed_parity.rs`
//! and as the "before" baseline in `benches/sched.rs`.

use super::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::QJob;

/// Runs a [`Broker`] under the seed's FIFO discipline on the new API.
///
/// Per decision it replays the seed loop exactly: scan the head plus up to
/// `window − 1` jobs behind it, dispatch the first job the policy can place
/// (consulting the broker in queue order against a view that reflects all
/// earlier dispatches in the batch), restart from the head, and stop after
/// one full scan yields nothing. The broker consultation sequence — which
/// matters for stateful policies like `random` — is identical to the seed
/// scheduler's; `tests/seed_parity.rs` pins the resulting `JobRecord`
/// streams bit for bit.
pub struct FifoAdapter {
    broker: Box<dyn Broker>,
    window: usize,
    view: CloudView,
    /// Scratch: queue slots not yet dispatched in the current batch.
    alive: Vec<u32>,
}

impl FifoAdapter {
    /// Wraps `broker` with a scan window of `window` jobs (`1` = strict
    /// FIFO with head-of-line blocking, the paper's semantics; larger
    /// windows reproduce the seed's `backfill_depth` scanning).
    pub fn new(broker: Box<dyn Broker>, window: usize) -> Self {
        assert!(window >= 1, "scan window must be at least 1");
        FifoAdapter {
            broker,
            window,
            view: CloudView {
                devices: Vec::new(),
            },
            alive: Vec::new(),
        }
    }

    /// The wrapped broker (inspection/testing).
    pub fn broker(&self) -> &dyn Broker {
        self.broker.as_ref()
    }
}

impl Scheduler for FifoAdapter {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        state.copy_view_into(&mut self.view);
        // Only the first `window` undispatched jobs are ever consulted, so
        // materialise the virtual queue lazily: `alive` holds at most
        // `window` queue indices and is topped up from `next_fresh` as
        // dispatches pop entries. Keeps each decision O(window + batch),
        // independent of the pending-queue length.
        self.alive.clear();
        let mut next_fresh = 0usize;
        let mut dispatches = Vec::new();
        loop {
            while self.alive.len() < self.window && next_fresh < queue.len() {
                self.alive.push(next_fresh as u32);
                next_fresh += 1;
            }
            let scan = self.window.min(self.alive.len());
            let mut found = None;
            for vi in 0..scan {
                let job = &queue[self.alive[vi] as usize];
                let plan = self.broker.select(job, &self.view);
                if let AllocationPlan::Dispatch(parts) = plan {
                    validate_plan(&*self.broker, job, &parts, &self.view);
                    found = Some((vi, parts));
                    break;
                }
            }
            let Some((vi, parts)) = found else {
                break;
            };
            apply_parts(&mut self.view, &parts, state.now());
            dispatches.push(Dispatch {
                queue_index: vi,
                parts,
            });
            self.alive.remove(vi);
        }
        let wait = if self.alive.is_empty() {
            WaitReason::QueueDrained
        } else {
            blocked_reason(&queue[self.alive[0] as usize], state, &self.view)
        };
        SchedulingDecision {
            dispatches,
            wait: Some(wait),
        }
    }

    fn name(&self) -> &str {
        self.broker.name()
    }
}

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
    /// Wraps `broker`; `window` as in [`FifoAdapter::new`].
    pub fn new(broker: Box<dyn Broker>, window: usize) -> Self {
        assert!(window >= 1, "scan window must be at least 1");
        SnapshotAdapter { broker, window }
    }
}

impl Scheduler for SnapshotAdapter {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        // Deliberate per-consult snapshot allocation (the seed's
        // `build_view`); do not optimise — this is the measured baseline.
        let view: CloudView = state.view().clone();
        let scan = self.window.min(queue.len());
        for (vi, job) in queue.iter().enumerate().take(scan) {
            let plan = self.broker.select(job, &view);
            if let AllocationPlan::Dispatch(parts) = plan {
                validate_plan(&*self.broker, job, &parts, &view);
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

/// Applies a dispatch to a scratch view: the same arithmetic
/// [`CloudState::reserve`] performs on the qubit ledger, so mid-batch
/// consults see identical numbers to the seed's post-withdrawal snapshot
/// rebuild. The time-weighted `mean_utilization` column is untouched for
/// `now > 0` — a withdrawal at the current instant does not change the
/// mean *up to* that instant — but at `now = 0` the time-weighted
/// accumulator has zero span and falls back to the instantaneous level, so
/// the column tracks the busy fraction (exactly what the seed's
/// post-withdrawal rebuild showed the `fair` policy during the all-at-zero
/// batch).
pub(super) fn apply_parts(
    view: &mut CloudView,
    parts: &[(crate::device::DeviceId, u64)],
    now: f64,
) {
    for &(dev, amt) in parts {
        let v = &mut view.devices[dev.index()];
        v.free -= amt;
        v.busy_fraction = (v.capacity - v.free) as f64 / v.capacity as f64;
        if now <= 0.0 && v.capacity > 0 {
            // Same expression as `CloudState::mean_utilization` with the
            // zero-span fallback `mean_level = level` (not `busy_fraction`,
            // whose `(cap − level)/cap` rounds differently in the last ulp).
            v.mean_utilization = 1.0 - v.free as f64 / v.capacity as f64;
        }
    }
}

/// The oldest job in `queue` that `broker` places on `view` right now, as
/// a one-job dispatch: the idle-fleet fallback of a discipline that would
/// otherwise hold with no lease release or window edge left to wake it.
pub(crate) fn first_placeable(
    broker: &mut dyn Broker,
    queue: &[QJob],
    view: &CloudView,
) -> Option<Dispatch> {
    queue
        .iter()
        .enumerate()
        .find_map(|(queue_index, job)| match broker.select(job, view) {
            AllocationPlan::Dispatch(parts) => Some(Dispatch { queue_index, parts }),
            AllocationPlan::Wait => None,
        })
}

/// Validates a broker-produced plan against the scratch view, panicking
/// with the broker's name on violation (a policy bug, never a recoverable
/// condition). Shared by every discipline that consults a [`Broker`].
pub(super) fn validate_plan(
    broker: &dyn Broker,
    job: &QJob,
    parts: &[(crate::device::DeviceId, u64)],
    view: &CloudView,
) {
    AllocationPlan::validate_parts(parts, job, view)
        .unwrap_or_else(|e| panic!("broker '{}' produced an invalid plan: {e}", broker.name()));
}

/// Classifies why `job` (the oldest undispatched job) is stuck. When the
/// online fleet falls short but the qubits idle on offline (crashed or
/// in-maintenance) devices would cover the gap, the wait is blamed on the
/// outage ([`WaitReason::DeviceOffline`]) rather than on load.
pub(super) fn blocked_reason(job: &QJob, state: &CloudState, view: &CloudView) -> WaitReason {
    if view.total_free() < job.num_qubits {
        let offline_extra: u64 = (0..state.len())
            .map(|i| crate::device::DeviceId(i as u32))
            .filter(|&d| state.is_offline(d))
            .map(|d| state.actual_level(d))
            .sum();
        if offline_extra > 0 && view.total_free() + offline_extra >= job.num_qubits {
            WaitReason::DeviceOffline
        } else {
            WaitReason::InsufficientCapacity
        }
    } else {
        WaitReason::PolicyHold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::job::JobId;
    use crate::policies::{FidelityBroker, SpeedBroker};
    use crate::sched::DeviceSpec;

    fn state(caps: &[u64]) -> CloudState {
        let specs: Vec<DeviceSpec> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| DeviceSpec {
                capacity: c,
                error_score: 0.01 + i as f64 * 0.001,
                clops: 220_000.0 - i as f64 * 10_000.0,
                qv_layers: 7.0,
            })
            .collect();
        CloudState::new(&specs, &SimParams::default())
    }

    fn jobs(qs: &[u64]) -> Vec<QJob> {
        qs.iter()
            .enumerate()
            .map(|(i, &q)| QJob {
                id: JobId(i as u64),
                num_qubits: q,
                depth: 10,
                num_shots: 50_000,
                two_qubit_gates: 500,
                arrival_time: 0.0,
            })
            .collect()
    }

    #[test]
    fn fifo_batches_all_reachable_dispatches() {
        let st = state(&[127, 127, 127, 127, 127]);
        let mut s = FifoAdapter::new(Box::new(SpeedBroker::new()), 1);
        // 635 total qubits: three 190-qubit jobs fit, the fourth must wait.
        let q = jobs(&[190, 190, 190, 190]);
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 3);
        // Each dispatch pops the head of the residual queue.
        assert!(d.dispatches.iter().all(|x| x.queue_index == 0));
        assert_eq!(d.wait, Some(WaitReason::InsufficientCapacity));
    }

    #[test]
    fn fifo_head_of_line_blocks_without_window() {
        let st = state(&[127, 40]);
        // Head needs 167+ free across both devices but asks 200: blocked;
        // the 60-qubit job behind it could run but window 1 forbids it.
        let q = jobs(&[200, 60]);
        let mut strict = FifoAdapter::new(Box::new(SpeedBroker::new()), 1);
        let d = strict.decide(&q, &st);
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::InsufficientCapacity));

        let mut windowed = FifoAdapter::new(Box::new(SpeedBroker::new()), 2);
        let d = windowed.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.dispatches[0].queue_index, 1, "queue jump past the head");
    }

    #[test]
    fn fifo_reports_policy_hold_for_strict_brokers() {
        let st = state(&[127, 127, 127]);
        let mut s = FifoAdapter::new(Box::new(FidelityBroker::new()), 1);
        // First job takes the premium pair; the second has capacity on
        // device 2 but the strict policy declines.
        let q = jobs(&[200, 140]);
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.wait, Some(WaitReason::PolicyHold));
    }

    #[test]
    fn snapshot_adapter_single_steps() {
        let st = state(&[127, 127, 127, 127, 127]);
        let mut s = SnapshotAdapter::new(Box::new(SpeedBroker::new()), 1);
        let q = jobs(&[190, 190]);
        let d = s.decide(&q, &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.wait, None, "snapshot adapter asks for a re-consult");
    }

    #[test]
    fn drained_queue_reported() {
        let st = state(&[127, 127, 127, 127, 127]);
        let mut s = FifoAdapter::new(Box::new(SpeedBroker::new()), 1);
        let d = s.decide(&jobs(&[150]), &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.wait, Some(WaitReason::QueueDrained));
    }
}
