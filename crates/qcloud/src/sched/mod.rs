//! The queue-aware scheduling API.
//!
//! The original [`crate::broker::Broker`] interface is *per-job*: the
//! cloud-level scheduler consulted it for one head-of-queue job against a
//! freshly rebuilt [`crate::broker::CloudView`] snapshot and got a single
//! `Dispatch`/`Wait` answer — strict FIFO with head-of-line blocking baked
//! into the API. This module redesigns the contract around queues:
//!
//! * a [`Scheduler`] sees the **entire pending queue** plus an incrementally
//!   maintained [`CloudState`] (updated on reserve/release instead of
//!   rebuilt per consult, and carrying the in-flight lease table needed for
//!   lookahead) and returns a [`SchedulingDecision`] **batch**: zero or more
//!   dispatches — possibly out of FIFO order — plus an explicit
//!   [`WaitReason`];
//! * [`FifoAdapter`] ports every per-job [`crate::broker::Broker`] policy
//!   onto the new trait while preserving the seed scheduler's head-of-line
//!   semantics *bit for bit* (pinned by `tests/seed_parity.rs`, against
//!   the seed's goldens and against the seed-mechanics oracle kept in
//!   `tests/common`);
//! * [`BackfillScheduler`] (EASY backfilling),
//!   [`ConservativeBackfillScheduler`] (availability-aware start
//!   reservations protecting *every* queued job, not just the head) and
//!   [`PriorityScheduler`] (SJF / EDF / aging disciplines) are genuinely
//!   queue-aware disciplines the old API could not express. The two
//!   backfilling disciplines share the availability machinery: the state
//!   owns an incrementally maintained [`AvailabilityProfile`] (lease table
//!   and maintenance calendar, re-derived per touched device instead of
//!   per decision) and each scheduler layers a persistent [`CapacityTimeline`]
//!   of bookings and batch dispatches on top, so shadow computations see
//!   scheduled windows coming without any per-decide rebuild.
//!
//! Disciplines compose with policies by name through
//! [`crate::policies::scheduler_by_name`] (e.g. `backfill+speed`,
//! `conservative+fair`, `priority:edf+fair`).

mod backfill;
mod conservative;
mod fifo;
mod priority;
mod state;
mod timeline;

pub use backfill::{BackfillScheduler, GuaranteeLog, HeadGuarantee, PlacementBound};
pub use conservative::{ConservativeBackfillScheduler, ReservationLog, StartReservation};
pub(crate) use fifo::first_placeable;
pub use fifo::FifoAdapter;
pub use priority::{PriorityDiscipline, PriorityScheduler};
pub use state::{CloudState, DeviceSpec, Lease};
pub use timeline::{AvailabilityProfile, CapacityTimeline};

use crate::broker::Parts;
use crate::job::QJob;
use serde::{Deserialize, Serialize};

/// Why a scheduler stopped dispatching for now. Returned with every
/// decision so the simulation loop (and its telemetry) can tell *why* the
/// queue is parked instead of inferring it from a `Wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitReason {
    /// The decision drained the queue; nothing left to place.
    QueueDrained,
    /// The fleet's free qubits cannot hold the next job right now.
    InsufficientCapacity,
    /// Capacity exists but the policy declined it (e.g. the quality-strict
    /// error-aware policy holding out for the premium devices).
    PolicyHold,
    /// The head job is blocked and holds a backfill reservation; no queued
    /// job can run without risking a delay to the head's earliest start.
    BackfillHold,
    /// The next job would fit if offline capacity were back: the fleet's
    /// *online* free qubits fall short, but adding the qubits idle on
    /// offline (crashed or in-maintenance) devices would cover the demand.
    /// Distinguishes "the cloud is busy" from "the cloud is broken" in
    /// fault telemetry.
    DeviceOffline,
    /// The pending queue is empty but the service-mode intake throttle
    /// still holds jobs awaiting re-offer: the scheduler is idle because
    /// admission control deferred work, not because traffic ran dry.
    /// Never reported in closed batch replays (no intake layer).
    AdmissionThrottled,
}

/// One job dispatch within a [`SchedulingDecision`] batch.
///
/// `queue_index` addresses the pending queue **as it stands when this
/// dispatch is applied**: the simulation removes each dispatched job in
/// batch order, so an index refers to the queue after all earlier
/// dispatches in the same batch have been popped. Index `0` is the FIFO
/// head; a non-zero index is an out-of-order (queue-jumping) dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// Position in the (residual) pending queue.
    pub queue_index: usize,
    /// The partition to reserve, `(device, qubits)` summing to the job's
    /// demand.
    pub parts: Parts,
}

/// The outcome of one scheduler consultation: a batch of dispatches plus
/// what to do afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingDecision {
    /// Jobs to dispatch now, in application order.
    pub dispatches: Vec<Dispatch>,
    /// `Some(reason)` parks the scheduler until the next arrival/release
    /// event; `None` asks the simulation to re-consult immediately after
    /// applying the batch (used by single-dispatch adapters).
    pub wait: Option<WaitReason>,
}

impl SchedulingDecision {
    /// A decision that dispatches nothing and parks with `reason`.
    pub fn wait(reason: WaitReason) -> Self {
        SchedulingDecision {
            dispatches: Vec::new(),
            wait: Some(reason),
        }
    }
}

/// How far past the current instant a job's arrival time may lie and still
/// be released into the pending queue. Every arrival process (batch,
/// service router, parallel intake) releases a job once
/// `arrival_time <= now + RELEASE_SLACK_S`, which absorbs the rounding of
/// the `Timeout(arrival - now)` it sleeps for.
pub const RELEASE_SLACK_S: f64 = 1e-12;

/// A queue-aware scheduling discipline.
///
/// `decide` is called whenever the pending queue is non-empty and an event
/// (arrival, release, maintenance edge) may have changed what is possible.
/// The queue is in enqueue order, which is arrival order except that a job
/// re-queued after a fault rejoins at the tail with its original
/// `arrival_time`. `state` reflects all reservations and releases up to the
/// current instant (`state.now()`).
///
/// Release contract: every queued job satisfies
/// `arrival_time <= state.now() + RELEASE_SLACK_S`, so no job's wait
/// `state.now() - arrival_time` is below `-2 · RELEASE_SLACK_S` (the factor
/// covers the rounding of `now + RELEASE_SLACK_S`). The RL scheduler's
/// observation encoder relies on it to stop its pooled mean-wait sum early.
///
/// Contract: every returned [`Dispatch`] must be satisfiable against the
/// state at application time — parts sum to the job's qubit demand, no
/// device is over-committed, offline devices are untouched. The simulation
/// validates and panics on violation (a scheduler bug, never a recoverable
/// condition).
pub trait Scheduler: Send {
    /// Decides which queued jobs (if any) to dispatch right now.
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision;

    /// Discipline name for reports (e.g. `speed`, `backfill+speed`).
    fn name(&self) -> &str;
}

/// Counters describing one run's scheduling activity, reported in
/// [`crate::simenv::RunResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedTelemetry {
    /// Scheduler consultations (calls to [`Scheduler::decide`]).
    pub decisions: u64,
    /// Jobs dispatched in total.
    pub dispatched: u64,
    /// Jobs dispatched ahead of an older queued job (queue jumps).
    pub out_of_order: u64,
    /// Job-overtake events: each queue jump counts one per older job still
    /// waiting that it leapfrogged (Σ of the per-job `bypassed` counters in
    /// the run's [`crate::records::JobRecord`]s).
    pub bypass_events: u64,
    /// Decisions that dispatched two or more jobs atomically.
    pub multi_dispatch_batches: u64,
    /// Waits because the queue was drained.
    pub waits_queue_drained: u64,
    /// Waits because the fleet lacked free qubits.
    pub waits_insufficient_capacity: u64,
    /// Waits because the policy declined available capacity.
    pub waits_policy_hold: u64,
    /// Waits because backfilling could not proceed without delaying the
    /// protected head job.
    pub waits_backfill_hold: u64,
    /// Waits where offline (crashed/maintenance) capacity was the
    /// difference between blocking and fitting.
    pub waits_device_offline: u64,
    /// Waits where the queue was empty only because the service-mode
    /// intake throttle was holding jobs back (open-system runs only).
    pub waits_admission_throttled: u64,
}

impl SchedTelemetry {
    /// Tallies one wait reason.
    pub(crate) fn count_wait(&mut self, reason: WaitReason) {
        match reason {
            WaitReason::QueueDrained => self.waits_queue_drained += 1,
            WaitReason::InsufficientCapacity => self.waits_insufficient_capacity += 1,
            WaitReason::PolicyHold => self.waits_policy_hold += 1,
            WaitReason::BackfillHold => self.waits_backfill_hold += 1,
            WaitReason::DeviceOffline => self.waits_device_offline += 1,
            WaitReason::AdmissionThrottled => self.waits_admission_throttled += 1,
        }
    }

    /// Total waits across all reasons.
    pub fn total_waits(&self) -> u64 {
        self.waits_queue_drained
            + self.waits_insufficient_capacity
            + self.waits_policy_hold
            + self.waits_backfill_hold
            + self.waits_device_offline
            + self.waits_admission_throttled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_decision_is_empty() {
        let d = SchedulingDecision::wait(WaitReason::PolicyHold);
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::PolicyHold));
    }

    #[test]
    fn telemetry_tallies_waits() {
        let mut t = SchedTelemetry::default();
        t.count_wait(WaitReason::QueueDrained);
        t.count_wait(WaitReason::InsufficientCapacity);
        t.count_wait(WaitReason::InsufficientCapacity);
        t.count_wait(WaitReason::PolicyHold);
        t.count_wait(WaitReason::BackfillHold);
        t.count_wait(WaitReason::DeviceOffline);
        t.count_wait(WaitReason::AdmissionThrottled);
        assert_eq!(t.waits_queue_drained, 1);
        assert_eq!(t.waits_insufficient_capacity, 2);
        assert_eq!(t.waits_policy_hold, 1);
        assert_eq!(t.waits_backfill_hold, 1);
        assert_eq!(t.waits_device_offline, 1);
        assert_eq!(t.waits_admission_throttled, 1);
        assert_eq!(t.total_waits(), 7);
    }
}
