//! The EASY scan that plans every candidate, the oracle of
//! `scheduler_proptests.rs`' pruned-scan differential.
//!
//! [`FullScanBackfill`] is `qcs_qcloud::BackfillScheduler`'s decision loop
//! as it stood before the scan ruled candidates out by a lower bound on
//! their return time: every candidate the free qubits can hold is planned
//! by the broker, and the shadow check then keeps or drops the plan. The
//! shadow is taken as soon as the head blocks, the free-qubit total is
//! re-summed for every candidate and every queue slot is materialised per
//! decision. The loop is kept verbatim; the guarantee-log hook is left out,
//! and the crate-private helpers it called are copied below against the
//! public API.

use qcs_qcloud::broker::{AllocationPlan, Broker, CloudView};
use qcs_qcloud::maintenance::MaintenanceCalendar;
use qcs_qcloud::sched::{
    CapacityTimeline, CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason,
};
use qcs_qcloud::{DeviceId, QJob};

/// How many queued jobs behind the head are considered per decision.
const CANDIDATE_LIMIT: usize = 64;

/// EASY backfilling that plans every candidate fitting the free qubits.
pub struct FullScanBackfill {
    broker: Box<dyn Broker>,
    name: String,
    view: CloudView,
    /// Scratch: queue slots not yet dispatched in the current batch.
    alive: Vec<u32>,
    /// Persistent timeline over the state's incrementally maintained
    /// availability profile; EASY keeps no standing bookings, so only the
    /// per-decision overlay is used.
    timeline: CapacityTimeline,
}

impl FullScanBackfill {
    /// Wraps `broker` with EASY backfilling over the whole queue (candidate
    /// scan capped at 64 jobs behind the head).
    pub fn new(broker: Box<dyn Broker>) -> Self {
        let name = format!("backfill+{}", broker.name());
        FullScanBackfill {
            broker,
            name,
            view: CloudView {
                devices: Vec::new(),
            },
            alive: Vec::new(),
            timeline: CapacityTimeline::new(),
        }
    }
}

impl Scheduler for FullScanBackfill {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let now = state.now();
        state.copy_view_into(&mut self.view);
        self.alive.clear();
        self.alive.extend(0..queue.len() as u32);
        // The maintenance-aware availability profile: lease returns pushed
        // past offline windows, scheduled capacity drops included. The
        // state maintains it incrementally; the timeline only layers this
        // decision's dispatches on top. The head's shadow time is its
        // earliest fit on the combined projection.
        let profile = state.profile();
        self.timeline.begin_decide(now);
        let calendar = state.maintenance();
        let mut dispatches = Vec::new();
        let mut backfilled = false;

        loop {
            if self.alive.is_empty() {
                return SchedulingDecision {
                    dispatches,
                    wait: Some(WaitReason::QueueDrained),
                };
            }
            let head = &queue[self.alive[0] as usize];
            let plan = self.broker.select(head, &self.view);
            if let AllocationPlan::Dispatch(parts) = plan {
                validate_plan(&*self.broker, head, &parts, &self.view);
                self.timeline.withdraw_now(head.num_qubits);
                project_dispatch_releases(&mut self.timeline, state, calendar, head, &parts, now);
                apply_parts(&mut self.view, &parts, now);
                dispatches.push(Dispatch {
                    queue_index: 0,
                    parts,
                });
                self.alive.remove(0);
                continue;
            }

            // Head blocked: compute its reservation and backfill behind it.
            let shadow = self.timeline.earliest_fit(profile, head.num_qubits);
            let mut vi = 1;
            let mut examined = 0usize;
            while vi < self.alive.len() && examined < CANDIDATE_LIMIT {
                examined += 1;
                let cand = &queue[self.alive[vi] as usize];
                // No broker can place a job the fleet lacks free qubits
                // for; skipping the consult keeps stateful policies (the
                // `random` RNG) in lock-step with non-backfilling
                // disciplines when no opportunity exists.
                if self.view.total_free() < cand.num_qubits {
                    vi += 1;
                    continue;
                }
                let plan = self.broker.select(cand, &self.view);
                if let AllocationPlan::Dispatch(parts) = plan {
                    let k = parts.len();
                    let max_exec = parts
                        .iter()
                        .map(|&(d, _)| state.exec_seconds(cand, d))
                        .fold(0.0f64, f64::max);
                    // When every borrowed qubit is *placeable* again: the
                    // deterministic hold end, pushed past any maintenance
                    // window covering it (a part draining into a window
                    // surfaces only at window close — the same adjustment
                    // the release projection applies).
                    let done = parts
                        .iter()
                        .map(|&(d, _)| {
                            let at = now + state.hold_seconds(cand, d, k, max_exec);
                            calendar.next_online_from(d.index(), at)
                        })
                        .fold(0.0f64, f64::max);
                    if done <= shadow {
                        validate_plan(&*self.broker, cand, &parts, &self.view);
                        self.timeline.withdraw_now(cand.num_qubits);
                        project_dispatch_releases(
                            &mut self.timeline,
                            state,
                            calendar,
                            cand,
                            &parts,
                            now,
                        );
                        apply_parts(&mut self.view, &parts, now);
                        dispatches.push(Dispatch {
                            queue_index: vi,
                            parts,
                        });
                        self.alive.remove(vi);
                        backfilled = true;
                        // The slot at `vi` now holds the next candidate.
                        continue;
                    }
                }
                vi += 1;
            }
            let wait = if self.view.total_free() >= head.num_qubits {
                // Capacity exists but the (strict) policy declined it.
                WaitReason::PolicyHold
            } else if backfilled || self.alive.len() > 1 {
                // The head holds its reservation; jobs behind it are parked
                // under the shadow-time guard.
                WaitReason::BackfillHold
            } else {
                blocked_reason(head, state, &self.view)
            };
            return SchedulingDecision {
                dispatches,
                wait: Some(wait),
            };
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Applies a dispatch to a scratch view: the same arithmetic
/// [`CloudState::reserve`] performs on the qubit ledger, with the zero-span
/// `mean_utilization` fallback at `now = 0`.
fn apply_parts(view: &mut CloudView, parts: &[(DeviceId, u64)], now: f64) {
    for &(dev, amt) in parts {
        let v = &mut view.devices[dev.index()];
        v.free -= amt;
        v.busy_fraction = (v.capacity - v.free) as f64 / v.capacity as f64;
        if now <= 0.0 && v.capacity > 0 {
            v.mean_utilization = 1.0 - v.free as f64 / v.capacity as f64;
        }
    }
}

/// Validates a broker-produced plan against the scratch view, panicking
/// with the broker's name on violation.
fn validate_plan(broker: &dyn Broker, job: &QJob, parts: &[(DeviceId, u64)], view: &CloudView) {
    AllocationPlan::validate_parts(parts, job, view)
        .unwrap_or_else(|e| panic!("broker '{}' produced an invalid plan: {e}", broker.name()));
}

/// Classifies why `job` (the oldest undispatched job) is stuck, blaming an
/// outage when the qubits idle on offline devices would cover the gap.
fn blocked_reason(job: &QJob, state: &CloudState, view: &CloudView) -> WaitReason {
    if view.total_free() < job.num_qubits {
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
    } else {
        WaitReason::PolicyHold
    }
}

/// Registers the projected per-part release events of a just-admitted
/// dispatch: each part's qubits come back at its deterministic hold end,
/// pushed past any maintenance window active on its device at that instant.
fn project_dispatch_releases(
    timeline: &mut CapacityTimeline,
    state: &CloudState,
    calendar: &MaintenanceCalendar,
    job: &QJob,
    parts: &[(DeviceId, u64)],
    now: f64,
) {
    let k = parts.len();
    let max_exec = parts
        .iter()
        .map(|&(d, _)| state.exec_seconds(job, d))
        .fold(0.0f64, f64::max);
    for &(dev, amt) in parts {
        let at = now + state.hold_seconds(job, dev, k, max_exec);
        let at = calendar.next_online_from(dev.index(), at);
        timeline.add_release(at, amt);
    }
}
