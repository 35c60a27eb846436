//! EASY backfilling on the queue-aware API.
//!
//! Head-of-line blocking is the FIFO scheduler's dominant cost: a large
//! blocked job idles capacity that smaller queued jobs could use. EASY
//! backfilling (Lifka's "Extensible Argonne Scheduling sYstem" discipline)
//! fixes this without starving the head: the blocked head receives a
//! **reservation** at its earliest possible start (the *shadow time*,
//! computed from the in-flight lease table), and a queued job may jump the
//! queue only when its own deterministic completion returns every borrowed
//! qubit by that shadow time. Under a work-conserving (availability-greedy)
//! policy — `speed`, `fair`, `minfrag`, `hybrid`, `roundrobin`, `random` —
//! this provably never delays the head: it still starts at the shadow time
//! computed when it became blocked (pinned by `tests/scheduler_proptests`).
//! Quality-strict policies (`fidelity`, `hybrid-strict`) wait for *specific*
//! devices the capacity-based shadow cannot see; the head-protection
//! guarantee is then best-effort.
//!
//! The shadow is computed on the shared [`CapacityTimeline`] availability
//! profile, so it is **maintenance-aware**: qubits released on an offline
//! device surface at the window close (not at their raw lease time), and a
//! scheduled future window is a capacity drop the shadow sees coming. For
//! every-queued-job protection (not just the head), see
//! [`super::ConservativeBackfillScheduler`].

use std::sync::{Arc, Mutex};

use super::fifo::{apply_parts, blocked_reason, validate_plan};
use super::timeline::{project_dispatch_releases, CapacityTimeline};
use super::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::{JobId, QJob};

/// One head-protection guarantee issued while the head was blocked: the
/// head will start no later than `shadow` (for work-conserving policies).
/// Recorded via [`BackfillScheduler::with_guarantee_log`] for invariant
/// testing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadGuarantee {
    /// The blocked head job.
    pub head: JobId,
    /// When the guarantee was computed.
    pub decided_at: f64,
    /// The head's earliest-start bound (`f64::INFINITY` when the head is
    /// unsatisfiable until external state changes, e.g. maintenance ends —
    /// no reservation binds then).
    pub shadow: f64,
}

/// Shared log of issued guarantees (test instrumentation).
pub type GuaranteeLog = Arc<Mutex<Vec<HeadGuarantee>>>;

/// How many queued jobs behind the head are considered per decision.
const CANDIDATE_LIMIT: usize = 64;

/// EASY backfilling over any [`Broker`] policy; see the module docs.
pub struct BackfillScheduler {
    broker: Box<dyn Broker>,
    name: String,
    view: CloudView,
    /// Scratch: queue slots not yet dispatched in the current batch.
    alive: Vec<u32>,
    /// Persistent timeline over the state's incrementally maintained
    /// availability profile; EASY keeps no standing bookings, so only the
    /// per-decision overlay is used.
    timeline: CapacityTimeline,
    guarantees: Option<GuaranteeLog>,
}

impl BackfillScheduler {
    /// Wraps `broker` with EASY backfilling over the whole queue (candidate
    /// scan capped at 64 jobs behind the head).
    pub fn new(broker: Box<dyn Broker>) -> Self {
        let name = format!("backfill+{}", broker.name());
        BackfillScheduler {
            broker,
            name,
            view: CloudView {
                devices: Vec::new(),
            },
            alive: Vec::new(),
            timeline: CapacityTimeline::new(),
            guarantees: None,
        }
    }

    /// Records every issued [`HeadGuarantee`] into `log` (testing hook).
    pub fn with_guarantee_log(mut self, log: GuaranteeLog) -> Self {
        self.guarantees = Some(log);
        self
    }
}

impl Scheduler for BackfillScheduler {
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
            if let Some(log) = &self.guarantees {
                log.lock().unwrap().push(HeadGuarantee {
                    head: head.id,
                    decided_at: now,
                    shadow,
                });
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::device::DeviceId;
    use crate::job::JobId;
    use crate::policies::SpeedBroker;
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

    fn job(id: u64, q: u64, shots: u64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: shots,
            two_qubit_gates: 500,
            arrival_time: 0.0,
        }
    }

    #[test]
    fn backfills_short_job_behind_blocked_head() {
        let mut st = state(&[127, 127]);
        // A long-running job holds device 0 entirely.
        let holder = job(0, 127, 100_000);
        st.reserve(&holder, &[(DeviceId(0), 127)], 0.0);
        let off = crate::maintenance::OfflineFlags::new(2);
        st.refresh(0.0, &off);

        // Head needs both devices (blocked until the holder releases); a
        // tiny quick job behind it fits device 1 and finishes long before.
        let head = job(1, 200, 50_000);
        let quick = job(2, 30, 1_000);
        let mut s = BackfillScheduler::new(Box::new(SpeedBroker::new()));
        let d = s.decide(&[head, quick], &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.dispatches[0].queue_index, 1);
        assert_eq!(d.wait, Some(WaitReason::BackfillHold));
    }

    #[test]
    fn refuses_backfill_that_would_delay_head() {
        let mut st = state(&[127, 127]);
        let holder = job(0, 127, 20_000);
        st.reserve(&holder, &[(DeviceId(0), 127)], 0.0);
        let off = crate::maintenance::OfflineFlags::new(2);
        st.refresh(0.0, &off);

        // The candidate runs far longer than the holder: dispatching it
        // would push the head past its shadow time.
        let head = job(1, 200, 50_000);
        let slow = job(2, 30, 100_000);
        let log: GuaranteeLog = Default::default();
        let mut s =
            BackfillScheduler::new(Box::new(SpeedBroker::new())).with_guarantee_log(log.clone());
        let d = s.decide(&[head, slow], &st);
        assert!(d.dispatches.is_empty(), "slow candidate must not backfill");
        let g = log.lock().unwrap();
        assert_eq!(g.len(), 1);
        assert!(g[0].shadow.is_finite());
        assert_eq!(g[0].head, JobId(1));
    }

    #[test]
    fn dispatches_head_directly_when_it_fits() {
        let st = state(&[127, 127, 127, 127, 127]);
        let mut s = BackfillScheduler::new(Box::new(SpeedBroker::new()));
        let d = s.decide(&[job(0, 190, 50_000), job(1, 190, 50_000)], &st);
        assert_eq!(d.dispatches.len(), 2);
        assert!(d.dispatches.iter().all(|x| x.queue_index == 0));
        assert_eq!(d.wait, Some(WaitReason::QueueDrained));
    }

    #[test]
    fn name_composes() {
        let s = BackfillScheduler::new(Box::new(SpeedBroker::new()));
        assert_eq!(s.name(), "backfill+speed");
    }
}
