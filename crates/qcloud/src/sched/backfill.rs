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
//!
//! **Cost.** The broker sees only the jobs that fit the free qubits: the
//! head and the candidates alike, because no plan that passes
//! [`AllocationPlan::validate_parts`] places more qubits than are free.
//! The one exception is a head under a broker that
//! [draws even then](Broker::draws_when_unplaceable) (`random`): the FIFO
//! discipline consults its head whether or not it fits, so EASY does too,
//! and the two stay on one RNG stream when no job can jump the queue. Of
//! the candidates, the broker sees only those that could also return by
//! the shadow. A candidate passes that test unless `now + bound > shadow`,
//! where `bound` is the [`PlacementBound`] of its demand on the scratch
//! view. *Lemma:* order the devices with free qubits fastest first
//! (`qv_layers / clops` ascending), let `T` be the longest prefix whose
//! free qubits sum to less than the demand, and evaluate Eq. 3 at the
//! smallest `qv_layers` and the largest `clops` among the devices after
//! `T`; then every valid plan has a part on a device after `T` (its parts
//! inside `T` hold fewer qubits than the demand), and that part executes
//! for at least `bound`, because Eq. 3's float operations are monotone in
//! both columns. The part's return time adds the `AtJobEnd` hold (a
//! non-negative communication delay) and
//! [`MaintenanceCalendar::next_online_from`], which never moves a time
//! earlier, so `now + bound > shadow` implies the `done > shadow` that
//! planning the candidate would have found. Both rules are exact for every
//! broker. Only the stateful ones notice the bound: neither `random`'s RNG
//! stream nor `roundrobin`'s rotation cursor advances on a candidate it
//! rules out. The head guard changes no broker's state: `roundrobin` moves
//! its cursor only when it plans a dispatch. A ruled-out candidate still
//! counts toward the 64-candidate window.
//!
//! The rest of a decision is sized to what it reads. The undispatched queue
//! slots are materialised lazily, so a decision reads the head, at most 64
//! candidates and the slots dispatched jobs vacate, whatever the queue
//! depth; the free-qubit total is a running count; the head's shadow is
//! taken when a candidate first needs it (at once when a guarantee log is
//! attached); and the bound's table is built on first need and rebuilt
//! after each backfilled dispatch.
//!
//! [`MaintenanceCalendar::next_online_from`]:
//! crate::maintenance::MaintenanceCalendar::next_online_from

use std::sync::{Arc, Mutex};

use super::fifo::{apply_parts, blocked_reason, validate_plan};
use super::timeline::{project_dispatch_releases, CapacityTimeline};
use super::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use crate::broker::{AllocationPlan, Broker, CloudView, DeviceView};
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

/// A lower bound on the slowest part's Eq. 3 execution time of every valid
/// placement on a view (the lemma in the module docs).
///
/// [`PlacementBound::build`] tabulates a view; [`PlacementBound::exec_seconds`]
/// then answers per job in `O(log devices)`. The fastest-first device order
/// reads only the static `qv_layers` and `clops` columns, so it is sorted
/// once per fleet, as [`crate::broker::StaticOrder`] sorts the policies'
/// orders.
#[derive(Debug, Clone, Default)]
pub struct PlacementBound {
    /// Device positions by `qv_layers / clops` ascending (fastest first),
    /// ties by position.
    order: Vec<u32>,
    /// The `(qv_layers, clops)` bits of the fleet `order` was sorted on.
    sorted_on: Vec<(u64, u64)>,
    /// Per device with free qubits, in `order`: the free qubits of it and
    /// of every device before it.
    reach: Vec<u64>,
    /// Per device with free qubits, in `order`: the smallest `qv_layers`
    /// and the largest `clops` of it and of every device after it.
    fastest_after: Vec<(f64, f64)>,
}

impl PlacementBound {
    /// An empty bound; [`PlacementBound::build`] it before asking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tabulates `view`'s free qubits, re-sorting the device order only
    /// when its static columns changed since the last build.
    pub fn build(&mut self, view: &CloudView) {
        let columns = |d: &DeviceView| (d.qv_layers.to_bits(), d.clops.to_bits());
        let unchanged = self.sorted_on.len() == view.devices.len()
            && self
                .sorted_on
                .iter()
                .zip(&view.devices)
                .all(|(&seen, d)| seen == columns(d));
        if !unchanged {
            self.sorted_on.clear();
            self.sorted_on.extend(view.devices.iter().map(columns));
            let key = |p: &u32| {
                let d = &view.devices[*p as usize];
                d.qv_layers / d.clops
            };
            self.order.clear();
            self.order.extend(0..view.devices.len() as u32);
            // Stable, so ties stay in position order.
            self.order.sort_by(|a, b| key(a).total_cmp(&key(b)));
        }
        self.reach.clear();
        self.fastest_after.clear();
        let mut reach = 0;
        for &p in &self.order {
            let d = &view.devices[p as usize];
            if d.free > 0 {
                reach += d.free;
                self.reach.push(reach);
                self.fastest_after.push((d.qv_layers, d.clops));
            }
        }
        let mut fastest = (f64::INFINITY, 0.0f64);
        for c in self.fastest_after.iter_mut().rev() {
            fastest = (fastest.0.min(c.0), fastest.1.max(c.1));
            *c = fastest;
        }
    }

    /// The bound for `job` on the last built view: no plan that passes
    /// [`AllocationPlan::validate_parts`] there has a slowest part faster
    /// than this. `None` when the view's free qubits cannot hold the job
    /// (no plan is valid).
    pub fn exec_seconds(&self, state: &CloudState, job: &QJob) -> Option<f64> {
        let after = self.reach.partition_point(|&r| r < job.num_qubits);
        let &(qv_layers, clops) = self.fastest_after.get(after)?;
        Some(state.exec_seconds_at(job, qv_layers, clops))
    }
}

/// EASY backfilling over any [`Broker`] policy; see the module docs.
pub struct BackfillScheduler {
    broker: Box<dyn Broker>,
    name: String,
    view: CloudView,
    /// Scratch: the first queue slots not yet dispatched in the current
    /// batch, in queue order, materialised only as the scan reaches them.
    alive: Vec<u32>,
    /// Persistent timeline over the state's incrementally maintained
    /// availability profile; EASY keeps no standing bookings, so only the
    /// per-decision overlay is used.
    timeline: CapacityTimeline,
    /// Rules out candidates that cannot return by the shadow.
    bound: PlacementBound,
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
            bound: PlacementBound::new(),
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
        // `alive[i]` is the queue slot at residual position `i`; every slot
        // from `next_fresh` on is undispatched and not yet materialised.
        self.alive.clear();
        let mut next_fresh = 0u32;
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
        // The view's free qubits, less every dispatch of this decision.
        let mut free = self.view.total_free();

        loop {
            if dispatches.len() == queue.len() {
                return SchedulingDecision {
                    dispatches,
                    wait: Some(WaitReason::QueueDrained),
                };
            }
            if self.alive.is_empty() {
                self.alive.push(next_fresh);
                next_fresh += 1;
            }
            let head = &queue[self.alive[0] as usize];
            // The candidates' rule: no broker can place a head the free
            // qubits cannot hold, so it is not asked, unless asking moves
            // the broker's state (`random`, which FIFO asks too).
            let plan = if free >= head.num_qubits || self.broker.draws_when_unplaceable() {
                self.broker.select(head, &self.view)
            } else {
                AllocationPlan::Wait
            };
            if let AllocationPlan::Dispatch(parts) = plan {
                validate_plan(&*self.broker, head, &parts, &self.view);
                self.timeline.withdraw_now(head.num_qubits);
                project_dispatch_releases(&mut self.timeline, state, calendar, head, &parts, now);
                apply_parts(&mut self.view, &parts, now);
                dispatches.push(Dispatch {
                    queue_index: 0,
                    parts,
                });
                free -= head.num_qubits;
                self.alive.remove(0);
                continue;
            }

            // Head blocked: compute its reservation and backfill behind it.
            // The shadow waits for the first candidate that needs it, unless
            // a guarantee log wants it now.
            let mut shadow = None;
            if let Some(log) = &self.guarantees {
                let at = self.timeline.earliest_fit(profile, head.num_qubits);
                shadow = Some(at);
                log.lock()
                    .expect("a guarantee-log writer panicked")
                    .push(HeadGuarantee {
                        head: head.id,
                        decided_at: now,
                        shadow: at,
                    });
            }
            let mut bound_built = false;
            let mut vi = 1;
            let mut examined = 0usize;
            while vi < queue.len() - dispatches.len() && examined < CANDIDATE_LIMIT {
                examined += 1;
                if vi == self.alive.len() {
                    self.alive.push(next_fresh);
                    next_fresh += 1;
                }
                let cand = &queue[self.alive[vi] as usize];
                // No broker can place a job the fleet lacks free qubits
                // for; skipping the consult keeps stateful policies (the
                // `random` RNG) in lock-step with non-backfilling
                // disciplines when no opportunity exists.
                if free < cand.num_qubits {
                    vi += 1;
                    continue;
                }
                let shadow = *shadow
                    .get_or_insert_with(|| self.timeline.earliest_fit(profile, head.num_qubits));
                if !bound_built {
                    self.bound.build(&self.view);
                    bound_built = true;
                }
                // No plan of this candidate can return by the shadow (the
                // lemma in the module docs): skip planning it.
                let bound = self
                    .bound
                    .exec_seconds(state, cand)
                    .expect("the free qubits hold the candidate");
                if now + bound > shadow {
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
                        free -= cand.num_qubits;
                        bound_built = false;
                        self.alive.remove(vi);
                        backfilled = true;
                        // The slot at `vi` now holds the next candidate.
                        continue;
                    }
                }
                vi += 1;
            }
            let wait = if free >= head.num_qubits {
                // Capacity exists but the (strict) policy declined it.
                WaitReason::PolicyHold
            } else if backfilled || queue.len() - dispatches.len() > 1 {
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

    /// The one behaviour change of the bound: under `random`, a candidate
    /// it rules out is no longer shuffled for, so the broker's stream stays
    /// where it is after the head's consult.
    #[test]
    fn ruled_out_candidate_leaves_the_random_stream_untouched() {
        let mut st = state(&[127, 127, 127, 127, 127]);
        // A lease in flight blocks the head until it returns at ≈ 64 s.
        st.reserve(&job(0, 127, 20_000), &[(DeviceId(0), 127)], 0.0);
        let off = crate::maintenance::OfflineFlags::new(5);
        st.refresh(0.0, &off);
        // The candidate fits the free qubits but runs ≥ 333 s wherever it
        // is placed.
        let blocked = [job(1, 600, 50_000), job(2, 30, 100_000)];
        let head = &blocked[..1];
        let fits = [job(3, 30, 1_000)];
        let picks = |s: &mut BackfillScheduler| -> Vec<SchedulingDecision> {
            (0..16).map(|_| s.decide(&fits, &st)).collect()
        };
        let random = || Box::new(crate::policies::RandomBroker::new(5));
        let mut asked = BackfillScheduler::new(random());
        let d = asked.decide(&blocked, &st);
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::BackfillHold));
        let mut head_only = BackfillScheduler::new(random());
        head_only.decide(head, &st);
        assert_eq!(picks(&mut asked), picks(&mut head_only));
        // The stream does show in the picks: one shuffle more shifts them.
        let mut shifted = BackfillScheduler::new(random());
        shifted.decide(head, &st);
        shifted.broker.select(&blocked[1], st.view());
        let mut head_only = BackfillScheduler::new(random());
        head_only.decide(head, &st);
        assert_ne!(picks(&mut shifted), picks(&mut head_only));
    }

    /// A broker that must not be asked.
    struct Unasked;

    impl Broker for Unasked {
        fn select(&mut self, job: &QJob, _: &CloudView) -> AllocationPlan {
            panic!("asked about job {}", job.id.0)
        }

        fn name(&self) -> &str {
            "unasked"
        }
    }

    /// A state whose 508 free qubits cannot hold a 600-qubit head.
    fn blocking_state() -> CloudState {
        let mut st = state(&[127, 127, 127, 127, 127]);
        st.reserve(&job(0, 127, 20_000), &[(DeviceId(0), 127)], 0.0);
        let off = crate::maintenance::OfflineFlags::new(5);
        st.refresh(0.0, &off);
        st
    }

    /// The head guard: no broker can place a head the free qubits cannot
    /// hold, so one that does not draw on every consult is not asked, and
    /// the wait is the one the unplaced head always gave.
    #[test]
    fn blocked_head_is_not_planned() {
        let mut s = BackfillScheduler::new(Box::new(Unasked));
        let d = s.decide(&[job(1, 600, 50_000)], &blocking_state());
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::InsufficientCapacity));
    }

    /// `random` shuffles on every consult, so the guard leaves it alone:
    /// after a decision that only waits for the head, its stream is one
    /// shuffle on, as under the FIFO discipline that asks for every head.
    #[test]
    fn blocked_head_still_draws_from_the_random_stream() {
        let st = blocking_state();
        let blocked = [job(1, 600, 50_000)];
        let fits = [job(2, 30, 1_000)];
        let picks = |s: &mut BackfillScheduler| -> Vec<SchedulingDecision> {
            (0..16).map(|_| s.decide(&fits, &st)).collect()
        };
        let random = || Box::new(crate::policies::RandomBroker::new(5));
        let mut asked = BackfillScheduler::new(random());
        assert!(asked.decide(&blocked, &st).dispatches.is_empty());
        let mut shuffled_once = BackfillScheduler::new(random());
        shuffled_once.broker.select(&blocked[0], st.view());
        assert_eq!(picks(&mut asked), picks(&mut shuffled_once));
        // The stream does show in the picks: a fresh one differs.
        let mut shuffled_once = BackfillScheduler::new(random());
        shuffled_once.broker.select(&blocked[0], st.view());
        assert_ne!(
            picks(&mut shuffled_once),
            picks(&mut BackfillScheduler::new(random()))
        );
    }

    #[test]
    fn name_composes() {
        let s = BackfillScheduler::new(Box::new(SpeedBroker::new()));
        assert_eq!(s.name(), "backfill+speed");
    }
}
