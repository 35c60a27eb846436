//! Conservative backfilling: a start reservation for **every** queued job.
//!
//! EASY backfilling ([`super::BackfillScheduler`]) protects only the
//! blocked head — a backfill may legally delay any *other* queued job, and
//! on adversarial traces repeatedly does (starvation of mid-queue jobs).
//! Conservative backfilling closes that hole: every decision walks the
//! pending queue in FIFO order and books each job a start reservation on
//! the shared [`CapacityTimeline`] availability profile (lease returns,
//! scheduled maintenance windows, and all earlier-queued jobs' reservations
//! included). A job is admitted **now** only when its own reserved start
//! *is* now — i.e. when running it cannot delay the promised start of any
//! job ahead of it in the queue, because those promises were already
//! carved out of the profile it was planned against.
//!
//! Bookings are **persistent** across decisions and compressed
//! one-at-a-time (Mu'alem & Feitelson's conservative discipline): on every
//! consult each queued job's booking is lifted out of the profile and
//! re-slotted at its earliest feasible start *while every other job's
//! booking stays in force*. A recomputed start can therefore only move
//! earlier — capacity never vanishes from the projection (leases and
//! maintenance are deterministic; a real dispatch occupies a sub-interval
//! of its booking, which used the pessimistic
//! [`CloudState::worst_hold_seconds`] duration) and no job can be
//! re-slotted on top of a standing promise. Naïve full recomputation in
//! queue order lacks this property: an early completion can slide a big
//! job's reservation left *into* a window a later job was promised,
//! breaking the later promise — the proptest suite caught exactly that.
//!
//! Under a work-conserving policy every job therefore starts no later than
//! every reservation ever issued for it (pinned by
//! `tests/scheduler_proptests`); quality-strict policies (`fidelity`,
//! `hybrid-strict`) hold out for specific devices the capacity profile
//! cannot see, so their promises are best-effort — exactly the EASY
//! caveat.
//!
//! **Failures amend the invariant.** "Only moves earlier" assumes capacity
//! never vanishes from the projection — true on fault-free traces, false
//! the instant an unplanned crash ([`crate::faults`]) yanks a device out
//! from under a standing promise. Repair is automatic and needs no special
//! casing here: a crashed device is offline with no maintenance window, so
//! [`CloudState::refresh`] drops it from the incrementally maintained
//! availability profile on the next consult; standing bookings against the
//! shrunken profile may drive the projection negative (the timeline is
//! signed and assert-free by design), and a booking that no longer fits
//! anywhere re-slots at
//! `f64::INFINITY` — i.e. stays parked until capacity returns. Two weaker
//! invariants survive, both proptest-pinned in `tests/chaos_proptests`:
//! promises issued with **no failure event between decision and start**
//! still hold, and no reservation ever targets an offline device (the
//! profile simply cannot see one).
//!
//! With at most one waiting job there is nothing to protect and nothing to
//! jump: on maintenance-free traces the discipline degenerates to EASY's
//! dispatch stream bit for bit (also proptest-pinned).

use std::sync::{Arc, Mutex};

use super::fifo::{apply_parts, blocked_reason, first_placeable, validate_plan};
use super::timeline::{project_dispatch_releases, CapacityTimeline};
use super::{CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::{JobId, QJob};

/// One start reservation issued while planning the queue: the job will
/// start no later than `reserved_start` (for work-conserving policies).
/// Recorded via [`ConservativeBackfillScheduler::with_reservation_log`]
/// for invariant testing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartReservation {
    /// The queued job the promise was issued for.
    pub job: JobId,
    /// When the reservation was computed.
    pub decided_at: f64,
    /// The promised latest start (`f64::INFINITY` when the job is
    /// unsatisfiable in every projected future state — no promise binds).
    pub reserved_start: f64,
}

/// Shared log of issued reservations (test instrumentation).
pub type ReservationLog = Arc<Mutex<Vec<StartReservation>>>;

/// A standing start reservation carried across decisions.
#[derive(Debug, Clone, Copy)]
struct Booking {
    job: JobId,
    start: f64,
    end: f64,
    qubits: u64,
}

/// Conservative backfilling over any [`Broker`] policy; see the module
/// docs.
pub struct ConservativeBackfillScheduler {
    broker: Box<dyn Broker>,
    name: String,
    view: CloudView,
    /// Scratch: queue slots not yet dispatched in the current batch.
    alive: Vec<u32>,
    /// Persistent timeline whose booking ledger mirrors `bookings`: a
    /// booked interval stays in force across decisions until the job is
    /// dispatched (lifted at admission) or time folds it away, so a decide
    /// no longer replays every standing booking from scratch.
    timeline: CapacityTimeline,
    /// Standing bookings, re-compressed (one at a time) every decision.
    bookings: Vec<Booking>,
    /// How many queued jobs are re-slotted per decision (compression
    /// horizon; jobs beyond it keep their standing booking untouched and
    /// stay protected, but cannot be admitted this round).
    lookahead: usize,
    reservations: Option<ReservationLog>,
}

impl ConservativeBackfillScheduler {
    /// Wraps `broker` with conservative backfilling (reservation horizon
    /// of 64 queued jobs per decision).
    pub fn new(broker: Box<dyn Broker>) -> Self {
        let name = format!("conservative+{}", broker.name());
        ConservativeBackfillScheduler {
            broker,
            name,
            view: CloudView {
                devices: Vec::new(),
            },
            alive: Vec::new(),
            timeline: CapacityTimeline::new(),
            bookings: Vec::new(),
            lookahead: 64,
            reservations: None,
        }
    }

    /// Caps how many queued jobs are re-slotted per decision.
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead.max(1);
        self
    }

    /// Records every issued [`StartReservation`] into `log` (testing
    /// hook).
    pub fn with_reservation_log(mut self, log: ReservationLog) -> Self {
        self.reservations = Some(log);
        self
    }
}

impl Scheduler for ConservativeBackfillScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let now = state.now();
        state.copy_view_into(&mut self.view);
        self.alive.clear();
        self.alive.extend(0..queue.len() as u32);
        let profile = state.profile();
        self.timeline.begin_decide(now);
        let calendar = state.maintenance();
        let mut dispatches = Vec::new();
        let mut backfilled = false;

        // The ledger already holds every standing booking: a job's booking
        // is removed exactly when it leaves the pending queue (admission
        // lifts it before dispatch), so no sweep against the queue is
        // needed — compression below lifts bookings out one at a time.
        debug_assert!(
            self.bookings
                .iter()
                .all(|b| queue.iter().any(|j| j.id == b.job)),
            "standing booking for a job not in the pending queue"
        );

        // One FIFO-ordered compression-and-admission pass. `vi` indexes
        // `alive` (positions not yet dispatched this batch); dispatching
        // keeps `vi` in place because removal shifts the next job into the
        // slot.
        let mut vi = 0usize;
        let mut planned = 0usize;
        // Whether the oldest undispatched job was held back by the
        // reservation timeline even though its broker could place it (an
        // upcoming window or a standing booking its run would collide
        // with) — a backfill-discipline hold, not a policy decision.
        let mut head_timeline_parked = false;
        while vi < self.alive.len() && planned < self.lookahead {
            planned += 1;
            let job = &queue[self.alive[vi] as usize];
            let booked = self.bookings.iter().position(|b| b.job == job.id);
            // Lift this job's own booking out and re-slot it against
            // everything else still in force: the new start can only move
            // earlier (its old slot is still free), so no standing promise
            // ever degrades.
            if let Some(bi) = booked {
                let b = self.bookings[bi];
                self.timeline
                    .unreserve_interval(b.start.max(now), b.end, b.qubits);
            }
            let dur = state.worst_hold_seconds(job);
            let start = self.timeline.earliest_slot(profile, job.num_qubits, dur);
            let admissible = start <= now;
            // The head of the residual queue is probed unconditionally
            // (exactly EASY's head consult, keeping stateful brokers in
            // lock-step with the other disciplines); later jobs only once
            // the profile promises them an immediate, delay-free start.
            let plan = if admissible || vi == 0 {
                self.broker.select(job, &self.view)
            } else {
                AllocationPlan::Wait
            };
            if admissible {
                if let AllocationPlan::Dispatch(parts) = plan {
                    validate_plan(&*self.broker, job, &parts, &self.view);
                    if let Some(bi) = booked {
                        self.bookings.swap_remove(bi);
                    }
                    self.timeline.withdraw_now(job.num_qubits);
                    project_dispatch_releases(
                        &mut self.timeline,
                        state,
                        calendar,
                        job,
                        &parts,
                        now,
                    );
                    apply_parts(&mut self.view, &parts, now);
                    if vi > 0 {
                        backfilled = true;
                    }
                    dispatches.push(Dispatch {
                        queue_index: vi,
                        parts,
                    });
                    self.alive.remove(vi);
                    continue;
                }
            }
            // Not admitted: book (or re-book) the promise so everything
            // behind it plans around it.
            if vi == 0 && !admissible && matches!(plan, AllocationPlan::Dispatch(_)) {
                head_timeline_parked = true;
            }
            if let Some(log) = &self.reservations {
                log.lock().unwrap().push(StartReservation {
                    job: job.id,
                    decided_at: now,
                    reserved_start: start,
                });
            }
            if start.is_finite() {
                let end = start + dur;
                self.timeline.reserve_interval(start, end, job.num_qubits);
                let booking = Booking {
                    job: job.id,
                    start,
                    end,
                    qubits: job.num_qubits,
                };
                match booked {
                    Some(bi) => self.bookings[bi] = booking,
                    None => self.bookings.push(booking),
                }
            } else if let Some(bi) = booked {
                // Unsatisfiable in every *currently* projected state
                // (offline capacity, possibly a one-decide blind spot at a
                // window edge): no new promise binds, but the standing
                // booking is kept in force — dropping it would let a
                // backfill admitted this round collide with a finite
                // promise already issued for this job.
                let b = self.bookings[bi];
                self.timeline
                    .reserve_interval(b.start.max(now), b.end, b.qubits);
            }
            vi += 1;
        }

        // Liveness: with nothing dispatched, no lease in flight and no
        // maintenance edge ahead, no lease release or window edge will wake
        // this scheduler again. One-at-a-time compression can still leave
        // the head booked at such an unreachable instant (strict policies
        // declining capacity, failed attempts re-queued behind it), so a
        // hold here could strand the queue on an idle fleet. Dispatch the
        // oldest job the broker places instead and lift its booking — the
        // rule `RlSchedScheduler`'s idle-fleet fallback applies.
        if dispatches.is_empty()
            && state.leases().is_empty()
            && calendar.windows().iter().all(|w| w.end() <= now)
        {
            if let Some(d) = first_placeable(&mut *self.broker, queue, &self.view) {
                let job = &queue[d.queue_index];
                validate_plan(&*self.broker, job, &d.parts, &self.view);
                if let Some(bi) = self.bookings.iter().position(|b| b.job == job.id) {
                    let b = self.bookings.swap_remove(bi);
                    self.timeline
                        .unreserve_interval(b.start.max(now), b.end, b.qubits);
                }
                return SchedulingDecision {
                    dispatches: vec![d],
                    wait: None,
                };
            }
        }

        let wait = if self.alive.is_empty() {
            WaitReason::QueueDrained
        } else {
            let first = &queue[self.alive[0] as usize];
            if head_timeline_parked {
                // The broker could place the head *now*, but the timeline
                // parked it (its run would cross a scheduled window or a
                // standing promise): a reservation hold, not the policy's.
                WaitReason::BackfillHold
            } else if self.view.total_free() >= first.num_qubits {
                // Capacity exists but the (strict) policy declined it.
                WaitReason::PolicyHold
            } else if backfilled || self.alive.len() > 1 {
                // Reservations are in force; jobs are parked under the
                // no-delay guard.
                WaitReason::BackfillHold
            } else {
                blocked_reason(first, state, &self.view)
            }
        };
        SchedulingDecision {
            dispatches,
            wait: Some(wait),
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
    use crate::maintenance::MaintenanceWindow;
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

    fn refreshed(mut st: CloudState, n: usize) -> CloudState {
        let off = crate::maintenance::OfflineFlags::new(n);
        st.refresh(0.0, &off);
        st
    }

    #[test]
    fn backfills_short_job_that_delays_nobody() {
        let mut st = state(&[127, 127]);
        let holder = job(0, 127, 100_000);
        st.reserve(&holder, &[(DeviceId(0), 127)], 0.0);
        let st = refreshed(st, 2);

        // Head spans the fleet (blocked); the tiny job fits device 1 and
        // finishes long before the holder returns — nobody's promise moves.
        let head = job(1, 200, 50_000);
        let quick = job(2, 30, 1_000);
        let mut s = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()));
        let d = s.decide(&[head, quick], &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(d.dispatches[0].queue_index, 1);
        assert_eq!(d.wait, Some(WaitReason::BackfillHold));
    }

    #[test]
    fn refuses_backfill_that_would_delay_a_reservation() {
        let mut st = state(&[127, 127]);
        let holder = job(0, 127, 20_000);
        st.reserve(&holder, &[(DeviceId(0), 127)], 0.0);
        let st = refreshed(st, 2);

        // The slow candidate holds 60 qubits far past the head's reserved
        // start, where only 54 would be spare: admitting it would delay
        // the promise, so conservative refuses. (A *smaller* long job —
        // ≤ 54 qubits — would be admitted: the interval reservation is
        // sharper than EASY's complete-before-shadow rule.)
        let head = job(1, 200, 50_000);
        let slow = job(2, 60, 100_000);
        let log: ReservationLog = Default::default();
        let mut s = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()))
            .with_reservation_log(log.clone());
        let d = s.decide(&[head, slow], &st);
        assert!(d.dispatches.is_empty(), "slow candidate must not backfill");
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2, "both queued jobs get reservations");
        assert_eq!(log[0].job, JobId(1));
        assert!(log[0].reserved_start.is_finite());
        assert!(
            log[1].reserved_start >= log[0].reserved_start,
            "the job behind must be planned after the head's promise"
        );
    }

    #[test]
    fn protects_second_queued_job_where_easy_would_not() {
        // Two devices; holder0 keeps device 0 busy until t_h ≈ 636 s,
        // holder1 keeps 80 of device 1 until t_s ≈ 67 s. Queue: J1 spans
        // the fleet (promised t_h), J2 needs 120 (promised t_s, the
        // instant holder1 returns), J3 is small but long — it fits the 47
        // free qubits *now*, and finishes well before J1's shadow, but it
        // would still be running at t_s and push J2 past its promise.
        // EASY (head-only protection) admits J3; conservative must not.
        let build = || {
            let mut st = state(&[127, 127]);
            let holder0 = job(0, 127, 200_000);
            st.reserve(&holder0, &[(DeviceId(0), 127)], 0.0);
            let holder1 = job(9, 80, 20_000);
            st.reserve(&holder1, &[(DeviceId(1), 80)], 0.0);
            refreshed(st, 2)
        };
        let j1 = job(1, 254, 20_000);
        let j2 = job(2, 120, 10_000);
        let j3 = job(3, 40, 50_000);
        let queue = [j1, j2, j3];

        let log: ReservationLog = Default::default();
        let mut cons = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()))
            .with_reservation_log(log.clone());
        let d = cons.decide(&queue, &build());
        assert!(
            d.dispatches.is_empty(),
            "j3 would delay j2's reserved start and must be refused: {:?}",
            d.dispatches
        );
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3);
        assert!(
            log[2].reserved_start > log[1].reserved_start,
            "j3 is planned after the promise it must not break"
        );

        // The same state under EASY: only the head is protected, so the
        // long small job jumps the queue — the starvation hole this
        // discipline closes.
        let mut easy = crate::sched::BackfillScheduler::new(Box::new(SpeedBroker::new()));
        let d = easy.decide(&queue, &build());
        assert_eq!(d.dispatches.len(), 1, "EASY admits the delaying job");
        assert_eq!(d.dispatches[0].queue_index, 2);
    }

    #[test]
    fn dispatches_whole_queue_when_everything_fits() {
        let st = refreshed(state(&[127, 127, 127, 127, 127]), 5);
        let mut s = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()));
        let d = s.decide(&[job(0, 190, 50_000), job(1, 190, 50_000)], &st);
        assert_eq!(d.dispatches.len(), 2);
        assert!(d.dispatches.iter().all(|x| x.queue_index == 0));
        assert_eq!(d.wait, Some(WaitReason::QueueDrained));
    }

    #[test]
    fn reservations_avoid_scheduled_maintenance() {
        // Whole fleet free, but a window takes device 1 offline at t = 5
        // for 1000 s. The fleet-spanning head cannot hold its qubits
        // through the window's free-capacity cliff, so its promise lands
        // at the window close and it is *not* admitted now — while the
        // small, short job behind it fits entirely before the window's
        // effect on its demand and backfills immediately.
        let mut st = state(&[127, 127]);
        st.add_maintenance_window(MaintenanceWindow {
            device: 1,
            start: 5.0,
            duration: 1_000.0,
        });
        let st = refreshed(st, 2);
        let big = job(0, 200, 50_000);
        let small = job(1, 100, 10_000);
        let log: ReservationLog = Default::default();
        let mut s = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()))
            .with_reservation_log(log.clone());
        let d = s.decide(&[big.clone(), small], &st);
        assert_eq!(d.dispatches.len(), 1);
        assert_eq!(
            d.dispatches[0].queue_index, 1,
            "the small job backfills around the parked fleet-spanner"
        );
        let promises = log.lock().unwrap();
        assert_eq!(promises[0].job, JobId(0));
        assert_eq!(
            promises[0].reserved_start, 1_005.0,
            "the fleet-spanner is promised the window close"
        );
        drop(promises);

        // As a *queued* (non-head) job, the same fleet-spanning demand is
        // also planned past the window.
        let st2 = {
            let mut st = state(&[127, 127]);
            st.add_maintenance_window(MaintenanceWindow {
                device: 1,
                start: 5.0,
                duration: 1_000.0,
            });
            let holder = job(9, 127, 100_000);
            st.reserve(&holder, &[(DeviceId(0), 127)], 0.0);
            refreshed(st, 2)
        };
        let log2: ReservationLog = Default::default();
        let mut s2 = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()))
            .with_reservation_log(log2.clone());
        let head = job(1, 254, 20_000);
        let d2 = s2.decide(&[head, big], &st2);
        assert!(d2.dispatches.is_empty());
        let log2 = log2.lock().unwrap();
        assert_eq!(log2.len(), 2);
        assert!(
            log2[1].reserved_start >= 1_005.0,
            "queued fleet-spanner must be planned past the window: {}",
            log2[1].reserved_start
        );
    }

    #[test]
    fn name_composes() {
        let s = ConservativeBackfillScheduler::new(Box::new(SpeedBroker::new()));
        assert_eq!(s.name(), "conservative+speed");
    }
}
