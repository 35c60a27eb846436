//! The service harness: open-traffic intake over sharded scheduler loops.
//!
//! One [`qcs_desim::Simulation`] kernel hosts every region shard (each a
//! fleet + shared queue + scheduler coroutine, built by the same
//! `spawn_shard` path the batch environment uses) plus a single
//! [`RouterProc`] that replaces the batch generator: it releases arrivals
//! at their timestamps, routes each to a feasible region, and pushes it
//! through the [`AdmissionPolicy`] before it may join that shard's pending
//! queue. Throttled jobs park in [`ThrottleProc`] backoff coroutines —
//! admission can defer work but never lose it.
//!
//! Termination: shards start with an *open* job total (`usize::MAX`); when
//! the arrival stream is exhausted the router finalises every shard's
//! total to its routed count and wakes all shard schedulers, so each loop
//! can observe "every routed job terminal" and exit. The kernel then
//! drains and the harness tears each shard down exactly like
//! [`crate::simenv::QCloudSimEnv::run`], including the qubit-conservation
//! assertion and the named-stall panic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::SimParams;
use crate::faults::{FaultScript, RetryPolicy};
use crate::job::QJob;
use crate::records::{JobRecord, SummaryStats};
use crate::sched::{Scheduler, RELEASE_SLACK_S};
use crate::simenv::{
    device_utilization, spawn_shard, unwrap_shard_state, RunResult, ShardParts, Shared,
};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, Simulation, Step};

use super::admission::{AdmissionDecision, AdmissionPolicy, AdmissionTelemetry, RejectReason};
use super::latency::{InstrumentedScheduler, LatencySamples, LatencySummary};
use super::router::{RoutingPolicy, ShardLoad};

/// Front-end configuration: intake policy plus shard routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Accept / throttle / reject policy at the intake.
    pub admission: AdmissionPolicy,
    /// How the router spreads traffic over region shards.
    pub routing: RoutingPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionPolicy::open(),
            routing: RoutingPolicy::LeastLoaded,
        }
    }
}

/// What the router needs per shard: queue handle, scheduler pid, and the
/// region's static capacity for the feasibility filter.
#[derive(Clone)]
pub(super) struct RouterShard {
    pub(super) shared: Shared,
    pub(super) scheduler_pid: Arc<AtomicU64>,
    pub(super) total_capacity: u64,
}

impl RouterShard {
    pub(super) fn sched_pid(&self) -> ProcessId {
        ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed))
    }
}

/// What the intake did with a fresh arrival ([`offer_arrival`]).
pub(super) enum ArrivalOutcome {
    /// Entered the shard's pending queue — wake its scheduler.
    Accepted,
    /// Deferred — the caller must park the job for re-offer after
    /// `throttle_delay_s` (a [`ThrottleProc`] on a kernel, a coordinator
    /// heap entry in the parallel backend).
    Throttled(QJob),
    /// Dropped at the door; no wake (the shard's total is still open).
    Rejected,
}

/// Offers one *routed* arrival to its shard's intake: records the arrival,
/// applies the admission policy, and updates queue + telemetry exactly as
/// the sequential [`RouterProc`] always has. Shared by the sequential
/// router, the per-shard intake of the free-running parallel backend, and
/// the epoch coordinator — one copy of the accounting, so the three fronts
/// cannot drift apart.
pub(super) fn offer_arrival(
    shard: &RouterShard,
    admission: &AdmissionPolicy,
    telemetry: &Mutex<AdmissionTelemetry>,
    job: QJob,
) -> ArrivalOutcome {
    let mut st = shard.shared.lock();
    st.records.record_arrival(&job);
    let depth = st.pending.len();
    match admission.decide(depth, 0) {
        AdmissionDecision::Accept => {
            st.pending.push_back(job);
            drop(st);
            telemetry.lock().accepted += 1;
            ArrivalOutcome::Accepted
        }
        AdmissionDecision::Throttle => {
            st.records.record_throttle(job.id);
            st.throttled_inflight += 1;
            drop(st);
            telemetry.lock().throttle_events += 1;
            ArrivalOutcome::Throttled(job)
        }
        AdmissionDecision::Reject(reason) => {
            st.records.record_rejected(job.id);
            drop(st);
            let mut t = telemetry.lock();
            match reason {
                RejectReason::QueueFull => t.rejected_queue_full += 1,
                RejectReason::ThrottledOut => t.rejected_throttled_out += 1,
            }
            ArrivalOutcome::Rejected
        }
    }
}

/// What a throttle re-offer produced ([`offer_throttled`]).
pub(super) enum ReofferOutcome {
    /// Finally admitted — wake the shard's scheduler.
    Accepted,
    /// Still deferred — re-offer again after `throttle_delay_s` with the
    /// attempt counter bumped.
    Again(QJob),
    /// Gave up — wake the shard's scheduler (this rejection may be the
    /// terminal event its loop was waiting on).
    Rejected,
}

/// Re-offers a previously throttled job (attempt `attempts`) to its
/// shard's intake. Counterpart of [`offer_arrival`] for the backoff path;
/// shared by [`ThrottleProc`] and the parallel epoch coordinator.
pub(super) fn offer_throttled(
    shard: &RouterShard,
    admission: &AdmissionPolicy,
    telemetry: &Mutex<AdmissionTelemetry>,
    job: QJob,
    attempts: u32,
) -> ReofferOutcome {
    let mut st = shard.shared.lock();
    let depth = st.pending.len();
    match admission.decide(depth, attempts) {
        AdmissionDecision::Accept => {
            st.throttled_inflight -= 1;
            st.pending.push_back(job);
            drop(st);
            let mut t = telemetry.lock();
            t.accepted += 1;
            t.throttled_then_admitted += 1;
            ReofferOutcome::Accepted
        }
        AdmissionDecision::Throttle => {
            st.records.record_throttle(job.id);
            drop(st);
            telemetry.lock().throttle_events += 1;
            ReofferOutcome::Again(job)
        }
        AdmissionDecision::Reject(reason) => {
            st.throttled_inflight -= 1;
            st.records.record_rejected(job.id);
            drop(st);
            let mut t = telemetry.lock();
            match reason {
                RejectReason::QueueFull => t.rejected_queue_full += 1,
                RejectReason::ThrottledOut => t.rejected_throttled_out += 1,
            }
            ReofferOutcome::Rejected
        }
    }
}

/// The service-mode arrival front end (replaces the batch `Generator`):
/// releases jobs at their arrival times, routes, and admits.
struct RouterProc {
    jobs: Vec<QJob>, // sorted by (arrival, id), consumed front-to-back
    next: usize,
    shards: Vec<RouterShard>,
    admission: AdmissionPolicy,
    routing: RoutingPolicy,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
    routed: Arc<Mutex<Vec<u64>>>,
}

impl Coroutine for RouterProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let now = cx.now();
        let mut wake = vec![false; self.shards.len()];
        while self.next < self.jobs.len()
            && self.jobs[self.next].arrival_time <= now + RELEASE_SLACK_S
        {
            let job = self.jobs[self.next].clone();
            self.next += 1;
            self.telemetry.lock().submitted += 1;
            // Load snapshot under the shard locks, then route.
            let loads: Vec<ShardLoad> = self
                .shards
                .iter()
                .map(|s| {
                    let st = s.shared.lock();
                    ShardLoad {
                        queue_depth: st.pending.len(),
                        free_qubits: st.cloud_state.total_free(),
                        total_capacity: s.total_capacity,
                    }
                })
                .collect();
            let target = self
                .routing
                .route(&job, &loads)
                .expect("harness validated every job against the largest region");
            self.routed.lock()[target] += 1;
            let shard = &self.shards[target];
            match offer_arrival(shard, &self.admission, &self.telemetry, job) {
                ArrivalOutcome::Accepted => wake[target] = true,
                ArrivalOutcome::Throttled(job) => {
                    cx.spawn_after(
                        self.admission.throttle_delay_s,
                        Box::new(ThrottleProc {
                            job: Some(job),
                            shard: shard.clone(),
                            admission: self.admission,
                            attempts: 1,
                            telemetry: self.telemetry.clone(),
                        }),
                    );
                }
                // No wake on rejection: the shard's total is still open, so
                // the rejection cannot complete its termination condition.
                ArrivalOutcome::Rejected => {}
            }
        }
        for (i, w) in wake.iter().enumerate() {
            if *w {
                cx.wake(self.shards[i].sched_pid());
            }
        }
        if self.next < self.jobs.len() {
            Step::Wait(Effect::Timeout(self.jobs[self.next].arrival_time - now))
        } else {
            // Stream exhausted: close every shard's job total and wake all
            // schedulers (in region order — part of the determinism
            // contract) so each loop can re-check termination, including
            // shards that were routed nothing.
            let routed = self.routed.lock();
            for (i, s) in self.shards.iter().enumerate() {
                s.shared.lock().total_jobs = routed[i] as usize;
            }
            let pids: Vec<ProcessId> = self.shards.iter().map(|s| s.sched_pid()).collect();
            cx.wake_many(&pids);
            Step::Done
        }
    }
}

/// Backoff holder for one throttled job: every `throttle_delay_s` it
/// re-offers the job to its shard's intake until the policy returns a
/// final accept or reject. Bounded by `max_throttle_attempts`, so it
/// always terminates.
pub(super) struct ThrottleProc {
    pub(super) job: Option<QJob>,
    pub(super) shard: RouterShard,
    pub(super) admission: AdmissionPolicy,
    pub(super) attempts: u32,
    pub(super) telemetry: Arc<Mutex<AdmissionTelemetry>>,
}

impl Coroutine for ThrottleProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let job = self.job.take().expect("throttle holder lost its job");
        match offer_throttled(
            &self.shard,
            &self.admission,
            &self.telemetry,
            job,
            self.attempts,
        ) {
            ReofferOutcome::Accepted => {
                cx.wake(self.shard.sched_pid());
                Step::Done
            }
            ReofferOutcome::Again(job) => {
                self.attempts += 1;
                self.job = Some(job);
                Step::Wait(Effect::Timeout(self.admission.throttle_delay_s))
            }
            ReofferOutcome::Rejected => {
                // The shard's total may already be final: this rejection
                // could be the last terminal event it was waiting on.
                cx.wake(self.shard.sched_pid());
                Step::Done
            }
        }
    }
}

/// Service-level outputs that exist *outside* sim time: wall-clock
/// decision latency, sustained throughput, intake accounting, routing
/// spread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Decision-latency order statistics pooled over every shard.
    pub decision_latency: LatencySummary,
    /// Per-shard decision-latency summaries (region order).
    pub per_shard_latency: Vec<LatencySummary>,
    /// Intake accounting; `conserves()` holds on every completed run.
    pub admission: AdmissionTelemetry,
    /// Jobs routed to each region (accepted + throttled + rejected).
    pub routed_per_shard: Vec<u64>,
    /// Wall-clock duration of the kernel run (s).
    pub wall_seconds: f64,
    /// Terminal jobs per wall-clock second — the sustained service rate.
    pub sustained_jobs_per_sec: f64,
    /// Final simulation time (s).
    pub sim_seconds: f64,
    /// Kernel events processed across all shards.
    pub events_processed: u64,
    /// Worker threads the backend ran on (`1` for the sequential
    /// single-kernel harness).
    pub worker_threads: usize,
    /// Wall-clock seconds each shard's kernel spent executing, region
    /// order. Empty for the sequential harness: its shards interleave on
    /// one kernel, so per-shard busy time is not attributable.
    pub shard_busy_s: Vec<f64>,
    /// Wall-clock seconds the parallel backend spent merging the per-shard
    /// terminal record streams into the global termination order. `0.0`
    /// for the sequential harness (nothing to merge).
    pub merge_wall_s: f64,
}

/// A completed service run: one [`RunResult`] per region shard plus the
/// service-level report.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Per-shard results (region order). `events_processed` in each is the
    /// *kernel-wide* count — shards share one kernel.
    pub shards: Vec<RunResult>,
    /// Service-level metrics.
    pub report: ServiceReport,
}

impl ServiceOutcome {
    /// All job records across shards, sorted by `(arrival, job id)` — the
    /// global terminal job set.
    pub fn merged_records(&self) -> Vec<JobRecord> {
        let mut all: Vec<JobRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        all.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.job_id.cmp(&b.job_id))
        });
        all
    }

    /// All job records across shards in *termination order*: sorted by
    /// `(sim_time, job_id)` where `sim_time` is the completion time for
    /// finished jobs and the arrival time for jobs that never started
    /// (rejected / retries-exhausted records carry no finish timestamp).
    /// This is the fixed merge order the parallel backend emits, so a
    /// parallel run's merged stream is comparable element-by-element with
    /// a sequential run's regardless of shard count or thread count.
    pub fn merged_by_termination(&self) -> Vec<JobRecord> {
        let key = |r: &JobRecord| {
            if r.finish.is_finite() {
                r.finish
            } else {
                r.arrival
            }
        };
        let mut all: Vec<JobRecord> = self
            .shards
            .iter()
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        all.sort_by(|a, b| key(a).total_cmp(&key(b)).then(a.job_id.cmp(&b.job_id)));
        all
    }

    /// Checks the sharded run produced a *complete* terminal job set for
    /// `submitted`: every submitted job appears in exactly one shard's
    /// records, every record is terminal, and the intake accounting
    /// balances. Qubit conservation per shard is already asserted at
    /// teardown; this adds the cross-shard completeness argument.
    pub fn verify_complete(&self, submitted: &[QJob]) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        let mut terminal = 0usize;
        for (i, s) in self.shards.iter().enumerate() {
            for r in &s.records {
                if !seen.insert(r.job_id) {
                    return Err(format!("job {:?} recorded in two shards", r.job_id));
                }
                if !r.terminal() {
                    return Err(format!("job {:?} left non-terminal in shard {i}", r.job_id));
                }
                terminal += 1;
            }
        }
        if terminal != submitted.len() {
            return Err(format!(
                "{terminal} terminal records for {} submitted jobs",
                submitted.len()
            ));
        }
        for j in submitted {
            if !seen.contains(&j.id) {
                return Err(format!("job {:?} vanished: no shard recorded it", j.id));
            }
        }
        if !self.report.admission.conserves() {
            return Err(format!(
                "admission accounting leaks: {:?}",
                self.report.admission
            ));
        }
        Ok(())
    }
}

/// Tears one shard out of its (possibly shared) kernel after the run:
/// unwraps the shared state, reads device utilisation off the shard's
/// qubit ledger at `t_end`, asserts qubit conservation on fully terminal
/// shards, and assembles the [`RunResult`]. Returns it with the shard's
/// raw decision-latency samples. Shared by the sequential harness and the
/// parallel backend so both produce identically shaped results.
pub(super) fn teardown_shard(
    shard: ShardParts,
    samples: LatencySamples,
    t_end: f64,
    events_processed: u64,
) -> (RunResult, Vec<f64>) {
    let state = unwrap_shard_state(shard.shared);
    let device_utilization = device_utilization(&shard.info, &state.cloud_state, t_end);
    let telemetry = state.telemetry;
    // Drop the scheduler box first: it holds the last other clone of this
    // shard's latency-sample buffer.
    drop(state.scheduler);
    let records = state.records.into_records();
    if records.iter().all(|r| r.terminal()) {
        state.cloud_state.assert_all_released();
    }
    let summary = SummaryStats::from_records(shard.strategy_name, &records);
    let result = RunResult {
        summary,
        records,
        device_utilization,
        events_processed,
        telemetry,
    };
    let Ok(s) = Arc::try_unwrap(samples) else {
        panic!("latency buffer still shared after teardown");
    };
    (result, s.into_inner())
}

/// Drives open traffic through sharded scheduler loops on one kernel.
pub struct ServiceHarness {
    sim: Simulation,
    shards: Vec<ShardParts>,
    latency: Vec<LatencySamples>,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
    routed: Arc<Mutex<Vec<u64>>>,
    params: SimParams,
}

impl ServiceHarness {
    /// Builds the sharded service: one scheduler instance per region (the
    /// factory is called with the region index), a shared kernel seeded
    /// with `seed`, and the router/admission front end from `config`.
    ///
    /// Panics when a job cannot fit *any* region (the trace is not
    /// partitionable — service routing never splits a job across regions)
    /// or when the admission policy is invalid.
    pub fn new(
        regions: Vec<Vec<DeviceProfile>>,
        mut make_scheduler: impl FnMut(usize) -> Box<dyn Scheduler>,
        mut jobs: Vec<QJob>,
        params: SimParams,
        config: ServiceConfig,
        seed: u64,
    ) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        config
            .admission
            .validate()
            .expect("invalid admission policy");
        let mut sim = Simulation::new(seed);
        let mut shards = Vec::with_capacity(regions.len());
        let mut latency = Vec::with_capacity(regions.len());
        for (r, profiles) in regions.into_iter().enumerate() {
            let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
            let scheduler = Box::new(InstrumentedScheduler::new(
                make_scheduler(r),
                samples.clone(),
            ));
            shards.push(spawn_shard(
                &mut sim,
                profiles,
                scheduler,
                &params,
                usize::MAX,
            ));
            latency.push(samples);
        }
        let max_capacity = shards
            .iter()
            .map(|s| s.cloud.total_capacity())
            .max()
            .expect("at least one region");
        crate::jobgen::validate_jobs(&jobs, max_capacity)
            .expect("job list incompatible with every region");
        jobs.sort_by(|a, b| {
            a.arrival_time
                .total_cmp(&b.arrival_time)
                .then(a.id.cmp(&b.id))
        });

        let telemetry = Arc::new(Mutex::new(AdmissionTelemetry::default()));
        let routed = Arc::new(Mutex::new(vec![0u64; shards.len()]));
        sim.spawn(Box::new(RouterProc {
            jobs,
            next: 0,
            shards: shards
                .iter()
                .map(|s| RouterShard {
                    shared: s.shared.clone(),
                    scheduler_pid: s.scheduler_pid.clone(),
                    total_capacity: s.cloud.total_capacity(),
                })
                .collect(),
            admission: config.admission,
            routing: config.routing,
            telemetry: telemetry.clone(),
            routed: routed.clone(),
        }));

        ServiceHarness {
            sim,
            shards,
            latency,
            telemetry,
            routed,
            params,
        }
    }

    /// Arms the same [`FaultScript`] on every region shard: each shard
    /// gets its own resolved [`crate::faults::FaultInjector`] and one
    /// `CrashProc` per scripted outage, exactly as
    /// [`crate::simenv::QCloudSimEnv::install_faults`] arms the batch
    /// environment. Device indices in the script are per-region (the same
    /// outage pattern hits every region), so the script must validate
    /// against the smallest region. Call before [`ServiceHarness::run`];
    /// panics on an invalid script or retry policy.
    pub fn install_faults(&mut self, script: &FaultScript, retry: RetryPolicy) {
        for shard in &self.shards {
            crate::simenv::arm_shard_faults(&mut self.sim, shard, &self.params, script, retry);
        }
    }

    /// Runs the kernel until every shard terminates, then tears down each
    /// shard (conservation asserted per region) and assembles the
    /// [`ServiceReport`].
    pub fn run(mut self) -> ServiceOutcome {
        let wall_start = Instant::now();
        self.sim.run();
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        let t_end = self.sim.now();
        let events_processed = self.sim.events_processed();

        let mut shard_results = Vec::with_capacity(self.shards.len());
        let mut per_shard_latency = Vec::with_capacity(self.shards.len());
        let mut all_samples = Vec::new();
        let mut terminal_total = 0usize;
        for (shard, samples) in self.shards.into_iter().zip(self.latency) {
            let (result, s) = teardown_shard(shard, samples, t_end, events_processed);
            terminal_total += result.records.iter().filter(|r| r.terminal()).count();
            shard_results.push(result);
            per_shard_latency.push(LatencySummary::from_samples(&s));
            all_samples.extend(s);
        }

        let Ok(admission) = Arc::try_unwrap(self.telemetry) else {
            panic!("router still holds its telemetry handle after the run");
        };
        let admission = admission.into_inner();
        let Ok(routed_per_shard) = Arc::try_unwrap(self.routed) else {
            panic!("router still holds its routing counters after the run");
        };
        let routed_per_shard = routed_per_shard.into_inner();
        let report = ServiceReport {
            decision_latency: LatencySummary::from_samples(&all_samples),
            per_shard_latency,
            admission,
            routed_per_shard,
            wall_seconds,
            sustained_jobs_per_sec: if wall_seconds > 0.0 {
                terminal_total as f64 / wall_seconds
            } else {
                0.0
            },
            sim_seconds: t_end,
            events_processed,
            worker_threads: 1,
            shard_busy_s: Vec::new(),
            merge_wall_s: 0.0,
        };
        ServiceOutcome {
            shards: shard_results,
            report,
        }
    }
}
