//! The service engine: open-traffic intake over sharded scheduler loops.
//!
//! Every region shard (a fleet, queue, ledger and scheduler coroutine,
//! built by the same `spawn_shard` path the batch environment uses) lives
//! in the world of a [`qcs_desim::Simulation`] kernel, next to a
//! [`RouterProc`]: it releases arrivals at their timestamps, routes each to
//! a feasible region, and pushes it through the [`AdmissionPolicy`] before
//! it may join that shard's pending queue. The batch environment feeds its
//! one shard through the same coroutine, with admission open. Throttled
//! jobs park in [`ThrottleProc`] backoff coroutines — admission can defer
//! work but never lose it. The routing policy decides whether the shards
//! share one kernel or each get their own (the module docs' "Kernel
//! layout").
//!
//! Termination: shards start with an *open* job total (`usize::MAX`); when
//! an intake's stream is exhausted it finalises its shards' totals to their
//! routed counts and wakes their schedulers, so each loop can observe
//! "every routed job terminal" and exit. The kernels then drain, each
//! checks its shards for a parked scheduler on the thread that ran it, and
//! the engine tears each shard down exactly like
//! [`crate::simenv::QCloudSimEnv::run`], including the qubit-conservation
//! assertion.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::config::SimParams;
use crate::faults::{FaultScript, RetryPolicy};
use crate::job::QJob;
use crate::records::JobRecord;
use crate::sched::{Scheduler, RELEASE_SLACK_S};
use crate::simenv::{
    arm_faults, finish_shard, run_settled, spawn_shard, wake_scheduler, RunResult, SchedState,
    World,
};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, LogHistogram, Simulation, Step};

use super::admission::{AdmissionDecision, AdmissionPolicy, AdmissionTelemetry};
use super::latency::LatencySummary;
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

/// The arrival front end of every kernel: releases its jobs at their
/// arrival times, routes and admits them into the shards of its kernel's
/// world.
///
/// On the shared kernel it serves every shard and routes each arrival
/// against live shard loads. On a shard's own kernel it serves that shard
/// alone: its jobs were routed up front, and it resumes only at their
/// arrivals. The batch environment's intake is [`RouterProc::open`].
pub(crate) struct RouterProc {
    jobs: Arc<Vec<QJob>>,  // the whole stream, sorted by (arrival, id)
    mine: Vec<usize>,      // indices into `jobs` this intake releases, in order
    next: usize,           // position in `mine`
    routed: Vec<usize>,    // jobs routed to each shard of the world
    wake: Vec<bool>,       // per-resume scratch: shards that admitted a job
    loads: Vec<ShardLoad>, // per-arrival scratch: the shards' live loads
    admission: AdmissionPolicy,
    routing: RoutingPolicy,
}

impl RouterProc {
    /// The intake of a one-shard world that admits everything: `jobs`
    /// (sorted by arrival, then id) all go to shard 0, so nothing is
    /// refused and the routing policy is never read.
    pub(crate) fn open(jobs: Vec<QJob>) -> Self {
        RouterProc {
            mine: (0..jobs.len()).collect(),
            jobs: Arc::new(jobs),
            next: 0,
            routed: vec![0],
            wake: vec![false],
            loads: Vec::new(),
            admission: AdmissionPolicy::open(),
            routing: RoutingPolicy::LeastLoaded,
        }
    }

    /// Routes `job` against the shards' live loads.
    fn route_live(&mut self, job: &QJob, shards: &[SchedState]) -> usize {
        self.loads.clear();
        self.loads.extend(shards.iter().map(|st| ShardLoad {
            queue_depth: st.pending.len(),
            free_qubits: st.cloud_state.total_free(),
            total_capacity: st.cloud.total_capacity(),
        }));
        self.routing
            .route(job, &self.loads)
            .expect("harness validated every job against the largest region")
    }
}

impl Coroutine<World> for RouterProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let now = cx.now();
        if self.next == 0 {
            if let [st] = &mut cx.world.shards[..] {
                // A one-shard world records exactly the jobs this intake
                // releases, so its store is sized once, before the first
                // release. Sizing it here, on the thread that runs the
                // kernel, allocates it where it is filled: sized on the
                // caller's thread, it cost the caller's next set-up page
                // faults.
                st.records.reserve(self.mine.len());
            }
        }
        while let Some(&i) = self.mine.get(self.next) {
            if self.jobs[i].arrival_time > now + RELEASE_SLACK_S {
                break;
            }
            self.next += 1;
            let job = self.jobs[i].clone();
            let shards = &mut cx.world.shards;
            // A kernel with one shard has nothing left to choose.
            let target = if shards.len() == 1 {
                0
            } else {
                self.route_live(&job, shards)
            };
            self.routed[target] += 1;
            let st = &mut shards[target];
            st.records.record_arrival(&job);
            let verdict = self.admission.decide(st.pending.len(), 0);
            match verdict {
                AdmissionDecision::Accept => {
                    st.pending.push_back(job);
                    self.wake[target] = true;
                }
                AdmissionDecision::Throttle => {
                    st.records.record_throttle(job.id);
                    st.throttled_inflight += 1;
                    cx.kernel.spawn_after(
                        self.admission.throttle_delay_s,
                        Box::new(ThrottleProc {
                            job: Some(job),
                            shard: target,
                            admission: self.admission,
                            attempts: 1,
                        }),
                    );
                }
                // No wake on rejection: the shard's total is still open, so
                // the rejection cannot complete its termination condition.
                AdmissionDecision::Reject(_) => st.records.record_rejected(job.id),
            }
            cx.world.admission.count(0, verdict);
        }
        for (shard, w) in self.wake.iter_mut().enumerate() {
            if std::mem::take(w) {
                wake_scheduler(cx, shard);
            }
        }
        if let Some(&i) = self.mine.get(self.next) {
            Step::Wait(Effect::Timeout(self.jobs[i].arrival_time - now))
        } else {
            // Stream exhausted: close every served shard's job total and
            // wake its scheduler (in region order — part of the
            // determinism contract) so each loop can re-check termination,
            // including a shard that was routed nothing.
            for (shard, &n) in self.routed.iter().enumerate() {
                cx.world.shards[shard].total_jobs = n;
                wake_scheduler(cx, shard);
            }
            Step::Done
        }
    }
}

/// Backoff holder for one throttled job: every `throttle_delay_s` it
/// re-offers the job to its shard's intake until the policy returns a
/// final accept or reject. Bounded by `max_throttle_attempts`, so it
/// always terminates.
struct ThrottleProc {
    job: Option<QJob>,
    shard: usize,
    admission: AdmissionPolicy,
    attempts: u32,
}

impl Coroutine<World> for ThrottleProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let job = self.job.take().expect("throttle holder lost its job");
        let st = &mut cx.world.shards[self.shard];
        let verdict = self.admission.decide(st.pending.len(), self.attempts);
        match verdict {
            AdmissionDecision::Accept => {
                st.throttled_inflight -= 1;
                st.pending.push_back(job);
            }
            AdmissionDecision::Throttle => {
                st.records.record_throttle(job.id);
                self.job = Some(job);
            }
            AdmissionDecision::Reject(_) => {
                st.throttled_inflight -= 1;
                st.records.record_rejected(job.id);
            }
        }
        cx.world.admission.count(self.attempts, verdict);
        if self.job.is_some() {
            self.attempts += 1;
            return Step::Wait(Effect::Timeout(self.admission.throttle_delay_s));
        }
        // Admitted, or rejected for good — and with the shard's total
        // already final, that rejection may be the terminal event its loop
        // was waiting on. Either way the scheduler must look.
        wake_scheduler(cx, self.shard);
        Step::Done
    }
}

/// Service-level outputs that exist *outside* sim time: wall-clock
/// decision latency, sustained throughput, intake accounting, routing
/// spread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Decision-latency order statistics pooled over every shard's timed
    /// sample (one `decide` in 16; the exact counts are the shards'
    /// `telemetry.decisions`).
    pub decision_latency: LatencySummary,
    /// Per-shard decision-latency summaries of the same sample (region
    /// order).
    pub per_shard_latency: Vec<LatencySummary>,
    /// Intake accounting; `conserves()` holds on every completed run.
    pub admission: AdmissionTelemetry,
    /// Jobs routed to each region (accepted + throttled + rejected).
    pub routed_per_shard: Vec<u64>,
    /// Wall-clock duration of the kernel runs (s).
    pub wall_seconds: f64,
    /// Terminal jobs per wall-clock second — the sustained service rate.
    pub sustained_jobs_per_sec: f64,
    /// Final simulation time (s): the latest kernel's last event.
    pub sim_seconds: f64,
    /// Kernel events processed, summed over the kernels. The same at every
    /// thread count.
    pub events_processed: u64,
    /// Worker threads the kernels ran on: `min(threads, kernels)`, so `1`
    /// whenever the shards share one kernel.
    pub worker_threads: usize,
    /// Wall-clock seconds each shard's kernel spent executing, region
    /// order. Empty when the shards share one kernel: they interleave on
    /// it, so per-shard busy time is not attributable.
    pub shard_busy_s: Vec<f64>,
    /// Always `0.0`: each shard's records stay in its own
    /// [`RunResult`], so a run merges nothing. Kept so readers of the
    /// report still compile; [`ServiceOutcome::merged_by_termination`]
    /// merges on demand.
    pub merge_wall_s: f64,
}

/// A completed service run: one [`RunResult`] per region shard plus the
/// service-level report.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Per-shard results (region order). `events_processed` in each is the
    /// count of the kernel the shard ran on — the shared kernel's total
    /// when shards share one.
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
    /// The order depends on no shard or thread count, so two runs' merged
    /// streams compare element by element.
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

/// One worker's share of the kernels: runs each to completion, checks its
/// shards for a parked scheduler, and returns it with its index and the
/// wall seconds it took.
fn run_kernels(kernels: Vec<(usize, Simulation<World>)>) -> Vec<(usize, Simulation<World>, f64)> {
    kernels
        .into_iter()
        .map(|(k, mut sim)| {
            let t0 = Instant::now();
            run_settled(&mut sim);
            (k, sim, t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// The service engine: drives open traffic through region shards and
/// produces a [`ServiceOutcome`].
///
/// Under load-fed routing ([`RoutingPolicy::needs_load_feedback`]) every
/// shard and the router share one kernel. Otherwise the stream is routed
/// up front and every shard gets a kernel of its own with its own intake;
/// the kernels run on `min(threads, regions)` scoped threads, kernel `k`
/// on worker `k % threads`. The layout never depends on `threads`, so
/// neither does any result: only the wall clock moves.
pub struct ParallelServiceHarness {
    kernels: Vec<Simulation<World>>,
    threads: usize,
}

impl ParallelServiceHarness {
    /// Builds the sharded service: one scheduler instance per region (the
    /// factory is called with the region index) and the router/admission
    /// front end from `config`. `threads` is the worker-thread count
    /// (clamped to `[1, kernels]` at run time). `seed` is unused: the
    /// simulation draws no randomness of its own.
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
        _seed: u64,
        threads: usize,
    ) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        config
            .admission
            .validate()
            .expect("invalid admission policy");
        let shared_kernel = config.routing.needs_load_feedback();
        let mut kernels = Vec::new();
        for (r, profiles) in regions.into_iter().enumerate() {
            if r == 0 || !shared_kernel {
                kernels.push(Simulation::new(World::default()));
            }
            let sim = kernels
                .last_mut()
                .expect("a kernel per shard or one shared");
            spawn_shard(sim, profiles, make_scheduler(r), &params, usize::MAX);
            let shard = sim.world_mut().shards.last_mut().expect("just spawned");
            shard.decide_latency = Some(LogHistogram::new());
        }
        // Region order: the shared kernel's world holds every shard in
        // order, and otherwise kernel `r` holds region `r`.
        let capacities: Vec<u64> = kernels
            .iter()
            .flat_map(|sim| &sim.world().shards)
            .map(|st| st.cloud.total_capacity())
            .collect();
        let max_capacity = *capacities.iter().max().expect("at least one region");
        crate::jobgen::validate_jobs(&jobs, max_capacity)
            .expect("job list incompatible with every region");
        jobs.sort_by(|a, b| {
            a.arrival_time
                .total_cmp(&b.arrival_time)
                .then(a.id.cmp(&b.id))
        });

        // One intake per kernel, each with the jobs it releases: the shared
        // kernel's router takes the whole stream and routes on arrival; a
        // shard's own intake takes its share, routed here against the
        // static fleet shape — all a stateless policy ever reads.
        let intakes: Vec<Vec<usize>> = if shared_kernel {
            vec![(0..jobs.len()).collect()]
        } else {
            let loads: Vec<ShardLoad> = capacities
                .iter()
                .map(|&c| ShardLoad {
                    queue_depth: 0,
                    free_qubits: c,
                    total_capacity: c,
                })
                .collect();
            let mut mine = vec![Vec::new(); loads.len()];
            for (i, job) in jobs.iter().enumerate() {
                let r = config
                    .routing
                    .route(job, &loads)
                    .expect("harness validated every job against the largest region");
                mine[r].push(i);
            }
            mine
        };
        let jobs = Arc::new(jobs);
        for (sim, mine) in kernels.iter_mut().zip(intakes) {
            let n = sim.world().shards.len();
            sim.spawn(Box::new(RouterProc {
                jobs: jobs.clone(),
                mine,
                next: 0,
                routed: vec![0; n],
                wake: vec![false; n],
                loads: Vec::new(),
                admission: config.admission,
                routing: config.routing,
            }));
        }

        ParallelServiceHarness { kernels, threads }
    }

    /// Arms the same [`FaultScript`] on every region shard: each shard
    /// gets its own resolved [`crate::faults::FaultInjector`] and one
    /// `CrashProc` per scripted outage on its kernel, exactly as
    /// [`crate::simenv::QCloudSimEnv::install_faults`] arms the batch
    /// environment. Device indices in the script are per-region (the same
    /// outage pattern hits every region), so the script must validate
    /// against the smallest region. Call before `run`; panics on an invalid
    /// script or retry policy.
    pub fn install_faults(&mut self, script: &FaultScript, retry: RetryPolicy) {
        for sim in &mut self.kernels {
            for shard in 0..sim.world().shards.len() {
                arm_faults(sim, shard, script, retry);
            }
        }
    }

    /// Runs every kernel until all shards terminate, then tears down each
    /// shard (conservation asserted per region) and assembles the
    /// [`ServiceReport`].
    pub fn run(self) -> ServiceOutcome {
        let nkernels = self.kernels.len();
        let nshards: usize = self.kernels.iter().map(|s| s.world().shards.len()).sum();
        let threads = self.threads.clamp(1, nkernels);
        let wall_start = Instant::now();
        let mut bundles: Vec<Vec<(usize, Simulation<World>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (k, sim) in self.kernels.into_iter().enumerate() {
            bundles[k % threads].push((k, sim));
        }
        // Worker 0 is the calling thread; a worker's panic resurfaces here
        // with its own message.
        let mut ran = std::thread::scope(|scope| {
            let mut bundles = bundles.into_iter();
            let own = bundles.next().expect("at least one worker");
            let workers: Vec<_> = bundles
                .map(|b| scope.spawn(move || run_kernels(b)))
                .collect();
            let mut ran = run_kernels(own);
            for w in workers {
                ran.extend(w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            ran
        });
        let wall_seconds = wall_start.elapsed().as_secs_f64();
        ran.sort_by_key(|(k, _, _)| *k);
        let t_end = ran
            .iter()
            .map(|(_, sim, _)| sim.now())
            .fold(0.0f64, f64::max);

        let events_processed = ran.iter().map(|(_, sim, _)| sim.events_processed()).sum();
        let shard_busy_s = if nkernels == nshards {
            ran.iter().map(|(_, _, busy)| *busy).collect()
        } else {
            Vec::new()
        };
        let mut shard_results = Vec::with_capacity(nshards);
        let mut per_shard_latency = Vec::with_capacity(nshards);
        let mut pooled_latency = LogHistogram::new();
        let mut admission = AdmissionTelemetry::default();
        for (_, sim, _) in ran {
            let events = sim.events_processed();
            let world = sim.into_world();
            admission.absorb(&world.admission);
            for mut st in world.shards {
                let latency = st
                    .decide_latency
                    .take()
                    .expect("service shards time their decides");
                per_shard_latency.push(LatencySummary::from_histogram(&latency));
                pooled_latency.merge(&latency);
                shard_results.push(finish_shard(st, t_end, events));
            }
        }
        let terminal_total: usize = shard_results
            .iter()
            .map(|r| r.records.iter().filter(|r| r.terminal()).count())
            .sum();
        // Every routed job has exactly one record, rejected ones too.
        let routed_per_shard = shard_results
            .iter()
            .map(|r| r.records.len() as u64)
            .collect();

        let report = ServiceReport {
            decision_latency: LatencySummary::from_histogram(&pooled_latency),
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
            worker_threads: threads,
            shard_busy_s,
            merge_wall_s: 0.0,
        };
        ServiceOutcome {
            shards: shard_results,
            report,
        }
    }
}

/// The service engine on one worker thread: forwards to
/// [`ParallelServiceHarness`], whose results are the same at every thread
/// count.
pub struct ServiceHarness(ParallelServiceHarness);

impl ServiceHarness {
    /// [`ParallelServiceHarness::new`] with `threads = 1`.
    pub fn new(
        regions: Vec<Vec<DeviceProfile>>,
        make_scheduler: impl FnMut(usize) -> Box<dyn Scheduler>,
        jobs: Vec<QJob>,
        params: SimParams,
        config: ServiceConfig,
        seed: u64,
    ) -> Self {
        ServiceHarness(ParallelServiceHarness::new(
            regions,
            make_scheduler,
            jobs,
            params,
            config,
            seed,
            1,
        ))
    }

    /// See [`ParallelServiceHarness::install_faults`].
    pub fn install_faults(&mut self, script: &FaultScript, retry: RetryPolicy) {
        self.0.install_faults(script, retry);
    }

    /// See [`ParallelServiceHarness::run`].
    pub fn run(self) -> ServiceOutcome {
        self.0.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobDistribution;

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn repeated_job_id_fails_at_construction() {
        let mut jobs = crate::jobgen::batch_at_zero(6, &JobDistribution::default(), 3);
        jobs[4].id = jobs[1].id;
        let config = ServiceConfig {
            admission: AdmissionPolicy::open(),
            routing: RoutingPolicy::Hash,
        };
        let _ = ParallelServiceHarness::new(
            qcs_calibration::regional_fleet(2, 3),
            |_| crate::policies::scheduler_by_name("speed", 3, 1).unwrap(),
            jobs,
            SimParams::default(),
            config,
            3,
            2,
        );
    }
}
