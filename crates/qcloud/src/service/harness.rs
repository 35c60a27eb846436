//! The service engine: open-traffic intake over sharded scheduler loops.
//!
//! Every region shard (a fleet + shared queue + scheduler coroutine, built
//! by the same `spawn_shard` path the batch environment uses) runs on a
//! [`qcs_desim::Simulation`] kernel next to a [`RouterProc`] that replaces
//! the batch generator: it releases arrivals at their timestamps, routes
//! each to a feasible region, and pushes it through the [`AdmissionPolicy`]
//! before it may join that shard's pending queue. Throttled jobs park in
//! [`ThrottleProc`] backoff coroutines — admission can defer work but never
//! lose it. The routing policy decides whether the shards share one kernel
//! or each get their own (the module docs' "Kernel layout").
//!
//! Termination: shards start with an *open* job total (`usize::MAX`); when
//! an intake's stream is exhausted it finalises its shards' totals to their
//! routed counts and wakes their schedulers, so each loop can observe
//! "every routed job terminal" and exit. The kernels then drain and the
//! engine tears each shard down exactly like
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
    arm_shard_faults, device_utilization, spawn_shard, unwrap_shard_state, RunResult, ShardParts,
    Shared,
};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, Simulation, Step};

use super::admission::{AdmissionDecision, AdmissionPolicy, AdmissionTelemetry};
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

/// What the intake needs per shard: queue handle, scheduler pid, and the
/// region's static capacity for the feasibility filter.
#[derive(Clone)]
struct RouterShard {
    shared: Shared,
    scheduler_pid: Arc<AtomicU64>,
    total_capacity: u64,
}

impl RouterShard {
    fn sched_pid(&self) -> ProcessId {
        ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed))
    }
}

/// The service-mode arrival front end (replaces the batch `Generator`):
/// releases its jobs at their arrival times, routes and admits them.
///
/// On the shared kernel it serves every shard and routes each arrival
/// against live shard loads. On a shard's own kernel it serves that shard
/// alone: its jobs were routed up front, and it resumes only at their
/// arrivals.
struct RouterProc {
    jobs: Arc<Vec<QJob>>, // the whole stream, sorted by (arrival, id)
    mine: Vec<usize>,     // indices into `jobs` this intake releases, in order
    next: usize,          // position in `mine`
    shards: Vec<RouterShard>,
    routed: Vec<usize>, // jobs routed to each of `shards`
    wake: Vec<bool>,    // per-resume scratch: shards that admitted a job
    admission: AdmissionPolicy,
    routing: RoutingPolicy,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
}

impl RouterProc {
    /// Routes `job` against a load snapshot taken under the shard locks.
    fn route_live(&self, job: &QJob) -> usize {
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
        self.routing
            .route(job, &loads)
            .expect("harness validated every job against the largest region")
    }
}

impl Coroutine for RouterProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let now = cx.now();
        while let Some(&i) = self.mine.get(self.next) {
            if self.jobs[i].arrival_time > now + RELEASE_SLACK_S {
                break;
            }
            self.next += 1;
            let job = self.jobs[i].clone();
            // A kernel with one shard has nothing left to choose.
            let target = if self.shards.len() == 1 {
                0
            } else {
                self.route_live(&job)
            };
            self.routed[target] += 1;
            let shard = &self.shards[target];
            let mut st = shard.shared.lock();
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
                AdmissionDecision::Reject(_) => st.records.record_rejected(job.id),
            }
            drop(st);
            self.telemetry.lock().count(0, verdict);
        }
        for (s, w) in self.shards.iter().zip(&mut self.wake) {
            if std::mem::take(w) {
                cx.wake(s.sched_pid());
            }
        }
        if let Some(&i) = self.mine.get(self.next) {
            Step::Wait(Effect::Timeout(self.jobs[i].arrival_time - now))
        } else {
            // Stream exhausted: close every served shard's job total and
            // wake their schedulers (in region order — part of the
            // determinism contract) so each loop can re-check termination,
            // including a shard that was routed nothing.
            for (s, &n) in self.shards.iter().zip(&self.routed) {
                s.shared.lock().total_jobs = n;
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
struct ThrottleProc {
    job: Option<QJob>,
    shard: RouterShard,
    admission: AdmissionPolicy,
    attempts: u32,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
}

impl Coroutine for ThrottleProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let job = self.job.take().expect("throttle holder lost its job");
        let mut st = self.shard.shared.lock();
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
        drop(st);
        self.telemetry.lock().count(self.attempts, verdict);
        if self.job.is_some() {
            self.attempts += 1;
            return Step::Wait(Effect::Timeout(self.admission.throttle_delay_s));
        }
        // Admitted, or rejected for good — and with the shard's total
        // already final, that rejection may be the terminal event its loop
        // was waiting on. Either way the scheduler must look.
        cx.wake(self.shard.sched_pid());
        Step::Done
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

/// The kernel hosting shard `shard` when there are `kernels` of them: its
/// own, or kernel 0 when all shards share it.
fn kernel_of(shard: usize, kernels: usize) -> usize {
    if kernels == 1 {
        0
    } else {
        shard
    }
}

/// One worker's share of the kernels: runs each to completion and returns
/// it with its index and the wall seconds it took.
fn run_kernels(kernels: Vec<(usize, Simulation)>) -> Vec<(usize, Simulation, f64)> {
    kernels
        .into_iter()
        .map(|(k, mut sim)| {
            let t0 = Instant::now();
            sim.run();
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
    kernels: Vec<Simulation>,
    shards: Vec<ShardParts>,
    latency: Vec<LatencySamples>,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
    params: SimParams,
    threads: usize,
}

impl ParallelServiceHarness {
    /// Builds the sharded service: one scheduler instance per region (the
    /// factory is called with the region index), kernels seeded with
    /// `seed`, and the router/admission front end from `config`. `threads`
    /// is the worker-thread count (clamped to `[1, kernels]` at run time).
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
        threads: usize,
    ) -> Self {
        assert!(!regions.is_empty(), "need at least one region");
        config
            .admission
            .validate()
            .expect("invalid admission policy");
        let shared_kernel = config.routing.needs_load_feedback();
        let mut kernels = Vec::new();
        let mut shards = Vec::with_capacity(regions.len());
        let mut latency = Vec::with_capacity(regions.len());
        for (r, profiles) in regions.into_iter().enumerate() {
            // The seed only feeds the kernel RNG, which no service
            // coroutine draws from, so per-shard kernels cannot entangle.
            if r == 0 || !shared_kernel {
                kernels.push(Simulation::new(seed));
            }
            let sim = kernels
                .last_mut()
                .expect("a kernel per shard or one shared");
            let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
            let scheduler = Box::new(InstrumentedScheduler::new(
                make_scheduler(r),
                samples.clone(),
            ));
            shards.push(spawn_shard(sim, profiles, scheduler, &params, usize::MAX));
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

        let router_shards: Vec<RouterShard> = shards
            .iter()
            .map(|s| RouterShard {
                shared: s.shared.clone(),
                scheduler_pid: s.scheduler_pid.clone(),
                total_capacity: s.cloud.total_capacity(),
            })
            .collect();
        // One intake per kernel, each with the jobs it releases: the shared
        // kernel's router takes the whole stream and routes on arrival; a
        // shard's own intake takes its share, routed here against the
        // static fleet shape — all a stateless policy ever reads.
        let intakes: Vec<(Vec<RouterShard>, Vec<usize>)> = if shared_kernel {
            vec![(router_shards, (0..jobs.len()).collect())]
        } else {
            let loads: Vec<ShardLoad> = router_shards
                .iter()
                .map(|s| ShardLoad {
                    queue_depth: 0,
                    free_qubits: s.total_capacity,
                    total_capacity: s.total_capacity,
                })
                .collect();
            let mut mine = vec![Vec::new(); router_shards.len()];
            for (i, job) in jobs.iter().enumerate() {
                let r = config
                    .routing
                    .route(job, &loads)
                    .expect("harness validated every job against the largest region");
                mine[r].push(i);
            }
            router_shards
                .into_iter()
                .map(|s| vec![s])
                .zip(mine)
                .collect()
        };
        let jobs = Arc::new(jobs);
        let telemetry = Arc::new(Mutex::new(AdmissionTelemetry::default()));
        for (sim, (shards, mine)) in kernels.iter_mut().zip(intakes) {
            sim.spawn(Box::new(RouterProc {
                jobs: jobs.clone(),
                mine,
                next: 0,
                routed: vec![0; shards.len()],
                wake: vec![false; shards.len()],
                shards,
                admission: config.admission,
                routing: config.routing,
                telemetry: telemetry.clone(),
            }));
        }

        ParallelServiceHarness {
            kernels,
            shards,
            latency,
            telemetry,
            params,
            threads,
        }
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
        let kernels = self.kernels.len();
        for (i, shard) in self.shards.iter().enumerate() {
            let sim = &mut self.kernels[kernel_of(i, kernels)];
            arm_shard_faults(sim, shard, &self.params, script, retry);
        }
    }

    /// Runs every kernel until all shards terminate, then tears down each
    /// shard (conservation asserted per region) and assembles the
    /// [`ServiceReport`].
    pub fn run(self) -> ServiceOutcome {
        let nkernels = self.kernels.len();
        let threads = self.threads.clamp(1, nkernels);
        let wall_start = Instant::now();
        let mut bundles: Vec<Vec<(usize, Simulation)>> = (0..threads).map(|_| Vec::new()).collect();
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

        let nshards = self.shards.len();
        let mut shard_results = Vec::with_capacity(nshards);
        let mut per_shard_latency = Vec::with_capacity(nshards);
        let mut routed_per_shard = Vec::with_capacity(nshards);
        let mut all_samples = Vec::new();
        let mut terminal_total = 0usize;
        for (i, (shard, samples)) in self.shards.into_iter().zip(self.latency).enumerate() {
            let state = unwrap_shard_state(shard.shared);
            let device_utilization = device_utilization(&shard.info, &state.cloud_state, t_end);
            // Drop the scheduler box first: it holds the last other clone
            // of this shard's latency-sample buffer.
            drop(state.scheduler);
            let records = state.records.into_records();
            if records.iter().all(|r| r.terminal()) {
                state.cloud_state.assert_all_released();
            }
            let Ok(samples) = Arc::try_unwrap(samples) else {
                panic!("latency buffer still shared after teardown");
            };
            let samples = samples.into_inner();
            terminal_total += records.iter().filter(|r| r.terminal()).count();
            // Every routed job has exactly one record, rejected ones too.
            routed_per_shard.push(records.len() as u64);
            per_shard_latency.push(LatencySummary::from_samples(&samples));
            all_samples.extend(samples);
            shard_results.push(RunResult {
                summary: SummaryStats::from_records(shard.strategy_name, &records),
                records,
                device_utilization,
                events_processed: ran[kernel_of(i, nkernels)].1.events_processed(),
                telemetry: state.telemetry,
            });
        }

        let Ok(admission) = Arc::try_unwrap(self.telemetry) else {
            panic!("intake still holds its telemetry handle after the run");
        };
        let report = ServiceReport {
            decision_latency: LatencySummary::from_samples(&all_samples),
            per_shard_latency,
            admission: admission.into_inner(),
            routed_per_shard,
            wall_seconds,
            sustained_jobs_per_sec: if wall_seconds > 0.0 {
                terminal_total as f64 / wall_seconds
            } else {
                0.0
            },
            sim_seconds: t_end,
            events_processed: ran.iter().map(|(_, sim, _)| sim.events_processed()).sum(),
            worker_threads: threads,
            shard_busy_s: if nkernels == nshards {
                ran.iter().map(|(_, _, busy)| *busy).collect()
            } else {
                Vec::new()
            },
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
