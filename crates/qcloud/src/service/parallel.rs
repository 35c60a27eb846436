//! The parallel sharded service backend: one desim kernel **per region
//! shard**, each running on a dedicated OS worker thread, bit-identical
//! to the sequential [`ServiceHarness`](super::ServiceHarness).
//!
//! # Execution modes
//!
//! The backend picks one of two synchronization regimes from the routing
//! policy ([`RoutingPolicy::needs_load_feedback`]):
//!
//! * **Free-running** (hash / affinity routing). Placement is a pure
//!   function of the job and the static fleet shape, so the arrival
//!   stream is partitioned up front and every shard kernel gets its own
//!   [`ShardIntakeProc`] — a single-shard replica of the sequential
//!   router front end that walks the *global* arrival schedule (so its
//!   resume-clock chain is float-for-float the sequential router's) but
//!   admits only the jobs routed to its shard. Shards then run to
//!   completion with **zero** cross-thread synchronization — this is the
//!   mode that buys wall-clock scaling.
//!
//! * **Epoch lock-step** (least-loaded routing). Placement reads live
//!   queue depths, so every routing instant is an epoch boundary: the
//!   coordinator (on the calling thread) keeps the router's event heap —
//!   arrival batches and throttle-retry timers, ordered by `(SimTime,
//!   seq)` exactly as the kernel orders events — and before acting at
//!   time `t` it barriers every shard kernel with
//!   [`Simulation::run_epoch`]`(t)`. With all workers parked at the
//!   barrier, the coordinator reads the barrier-synced load snapshots,
//!   mutates shard queues through the same [`offer_arrival`] /
//!   [`offer_throttled`] helpers the sequential router uses, and issues
//!   wakes that the shard kernel stamps at exactly `t` (that is what
//!   `run_epoch`'s clock-pinning contract exists for).
//!
//! # Determinism argument (why parallel ≡ sequential, bit for bit)
//!
//! The sequential kernel orders events by `(time, seq)` where `seq` is
//! creation order. Three facts carry the proof over:
//!
//! 1. *Shard isolation.* Every coroutine of shard `k` touches only shard
//!    `k`'s state; the kernel RNG is untouched by service coroutines. So
//!    any schedule that preserves each shard's internal event order and
//!    feeds it the same intake actions at the same sim times replays the
//!    same trajectory.
//! 2. *Front-end ordering.* In the sequential kernel every intake event
//!    at time `t` (router batch, throttle retry) was created strictly
//!    before `t`, while a wake it issues resumes the scheduler at `t`
//!    with a strictly larger `seq` — so *all* intake actions at `t`
//!    happen before any shard reaction at `t`. The epoch coordinator
//!    replays intake actions at `t` while shards are barrier-parked at
//!    `t`, which is the same order; the free-running intake replica is a
//!    coroutine in the shard kernel with the sequential spawn position
//!    (scheduler first, intake second, fault procs last), so its local
//!    `(time, seq)` order coincides with the sequential relative order.
//! 3. *Clock-chain fidelity.* Resume clocks are produced by the same
//!    `SimTime::after` float arithmetic in both backends: the intake
//!    replica re-arms through every global arrival (even ones routed
//!    elsewhere) and the coordinator advances a `SimTime` with the very
//!    expressions the kernel would evaluate, so every timestamp —
//!    `record_start`, throttle deadlines, retry backoffs — matches to
//!    the last ulp.
//!
//! The one caveat: an *exact* float tie between a shard-internal event
//! (e.g. a job completion or a scripted crash) and an intake-front-end
//! instant resolves by global `seq` sequentially but shard-first under
//! the inclusive barrier. Continuous arrival processes make such ties
//! measure-zero; scripted fault times just must not collide exactly with
//! an arrival timestamp. The `service_parallel` proptests pin the
//! bit-identity across shard counts, thread counts, routing policies and
//! a fault script.
//!
//! # What is *not* part of the identity
//!
//! Wall-clock outputs (`wall_seconds`, decision-latency samples,
//! `shard_busy_s`) and kernel diagnostics (`events_processed` — the
//! intake replicas resume once per global batch in every shard kernel,
//! and the epoch coordinator's router runs outside any kernel) differ by
//! construction. Records, summaries, scheduler telemetry, admission
//! accounting and routing spread are bit-identical.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::config::SimParams;
use crate::faults::{FaultScript, RetryPolicy};
use crate::job::QJob;
use crate::sched::{Scheduler, RELEASE_SLACK_S};
use crate::simenv::{arm_shard_faults, spawn_shard, ShardParts};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, SimTime, Simulation, Step};

use super::admission::{AdmissionPolicy, AdmissionTelemetry};
use super::harness::{
    offer_arrival, offer_throttled, teardown_shard, ArrivalOutcome, ReofferOutcome, RouterShard,
    ServiceConfig, ServiceOutcome, ServiceReport, ThrottleProc,
};
use super::latency::{InstrumentedScheduler, LatencySamples, LatencySummary};
use super::router::{RoutingPolicy, ShardLoad};

/// Per-shard replica of the sequential router front end (free-running
/// mode). Walks the **global** arrival schedule — resuming at every
/// arrival batch so its clock chain matches the sequential router's float
/// for float — but only jobs pre-routed to `region` enter this shard's
/// intake; the rest are skipped without touching any state. When the
/// stream ends its final resume (at the global last-arrival instant, like
/// the sequential router's) finalises this shard's job total.
struct ShardIntakeProc {
    jobs: Arc<Vec<QJob>>,     // global stream, sorted by (arrival, id)
    targets: Arc<Vec<usize>>, // pre-routed shard per job, same indexing
    next: usize,
    region: usize,
    shard: RouterShard,
    admission: AdmissionPolicy,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
    routed: Arc<Mutex<Vec<u64>>>,
}

impl Coroutine for ShardIntakeProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let now = cx.now();
        let mut wake_me = false;
        while self.next < self.jobs.len()
            && self.jobs[self.next].arrival_time <= now + RELEASE_SLACK_S
        {
            let i = self.next;
            self.next += 1;
            if self.targets[i] != self.region {
                continue;
            }
            let job = self.jobs[i].clone();
            self.telemetry.lock().submitted += 1;
            self.routed.lock()[self.region] += 1;
            match offer_arrival(&self.shard, &self.admission, &self.telemetry, job) {
                ArrivalOutcome::Accepted => wake_me = true,
                ArrivalOutcome::Throttled(job) => {
                    cx.spawn_after(
                        self.admission.throttle_delay_s,
                        Box::new(ThrottleProc {
                            job: Some(job),
                            shard: self.shard.clone(),
                            admission: self.admission,
                            attempts: 1,
                            telemetry: self.telemetry.clone(),
                        }),
                    );
                }
                ArrivalOutcome::Rejected => {}
            }
        }
        if wake_me {
            cx.wake(self.shard.sched_pid());
        }
        if self.next < self.jobs.len() {
            Step::Wait(Effect::Timeout(self.jobs[self.next].arrival_time - now))
        } else {
            // Stream exhausted at the same instant the sequential router
            // would close it: finalise this shard's total and wake its
            // scheduler so the loop can observe termination.
            let total = self.routed.lock()[self.region] as usize;
            self.shard.shared.lock().total_jobs = total;
            cx.wake(self.shard.sched_pid());
            Step::Done
        }
    }
}

/// Commands the coordinator sends a worker thread.
enum WorkerCmd {
    /// Barrier: run every owned shard kernel through `run_epoch(t)`, then
    /// acknowledge with [`WorkerReply::EpochDone`].
    RunEpoch(f64),
    /// Wake the named region's scheduler at the shard kernel's pinned
    /// clock. Fire-and-forget: the next barrier ack subsumes it (the
    /// channel is FIFO, so the wake lands before any later epoch).
    Wake(usize),
    /// Run every owned shard to completion and return it.
    Finish,
}

/// One shard coming home after [`WorkerCmd::Finish`].
struct ShardReturn {
    region: usize,
    sim: Simulation,
    busy_s: f64,
    events: u64,
}

enum WorkerReply {
    EpochDone,
    Done(Vec<ShardReturn>),
}

/// Worker thread body: owns the shard kernels assigned to it (static
/// striping, shard `i` → worker `i % threads`) and executes coordinator
/// commands in FIFO order. Between an epoch ack and the next command the
/// worker is parked in `recv`, which is what licenses the coordinator to
/// touch shard state directly at barriers.
fn worker_loop(
    mut shards: Vec<(usize, Simulation, Arc<AtomicU64>)>,
    rx: Receiver<WorkerCmd>,
    tx: Sender<WorkerReply>,
) {
    let mut busy = vec![0.0f64; shards.len()];
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WorkerCmd::RunEpoch(t) => {
                for (k, (_, sim, _)) in shards.iter_mut().enumerate() {
                    let t0 = Instant::now();
                    sim.run_epoch(t);
                    busy[k] += t0.elapsed().as_secs_f64();
                }
                let _ = tx.send(WorkerReply::EpochDone);
            }
            WorkerCmd::Wake(region) => {
                if let Some((_, sim, pid)) = shards.iter_mut().find(|(r, _, _)| *r == region) {
                    sim.wake(ProcessId::from_raw(pid.load(Ordering::Relaxed)));
                }
            }
            WorkerCmd::Finish => {
                let out = shards
                    .into_iter()
                    .zip(busy)
                    .map(|((region, mut sim, _), mut busy_s)| {
                        let t0 = Instant::now();
                        sim.run();
                        busy_s += t0.elapsed().as_secs_f64();
                        let events = sim.events_processed();
                        ShardReturn {
                            region,
                            sim,
                            busy_s,
                            events,
                        }
                    })
                    .collect();
                let _ = tx.send(WorkerReply::Done(out));
                return;
            }
        }
    }
}

/// An entry in the epoch coordinator's event heap — the router-side slice
/// of the sequential kernel's heap, with the identical `(time, seq)`
/// order (`seq` is creation order, as in the kernel).
struct CoordEntry {
    time: SimTime,
    seq: u64,
    ev: CoordEvent,
}

enum CoordEvent {
    /// The arrival-batch resume (the sequential `RouterProc`'s timer).
    Arrivals,
    /// One throttled job's backoff expiring (a sequential `ThrottleProc`
    /// resume), re-offering attempt `attempts`.
    Retry {
        job: QJob,
        region: usize,
        attempts: u32,
    },
}

impl PartialEq for CoordEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for CoordEntry {}
impl PartialOrd for CoordEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CoordEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// Pushes a coordinator event, stamping it with the next creation seq —
/// the same `(time, seq)` key the kernel would give it.
fn push_entry(
    heap: &mut BinaryHeap<std::cmp::Reverse<CoordEntry>>,
    seq: &mut u64,
    time: SimTime,
    ev: CoordEvent,
) {
    heap.push(std::cmp::Reverse(CoordEntry {
        time,
        seq: *seq,
        ev,
    }));
    *seq += 1;
}

/// The epoch-lock-step router (least-loaded routing): replays the
/// sequential `RouterProc` / `ThrottleProc` event stream against
/// barrier-synced shards. See the module docs for the ordering proof.
#[allow(clippy::too_many_arguments)]
fn run_epoch_coordinator(
    jobs: &[QJob],
    shards: &[RouterShard],
    admission: &AdmissionPolicy,
    routing: RoutingPolicy,
    telemetry: &Mutex<AdmissionTelemetry>,
    routed: &Mutex<Vec<u64>>,
    cmd_txs: &[Sender<WorkerCmd>],
    reply_rx: &Receiver<WorkerReply>,
) {
    let threads = cmd_txs.len();
    let worker_of = |region: usize| &cmd_txs[region % threads];
    let barrier = |t: SimTime| {
        for tx in cmd_txs {
            tx.send(WorkerCmd::RunEpoch(t.seconds()))
                .expect("shard worker died");
        }
        for _ in 0..threads {
            match reply_rx.recv().expect("shard worker died") {
                WorkerReply::EpochDone => {}
                WorkerReply::Done(_) => unreachable!("worker finished before Finish"),
            }
        }
    };

    let mut heap: BinaryHeap<std::cmp::Reverse<CoordEntry>> = BinaryHeap::new();
    let mut seq = 0u64;
    // The sequential router's first resume is its spawn event at t = 0.
    push_entry(&mut heap, &mut seq, SimTime::ZERO, CoordEvent::Arrivals);
    let mut next = 0usize;
    let mut last_barrier: Option<SimTime> = None;

    while let Some(std::cmp::Reverse(entry)) = heap.pop() {
        // One barrier per distinct instant: all shard events ≤ t run, the
        // shard clocks pin to exactly t, and every coordinator event at t
        // acts before any shard reaction at t — the sequential order.
        if last_barrier != Some(entry.time) {
            barrier(entry.time);
            last_barrier = Some(entry.time);
        }
        let t = entry.time;
        match entry.ev {
            CoordEvent::Arrivals => {
                let now = t.seconds();
                let mut wake = vec![false; shards.len()];
                while next < jobs.len() && jobs[next].arrival_time <= now + RELEASE_SLACK_S {
                    let job = jobs[next].clone();
                    next += 1;
                    telemetry.lock().submitted += 1;
                    let loads: Vec<ShardLoad> = shards
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
                    let target = routing
                        .route(&job, &loads)
                        .expect("harness validated every job against the largest region");
                    routed.lock()[target] += 1;
                    match offer_arrival(&shards[target], admission, telemetry, job) {
                        ArrivalOutcome::Accepted => wake[target] = true,
                        ArrivalOutcome::Throttled(job) => push_entry(
                            &mut heap,
                            &mut seq,
                            t.after(admission.throttle_delay_s),
                            CoordEvent::Retry {
                                job,
                                region: target,
                                attempts: 1,
                            },
                        ),
                        ArrivalOutcome::Rejected => {}
                    }
                }
                for (i, w) in wake.iter().enumerate() {
                    if *w {
                        worker_of(i)
                            .send(WorkerCmd::Wake(i))
                            .expect("shard worker died");
                    }
                }
                if next < jobs.len() {
                    push_entry(
                        &mut heap,
                        &mut seq,
                        t.after(jobs[next].arrival_time - now),
                        CoordEvent::Arrivals,
                    );
                } else {
                    // Stream exhausted: close every shard's total and wake
                    // all schedulers in region order, like the sequential
                    // router's final resume.
                    let routed = routed.lock();
                    for (i, s) in shards.iter().enumerate() {
                        s.shared.lock().total_jobs = routed[i] as usize;
                    }
                    for i in 0..shards.len() {
                        worker_of(i)
                            .send(WorkerCmd::Wake(i))
                            .expect("shard worker died");
                    }
                }
            }
            CoordEvent::Retry {
                job,
                region,
                attempts,
            } => match offer_throttled(&shards[region], admission, telemetry, job, attempts) {
                ReofferOutcome::Accepted | ReofferOutcome::Rejected => {
                    worker_of(region)
                        .send(WorkerCmd::Wake(region))
                        .expect("shard worker died");
                }
                ReofferOutcome::Again(job) => push_entry(
                    &mut heap,
                    &mut seq,
                    t.after(admission.throttle_delay_s),
                    CoordEvent::Retry {
                        job,
                        region,
                        attempts: attempts + 1,
                    },
                ),
            },
        }
    }
}

/// One region shard staged for the parallel run: its own kernel plus the
/// teardown ingredients that stay with the coordinator.
struct ShardSlot {
    sim: Simulation,
    parts: ShardParts,
    samples: LatencySamples,
}

/// Drives open traffic through region shards, **one kernel per shard on
/// its own OS thread**, producing a [`ServiceOutcome`] whose records,
/// summaries, telemetry and routing spread are bit-identical to the
/// sequential [`ServiceHarness`](super::ServiceHarness) at any thread
/// count (including 1). See the module docs for the two execution modes
/// and the determinism argument.
pub struct ParallelServiceHarness {
    slots: Vec<ShardSlot>,
    router_shards: Vec<RouterShard>,
    jobs: Arc<Vec<QJob>>,
    config: ServiceConfig,
    telemetry: Arc<Mutex<AdmissionTelemetry>>,
    routed: Arc<Mutex<Vec<u64>>>,
    params: SimParams,
    threads: usize,
}

impl ParallelServiceHarness {
    /// Builds the parallel sharded service. Arguments mirror
    /// [`ServiceHarness::new`](super::ServiceHarness::new); `threads` is
    /// the worker-thread count (clamped to `[1, regions]` at run time —
    /// results are identical at every value, only wall clock changes).
    ///
    /// Panics when a job cannot fit any region or when the admission
    /// policy is invalid, exactly like the sequential harness.
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
        let mut slots = Vec::with_capacity(regions.len());
        for (r, profiles) in regions.into_iter().enumerate() {
            // Each shard gets its own kernel. The seed only feeds the
            // kernel RNG, which no service coroutine draws from, so the
            // shared value cannot entangle shards.
            let mut sim = Simulation::new(seed);
            let samples: LatencySamples = Arc::new(Mutex::new(Vec::new()));
            let scheduler = Box::new(InstrumentedScheduler::new(
                make_scheduler(r),
                samples.clone(),
            ));
            let parts = spawn_shard(&mut sim, profiles, scheduler, &params, usize::MAX);
            slots.push(ShardSlot {
                sim,
                parts,
                samples,
            });
        }
        let max_capacity = slots
            .iter()
            .map(|s| s.parts.cloud.total_capacity())
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
        let routed = Arc::new(Mutex::new(vec![0u64; slots.len()]));
        let router_shards: Vec<RouterShard> = slots
            .iter()
            .map(|s| RouterShard {
                shared: s.parts.shared.clone(),
                scheduler_pid: s.parts.scheduler_pid.clone(),
                total_capacity: s.parts.cloud.total_capacity(),
            })
            .collect();
        let jobs = Arc::new(jobs);

        if !config.routing.needs_load_feedback() {
            // Free-running mode: pre-route the whole stream against the
            // static fleet shape (stateless policies ignore live load by
            // definition) and give every shard kernel its intake replica.
            let static_loads: Vec<ShardLoad> = router_shards
                .iter()
                .map(|s| ShardLoad {
                    queue_depth: 0,
                    free_qubits: s.total_capacity,
                    total_capacity: s.total_capacity,
                })
                .collect();
            let targets: Arc<Vec<usize>> = Arc::new(
                jobs.iter()
                    .map(|j| {
                        config
                            .routing
                            .route(j, &static_loads)
                            .expect("harness validated every job against the largest region")
                    })
                    .collect(),
            );
            for (r, slot) in slots.iter_mut().enumerate() {
                slot.sim.spawn(Box::new(ShardIntakeProc {
                    jobs: jobs.clone(),
                    targets: targets.clone(),
                    next: 0,
                    region: r,
                    shard: router_shards[r].clone(),
                    admission: config.admission,
                    telemetry: telemetry.clone(),
                    routed: routed.clone(),
                }));
            }
        }

        ParallelServiceHarness {
            slots,
            router_shards,
            jobs,
            config,
            telemetry,
            routed,
            params,
            threads,
        }
    }

    /// Arms the same [`FaultScript`] on every region shard — each shard
    /// kernel gets its own crash processes, spawned after the intake (the
    /// sequential harness's relative spawn order, which the determinism
    /// argument leans on). PR 8's generation-checked handles make the
    /// cross-epoch kills safe: a crash killing an executor whose pid was
    /// recorded in an earlier epoch is a checked no-op if that process
    /// already retired. Same contract as
    /// [`ServiceHarness::install_faults`](super::ServiceHarness::install_faults).
    pub fn install_faults(&mut self, script: &FaultScript, retry: RetryPolicy) {
        for slot in &mut self.slots {
            arm_shard_faults(&mut slot.sim, &slot.parts, &self.params, script, retry);
        }
    }

    /// Runs every shard kernel on the worker pool until all shards
    /// terminate, then tears down exactly like the sequential harness and
    /// assembles the [`ServiceOutcome`] (plus the parallel-only report
    /// fields: `worker_threads`, `shard_busy_s`, `merge_wall_s`).
    pub fn run(self) -> ServiceOutcome {
        let nshards = self.slots.len();
        let threads = self.threads.clamp(1, nshards);
        let wall_start = Instant::now();

        // Stage shards onto workers: static striping, shard i → worker
        // i % threads. Parts and sample buffers stay here for teardown.
        let mut parts_samples = Vec::with_capacity(nshards);
        let mut staged: Vec<Vec<(usize, Simulation, Arc<AtomicU64>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, slot) in self.slots.into_iter().enumerate() {
            staged[i % threads].push((i, slot.sim, slot.parts.scheduler_pid.clone()));
            parts_samples.push((slot.parts, slot.samples));
        }

        let (reply_tx, reply_rx) = channel::<WorkerReply>();
        let mut cmd_txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for bundle in staged {
            let (tx, rx) = channel::<WorkerCmd>();
            let reply = reply_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(bundle, rx, reply)));
            cmd_txs.push(tx);
        }
        drop(reply_tx);

        if self.config.routing.needs_load_feedback() {
            run_epoch_coordinator(
                &self.jobs,
                &self.router_shards,
                &self.config.admission,
                self.config.routing,
                &self.telemetry,
                &self.routed,
                &cmd_txs,
                &reply_rx,
            );
        }
        for tx in &cmd_txs {
            tx.send(WorkerCmd::Finish).expect("shard worker died");
        }
        let mut returned: Vec<Option<ShardReturn>> = (0..nshards).map(|_| None).collect();
        for _ in 0..threads {
            match reply_rx.recv().expect("shard worker died") {
                WorkerReply::Done(shards) => {
                    for s in shards {
                        let slot = returned[s.region].replace(s);
                        assert!(slot.is_none(), "shard returned twice");
                    }
                }
                WorkerReply::EpochDone => unreachable!("epoch ack after Finish"),
            }
        }
        for h in handles {
            h.join().expect("shard worker panicked");
        }
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        // Release the coordinator's shard handles so teardown can unwrap
        // the shared state (intake coroutines released theirs at Done).
        drop(self.router_shards);
        drop(self.jobs);
        let returned: Vec<ShardReturn> = returned
            .into_iter()
            .map(|s| s.expect("worker lost a shard"))
            .collect();
        // The global end of sim time is the latest shard's last event —
        // the same instant the sequential kernel's clock ends on.
        let t_end = returned.iter().map(|s| s.sim.now()).fold(0.0f64, f64::max);

        let mut shard_results = Vec::with_capacity(nshards);
        let mut per_shard_latency = Vec::with_capacity(nshards);
        let mut all_samples = Vec::new();
        let mut shard_busy_s = Vec::with_capacity(nshards);
        let mut terminal_total = 0usize;
        let mut events_total = 0u64;
        for (ret, (parts, samples)) in returned.into_iter().zip(parts_samples) {
            let (result, s) = teardown_shard(parts, samples, t_end, ret.events);
            terminal_total += result.records.iter().filter(|r| r.terminal()).count();
            events_total += ret.events;
            shard_busy_s.push(ret.busy_s);
            shard_results.push(result);
            per_shard_latency.push(LatencySummary::from_samples(&s));
            all_samples.extend(s);
        }

        let Ok(admission) = Arc::try_unwrap(self.telemetry) else {
            panic!("intake still holds its telemetry handle after the run");
        };
        let admission = admission.into_inner();
        let Ok(routed_per_shard) = Arc::try_unwrap(self.routed) else {
            panic!("intake still holds its routing counters after the run");
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
            events_processed: events_total,
            worker_threads: threads,
            shard_busy_s,
            merge_wall_s: 0.0,
        };
        let mut outcome = ServiceOutcome {
            shards: shard_results,
            report,
        };
        // The deterministic terminal merge is part of the parallel
        // backend's contract; time it so the serve bin can report the
        // overhead next to the per-shard busy times.
        let merge_start = Instant::now();
        let merged = outcome.merged_by_termination();
        outcome.report.merge_wall_s = merge_start.elapsed().as_secs_f64();
        std::hint::black_box(merged.len());
        outcome
    }
}
