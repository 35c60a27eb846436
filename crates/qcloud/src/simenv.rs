//! The simulation environment (`QCloudSimEnv`, paper §3): orchestrates job
//! arrival, queue-aware cloud-level scheduling, atomic multi-device
//! reservation, parallel execution, inter-device communication and release.
//!
//! ## Orchestration design
//!
//! Three kinds of coroutine cooperate on the `qcs-desim` kernel:
//!
//! * a **generator** releases jobs into the shared pending queue at their
//!   arrival times and wakes the scheduler;
//! * the **scheduler** drives a [`Scheduler`] discipline (see
//!   [`crate::sched`]): on every wake it refreshes the incrementally
//!   maintained [`crate::sched::CloudState`] — no per-consult snapshot
//!   rebuild — hands the discipline the *entire* pending queue, and applies
//!   the returned [`crate::sched::SchedulingDecision`] batch atomically:
//!   each dispatch is validated, recorded, reserved in the state — the one
//!   qubit ledger; the kernel keeps no capacity of its own — and handed to
//!   an execution coroutine. The paper's strict-FIFO broker consultation
//!   survives unchanged behind [`crate::sched::FifoAdapter`] (bit-identical
//!   records, pinned by `tests/seed_parity.rs`); queue-jumping disciplines
//!   (EASY backfilling, priority orders) ride the same loop.
//! * one **executor** per dispatched job sleeps through the execution time
//!   (Eq. 3, `max` over its devices), then through the blocking
//!   communication delay (Eq. 9), computes the final fidelity (Eqs. 4–8),
//!   releases its qubits back into the lease-tracked state, logs
//!   completion, and wakes the scheduler.
//!
//! ## Failure and recovery semantics
//!
//! [`QCloudSimEnv::install_faults`] arms a [`crate::faults::FaultScript`]:
//! unplanned device crashes and per-job execution failures, both resolved
//! deterministically from the script seed. Unlike maintenance windows —
//! which are *scheduled* (on the [`crate::maintenance::MaintenanceCalendar`]
//! the reservation timelines read) and drain gracefully — a crash is
//! invisible to every lookahead and tears work down:
//!
//! * at the crash instant the device's offline flag is raised and **every
//!   job holding a lease on it is killed**: its execution coroutines are
//!   terminated mid-flight, all of its leases (on every device — the whole
//!   distributed job dies) are revoked back into the state, and the
//!   scheduler is woken. A multi-device job whose partition on the crashed
//!   device already released (per-device release, shorter sub-job)
//!   survives: its quantum work there finished before the crash, and the
//!   remaining communication is classical.
//! * an execution failure fires at the end of a job's execution phase
//!   (probability per [`crate::faults::FaultInjector::exec_failure`]) and
//!   tears the attempt down the same way.
//!
//! Either way the job re-enters the pending queue (at the tail — it lost
//! its place) through the [`crate::faults::RetryPolicy`]: after an
//! exponential-backoff delay with deterministic jitter while attempts
//! remain, or it is marked
//! [`crate::records::FinalStatus::RetriesExhausted`] and leaves the system
//! honestly. [`crate::records::JobRecord`] accumulates `attempts` and
//! `wasted_qubit_s` across attempts; arrival is never touched, so waiting
//! time and slowdown count from the *first* submission. Qubit conservation
//! is asserted at teardown whenever every job reached a terminal state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::broker::Broker;
use crate::cloud::QCloud;
use crate::config::SimParams;
use crate::device::DeviceId;
use crate::faults::{AvoidSet, FaultInjector, FaultScript, RetryPolicy};
use crate::job::{JobId, QJob};
use crate::model::fidelity::DeviceErrorRates;
use crate::records::{JobRecord, JobRecordsManager, SummaryStats};
use crate::sched::{
    CloudState, DeviceSpec, FifoAdapter, SchedTelemetry, Scheduler, RELEASE_SLACK_S,
};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, Simulation, Step};

/// Static per-device data shared with coroutines.
#[derive(Debug, Clone)]
pub(crate) struct DeviceStatic {
    error_rates: DeviceErrorRates,
    clops: f64,
    qv_layers: f64,
    pub(crate) name: String,
}

/// The armed fault machinery ([`QCloudSimEnv::install_faults`]).
struct FaultState {
    injector: FaultInjector,
    retry: RetryPolicy,
    avoid: Option<AvoidSet>,
}

/// One in-flight job attempt, tracked only while faults are armed so a
/// crash (or execution failure) can kill its coroutines and resubmit it.
struct RunningJob {
    job: QJob,
    parts: Vec<(DeviceId, u64)>,
    exec_pid: u64,
    sub_pids: Vec<u64>,
}

/// State shared between the coroutines. `pub(crate)` so the
/// [`crate::service`] front end can drive a shard's queue through the same
/// loop the batch environment uses.
pub(crate) struct SchedState {
    pub(crate) pending: std::collections::VecDeque<QJob>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) cloud_state: CloudState,
    pub(crate) records: JobRecordsManager,
    pub(crate) telemetry: SchedTelemetry,
    /// Jobs this shard must drive to a terminal state before its scheduler
    /// loop may exit. Batch runs fix it at construction; service mode
    /// starts it at `usize::MAX` (stream still open) and the router
    /// finalises it once the arrival stream is exhausted.
    pub(crate) total_jobs: usize,
    dispatched: usize,
    /// Jobs the service-mode intake throttle is holding for re-offer:
    /// while non-zero, an empty pending queue means "admission deferred
    /// work", not "traffic ran dry". Always 0 in batch runs.
    pub(crate) throttled_inflight: usize,
    /// In-flight attempts by job id; empty when `faults` is `None`.
    running: std::collections::HashMap<u64, RunningJob>,
    faults: Option<FaultState>,
}

pub(crate) type Shared = Arc<Mutex<SchedState>>;

/// Takes a shard's state back once its kernel has drained. Every coroutine
/// holding a clone has finished by then — unless the scheduler parked for
/// good with work left, which is a liveness bug: the panic names it.
pub(crate) fn unwrap_shard_state(shared: Shared) -> SchedState {
    match Arc::try_unwrap(shared) {
        Ok(state) => state.into_inner(),
        Err(shared) => {
            let st = shared.lock();
            panic!(
                "scheduler '{}' parked with {} queued jobs, {} of {} terminal",
                st.scheduler.name(),
                st.pending.len(),
                st.records.terminal_count(),
                st.total_jobs
            )
        }
    }
}

/// Time-weighted qubit utilisation per device at `t_end`, `(name, fraction)`,
/// read off the shard's qubit ledger.
pub(crate) fn device_utilization(
    info: &[DeviceStatic],
    ledger: &CloudState,
    t_end: f64,
) -> Vec<(String, f64)> {
    info.iter()
        .enumerate()
        .map(|(i, d)| {
            (
                d.name.clone(),
                ledger.mean_utilization(DeviceId(i as u32), t_end),
            )
        })
        .collect()
}

/// Tears down one failed job attempt and routes it through the retry
/// policy: kills any of its execution coroutines still in flight, revokes
/// every lease it still holds, records the requeue (or exhaustion), and
/// schedules the resubmission. Shared by the crash path ([`CrashProc`],
/// `kill_exec: true`) and the execution-failure path (the [`Executor`]
/// failing itself, which terminates on its own — `kill_exec: false`). The
/// caller wakes the scheduler afterwards.
fn fail_and_requeue(
    cx: &mut Ctx<'_>,
    st: &mut SchedState,
    shared: &Shared,
    scheduler_pid: &Arc<AtomicU64>,
    job_id: u64,
    kill_exec: bool,
) {
    let Some(run) = st.running.remove(&job_id) else {
        return;
    };
    let now = cx.now();
    if kill_exec {
        cx.kill(ProcessId::from_raw(run.exec_pid));
    }
    // Sub-executors whose release event ties with this instant fire *after*
    // it (spawn-order sequencing): their leases are still held and must be
    // revoked. Already-finished sub-executors just return `false` here.
    for &p in &run.sub_pids {
        cx.kill(ProcessId::from_raw(p));
    }
    st.cloud_state.revoke_job(run.job.id, now);
    let faults = st
        .faults
        .as_ref()
        .expect("failure path reached without faults armed");
    let retry = faults.retry;
    let seed = faults.injector.seed();
    let avoid = faults.avoid.clone();
    if retry.prefer_different_device {
        if let Some(av) = &avoid {
            av.record_failure(run.job.id, run.parts.iter().map(|&(d, _)| d));
        }
    }
    let attempts = st.records.record_requeue(run.job.id, now);
    if attempts < retry.max_attempts {
        let delay = retry.backoff_seconds(seed, run.job.id, attempts);
        cx.spawn_after(
            delay,
            Box::new(RetryProc {
                job: Some(run.job),
                shared: shared.clone(),
                scheduler_pid: scheduler_pid.clone(),
            }),
        );
    } else {
        st.records.record_exhausted(run.job.id);
        if let Some(av) = &avoid {
            av.clear(run.job.id);
        }
    }
}

// ---------------------------------------------------------------------
// Coroutines
// ---------------------------------------------------------------------

struct Generator {
    jobs: Vec<QJob>, // sorted by arrival, consumed front-to-back
    next: usize,
    shared: Shared,
    scheduler_pid: Arc<AtomicU64>,
}

impl Coroutine for Generator {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let now = cx.now();
        let mut released = false;
        {
            let mut st = self.shared.lock();
            while self.next < self.jobs.len()
                && self.jobs[self.next].arrival_time <= now + RELEASE_SLACK_S
            {
                let job = self.jobs[self.next].clone();
                st.records.record_arrival(&job);
                st.pending.push_back(job);
                self.next += 1;
                released = true;
            }
        }
        if released {
            let pid = qcs_desim::ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
            cx.wake(pid);
        }
        if self.next < self.jobs.len() {
            Step::Wait(Effect::Timeout(self.jobs[self.next].arrival_time - now))
        } else {
            Step::Done
        }
    }
}

/// Drives the [`Scheduler`] discipline against the shared queue and state.
struct SchedulerProc {
    shared: Shared,
    info: Arc<Vec<DeviceStatic>>,
    params: SimParams,
    topologies: Option<Arc<Vec<qcs_topology::Graph>>>,
    scheduler_pid: Arc<AtomicU64>,
    offline: Arc<crate::maintenance::OfflineFlags>,
}

impl Coroutine for SchedulerProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        loop {
            let launches = {
                let mut st = self.shared.lock();
                // Terminal = completed or honestly out of retries: with
                // faults armed an exhausted job never finishes but must not
                // park the scheduler forever.
                if st.records.terminal_count() == st.total_jobs {
                    return Step::Done;
                }
                if st.pending.is_empty() {
                    // Queue empty but jobs still in flight or yet to
                    // arrive. When the service-mode intake is holding
                    // throttled jobs, the idleness is admission-induced —
                    // attribute it honestly.
                    if st.throttled_inflight > 0 {
                        st.telemetry.waits_admission_throttled += 1;
                    } else {
                        st.telemetry.waits_queue_drained += 1;
                    }
                    drop(st);
                    return Step::Wait(Effect::Suspend);
                }
                let now = cx.now();
                let state = &mut *st;
                state.cloud_state.refresh(now, &self.offline);
                let queue: &[QJob] = state.pending.make_contiguous();
                let decision = state.scheduler.decide(queue, &state.cloud_state);
                state.telemetry.decisions += 1;
                if decision.dispatches.len() >= 2 {
                    state.telemetry.multi_dispatch_batches += 1;
                }
                let mut launches = Vec::with_capacity(decision.dispatches.len());
                for d in decision.dispatches {
                    assert!(
                        d.queue_index < state.pending.len(),
                        "scheduler '{}' dispatched queue index {} of {}",
                        state.scheduler.name(),
                        d.queue_index,
                        state.pending.len()
                    );
                    if d.queue_index > 0 {
                        state.telemetry.out_of_order += 1;
                        // Every older job still waiting ahead of the jumper
                        // was overtaken once: the per-job starvation signal
                        // behind `QosReport`'s bypass metrics.
                        state.telemetry.bypass_events += d.queue_index as u64;
                        for bi in 0..d.queue_index {
                            let overtaken = state.pending[bi].id;
                            state.records.record_bypass(overtaken);
                        }
                    }
                    let job = state
                        .pending
                        .remove(d.queue_index)
                        .expect("index checked above");
                    let total: u64 = d.parts.iter().map(|&(_, a)| a).sum();
                    assert_eq!(
                        total,
                        job.num_qubits,
                        "scheduler '{}' allocated {total} of {} qubits for job {:?}",
                        state.scheduler.name(),
                        job.num_qubits,
                        job.id
                    );
                    if self.params.exact_connectivity {
                        if let Some(tops) = &self.topologies {
                            let refs: Vec<&qcs_topology::Graph> = tops.iter().collect();
                            assert!(
                                crate::partition::connectivity_feasible(&d.parts, &refs),
                                "partition violates device connectivity"
                            );
                        }
                    }
                    let attempt = state.records.record_start(job.id, now, &d.parts);
                    // Reserve in the incremental state (panics on any
                    // over-commitment — the no-double-reservation guard).
                    state.cloud_state.reserve(&job, &d.parts, now);
                    state.dispatched += 1;
                    state.telemetry.dispatched += 1;
                    launches.push((job, d.parts, attempt));
                }
                let wait = decision.wait;
                if let Some(reason) = wait {
                    state.telemetry.count_wait(reason);
                }
                let tracked = state.faults.is_some();
                drop(st);
                (launches, wait, tracked)
            };

            let (launches, wait, tracked) = launches;
            for (job, parts, attempt) in launches {
                let registration = tracked.then(|| (job.clone(), parts.clone()));
                let exec_pid = cx.spawn(Box::new(Executor {
                    job,
                    parts,
                    info: self.info.clone(),
                    params: self.params.clone(),
                    shared: self.shared.clone(),
                    scheduler_pid: self.scheduler_pid.clone(),
                    phase: 0,
                    comm_seconds: 0.0,
                    attempt,
                    tracked,
                }));
                if let Some((job, parts)) = registration {
                    self.shared.lock().running.insert(
                        job.id.0,
                        RunningJob {
                            job,
                            parts,
                            exec_pid: exec_pid.as_raw(),
                            sub_pids: Vec::new(),
                        },
                    );
                }
            }
            match wait {
                // The discipline asked for an immediate re-consult (e.g. the
                // snapshot parity adapter dispatches one job per decision).
                None => continue,
                Some(_) => return Step::Wait(Effect::Suspend),
            }
        }
    }
}

/// Releases one device's partition when its own sub-job finishes
/// ([`ReleasePolicy::PerDevice`]).
///
/// [`ReleasePolicy`]: crate::config::ReleasePolicy
struct SubExec {
    job: JobId,
    device: DeviceId,
    qubits: u64,
    duration: f64,
    shared: Shared,
    scheduler_pid: Arc<AtomicU64>,
    phase: u8,
}

impl Coroutine for SubExec {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Wait(Effect::Timeout(self.duration))
            }
            _ => {
                self.shared.lock().cloud_state.release(
                    self.job,
                    self.device,
                    self.qubits,
                    cx.now(),
                );
                let pid =
                    qcs_desim::ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
                cx.wake(pid);
                Step::Done
            }
        }
    }
}

struct Executor {
    job: QJob,
    parts: Vec<(DeviceId, u64)>,
    info: Arc<Vec<DeviceStatic>>,
    params: SimParams,
    shared: Shared,
    scheduler_pid: Arc<AtomicU64>,
    phase: u8,
    comm_seconds: f64,
    /// 1-based attempt number (drives the failure draw and backoff).
    attempt: u32,
    /// Whether faults are armed (skips all registry work when not).
    tracked: bool,
}

impl Coroutine for Executor {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        match self.phase {
            0 => {
                // Parallel execution: the job runs as long as its slowest
                // sub-job (§4: T(a) = max_i T_i).
                let durations: Vec<f64> = self
                    .parts
                    .iter()
                    .map(|&(d, _)| {
                        let dev = &self.info[d.index()];
                        self.params.exec.execution_seconds(
                            self.job.num_shots,
                            dev.qv_layers,
                            dev.clops,
                        )
                    })
                    .collect();
                let exec = durations.iter().fold(0.0f64, |a, &b| a.max(b));
                if self.params.release == crate::config::ReleasePolicy::PerDevice {
                    let mut sub_pids = Vec::new();
                    for (&(d, a), &dur) in self.parts.iter().zip(&durations) {
                        let pid = cx.spawn(Box::new(SubExec {
                            job: self.job.id,
                            device: d,
                            qubits: a,
                            duration: dur,
                            shared: self.shared.clone(),
                            scheduler_pid: self.scheduler_pid.clone(),
                            phase: 0,
                        }));
                        sub_pids.push(pid.as_raw());
                    }
                    if self.tracked {
                        // Register the sub-executors so a crash can kill
                        // them before their releases fire.
                        if let Some(run) = self.shared.lock().running.get_mut(&self.job.id.0) {
                            run.sub_pids = sub_pids;
                        }
                    }
                }
                self.phase = 1;
                Step::Wait(Effect::Timeout(exec))
            }
            1 => {
                if self.tracked {
                    let mut st = self.shared.lock();
                    let failed = st.faults.as_ref().is_some_and(|f| {
                        f.injector
                            .exec_failure(self.job.id, self.attempt, &self.parts)
                    });
                    if failed {
                        fail_and_requeue(
                            cx,
                            &mut st,
                            &self.shared,
                            &self.scheduler_pid,
                            self.job.id.0,
                            false,
                        );
                        drop(st);
                        let pid = ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
                        cx.wake(pid);
                        return Step::Done;
                    }
                }
                self.shared
                    .lock()
                    .records
                    .record_exec_end(self.job.id, cx.now());
                // Blocking classical communication (Eq. 9 per link).
                self.comm_seconds = self
                    .params
                    .comm
                    .comm_seconds(self.job.num_qubits, self.parts.len());
                self.phase = 2;
                Step::Wait(Effect::Timeout(self.comm_seconds))
            }
            2 => {
                // Final fidelity (Eqs. 4–8).
                let k = self.parts.len();
                let fids: Vec<f64> = self
                    .parts
                    .iter()
                    .map(|&(d, a)| {
                        let dev = &self.info[d.index()];
                        self.params.fidelity.device_fidelity(
                            &dev.error_rates,
                            self.job.depth,
                            self.job.two_qubit_gates,
                            a,
                            self.job.num_qubits,
                            k,
                        )
                    })
                    .collect();
                let fidelity = self
                    .params
                    .fidelity
                    .final_fidelity(&fids, self.params.comm.phi);

                let mut st = self.shared.lock();
                // Under AtJobEnd the qubits are still held: release now.
                if self.params.release == crate::config::ReleasePolicy::AtJobEnd {
                    for &(d, a) in &self.parts {
                        st.cloud_state.release(self.job.id, d, a, cx.now());
                    }
                }
                st.records
                    .record_finish(self.job.id, cx.now(), fidelity, self.comm_seconds);
                if self.tracked {
                    st.running.remove(&self.job.id.0);
                    if let Some(av) = st.faults.as_ref().and_then(|f| f.avoid.as_ref()) {
                        av.clear(self.job.id);
                    }
                }
                drop(st);
                let pid =
                    qcs_desim::ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
                cx.wake(pid);
                Step::Done
            }
            _ => unreachable!("executor resumed after completion"),
        }
    }
}

/// An unplanned device outage ([`crate::faults::CrashEvent`]): at `at` the
/// device goes dark — offline flag up, every job leasing it killed and
/// requeued — and after `down_for` seconds it silently returns. Unlike
/// [`crate::maintenance::MaintenanceProc`] the outage is *not* on the
/// maintenance calendar: no reservation timeline sees it coming, and while
/// the device is down it is invisible to every lookahead (an offline device
/// with no calendar window contributes nothing to the projection).
struct CrashProc {
    device: usize,
    at: f64,
    down_for: f64,
    shared: Shared,
    offline: Arc<crate::maintenance::OfflineFlags>,
    scheduler_pid: Arc<AtomicU64>,
    phase: u8,
}

impl Coroutine for CrashProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Wait(Effect::Timeout((self.at - cx.now()).max(0.0)))
            }
            1 => {
                self.offline.set_offline(self.device, true);
                {
                    let mut st = self.shared.lock();
                    // Every job holding qubits here dies (sorted for a
                    // deterministic kill order).
                    let mut victims: Vec<u64> = st
                        .cloud_state
                        .leases()
                        .iter()
                        .filter(|l| l.device.index() == self.device)
                        .map(|l| l.job.0)
                        .collect();
                    victims.sort_unstable();
                    victims.dedup();
                    for v in victims {
                        fail_and_requeue(cx, &mut st, &self.shared, &self.scheduler_pid, v, true);
                    }
                    debug_assert!(
                        st.cloud_state
                            .leases()
                            .iter()
                            .all(|l| l.device.index() != self.device),
                        "lease survived its device's crash"
                    );
                }
                let pid = ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
                cx.wake(pid);
                self.phase = 2;
                Step::Wait(Effect::Timeout(self.down_for))
            }
            2 => {
                self.offline.set_offline(self.device, false);
                let pid = ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
                cx.wake(pid);
                Step::Done
            }
            _ => unreachable!("crash resumed after completion"),
        }
    }
}

/// Fires once when a failed job's backoff expires: the job rejoins the
/// pending queue at the tail (it lost its place; its record — and so its
/// arrival time — is untouched) and the scheduler is woken.
struct RetryProc {
    job: Option<QJob>,
    shared: Shared,
    scheduler_pid: Arc<AtomicU64>,
}

impl Coroutine for RetryProc {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        let job = self.job.take().expect("retry resumed twice");
        self.shared.lock().pending.push_back(job);
        let pid = ProcessId::from_raw(self.scheduler_pid.load(Ordering::Relaxed));
        cx.wake(pid);
        Step::Done
    }
}

// ---------------------------------------------------------------------
// Public environment
// ---------------------------------------------------------------------

/// Result of a completed simulation run.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregate metrics (Table 2 columns).
    pub summary: SummaryStats,
    /// Per-job records (arrival order).
    pub records: Vec<JobRecord>,
    /// Time-weighted qubit utilisation per device, `(name, fraction)`.
    pub device_utilization: Vec<(String, f64)>,
    /// Kernel events processed (simulator performance diagnostics).
    pub events_processed: u64,
    /// Scheduling-loop counters (decisions, batches, queue jumps, waits).
    pub telemetry: SchedTelemetry,
}

impl RunResult {
    /// Mean of the per-device time-weighted qubit utilisations.
    pub fn mean_device_utilization(&self) -> f64 {
        if self.device_utilization.is_empty() {
            return 0.0;
        }
        self.device_utilization.iter().map(|(_, u)| u).sum::<f64>()
            / self.device_utilization.len() as f64
    }
}

/// One scheduler shard wired onto a (possibly shared) kernel: the fleet,
/// the shared queue state (with the shard's qubit ledger), and a spawned
/// [`SchedulerProc`].
/// The batch environment hosts exactly one; the [`crate::service`] front
/// end hosts one per region on a single [`Simulation`].
pub(crate) struct ShardParts {
    pub(crate) cloud: QCloud,
    pub(crate) shared: Shared,
    pub(crate) info: Arc<Vec<DeviceStatic>>,
    pub(crate) strategy_name: String,
    pub(crate) scheduler_pid: Arc<AtomicU64>,
    pub(crate) offline: Arc<crate::maintenance::OfflineFlags>,
}

/// Registers `profiles` as a fleet, builds the shard's shared queue state
/// and spawns its [`SchedulerProc`] on `sim`. `total_jobs` is the
/// shard's termination target; pass `usize::MAX` to leave the stream open
/// (service mode — the intake router finalises it later). The caller is
/// responsible for feeding the queue (a [`Generator`] or a service
/// router). Extraction of [`QCloudSimEnv::with_scheduler`]'s body: the
/// single-shard path goes through here unchanged, keeping the seed
/// goldens bit-identical.
pub(crate) fn spawn_shard(
    sim: &mut Simulation,
    profiles: Vec<DeviceProfile>,
    scheduler: Box<dyn Scheduler>,
    params: &SimParams,
    total_jobs: usize,
) -> ShardParts {
    let cloud = QCloud::new(profiles, &params.error_weights);
    let info: Arc<Vec<DeviceStatic>> = Arc::new(
        cloud
            .devices()
            .iter()
            .map(|d| DeviceStatic {
                error_rates: d.error_rates,
                clops: d.clops(),
                qv_layers: d.qv_layers(),
                name: d.name().to_string(),
            })
            .collect(),
    );
    let specs: Vec<DeviceSpec> = cloud
        .devices()
        .iter()
        .map(|d| DeviceSpec {
            capacity: d.capacity(),
            error_score: d.error_score,
            clops: d.clops(),
            qv_layers: d.qv_layers(),
        })
        .collect();
    let topologies = Arc::new(
        cloud
            .devices()
            .iter()
            .map(|d| d.profile.topology.clone())
            .collect::<Vec<_>>(),
    );

    let strategy_name = scheduler.name().to_string();
    let queue_capacity = if total_jobs == usize::MAX {
        0
    } else {
        total_jobs
    };
    let shared: Shared = Arc::new(Mutex::new(SchedState {
        pending: std::collections::VecDeque::with_capacity(queue_capacity),
        scheduler,
        cloud_state: CloudState::new(&specs, params),
        records: JobRecordsManager::new(),
        telemetry: SchedTelemetry::default(),
        total_jobs,
        dispatched: 0,
        throttled_inflight: 0,
        running: std::collections::HashMap::new(),
        faults: None,
    }));

    let scheduler_pid = Arc::new(AtomicU64::new(0));
    let offline = Arc::new(crate::maintenance::OfflineFlags::new(info.len()));
    let sched = SchedulerProc {
        shared: shared.clone(),
        info: info.clone(),
        params: params.clone(),
        topologies: if params.exact_connectivity {
            Some(topologies)
        } else {
            None
        },
        scheduler_pid: scheduler_pid.clone(),
        offline: offline.clone(),
    };
    let pid = sim.spawn(Box::new(sched));
    scheduler_pid.store(pid.as_raw(), Ordering::Relaxed);

    ShardParts {
        cloud,
        shared,
        info,
        strategy_name,
        scheduler_pid,
        offline,
    }
}

/// Resolves and arms a [`FaultScript`] on one shard: validates, builds the
/// deterministic [`FaultInjector`] from the shard's calibration data,
/// stores the [`FaultState`] in the shared queue state, and spawns one
/// [`CrashProc`] per scripted outage on `sim`. Single copy of the arming
/// logic shared by [`QCloudSimEnv::install_faults`] (which additionally
/// wires an [`AvoidSet`]) and the service harnesses (which arm the same
/// script on every region shard).
#[allow(clippy::too_many_arguments)]
pub(crate) fn arm_faults(
    sim: &mut Simulation,
    cloud: &QCloud,
    shared: &Shared,
    info: &Arc<Vec<DeviceStatic>>,
    offline: &Arc<crate::maintenance::OfflineFlags>,
    scheduler_pid: &Arc<AtomicU64>,
    params: &SimParams,
    script: &FaultScript,
    retry: RetryPolicy,
    avoid: Option<AvoidSet>,
) {
    script.validate(info.len()).expect("invalid fault script");
    retry.validate().expect("invalid retry policy");
    let profiles: Vec<DeviceProfile> = cloud.devices().iter().map(|d| d.profile.clone()).collect();
    let injector = FaultInjector::resolve(script, &profiles, &params.error_weights);
    shared.lock().faults = Some(FaultState {
        injector,
        retry,
        avoid,
    });
    for c in &script.crashes {
        // Deliberately no synchronous flag for `at == 0`: a crash is
        // unplanned, so even a t=0 outage lands only when its event
        // fires — after the first dispatch wave, which it then kills.
        sim.spawn(Box::new(CrashProc {
            device: c.device,
            at: c.at,
            down_for: c.down_for,
            shared: shared.clone(),
            offline: offline.clone(),
            scheduler_pid: scheduler_pid.clone(),
            phase: 0,
        }));
    }
}

/// [`arm_faults`] for a [`ShardParts`] bundle (service mode; no
/// [`AvoidSet`] — the service front end does not wire
/// prefer-different-device brokering).
pub(crate) fn arm_shard_faults(
    sim: &mut Simulation,
    shard: &ShardParts,
    params: &SimParams,
    script: &FaultScript,
    retry: RetryPolicy,
) {
    arm_faults(
        sim,
        &shard.cloud,
        &shard.shared,
        &shard.info,
        &shard.offline,
        &shard.scheduler_pid,
        params,
        script,
        retry,
        None,
    );
}

/// The top-level simulation environment (paper's `QCloudSimEnv`).
pub struct QCloudSimEnv {
    sim: Simulation,
    cloud: QCloud,
    shared: Shared,
    info: Arc<Vec<DeviceStatic>>,
    strategy_name: String,
    scheduler_pid: Arc<AtomicU64>,
    offline: Arc<crate::maintenance::OfflineFlags>,
    params: SimParams,
}

impl QCloudSimEnv {
    /// Builds the environment around a per-job [`Broker`] policy under the
    /// paper's FIFO discipline ([`FifoAdapter`]); `params.backfill_depth`
    /// widens the adapter's scan window exactly as the seed scheduler did.
    pub fn new(
        profiles: Vec<DeviceProfile>,
        broker: Box<dyn Broker>,
        jobs: Vec<QJob>,
        params: SimParams,
        seed: u64,
    ) -> Self {
        let window = params.backfill_depth + 1;
        Self::with_scheduler(
            profiles,
            Box::new(FifoAdapter::new(broker, window)),
            jobs,
            params,
            seed,
        )
    }

    /// Builds the environment around an arbitrary queue-aware [`Scheduler`]
    /// discipline: registers devices, seeds the kernel, spawns the
    /// generator and scheduler, and queues `jobs` for release at their
    /// arrival times.
    pub fn with_scheduler(
        profiles: Vec<DeviceProfile>,
        scheduler: Box<dyn Scheduler>,
        mut jobs: Vec<QJob>,
        params: SimParams,
        seed: u64,
    ) -> Self {
        let mut sim = Simulation::new(seed);
        let shard = spawn_shard(&mut sim, profiles, scheduler, &params, jobs.len());
        crate::jobgen::validate_jobs(&jobs, shard.cloud.total_capacity())
            .expect("job list incompatible with the fleet");
        jobs.sort_by(|a, b| {
            a.arrival_time
                .total_cmp(&b.arrival_time)
                .then(a.id.cmp(&b.id))
        });

        sim.spawn(Box::new(Generator {
            jobs,
            next: 0,
            shared: shard.shared.clone(),
            scheduler_pid: shard.scheduler_pid.clone(),
        }));

        QCloudSimEnv {
            sim,
            cloud: shard.cloud,
            shared: shard.shared,
            info: shard.info,
            strategy_name: shard.strategy_name,
            scheduler_pid: shard.scheduler_pid,
            offline: shard.offline,
            params,
        }
    }

    /// Arms a [`FaultScript`]: resolves the deterministic
    /// [`FaultInjector`] against the fleet's calibration data, stores the
    /// [`RetryPolicy`], and spawns one [`CrashProc`] per scripted outage.
    /// See the module docs for the failure/recovery semantics.
    ///
    /// `avoid` wires prefer-different-device resubmission: pass the *same*
    /// [`AvoidSet`] handle given to a
    /// [`crate::faults::DeviceAvoidingBroker`] wrapping the scheduler's
    /// policy, and each failed attempt masks the devices it died on from
    /// the next placement. Without it (`None`),
    /// [`RetryPolicy::prefer_different_device`] records nothing.
    ///
    /// Crash + maintenance overlapping on the same device is unsupported
    /// (the offline flag is a shared toggle; whichever edge fires last
    /// wins). Call before [`QCloudSimEnv::run`]; panics on an invalid
    /// script or policy.
    pub fn install_faults(
        &mut self,
        script: FaultScript,
        retry: RetryPolicy,
        avoid: Option<AvoidSet>,
    ) {
        arm_faults(
            &mut self.sim,
            &self.cloud,
            &self.shared,
            &self.info,
            &self.offline,
            &self.scheduler_pid,
            &self.params,
            &script,
            retry,
            avoid,
        );
    }

    /// Schedules a maintenance window: the device is marked *offline* from
    /// `window.start` for `window.duration` seconds — no new sub-jobs are
    /// placed on it, in-flight sub-jobs finish normally (graceful drain).
    pub fn schedule_maintenance(&mut self, window: crate::maintenance::MaintenanceWindow) {
        window.validate().expect("invalid maintenance window");
        assert!(
            window.device < self.info.len(),
            "maintenance names unknown device {}",
            window.device
        );
        // A window opening at t = 0 must take effect before the first
        // dispatch: set the flag synchronously.
        if window.start <= 0.0 {
            self.offline.set_offline(window.device, true);
        }
        // Register the window with the scheduler-facing calendar so
        // availability-aware reservations see the capacity drop coming.
        self.shared
            .lock()
            .cloud_state
            .add_maintenance_window(window);
        self.sim
            .spawn(Box::new(crate::maintenance::MaintenanceProc {
                device: window.device,
                start: window.start,
                end: window.start + window.duration,
                offline: self.offline.clone(),
                scheduler_pid: self.scheduler_pid.clone(),
                phase: 0,
            }));
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        self.sim.run();
        let t_end = self.sim.now();
        let events_processed = self.sim.events_processed();

        // Tear down: extract utilisation and records from the shared state.
        let state = unwrap_shard_state(self.shared);
        let device_utilization = device_utilization(&self.info, &state.cloud_state, t_end);
        let records = state.records.into_records();
        if records.iter().all(|r| r.terminal()) {
            // Qubit conservation: every reservation came back — including
            // those revoked from crashed devices and exhausted jobs.
            state.cloud_state.assert_all_released();
        }
        let summary = SummaryStats::from_records(self.strategy_name, &records);
        RunResult {
            summary,
            records,
            device_utilization,
            events_processed,
            telemetry: state.telemetry,
        }
    }

    /// The fleet (inspection/testing).
    pub fn cloud(&self) -> &QCloud {
        &self.cloud
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobDistribution, JobId};
    use crate::policies::{FairBroker, FidelityBroker, SpeedBroker};
    use crate::sched::{
        BackfillScheduler, ConservativeBackfillScheduler, PriorityDiscipline, PriorityScheduler,
    };
    use qcs_calibration::ibm_fleet;

    fn jobs(n: usize, seed: u64) -> Vec<QJob> {
        crate::jobgen::batch_at_zero(n, &JobDistribution::default(), seed)
    }

    fn run(broker: Box<dyn Broker>, n: usize, seed: u64) -> RunResult {
        let env = QCloudSimEnv::new(
            ibm_fleet(seed),
            broker,
            jobs(n, seed),
            SimParams::default(),
            seed,
        );
        env.run()
    }

    #[test]
    fn all_jobs_complete_under_each_policy() {
        for broker in [
            Box::new(SpeedBroker::new()) as Box<dyn Broker>,
            Box::new(FidelityBroker::new()),
            Box::new(FairBroker::new()),
        ] {
            let name = broker.name().to_string();
            let res = run(broker, 30, 7);
            assert_eq!(res.summary.jobs_finished, 30, "{name}: unfinished jobs");
            assert_eq!(res.summary.jobs_unfinished, 0);
            assert!(res.summary.t_sim > 0.0);
            assert!(res.summary.mean_fidelity > 0.3 && res.summary.mean_fidelity < 1.0);
            // All qubits returned.
            for r in &res.records {
                assert!(r.finished());
                assert!(r.start >= r.arrival);
                assert!(r.exec_end > r.start);
                assert!(r.finish >= r.exec_end);
            }
            assert_eq!(res.telemetry.dispatched, 30, "{name}");
            assert!(res.telemetry.decisions > 0);
        }
    }

    #[test]
    fn fidelity_policy_dominates_fidelity_speed_dominates_time() {
        let speed = run(Box::new(SpeedBroker::new()), 60, 11);
        let fid = run(Box::new(FidelityBroker::new()), 60, 11);
        assert!(
            fid.summary.mean_fidelity > speed.summary.mean_fidelity,
            "error-aware must beat speed on fidelity: {} vs {}",
            fid.summary.mean_fidelity,
            speed.summary.mean_fidelity
        );
        assert!(
            speed.summary.t_sim < fid.summary.t_sim,
            "speed must beat error-aware on makespan: {} vs {}",
            speed.summary.t_sim,
            fid.summary.t_sim
        );
        assert!(
            fid.summary.total_comm < speed.summary.total_comm,
            "error-aware (k=2) must have lowest comm: {} vs {}",
            fid.summary.total_comm,
            speed.summary.total_comm
        );
        // The strict policy parks on capacity it declines; the loop must
        // attribute those waits to the policy, not the fleet.
        assert!(fid.telemetry.waits_policy_hold > 0);
    }

    #[test]
    fn fidelity_policy_uses_exactly_two_devices() {
        let res = run(Box::new(FidelityBroker::new()), 40, 3);
        assert!((res.summary.mean_devices_per_job - 2.0).abs() < 1e-9);
        // T_comm = λ · Σ q_j (k−1) = 0.02 · Σ q_j.
        let expected: f64 = res.records.iter().map(|r| 0.02 * r.num_qubits as f64).sum();
        assert!((res.summary.total_comm - expected).abs() < 1e-6);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(Box::new(SpeedBroker::new()), 25, 5);
        let b = run(Box::new(SpeedBroker::new()), 25, 5);
        assert_eq!(a.summary.t_sim, b.summary.t_sim);
        assert_eq!(a.summary.mean_fidelity, b.summary.mean_fidelity);
        assert_eq!(a.records, b.records);
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn poisson_arrivals_respected() {
        let dist = JobDistribution::default();
        let jobs = crate::jobgen::poisson_arrivals(20, 0.001, &dist, 13);
        let arrivals: Vec<f64> = jobs.iter().map(|j| j.arrival_time).collect();
        let env = QCloudSimEnv::new(
            ibm_fleet(13),
            Box::new(SpeedBroker::new()),
            jobs,
            SimParams::default(),
            13,
        );
        let res = env.run();
        assert_eq!(res.summary.jobs_finished, 20);
        for (r, &a) in res.records.iter().zip(&arrivals) {
            assert_eq!(r.arrival, a);
            assert!(r.start >= a, "job dispatched before arrival");
        }
    }

    #[test]
    fn single_device_job_has_no_comm_penalty() {
        // A job that fits one device: k=1, no comm delay, no φ penalty.
        let small = vec![QJob {
            id: JobId(0),
            num_qubits: 100,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 400,
            arrival_time: 0.0,
        }];
        let env = QCloudSimEnv::new(
            ibm_fleet(1),
            Box::new(SpeedBroker::new()),
            small,
            SimParams::default(),
            1,
        );
        let res = env.run();
        assert_eq!(res.records[0].device_count(), 1);
        assert_eq!(res.records[0].comm_seconds, 0.0);
    }

    #[test]
    fn utilization_reported_per_device() {
        let res = run(Box::new(SpeedBroker::new()), 40, 17);
        assert_eq!(res.device_utilization.len(), 5);
        for (name, u) in &res.device_utilization {
            assert!((0.0..=1.0).contains(u), "{name} utilization {u}");
        }
        // The fast devices must be the most utilised under the speed policy.
        let strasbourg = res.device_utilization[0].1;
        let kawasaki = res.device_utilization[4].1;
        assert!(
            strasbourg > kawasaki,
            "speed policy should load fast devices: {strasbourg} vs {kawasaki}"
        );
        let mean = res.mean_device_utilization();
        assert!(mean > 0.0 && mean <= 1.0);
    }

    #[test]
    fn backfill_improves_or_matches_makespan() {
        // With a blocked large head job, window scanning lets smaller jobs
        // slip through fragmented capacity; makespan must not get worse and
        // every job must still finish.
        let jobs = jobs(60, 23);
        let strict = {
            let params = SimParams::default();
            QCloudSimEnv::new(
                ibm_fleet(23),
                Box::new(SpeedBroker::new()),
                jobs.clone(),
                params,
                23,
            )
            .run()
        };
        let backfilled = {
            let params = SimParams {
                backfill_depth: 8,
                ..SimParams::default()
            };
            QCloudSimEnv::new(
                ibm_fleet(23),
                Box::new(SpeedBroker::new()),
                jobs,
                params,
                23,
            )
            .run()
        };
        assert_eq!(strict.summary.jobs_finished, 60);
        assert_eq!(backfilled.summary.jobs_finished, 60);
        assert!(
            backfilled.summary.t_sim <= strict.summary.t_sim * 1.0001,
            "backfill worsened makespan: {} vs {}",
            backfilled.summary.t_sim,
            strict.summary.t_sim
        );
    }

    #[test]
    fn backfill_preserves_job_set_and_fidelity_range() {
        let jobs = jobs(40, 29);
        let params = SimParams {
            backfill_depth: 4,
            ..SimParams::default()
        };
        let res =
            QCloudSimEnv::new(ibm_fleet(29), Box::new(FairBroker::new()), jobs, params, 29).run();
        assert_eq!(res.summary.jobs_unfinished, 0);
        for r in &res.records {
            assert!((0.0..=1.0).contains(&r.fidelity));
        }
    }

    #[test]
    fn maintenance_blocks_device_and_releases_after() {
        // One device under maintenance from t=0 for a long window: the
        // fidelity policy (strict best-pair) must stall until the window
        // ends, then complete everything.
        let jobs = jobs(5, 31);
        let window = 50_000.0;
        let mut env = QCloudSimEnv::new(
            ibm_fleet(31),
            Box::new(FidelityBroker::new()),
            jobs.clone(),
            SimParams::default(),
            31,
        );
        env.schedule_maintenance(crate::maintenance::MaintenanceWindow {
            device: 0, // ibm_strasbourg — half of the premium pair
            start: 0.0,
            duration: window,
        });
        let res = env.run();
        assert_eq!(res.summary.jobs_finished, 5);
        // Nothing could start before the window ended (the strict policy
        // insists on device 0).
        for r in &res.records {
            assert!(
                r.start >= window,
                "job started during maintenance at t={}",
                r.start
            );
        }

        // Control: without maintenance the first job starts at t=0.
        let control = QCloudSimEnv::new(
            ibm_fleet(31),
            Box::new(FidelityBroker::new()),
            jobs,
            SimParams::default(),
            31,
        )
        .run();
        assert_eq!(control.records[0].start, 0.0);
    }

    #[test]
    fn maintenance_on_unused_device_is_invisible() {
        // Maintaining a noisy device the fidelity policy never touches must
        // not change any outcome.
        let jobs = jobs(20, 37);
        let plain = QCloudSimEnv::new(
            ibm_fleet(37),
            Box::new(FidelityBroker::new()),
            jobs.clone(),
            SimParams::default(),
            37,
        )
        .run();
        let mut env = QCloudSimEnv::new(
            ibm_fleet(37),
            Box::new(FidelityBroker::new()),
            jobs,
            SimParams::default(),
            37,
        );
        env.schedule_maintenance(crate::maintenance::MaintenanceWindow {
            device: 4, // ibm_kawasaki — never selected by the strict pair
            start: 10.0,
            duration: 5_000.0,
        });
        let res = env.run();
        assert_eq!(res.summary.t_sim, plain.summary.t_sim);
        assert_eq!(res.summary.mean_fidelity, plain.summary.mean_fidelity);
    }

    #[test]
    fn exact_connectivity_mode_runs() {
        let params = SimParams {
            exact_connectivity: true,
            ..SimParams::default()
        };
        let env = QCloudSimEnv::new(
            ibm_fleet(19),
            Box::new(SpeedBroker::new()),
            jobs(10, 19),
            params,
            19,
        );
        let res = env.run();
        assert_eq!(res.summary.jobs_finished, 10);
    }

    // --- Queue-aware disciplines through `with_scheduler` -------------

    /// A workload where a huge head job blocks the queue while small jobs
    /// pile up behind it: the EASY discipline's natural habitat.
    fn fragmented_jobs(n: usize, seed: u64) -> Vec<QJob> {
        let dist = JobDistribution {
            qubits: (20, 250),
            ..JobDistribution::default()
        };
        crate::jobgen::poisson_arrivals(n, 0.01, &dist, seed)
    }

    #[test]
    fn easy_backfill_strictly_improves_bimodal_workload() {
        // The `sched` bench scenario (recorded in BENCH_sched.json): on a
        // bimodal head-of-line-blocking trace, EASY backfilling must
        // strictly improve BOTH makespan and mean device utilisation over
        // the FIFO scheduler running the same policy.
        let jobs = crate::jobgen::bimodal_arrivals(400, 0.1, 4, 7);
        let fifo = QCloudSimEnv::new(
            ibm_fleet(7),
            Box::new(SpeedBroker::new()),
            jobs.clone(),
            SimParams::default(),
            7,
        )
        .run();
        let easy = QCloudSimEnv::with_scheduler(
            ibm_fleet(7),
            Box::new(BackfillScheduler::new(Box::new(SpeedBroker::new()))),
            jobs,
            SimParams::default(),
            7,
        )
        .run();
        assert_eq!(fifo.summary.jobs_finished, 400);
        assert_eq!(easy.summary.jobs_finished, 400);
        assert!(
            easy.summary.t_sim < fifo.summary.t_sim,
            "backfill must strictly improve makespan: {} vs {}",
            easy.summary.t_sim,
            fifo.summary.t_sim
        );
        assert!(
            easy.mean_device_utilization() > fifo.mean_device_utilization(),
            "backfill must strictly improve utilisation: {} vs {}",
            easy.mean_device_utilization(),
            fifo.mean_device_utilization()
        );
        assert!(easy.telemetry.out_of_order > 0);
    }

    #[test]
    fn easy_backfill_completes_everything_and_jumps_queue() {
        let jobs = fragmented_jobs(80, 47);
        let fifo = QCloudSimEnv::new(
            ibm_fleet(47),
            Box::new(SpeedBroker::new()),
            jobs.clone(),
            SimParams::default(),
            47,
        )
        .run();
        let easy = QCloudSimEnv::with_scheduler(
            ibm_fleet(47),
            Box::new(BackfillScheduler::new(Box::new(SpeedBroker::new()))),
            jobs,
            SimParams::default(),
            47,
        )
        .run();
        assert_eq!(easy.summary.jobs_finished, 80);
        assert_eq!(easy.summary.strategy, "backfill+speed");
        assert!(easy.telemetry.out_of_order > 0, "no queue jumps happened");
        // EASY must not be worse than FIFO on makespan (deterministic
        // runtimes + shadow-time guard) and should cut the mean wait.
        assert!(
            easy.summary.t_sim <= fifo.summary.t_sim * 1.0001,
            "EASY worsened makespan: {} vs {}",
            easy.summary.t_sim,
            fifo.summary.t_sim
        );
        assert!(
            easy.summary.mean_wait <= fifo.summary.mean_wait,
            "EASY worsened mean wait: {} vs {}",
            easy.summary.mean_wait,
            fifo.summary.mean_wait
        );
    }

    #[test]
    fn priority_sjf_cuts_mean_wait_on_mixed_workload() {
        let jobs = fragmented_jobs(80, 53);
        let fifo = QCloudSimEnv::new(
            ibm_fleet(53),
            Box::new(SpeedBroker::new()),
            jobs.clone(),
            SimParams::default(),
            53,
        )
        .run();
        let sjf = QCloudSimEnv::with_scheduler(
            ibm_fleet(53),
            Box::new(PriorityScheduler::new(
                Box::new(SpeedBroker::new()),
                PriorityDiscipline::ShortestFirst,
            )),
            jobs,
            SimParams::default(),
            53,
        )
        .run();
        assert_eq!(sjf.summary.jobs_finished, 80);
        assert_eq!(sjf.summary.strategy, "priority:sjf+speed");
        assert!(
            sjf.summary.mean_wait < fifo.summary.mean_wait,
            "SJF should cut mean wait: {} vs {}",
            sjf.summary.mean_wait,
            fifo.summary.mean_wait
        );
    }

    #[test]
    fn bypass_telemetry_matches_per_job_counters() {
        // On the bimodal trace EASY jumps the queue constantly; every jump
        // must be charged to the overtaken jobs, and the run-level counter
        // must equal the per-job sum exactly.
        let jobs = crate::jobgen::bimodal_arrivals(200, 0.1, 4, 11);
        let easy = QCloudSimEnv::with_scheduler(
            ibm_fleet(11),
            Box::new(BackfillScheduler::new(Box::new(SpeedBroker::new()))),
            jobs.clone(),
            SimParams::default(),
            11,
        )
        .run();
        assert!(easy.telemetry.out_of_order > 0);
        let per_job: u64 = easy.records.iter().map(|r| r.bypassed as u64).sum();
        assert_eq!(easy.telemetry.bypass_events, per_job);
        // A jump overtakes at least one job.
        assert!(easy.telemetry.bypass_events >= easy.telemetry.out_of_order);

        // Strict FIFO never overtakes anyone.
        let fifo = QCloudSimEnv::new(
            ibm_fleet(11),
            Box::new(SpeedBroker::new()),
            jobs,
            SimParams::default(),
            11,
        )
        .run();
        assert_eq!(fifo.telemetry.bypass_events, 0);
        assert!(fifo.records.iter().all(|r| r.bypassed == 0));
    }

    #[test]
    fn conservative_bounds_starvation_on_bimodal_workload() {
        use crate::sla::{DeadlinePolicy, QosReport};
        let jobs = crate::jobgen::bimodal_arrivals(200, 0.1, 4, 13);
        let run = |spec: &str| {
            QCloudSimEnv::with_scheduler(
                ibm_fleet(13),
                crate::policies::scheduler_by_name(spec, 13, 1).unwrap(),
                jobs.clone(),
                SimParams::default(),
                13,
            )
            .run()
        };
        let easy = run("backfill+speed");
        let cons = run("conservative+speed");
        assert_eq!(easy.summary.jobs_unfinished, 0);
        assert_eq!(cons.summary.jobs_unfinished, 0);
        assert!(
            cons.telemetry.out_of_order > 0,
            "conservative still backfills"
        );
        let q_easy = QosReport::from_records(&easy.records, DeadlinePolicy::default());
        let q_cons = QosReport::from_records(&cons.records, DeadlinePolicy::default());
        // The point of per-job reservations is bounded *delay*, not fewer
        // jumps: conservative actually overtakes more often (its interval
        // admission finds holes EASY's complete-before-shadow rule
        // rejects), but every jump is promise-safe — so the delay tails
        // must not degrade, and mean slowdown must improve.
        assert!(
            q_cons.bypass_mean > q_easy.bypass_mean,
            "more (harmless) jumps expected"
        );
        assert!(
            q_cons.wait_p99 <= q_easy.wait_p99,
            "conservative wait tail {} worse than EASY's {}",
            q_cons.wait_p99,
            q_easy.wait_p99
        );
        assert!(
            q_cons.wait_max <= q_easy.wait_max,
            "conservative worst wait {} worse than EASY's {}",
            q_cons.wait_max,
            q_easy.wait_max
        );
        assert!(
            q_cons.mean_slowdown < q_easy.mean_slowdown,
            "conservative mean slowdown {} not better than EASY's {}",
            q_cons.mean_slowdown,
            q_easy.mean_slowdown
        );
        assert!(q_cons.fairness_jain.is_finite() && q_cons.fairness_jain > 0.0);
    }

    #[test]
    fn conservative_completes_through_maintenance() {
        // A mid-trace window on a premium device: reservations must dodge
        // it and every job must still finish (availability-aware promises,
        // no deadlock at the window edges).
        let jobs = fragmented_jobs(60, 59);
        let mut env = QCloudSimEnv::with_scheduler(
            ibm_fleet(59),
            Box::new(ConservativeBackfillScheduler::new(Box::new(
                SpeedBroker::new(),
            ))),
            jobs,
            SimParams::default(),
            59,
        );
        env.schedule_maintenance(crate::maintenance::MaintenanceWindow {
            device: 1,
            start: 500.0,
            duration: 4_000.0,
        });
        let res = env.run();
        assert_eq!(res.summary.jobs_unfinished, 0);
        assert_eq!(res.summary.strategy, "conservative+speed");
    }

    #[test]
    fn telemetry_accounts_for_every_dispatch() {
        let res = run(Box::new(SpeedBroker::new()), 50, 61);
        assert_eq!(res.telemetry.dispatched, 50);
        assert!(res.telemetry.decisions >= 1);
        assert!(res.telemetry.total_waits() >= 1, "the run must have idled");
    }

    // --- Fault injection and recovery ---------------------------------

    use crate::config::ReleasePolicy;
    use crate::faults::{AvoidSet, DeviceAvoidingBroker, FaultScript, RetryPolicy};
    use crate::records::FinalStatus;

    fn faulty_run(
        spec: &str,
        script: FaultScript,
        retry: RetryPolicy,
        release: ReleasePolicy,
        seed: u64,
    ) -> RunResult {
        // All-at-zero batch: the fleet is saturated from the first wave,
        // so a crash while work is in flight is guaranteed.
        let jobs = jobs(40, seed);
        let params = SimParams {
            release,
            ..SimParams::default()
        };
        let mut env = QCloudSimEnv::with_scheduler(
            ibm_fleet(seed),
            crate::policies::scheduler_by_name(spec, seed, 1).unwrap(),
            jobs,
            params,
            seed,
        );
        env.install_faults(script, retry, None);
        env.run()
    }

    #[test]
    fn crash_conserves_qubits_under_every_discipline() {
        // A mid-trace crash on a busy device under each discipline and both
        // release policies: every job must end terminal (completed after
        // retries — attempts are generous), all qubits must come back (the
        // teardown assert fires on the all-terminal path), and jobs killed
        // by the crash must carry their wasted work.
        for spec in [
            "speed",
            "backfill+speed",
            "conservative+speed",
            "priority:sjf+speed",
            "priority:aging+fair",
            "conservative+fair",
        ] {
            for release in [ReleasePolicy::PerDevice, ReleasePolicy::AtJobEnd] {
                // A t=0 crash lands right after the first dispatch wave
                // (unplanned: its event is sequenced behind the wave).
                let script = FaultScript::new(5).with_crash(0, 0.0, 1_500.0);
                let retry = RetryPolicy {
                    max_attempts: 8,
                    ..RetryPolicy::default()
                };
                let res = faulty_run(spec, script, retry, release, 43);
                assert!(
                    res.records.iter().all(|r| r.terminal()),
                    "{spec}/{release:?}: non-terminal job survived the run"
                );
                assert_eq!(
                    res.summary.jobs_finished, 40,
                    "{spec}/{release:?}: lost jobs"
                );
                // Note: a t=0 crash kills zero-elapsed attempts, so wasted
                // qubit-seconds can legitimately be 0 here; the exec-failure
                // test covers the wasted-work accounting.
                let retried = res.records.iter().filter(|r| r.attempts > 1).count();
                assert!(retried > 0, "{spec}/{release:?}: the crash killed nobody");
            }
        }
    }

    #[test]
    fn exec_failures_retry_and_honestly_exhaust() {
        // Brutal failure odds and a tight attempt cap: some jobs must
        // exhaust. Nothing is lost — every record is terminal, exhausted
        // jobs are flagged, and the QoS metrics see the waste.
        let script = FaultScript::new(11).with_exec_failures(0.6);
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff_s: 20.0,
            ..RetryPolicy::default()
        };
        let res = faulty_run(
            "backfill+speed",
            script,
            retry,
            ReleasePolicy::PerDevice,
            17,
        );
        assert!(res.records.iter().all(|r| r.terminal()));
        let exhausted = res
            .records
            .iter()
            .filter(|r| r.final_status == FinalStatus::RetriesExhausted)
            .count();
        assert!(exhausted > 0, "0.6 × 2 attempts must exhaust someone");
        assert_eq!(
            res.summary.jobs_finished + exhausted,
            40,
            "every job completes or exhausts"
        );
        for r in &res.records {
            assert!(r.attempts >= 1 && r.attempts <= 2);
            if r.final_status == FinalStatus::RetriesExhausted {
                assert!(!r.finished());
                assert!(r.wasted_qubit_s > 0.0, "exhausted with no wasted work");
            }
        }
        let qos = crate::sla::QosReport::from_records(&res.records, Default::default());
        assert!(qos.goodput < 1.0 && qos.goodput > 0.0);
        assert!(qos.retry_rate > 0.0);
        assert_eq!(qos.jobs_exhausted, exhausted);
    }

    #[test]
    fn fault_runs_are_seed_deterministic() {
        let mk = || {
            let script = FaultScript::new(3)
                .with_crash(1, 300.0, 900.0)
                .with_exec_failures(0.15);
            faulty_run(
                "conservative+speed",
                script,
                RetryPolicy::default(),
                ReleasePolicy::PerDevice,
                29,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.records, b.records, "same script must replay bit-exact");
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn empty_fault_script_changes_nothing() {
        // Arming an empty script must leave the record stream bit-identical
        // to the unarmed run (the registry bookkeeping is inert).
        let jobs = fragmented_jobs(30, 71);
        let plain = QCloudSimEnv::new(
            ibm_fleet(71),
            Box::new(SpeedBroker::new()),
            jobs.clone(),
            SimParams::default(),
            71,
        )
        .run();
        let mut env = QCloudSimEnv::new(
            ibm_fleet(71),
            Box::new(SpeedBroker::new()),
            jobs,
            SimParams::default(),
            71,
        );
        env.install_faults(FaultScript::new(0), RetryPolicy::default(), None);
        let armed = env.run();
        assert_eq!(plain.records, armed.records);
        assert_eq!(plain.telemetry, armed.telemetry);
    }

    #[test]
    fn avoid_set_steers_resubmission_and_clears_on_completion() {
        // prefer_different_device wiring: the same AvoidSet handle goes to
        // the broker wrapper and install_faults. After the run every mask
        // must be cleared (completion or exhaustion tidies up).
        let avoid = AvoidSet::new();
        let broker = Box::new(DeviceAvoidingBroker::new(
            Box::new(SpeedBroker::new()),
            avoid.clone(),
        ));
        let jobs = fragmented_jobs(30, 83);
        let mut env = QCloudSimEnv::new(ibm_fleet(83), broker, jobs, SimParams::default(), 83);
        let script = FaultScript::new(7).with_exec_failures(0.3);
        let retry = RetryPolicy {
            prefer_different_device: true,
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        env.install_faults(script, retry, Some(avoid.clone()));
        let res = env.run();
        assert!(res.records.iter().all(|r| r.terminal()));
        assert!(
            res.records.iter().any(|r| r.attempts > 1),
            "p = 0.3 over 30 jobs must fail someone"
        );
        for r in &res.records {
            assert_eq!(avoid.mask(r.job_id), 0, "mask leaked for {:?}", r.job_id);
        }
    }

    #[test]
    fn conservative_fidelity_never_strands_the_queue_on_an_idle_fleet() {
        // Regression: under the strict fidelity broker, failed 250-qubit
        // attempts re-queued at the tail re-slot past the head's booking,
        // and the head stayed booked at an instant no event ever reached —
        // the scheduler parked with work queued, no lease in flight and the
        // fleet idle, and teardown found the shared state still held.
        for (seed, n) in [(4u64, 400usize), (1, 600)] {
            let mut env = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                crate::policies::scheduler_by_name("conservative+fidelity", seed, 1).unwrap(),
                crate::jobgen::bimodal_arrivals(n, 0.05, 5, seed),
                SimParams {
                    release: ReleasePolicy::AtJobEnd,
                    ..SimParams::default()
                },
                seed,
            );
            env.install_faults(
                FaultScript::new(seed).with_exec_failures(0.05),
                RetryPolicy {
                    max_attempts: 4,
                    ..RetryPolicy::default()
                },
                None,
            );
            let res = env.run();
            assert_eq!(res.records.len(), n);
            assert!(
                res.records.iter().all(|r| r.terminal()),
                "seed {seed}: non-terminal job survived the run"
            );
        }
    }

    /// A discipline that never dispatches: parks the loop for good.
    struct NeverDispatch;
    impl Scheduler for NeverDispatch {
        fn decide(
            &mut self,
            _queue: &[QJob],
            _state: &CloudState,
        ) -> crate::sched::SchedulingDecision {
            crate::sched::SchedulingDecision::wait(crate::sched::WaitReason::PolicyHold)
        }
        fn name(&self) -> &str {
            "never"
        }
    }

    #[test]
    #[should_panic(expected = "scheduler 'never' parked with 3 queued jobs, 0 of 3 terminal")]
    fn batch_teardown_names_a_stalled_scheduler() {
        QCloudSimEnv::with_scheduler(
            ibm_fleet(5),
            Box::new(NeverDispatch),
            jobs(3, 5),
            SimParams::default(),
            5,
        )
        .run();
    }

    #[test]
    #[should_panic(expected = "scheduler 'never' parked with 2 queued jobs, 0 of 2 terminal")]
    fn service_teardown_names_a_stalled_scheduler() {
        crate::service::ServiceHarness::new(
            vec![ibm_fleet(6)],
            |_| Box::new(NeverDispatch),
            jobs(2, 6),
            SimParams::default(),
            crate::service::ServiceConfig::default(),
            6,
        )
        .run();
    }

    #[test]
    fn offline_wait_reason_reported_during_outage() {
        // One job running on a crashed device, more arriving during the
        // outage that need the whole fleet: the waits must be blamed on the
        // outage, not on load.
        let dist = JobDistribution {
            qubits: (500, 550),
            ..JobDistribution::default()
        };
        let jobs = crate::jobgen::poisson_arrivals(6, 0.005, &dist, 97);
        let mut env = QCloudSimEnv::new(
            ibm_fleet(97),
            Box::new(SpeedBroker::new()),
            jobs,
            SimParams::default(),
            97,
        );
        env.install_faults(
            FaultScript::new(1).with_crash(0, 100.0, 20_000.0),
            RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            None,
        );
        let res = env.run();
        assert!(res.records.iter().all(|r| r.terminal()));
        assert!(
            res.telemetry.waits_device_offline > 0,
            "fleet-spanning jobs waiting out an outage must report DeviceOffline"
        );
    }
}
