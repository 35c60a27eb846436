//! The simulation environment (`QCloudSimEnv`, paper §3): orchestrates job
//! arrival, queue-aware cloud-level scheduling, atomic multi-device
//! reservation, parallel execution, inter-device communication and release.
//!
//! ## Orchestration design
//!
//! A shard — one fleet, its pending queue, qubit ledger, records and
//! scheduler — is a `SchedState` in the `World` of a `qcs-desim`
//! [`Simulation`]. The kernel owns that world and lends it to whichever
//! coroutine it resumes, so the coroutines carry a shard index instead of
//! shared handles and no lock guards the state. Three kinds of coroutine
//! cooperate on it:
//!
//! * the **intake** releases jobs into the shard's pending queue at their
//!   arrival times and wakes the scheduler. Batch and service share one
//!   intake coroutine, the service engine's `RouterProc`: over the batch
//!   environment's one shard, with an admission policy that accepts
//!   everything, it never routes or refuses;
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
//!   (EASY backfilling, priority orders) ride the same loop. The loop is
//!   two crate-private functions: `consult` runs one wake (terminal check,
//!   park on an empty queue, refresh, decide, telemetry) and
//!   `apply_decision` applies one batch. The RL training environment
//!   ([`crate::rlsched::SchedulerEnv`]) calls both from outside the kernel
//!   to answer a parked consult with the agent's pick. When a shard carries
//!   a decide-latency histogram (service shards do) `consult` wall-clocks
//!   every 16th `decide` into it; otherwise it reads no clock at all.
//! * one **executor** per dispatched job: `apply_decision` computes the
//!   execution time (Eq. 3, `max` over its devices) and spawns the
//!   executor straight into it, so its first resume is the end of
//!   execution. It then sleeps through the blocking communication delay
//!   (Eq. 9), computes the final fidelity (Eqs. 4–8), releases its qubits
//!   back into the lease-tracked state, logs completion, and wakes the
//!   scheduler. Under per-device release each part gets a
//!   **sub-executor**, spawned straight into that device's own execution
//!   time, which releases the part's qubits and wakes the scheduler. A
//!   batch spawns every executor first, then every sub-executor, each in
//!   dispatch order, so same-instant releases fire in that order.
//!
//! The batch environment's world holds one shard; the [`crate::service`]
//! engine puts every region shard in one world or gives each a kernel of
//! its own. When the kernel drains, the world comes back whole: a shard
//! whose scheduler parked with work left is a liveness bug, and the
//! teardown panics naming its scheduler.
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
//! * at the crash instant the device goes offline and **every job holding
//!   a lease on it is killed**: its execution coroutines are terminated
//!   mid-flight, all of its leases (on every device — the whole
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
//!
//! Outages may overlap: a device is offline while any maintenance window
//! or crash covers it, and comes back when the last of them ends.

use std::collections::VecDeque;
use std::time::Instant;

use crate::broker::{Broker, Parts};
use crate::cloud::QCloud;
use crate::config::{ReleasePolicy, SimParams};
use crate::device::DeviceId;
use crate::faults::{FaultInjector, FaultScript, RetryPolicy};
use crate::inline_vec::InlineVec;
use crate::job::{IdMap, JobId, QJob};
use crate::maintenance::{MaintenanceProc, MaintenanceWindow, OfflineFlags};
use crate::model::fidelity::DeviceErrorRates;
use crate::records::{JobRecord, JobRecordsManager, SummaryStats};
use crate::sched::{
    CloudState, DeviceSpec, FifoAdapter, SchedTelemetry, Scheduler, SchedulingDecision, WaitReason,
};
use crate::service::{AdmissionTelemetry, RouterProc};
use qcs_calibration::DeviceProfile;
use qcs_desim::{Coroutine, Ctx, Effect, Kernel, LogHistogram, ProcessId, Simulation, Step};

/// Per-device constants the executors read.
#[derive(Debug, Clone)]
struct DeviceStatic {
    error_rates: DeviceErrorRates,
    clops: f64,
    qv_layers: f64,
}

/// The armed fault machinery ([`QCloudSimEnv::install_faults`]).
struct FaultState {
    injector: FaultInjector,
    retry: RetryPolicy,
}

/// One in-flight job attempt, tracked only while faults are armed so a
/// crash (or execution failure) can kill its coroutines and resubmit it.
struct RunningJob {
    job: QJob,
    exec_pid: ProcessId,
    sub_pids: InlineVec<ProcessId, 4>,
}

/// The world of a shard engine kernel: the shards it hosts, and the
/// counters of the service intake that feeds them.
#[derive(Default)]
pub(crate) struct World {
    pub(crate) shards: Vec<SchedState>,
    /// This kernel's admission verdicts (in batch runs, one accept per
    /// job). The service engine sums them over its kernels at teardown.
    pub(crate) admission: AdmissionTelemetry,
}

/// One scheduler shard: the fleet and everything its coroutines read and
/// write. `pub(crate)` so the [`crate::service`] front end can drive a
/// shard's queue through the same loop the batch environment uses.
pub(crate) struct SchedState {
    pub(crate) cloud: QCloud,
    info: Vec<DeviceStatic>,
    params: SimParams,
    pub(crate) pending: VecDeque<QJob>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) cloud_state: CloudState,
    pub(crate) records: JobRecordsManager,
    pub(crate) telemetry: SchedTelemetry,
    /// Wall-clock durations of the `decide` calls [`consult`] samples,
    /// when timed: service shards set it. The batch and training
    /// environments leave it `None` and pay nothing. Timings never feed
    /// back into the run.
    pub(crate) decide_latency: Option<LogHistogram>,
    /// Jobs this shard must drive to a terminal state before its scheduler
    /// loop may exit. Batch runs fix it at construction; service mode
    /// starts it at `usize::MAX` (stream still open) and the router
    /// finalises it once the arrival stream is exhausted.
    pub(crate) total_jobs: usize,
    /// Jobs the service-mode intake throttle is holding for re-offer:
    /// while non-zero, an empty pending queue means "admission deferred
    /// work", not "traffic ran dry". Always 0 in batch runs.
    pub(crate) throttled_inflight: usize,
    /// The shard's [`SchedulerProc`], woken whenever its inputs change.
    sched_pid: ProcessId,
    /// Which devices are down right now, as the scheduler sees them.
    offline: OfflineFlags,
    /// Outages (maintenance windows and crashes) covering each device right
    /// now; a device is offline while its count is positive.
    outages: Vec<u32>,
    /// In-flight attempts by job id; empty when `faults` is `None`. Only
    /// looked up, never iterated, so its hash order cannot reach any result.
    running: IdMap<u64, RunningJob>,
    faults: Option<FaultState>,
    /// The sub-executors of the batch [`apply_decision`] is applying, with
    /// their durations, spawned after all of its executors; empty between
    /// batches.
    sub_spawns: Vec<(f64, SubExec)>,
}

impl SchedState {
    /// Opens (`begins`) or closes one outage of `device`.
    pub(crate) fn outage(&mut self, device: usize, begins: bool) {
        let n = &mut self.outages[device];
        if begins {
            *n += 1;
        } else {
            *n -= 1;
        }
        self.offline.set_offline(device, *n > 0);
    }
}

/// Runs `sim` until its heap drains, then checks that every shard drove
/// its jobs to a terminal state. A shard that did not has a scheduler that
/// parked for good with work left — a liveness bug: the panic names it.
pub(crate) fn run_settled(sim: &mut Simulation<World>) {
    sim.run();
    for st in &sim.world().shards {
        assert!(
            st.records.terminal_count() == st.total_jobs,
            "scheduler '{}' parked with {} queued jobs, {} of {} terminal",
            st.scheduler.name(),
            st.pending.len(),
            st.records.terminal_count(),
            st.total_jobs
        );
    }
}

/// Builds a drained shard's [`RunResult`]: utilisation read off its qubit
/// ledger at `t_end`, the records, and qubit conservation asserted when
/// every job reached a terminal state. `events_processed` is the count of
/// the kernel the shard ran on.
pub(crate) fn finish_shard(st: SchedState, t_end: f64, events_processed: u64) -> RunResult {
    let device_utilization = st
        .cloud
        .devices()
        .iter()
        .map(|d| {
            (
                d.name().to_string(),
                st.cloud_state.mean_utilization(d.id, t_end),
            )
        })
        .collect();
    let records = st.records.into_records();
    if records.iter().all(|r| r.terminal()) {
        // Qubit conservation: every reservation came back — including
        // those revoked from crashed devices and exhausted jobs.
        st.cloud_state.assert_all_released();
    }
    RunResult {
        summary: SummaryStats::from_records(st.scheduler.name(), &records),
        records,
        device_utilization,
        events_processed,
        telemetry: st.telemetry,
    }
}

/// Wakes `shard`'s scheduler.
pub(crate) fn wake_scheduler(cx: &mut Ctx<'_, World>, shard: usize) {
    let pid = cx.world.shards[shard].sched_pid;
    cx.wake(pid);
}

/// Tears down one failed job attempt and routes it through the retry
/// policy: kills any of its execution coroutines still in flight, revokes
/// every lease it still holds, records the requeue (or exhaustion), and
/// schedules the resubmission. Shared by the crash path ([`CrashProc`],
/// `kill_exec: true`) and the execution-failure path (the [`Executor`]
/// failing itself, which terminates on its own — `kill_exec: false`). The
/// caller wakes the scheduler afterwards.
fn fail_and_requeue(cx: &mut Ctx<'_, World>, shard: usize, job_id: u64, kill_exec: bool) {
    let now = cx.now();
    let st = &mut cx.world.shards[shard];
    let Some(run) = st.running.remove(&job_id) else {
        return;
    };
    if kill_exec {
        cx.kernel.kill(run.exec_pid);
    }
    // Sub-executors whose release event ties with this instant fire *after*
    // it (spawn-order sequencing): their leases are still held and must be
    // revoked. Already-finished sub-executors just return `false` here.
    for &p in &run.sub_pids {
        cx.kernel.kill(p);
    }
    st.cloud_state.revoke_job(run.job.id, now);
    let faults = st
        .faults
        .as_ref()
        .expect("failure path reached without faults armed");
    let retry = faults.retry;
    let attempts = st.records.record_requeue(run.job.id, now);
    if attempts < retry.max_attempts {
        let delay = retry.backoff_seconds(faults.injector.seed(), run.job.id, attempts);
        cx.kernel.spawn_after(
            delay,
            Box::new(RetryProc {
                job: Some(run.job),
                shard,
            }),
        );
    } else {
        st.records.record_exhausted(run.job.id);
    }
}

// ---------------------------------------------------------------------
// Coroutines
// ---------------------------------------------------------------------

/// A timed shard times one `decide` in this many (see [`consult`]).
const DECIDE_SAMPLE_STRIDE: u64 = 16;

/// Drives the shard's [`Scheduler`] discipline against its queue and state.
struct SchedulerProc {
    shard: usize,
}

impl Coroutine<World> for SchedulerProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        consult(cx.kernel, cx.world, self.shard)
    }
}

/// The scheduler loop of one wake of `shard`: consults its discipline and
/// applies each decision until one parks, the queue empties or every job
/// is terminal. [`SchedulerProc`] runs it on every wake; the training
/// environment ([`crate::rlsched::SchedulerEnv`]) re-enters it after
/// answering a consult itself, as the loop would continue inside one
/// resume. When the shard has a `decide_latency` histogram (service
/// shards), the `decide` calls that `telemetry.decisions` numbers 0, 16,
/// 32, … are timed into it: a deterministic 1-in-16 sample, so the clock
/// pair and the histogram record do not tax every consult. With `None`
/// (batch runs, training) no clock is read.
pub(crate) fn consult(kernel: &mut Kernel<World>, world: &mut World, shard: usize) -> Step {
    let now = kernel.now();
    let st = &mut world.shards[shard];
    loop {
        // Terminal = completed or honestly out of retries: with faults
        // armed an exhausted job never finishes but must not park the
        // scheduler forever.
        if st.records.terminal_count() == st.total_jobs {
            return Step::Done;
        }
        if st.pending.is_empty() {
            // Queue empty but jobs still in flight or yet to arrive.
            // When the service-mode intake is holding throttled jobs,
            // the idleness is admission-induced — attribute it
            // honestly.
            if st.throttled_inflight > 0 {
                st.telemetry.waits_admission_throttled += 1;
            } else {
                st.telemetry.waits_queue_drained += 1;
            }
            return Step::Wait(Effect::Suspend);
        }
        st.cloud_state.refresh(now, &st.offline);
        let queue = st.pending.make_contiguous();
        let decision = match &mut st.decide_latency {
            Some(latency) if st.telemetry.decisions.is_multiple_of(DECIDE_SAMPLE_STRIDE) => {
                let t0 = Instant::now();
                let decision = st.scheduler.decide(queue, &st.cloud_state);
                latency.record(t0.elapsed());
                decision
            }
            _ => st.scheduler.decide(queue, &st.cloud_state),
        };
        // Nothing dispatched means nothing changed: re-consulting at
        // once would return the same decision forever.
        assert!(
            !decision.dispatches.is_empty() || decision.wait.is_some(),
            "scheduler '{}' dispatched nothing and gave no wait reason",
            st.scheduler.name()
        );
        st.telemetry.decisions += 1;
        if decision.dispatches.len() >= 2 {
            st.telemetry.multi_dispatch_batches += 1;
        }
        // Without a wait reason the discipline asked for an immediate
        // re-consult: the RL scheduler after each pick, the idle-fleet
        // fallback of conservative and of the RL scheduler, and the
        // seed-mechanics oracle of the FIFO parity tests, which dispatches
        // one job per decision.
        if let Some(reason) = apply_decision(kernel, st, shard, decision) {
            st.telemetry.count_wait(reason);
            return Step::Wait(Effect::Suspend);
        }
    }
}

/// Applies one decision's dispatch batch to shard `shard` (whose state is
/// `st`) at the kernel's current instant, in order: validates each
/// dispatch, records the bypasses and the start, reserves the qubits,
/// computes the execution time (Eq. 3) and spawns the executor straight
/// into it. Under [`ReleasePolicy::PerDevice`] each part's [`SubExec`] is
/// then spawned straight into its own release, after every executor of
/// the batch, in dispatch order. Returns the decision's wait reason.
pub(crate) fn apply_decision(
    kernel: &mut Kernel<World>,
    st: &mut SchedState,
    shard: usize,
    decision: SchedulingDecision,
) -> Option<WaitReason> {
    let now = kernel.now();
    let tracked = st.faults.is_some();
    let per_device = st.params.release == ReleasePolicy::PerDevice;
    for d in decision.dispatches {
        assert!(
            d.queue_index < st.pending.len(),
            "scheduler '{}' dispatched queue index {} of {}",
            st.scheduler.name(),
            d.queue_index,
            st.pending.len()
        );
        if d.queue_index > 0 {
            st.telemetry.out_of_order += 1;
            // Every older job still waiting ahead of the jumper was
            // overtaken once: the per-job starvation signal behind
            // `QosReport`'s bypass metrics.
            st.telemetry.bypass_events += d.queue_index as u64;
            for bi in 0..d.queue_index {
                let overtaken = st.pending[bi].id;
                st.records.record_bypass(overtaken);
            }
        }
        let job = st
            .pending
            .remove(d.queue_index)
            .expect("index checked above");
        let total: u64 = d.parts.iter().map(|&(_, a)| a).sum();
        assert_eq!(
            total,
            job.num_qubits,
            "scheduler '{}' allocated {total} of {} qubits for job {:?}",
            st.scheduler.name(),
            job.num_qubits,
            job.id
        );
        if st.params.exact_connectivity {
            let tops: Vec<&qcs_topology::Graph> = st
                .cloud
                .devices()
                .iter()
                .map(|d| &d.profile.topology)
                .collect();
            assert!(
                crate::partition::connectivity_feasible(&d.parts, &tops),
                "partition violates device connectivity"
            );
        }
        let attempt = st.records.record_start(job.id, now, &d.parts);
        // Reserve in the incremental state (panics on any
        // over-commitment — the no-double-reservation guard).
        st.cloud_state.reserve(&job, &d.parts, now);
        st.telemetry.dispatched += 1;
        // Parallel execution: the job runs as long as its slowest sub-job
        // (§4: T(a) = max_i T_i).
        let mut exec = 0.0f64;
        for &(device, qubits) in &d.parts {
            let dev = &st.info[device.index()];
            let duration =
                st.params
                    .exec
                    .execution_seconds(job.num_shots, dev.qv_layers, dev.clops);
            exec = exec.max(duration);
            if per_device {
                let sub = SubExec {
                    job: job.id,
                    device,
                    qubits,
                    shard,
                };
                st.sub_spawns.push((duration, sub));
            }
        }
        let registration = tracked.then(|| job.clone());
        let exec_pid = kernel.spawn_after(
            exec,
            Box::new(Executor {
                job,
                parts: d.parts,
                shard,
                phase: 0,
                comm_seconds: 0.0,
                attempt,
                tracked,
            }),
        );
        if let Some(job) = registration {
            st.running.insert(
                job.id.0,
                RunningJob {
                    job,
                    exec_pid,
                    sub_pids: InlineVec::new(),
                },
            );
        }
    }
    for (duration, sub) in st.sub_spawns.drain(..) {
        let job = sub.job;
        let pid = kernel.spawn_after(duration, Box::new(sub));
        if tracked {
            // Registered so a crash can kill it before its release fires.
            if let Some(run) = st.running.get_mut(&job.0) {
                run.sub_pids.push(pid);
            }
        }
    }
    decision.wait
}

/// Releases one device's partition when its own sub-job finishes
/// ([`ReleasePolicy::PerDevice`]): spawned by [`apply_decision`] into the
/// device's execution time, it resumes once, at the release.
struct SubExec {
    job: JobId,
    device: DeviceId,
    qubits: u64,
    shard: usize,
}

impl Coroutine<World> for SubExec {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let now = cx.now();
        cx.world.shards[self.shard]
            .cloud_state
            .release(self.job, self.device, self.qubits, now);
        wake_scheduler(cx, self.shard);
        Step::Done
    }
}

/// Runs one dispatched job attempt: spawned into its execution time by
/// [`apply_decision`], it first resumes when execution ends (phase 0) and
/// then when the communication delay ends (phase 1).
struct Executor {
    job: QJob,
    parts: Parts,
    shard: usize,
    phase: u8,
    comm_seconds: f64,
    /// 1-based attempt number (drives the failure draw and backoff).
    attempt: u32,
    /// Whether faults are armed (skips all registry work when not).
    tracked: bool,
}

impl Coroutine<World> for Executor {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        match self.phase {
            0 => {
                let now = cx.now();
                let st = &mut cx.world.shards[self.shard];
                let failed = self.tracked
                    && st.faults.as_ref().is_some_and(|f| {
                        f.injector
                            .exec_failure(self.job.id, self.attempt, &self.parts)
                    });
                if failed {
                    fail_and_requeue(cx, self.shard, self.job.id.0, false);
                    wake_scheduler(cx, self.shard);
                    return Step::Done;
                }
                st.records.record_exec_end(self.job.id, now);
                // Blocking classical communication (Eq. 9 per link).
                self.comm_seconds = st
                    .params
                    .comm
                    .comm_seconds(self.job.num_qubits, self.parts.len());
                self.phase = 1;
                Step::Wait(Effect::Timeout(self.comm_seconds))
            }
            1 => {
                // Final fidelity (Eqs. 4–8).
                let now = cx.now();
                let st = &mut cx.world.shards[self.shard];
                let k = self.parts.len();
                let fids: InlineVec<f64, 4> = self
                    .parts
                    .iter()
                    .map(|&(d, a)| {
                        let dev = &st.info[d.index()];
                        st.params.fidelity.device_fidelity(
                            &dev.error_rates,
                            self.job.depth,
                            self.job.two_qubit_gates,
                            a,
                            self.job.num_qubits,
                            k,
                        )
                    })
                    .collect();
                let fidelity = st.params.fidelity.final_fidelity(&fids, st.params.comm.phi);
                // Under AtJobEnd the qubits are still held: release now.
                if st.params.release == ReleasePolicy::AtJobEnd {
                    for &(d, a) in &self.parts {
                        st.cloud_state.release(self.job.id, d, a, now);
                    }
                }
                st.records
                    .record_finish(self.job.id, now, fidelity, self.comm_seconds);
                if self.tracked {
                    st.running.remove(&self.job.id.0);
                }
                wake_scheduler(cx, self.shard);
                Step::Done
            }
            _ => unreachable!("executor resumed after completion"),
        }
    }
}

/// An unplanned device outage ([`crate::faults::CrashEvent`]): at `at` the
/// device goes dark — offline, every job leasing it killed and requeued —
/// and after `down_for` seconds this outage ends. Unlike
/// [`crate::maintenance::MaintenanceProc`] the outage is *not* on the
/// maintenance calendar: no reservation timeline sees it coming, and while
/// the device is down it is invisible to every lookahead (an offline device
/// with no calendar window contributes nothing to the projection).
struct CrashProc {
    device: usize,
    at: f64,
    down_for: f64,
    shard: usize,
    phase: u8,
}

impl Coroutine<World> for CrashProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        match self.phase {
            0 => {
                self.phase = 1;
                Step::Wait(Effect::Timeout((self.at - cx.now()).max(0.0)))
            }
            1 => {
                let st = &mut cx.world.shards[self.shard];
                st.outage(self.device, true);
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
                    fail_and_requeue(cx, self.shard, v, true);
                }
                debug_assert!(
                    cx.world.shards[self.shard]
                        .cloud_state
                        .leases()
                        .iter()
                        .all(|l| l.device.index() != self.device),
                    "lease survived its device's crash"
                );
                wake_scheduler(cx, self.shard);
                self.phase = 2;
                Step::Wait(Effect::Timeout(self.down_for))
            }
            2 => {
                cx.world.shards[self.shard].outage(self.device, false);
                wake_scheduler(cx, self.shard);
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
    shard: usize,
}

impl Coroutine<World> for RetryProc {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let job = self.job.take().expect("retry resumed twice");
        cx.world.shards[self.shard].pending.push_back(job);
        wake_scheduler(cx, self.shard);
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

/// Registers `profiles` as a fleet, adds the shard to `sim`'s world and
/// spawns its [`SchedulerProc`]. `total_jobs` is the shard's termination
/// target; pass `usize::MAX` to leave the stream open (service mode — the
/// intake router finalises it later). The caller is responsible for
/// feeding the queue (a [`RouterProc`]: [`RouterProc::open`] in batch runs).
pub(crate) fn spawn_shard(
    sim: &mut Simulation<World>,
    profiles: Vec<DeviceProfile>,
    scheduler: Box<dyn Scheduler>,
    params: &SimParams,
    total_jobs: usize,
) {
    let cloud = QCloud::new(profiles, &params.error_weights);
    let info: Vec<DeviceStatic> = cloud
        .devices()
        .iter()
        .map(|d| DeviceStatic {
            error_rates: d.error_rates,
            clops: d.clops(),
            qv_layers: d.qv_layers(),
        })
        .collect();
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
    let queue_capacity = if total_jobs == usize::MAX {
        0
    } else {
        total_jobs
    };
    let shard = sim.world().shards.len();
    let sched_pid = sim.spawn(Box::new(SchedulerProc { shard }));
    sim.world_mut().shards.push(SchedState {
        pending: VecDeque::with_capacity(queue_capacity),
        scheduler,
        cloud_state: CloudState::new(&specs, params),
        records: JobRecordsManager::new(),
        telemetry: SchedTelemetry::default(),
        decide_latency: None,
        total_jobs,
        throttled_inflight: 0,
        sched_pid,
        offline: OfflineFlags::new(info.len()),
        outages: vec![0; info.len()],
        running: IdMap::default(),
        faults: None,
        sub_spawns: Vec::new(),
        cloud,
        info,
        params: params.clone(),
    });
}

/// Resolves and arms a [`FaultScript`] on one shard: validates, builds the
/// deterministic [`FaultInjector`] from the shard's calibration data,
/// stores the [`FaultState`] in the shard, and spawns one [`CrashProc`]
/// per scripted outage on `sim`. Single copy of the arming logic shared by
/// [`QCloudSimEnv::install_faults`] and the service engine (which arms the
/// same script on every region shard).
pub(crate) fn arm_faults(
    sim: &mut Simulation<World>,
    shard: usize,
    script: &FaultScript,
    retry: RetryPolicy,
) {
    let st = &mut sim.world_mut().shards[shard];
    script
        .validate(st.info.len())
        .expect("invalid fault script");
    retry.validate().expect("invalid retry policy");
    let profiles: Vec<DeviceProfile> = st
        .cloud
        .devices()
        .iter()
        .map(|d| d.profile.clone())
        .collect();
    let injector = FaultInjector::resolve(script, &profiles, &st.params.error_weights);
    st.faults = Some(FaultState { injector, retry });
    for c in &script.crashes {
        // Deliberately no synchronous outage for `at == 0`: a crash is
        // unplanned, so even a t=0 outage lands only when its event
        // fires — after the first dispatch wave, which it then kills.
        sim.spawn(Box::new(CrashProc {
            device: c.device,
            at: c.at,
            down_for: c.down_for,
            shard,
            phase: 0,
        }));
    }
}

/// The top-level simulation environment (paper's `QCloudSimEnv`): one
/// shard, fed by an intake that admits everything, on a kernel of its own.
pub struct QCloudSimEnv {
    pub(crate) sim: Simulation<World>,
}

impl QCloudSimEnv {
    /// Builds the environment around a per-job [`Broker`] policy under the
    /// paper's FIFO discipline ([`FifoAdapter`]); `params.backfill_depth`
    /// widens the adapter's scan window exactly as the seed scheduler did.
    /// `seed` is unused: the simulation draws no randomness of its own, and
    /// every random input (jobs, calibration, fault scripts) comes seeded.
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
    /// discipline: registers devices, spawns the scheduler and an open
    /// intake (`RouterProc::open`), and queues `jobs` for release at
    /// their arrival times.
    /// `seed` is unused, as in [`QCloudSimEnv::new`].
    pub fn with_scheduler(
        profiles: Vec<DeviceProfile>,
        scheduler: Box<dyn Scheduler>,
        mut jobs: Vec<QJob>,
        params: SimParams,
        _seed: u64,
    ) -> Self {
        let mut sim = Simulation::new(World::default());
        spawn_shard(&mut sim, profiles, scheduler, &params, jobs.len());
        crate::jobgen::validate_jobs(&jobs, sim.world().shards[0].cloud.total_capacity())
            .expect("job list incompatible with the fleet");
        jobs.sort_by(|a, b| {
            a.arrival_time
                .total_cmp(&b.arrival_time)
                .then(a.id.cmp(&b.id))
        });
        sim.spawn(Box::new(RouterProc::open(jobs)));
        QCloudSimEnv { sim }
    }

    /// Arms a [`FaultScript`]: resolves the deterministic
    /// [`FaultInjector`] against the fleet's calibration data, stores the
    /// [`RetryPolicy`], and spawns one crash coroutine per scripted outage.
    /// See the module docs for the failure/recovery semantics. The service
    /// harnesses arm a script the same way, on every region shard.
    ///
    /// Call before [`QCloudSimEnv::run`]; panics on an invalid script or
    /// policy.
    pub fn install_faults(&mut self, script: &FaultScript, retry: RetryPolicy) {
        arm_faults(&mut self.sim, 0, script, retry);
    }

    /// Schedules a maintenance window: the device is marked *offline* from
    /// `window.start` for `window.duration` seconds — no new sub-jobs are
    /// placed on it, in-flight sub-jobs finish normally (graceful drain).
    pub fn schedule_maintenance(&mut self, window: MaintenanceWindow) {
        window.validate().expect("invalid maintenance window");
        let st = &mut self.sim.world_mut().shards[0];
        assert!(
            window.device < st.info.len(),
            "maintenance names unknown device {}",
            window.device
        );
        // A window opening at t = 0 must take effect before the first
        // dispatch: open it synchronously.
        let opened = window.start <= 0.0;
        if opened {
            st.outage(window.device, true);
        }
        // Register the window with the scheduler-facing calendar so
        // availability-aware reservations see the capacity drop coming.
        st.cloud_state.add_maintenance_window(window);
        self.sim.spawn(Box::new(MaintenanceProc {
            device: window.device,
            start: window.start,
            end: window.end(),
            shard: 0,
            opened,
            phase: 0,
        }));
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(mut self) -> RunResult {
        run_settled(&mut self.sim);
        let (t_end, events) = (self.sim.now(), self.sim.events_processed());
        let st = self.sim.into_world().shards.pop().expect("one shard");
        finish_shard(st, t_end, events)
    }

    /// The fleet (inspection/testing).
    pub fn cloud(&self) -> &QCloud {
        &self.sim.world().shards[0].cloud
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
    #[should_panic(expected = "duplicate job id")]
    fn repeated_job_id_fails_at_construction() {
        let mut js = jobs(6, 3);
        js[4].id = js[1].id;
        let _ = QCloudSimEnv::new(
            ibm_fleet(3),
            Box::new(SpeedBroker::new()),
            js,
            SimParams::default(),
            3,
        );
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
    use crate::faults::{FaultScript, RetryPolicy};
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
        env.install_faults(&script, retry);
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
        env.install_faults(&FaultScript::new(0), RetryPolicy::default());
        let armed = env.run();
        assert_eq!(plain.records, armed.records);
        assert_eq!(plain.telemetry, armed.telemetry);
    }

    #[test]
    fn conservative_fidelity_never_strands_the_queue_on_an_idle_fleet() {
        // Regression: under the strict fidelity broker, failed 250-qubit
        // attempts re-queued at the tail re-slot past the head's booking,
        // and the head stayed booked at an instant no event ever reached —
        // the scheduler parked with work queued, no lease in flight and the
        // fleet idle, and teardown found the stall.
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
                &FaultScript::new(seed).with_exec_failures(0.05),
                RetryPolicy {
                    max_attempts: 4,
                    ..RetryPolicy::default()
                },
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
    #[should_panic(expected = "scheduler 'never' parked with 3 queued jobs, 0 of 3 terminal")]
    fn per_shard_kernel_stall_resurfaces_from_its_worker_thread() {
        // Hash routing gives each region a kernel of its own; at 2 threads
        // region 1's runs on a worker, and its stall must reach the caller
        // with its own message.
        crate::service::ParallelServiceHarness::new(
            vec![ibm_fleet(6), ibm_fleet(6)],
            |r| {
                if r == 0 {
                    crate::policies::scheduler_by_name("speed", 6, 1).unwrap()
                } else {
                    Box::new(NeverDispatch)
                }
            },
            jobs(6, 6),
            SimParams::default(),
            crate::service::ServiceConfig {
                admission: crate::service::AdmissionPolicy::open(),
                routing: crate::service::RoutingPolicy::Hash,
            },
            6,
            2,
        )
        .run();
    }

    /// A discipline that dispatches nothing and gives no reason to wait.
    /// Re-consulting it can never change its answer.
    struct Spinner {
        calls: usize,
    }
    impl Scheduler for Spinner {
        fn decide(
            &mut self,
            _queue: &[QJob],
            _state: &CloudState,
        ) -> crate::sched::SchedulingDecision {
            self.calls += 1;
            assert!(self.calls <= 100_000, "spun");
            crate::sched::SchedulingDecision {
                dispatches: Vec::new(),
                wait: None,
            }
        }
        fn name(&self) -> &str {
            "spinner"
        }
    }

    #[test]
    #[should_panic(expected = "scheduler 'spinner' dispatched nothing and gave no wait reason")]
    fn empty_decision_without_a_wait_reason_is_rejected() {
        QCloudSimEnv::with_scheduler(
            ibm_fleet(5),
            Box::new(Spinner { calls: 0 }),
            jobs(3, 5),
            SimParams::default(),
            5,
        )
        .run();
    }

    /// 300 Poisson arrivals of 20–120 qubits: device 0 is busy all trace.
    fn outage_env() -> QCloudSimEnv {
        let dist = JobDistribution {
            qubits: (20, 120),
            ..JobDistribution::default()
        };
        QCloudSimEnv::new(
            ibm_fleet(3),
            Box::new(SpeedBroker::new()),
            crate::jobgen::poisson_arrivals(300, 0.05, &dist, 3),
            SimParams::default(),
            3,
        )
    }

    /// Jobs whose (last) attempt started on device 0 within `[from, to)`.
    fn starts_on_device_0(res: &RunResult, from: f64, to: f64) -> usize {
        res.records
            .iter()
            .filter(|r| (from..to).contains(&r.start) && r.parts.iter().any(|&(d, _)| d == 0))
            .count()
    }

    #[test]
    fn overlapping_maintenance_windows_hold_the_device_until_the_last_ends() {
        let mut env = outage_env();
        for (start, duration) in [(100.0, 1_000.0), (600.0, 5_000.0)] {
            env.schedule_maintenance(crate::maintenance::MaintenanceWindow {
                device: 0,
                start,
                duration,
            });
        }
        let res = env.run();
        assert_eq!(res.summary.jobs_finished, 300);
        assert_eq!(starts_on_device_0(&res, 100.0, 5_600.0), 0);
        assert!(starts_on_device_0(&res, 0.0, 100.0) > 0);
        assert!(starts_on_device_0(&res, 5_600.0, f64::INFINITY) > 0);
    }

    #[test]
    fn a_crash_overlapping_a_maintenance_window_holds_the_device_until_both_end() {
        let mut env = outage_env();
        env.install_faults(
            &FaultScript::new(3).with_crash(0, 100.0, 1_000.0),
            RetryPolicy::default(),
        );
        env.schedule_maintenance(crate::maintenance::MaintenanceWindow {
            device: 0,
            start: 600.0,
            duration: 5_000.0,
        });
        let res = env.run();
        assert!(res.records.iter().all(|r| r.terminal()));
        assert_eq!(starts_on_device_0(&res, 100.0, 5_600.0), 0);
        assert!(starts_on_device_0(&res, 5_600.0, f64::INFINITY) > 0);
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
            &FaultScript::new(1).with_crash(0, 100.0, 20_000.0),
            RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
        );
        let res = env.run();
        assert!(res.records.iter().all(|r| r.terminal()));
        assert!(
            res.telemetry.waits_device_offline > 0,
            "fleet-spanning jobs waiting out an outage must report DeviceOffline"
        );
    }
}
