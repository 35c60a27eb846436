//! Job lifecycle records and summary metrics (the paper's
//! `JobRecordsManager`).

use crate::device::DeviceId;
use crate::job::{IdMap, JobId, QJob};
use qcs_desim::{Histogram, Welford};
use serde::{Deserialize, Serialize};

/// How a job's lifecycle ended (or hasn't yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FinalStatus {
    /// Still queued, running, or waiting on a retry backoff.
    Pending,
    /// Completed successfully.
    Completed,
    /// Every allowed attempt failed (crash or execution fault); the job
    /// left the system without finishing. Counted as *terminal* — a run
    /// with exhausted jobs is complete, not deadlocked.
    RetriesExhausted,
    /// Turned away at the service-mode intake (queue full or throttled
    /// out) before ever reaching the pending queue. Terminal: rejected
    /// jobs are accounted, never silently dropped. Only produced by the
    /// [`crate::service`] front end — batch replays admit everything.
    Rejected,
}

impl std::fmt::Display for FinalStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FinalStatus::Pending => "pending",
            FinalStatus::Completed => "completed",
            FinalStatus::RetriesExhausted => "retries_exhausted",
            FinalStatus::Rejected => "rejected",
        })
    }
}

/// Lifecycle record of one job.
///
/// Equality is *bitwise* on the time/fidelity fields (`total_cmp`, so
/// `NaN == NaN`): two record streams compare equal exactly when they are
/// replays of the same run — including unfinished fields of
/// retries-exhausted jobs, which the derived IEEE `==` would declare
/// unequal to themselves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub job_id: JobId,
    /// Qubits requested.
    pub num_qubits: u64,
    /// Circuit depth.
    pub depth: u32,
    /// Shots.
    pub num_shots: u64,
    /// Two-qubit gates.
    pub two_qubit_gates: u64,
    /// Arrival time (s).
    pub arrival: f64,
    /// Dispatch (reservation) time (s); `NaN` until dispatched.
    pub start: f64,
    /// Execution end time, before communication (s); `NaN` until then.
    pub exec_end: f64,
    /// Completion time (s); `NaN` until finished.
    pub finish: f64,
    /// Final fidelity (Eq. 8); `NaN` until finished.
    pub fidelity: f64,
    /// Blocking communication delay incurred (s).
    pub comm_seconds: f64,
    /// The partition `(device index, qubits)`.
    pub parts: Vec<(u32, u64)>,
    /// How many times a younger job was dispatched ahead of this one while
    /// it waited (queue jumps it suffered) — the per-job starvation signal
    /// aggregated by [`crate::sla::QosReport`].
    pub bypassed: u32,
    /// Dispatch attempts so far (0 until first dispatch; > 1 only when a
    /// crash or execution fault forced a retry).
    pub attempts: u32,
    /// Times the service-mode intake throttled this job (deferred its
    /// admission by one backoff round); 0 in batch replays.
    pub throttled: u32,
    /// Qubit-seconds burned by attempts that did not complete (qubits held
    /// × seconds held, summed over killed/failed attempts) — the numerator
    /// of the goodput gap in [`crate::sla::QosReport`].
    pub wasted_qubit_s: f64,
    /// Terminal outcome ([`FinalStatus::Pending`] while in flight).
    pub final_status: FinalStatus,
}

impl PartialEq for JobRecord {
    fn eq(&self, other: &Self) -> bool {
        use std::cmp::Ordering::Equal;
        let t = |a: f64, b: f64| a.total_cmp(&b) == Equal;
        self.job_id == other.job_id
            && self.num_qubits == other.num_qubits
            && self.depth == other.depth
            && self.num_shots == other.num_shots
            && self.two_qubit_gates == other.two_qubit_gates
            && t(self.arrival, other.arrival)
            && t(self.start, other.start)
            && t(self.exec_end, other.exec_end)
            && t(self.finish, other.finish)
            && t(self.fidelity, other.fidelity)
            && t(self.comm_seconds, other.comm_seconds)
            && self.parts == other.parts
            && self.bypassed == other.bypassed
            && self.attempts == other.attempts
            && self.throttled == other.throttled
            && t(self.wasted_qubit_s, other.wasted_qubit_s)
            && self.final_status == other.final_status
    }
}

impl JobRecord {
    fn new(job: &QJob) -> Self {
        JobRecord {
            job_id: job.id,
            num_qubits: job.num_qubits,
            depth: job.depth,
            num_shots: job.num_shots,
            two_qubit_gates: job.two_qubit_gates,
            arrival: job.arrival_time,
            start: f64::NAN,
            exec_end: f64::NAN,
            finish: f64::NAN,
            fidelity: f64::NAN,
            comm_seconds: 0.0,
            parts: Vec::new(),
            bypassed: 0,
            attempts: 0,
            throttled: 0,
            wasted_qubit_s: 0.0,
            final_status: FinalStatus::Pending,
        }
    }

    /// Queueing delay `start − arrival` (NaN until dispatched).
    pub fn wait_time(&self) -> f64 {
        self.start - self.arrival
    }

    /// Total `finish − arrival` (NaN until finished).
    pub fn turnaround(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Devices used.
    pub fn device_count(&self) -> usize {
        self.parts.len()
    }

    /// Whether the job completed.
    pub fn finished(&self) -> bool {
        self.finish.is_finite()
    }

    /// Whether the job's lifecycle is over: completed **or** honestly out
    /// of retries. Fault-tolerant runs terminate when every job is
    /// terminal, not when every job finishes.
    pub fn terminal(&self) -> bool {
        self.final_status != FinalStatus::Pending
    }
}

/// Collects job lifecycle events during a run.
#[derive(Debug, Default)]
pub struct JobRecordsManager {
    records: Vec<JobRecord>,
    /// Position of each job's record in `records`. Only looked up, never
    /// iterated, so its hash order cannot reach any result.
    index: IdMap<JobId, usize>,
    finished: usize,
    exhausted: usize,
    rejected: usize,
}

impl JobRecordsManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a job arrival.
    pub fn record_arrival(&mut self, job: &QJob) {
        let idx = self.records.len();
        self.records.push(JobRecord::new(job));
        let prev = self.index.insert(job.id, idx);
        assert!(prev.is_none(), "duplicate arrival for job {:?}", job.id);
    }

    /// Records dispatch: reservation time and partition. Returns the
    /// attempt number this dispatch is (1 on the first try).
    pub fn record_start(&mut self, id: JobId, now: f64, parts: &[(DeviceId, u64)]) -> u32 {
        let r = self.get_mut(id);
        assert!(r.start.is_nan(), "job {id:?} started twice");
        r.start = now;
        r.parts = parts.iter().map(|&(d, a)| (d.0, a)).collect();
        r.attempts += 1;
        r.attempts
    }

    /// Records the end of quantum execution (before communication).
    pub fn record_exec_end(&mut self, id: JobId, now: f64) {
        let r = self.get_mut(id);
        r.exec_end = now;
    }

    /// Records that a younger job was dispatched ahead of `id` while it
    /// was still queued (one queue jump suffered).
    pub fn record_bypass(&mut self, id: JobId) {
        let r = self.get_mut(id);
        debug_assert!(r.start.is_nan(), "bypass recorded after dispatch");
        r.bypassed += 1;
    }

    /// Records completion with the final fidelity and incurred
    /// communication delay.
    pub fn record_finish(&mut self, id: JobId, now: f64, fidelity: f64, comm_seconds: f64) {
        let r = self.get_mut(id);
        assert!(r.finish.is_nan(), "job {id:?} finished twice");
        r.finish = now;
        r.fidelity = fidelity;
        r.comm_seconds = comm_seconds;
        r.final_status = FinalStatus::Completed;
        self.finished += 1;
    }

    /// Records that the job's in-flight attempt was killed (device crash)
    /// or failed (execution fault) at `now` and the job is heading back to
    /// the queue: accumulates the wasted qubit-seconds, then resets the
    /// dispatch state so the next `record_start` is legal. The arrival
    /// time is deliberately **not** touched — wait and slowdown keep
    /// counting from first submission, so retried jobs aren't flattered.
    ///
    /// Returns the number of attempts consumed so far.
    pub fn record_requeue(&mut self, id: JobId, now: f64) -> u32 {
        let r = self.get_mut(id);
        assert!(
            r.start.is_finite(),
            "job {id:?} requeued without being in flight"
        );
        assert!(r.finish.is_nan(), "job {id:?} requeued after finishing");
        r.wasted_qubit_s += r.num_qubits as f64 * (now - r.start);
        r.start = f64::NAN;
        r.exec_end = f64::NAN;
        r.parts.clear();
        r.attempts
    }

    /// Records that the job has consumed every allowed attempt and leaves
    /// the system unfinished — terminal, visible, never silently lost.
    pub fn record_exhausted(&mut self, id: JobId) {
        let r = self.get_mut(id);
        assert!(r.finish.is_nan(), "job {id:?} exhausted after finishing");
        assert!(
            r.final_status == FinalStatus::Pending,
            "job {id:?} exhausted twice"
        );
        r.final_status = FinalStatus::RetriesExhausted;
        self.exhausted += 1;
    }

    /// Records one intake throttle round suffered by `id` while it waited
    /// for admission (service mode).
    pub fn record_throttle(&mut self, id: JobId) {
        let r = self.get_mut(id);
        debug_assert!(r.start.is_nan(), "throttle recorded after dispatch");
        r.throttled += 1;
    }

    /// Records that the intake turned the job away for good — terminal
    /// without ever dispatching (service mode).
    pub fn record_rejected(&mut self, id: JobId) {
        let r = self.get_mut(id);
        assert!(r.start.is_nan(), "job {id:?} rejected after dispatch");
        assert!(
            r.final_status == FinalStatus::Pending,
            "job {id:?} rejected twice"
        );
        r.final_status = FinalStatus::Rejected;
        self.rejected += 1;
    }

    fn get_mut(&mut self, id: JobId) -> &mut JobRecord {
        let idx = *self
            .index
            .get(&id)
            .unwrap_or_else(|| panic!("no arrival recorded for job {id:?}"));
        &mut self.records[idx]
    }

    /// All records (arrival order).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Number of jobs that have arrived.
    pub fn arrived_count(&self) -> usize {
        self.records.len()
    }

    /// Number of completed jobs.
    pub fn finished_count(&self) -> usize {
        self.finished
    }

    /// Number of jobs whose lifecycle is over: completed, retries-exhausted,
    /// or rejected at intake. The simulation's termination condition.
    pub fn terminal_count(&self) -> usize {
        self.finished + self.exhausted + self.rejected
    }

    /// Number of jobs the service-mode intake rejected.
    pub fn rejected_count(&self) -> usize {
        self.rejected
    }

    /// Consumes the manager, returning the records.
    pub fn into_records(self) -> Vec<JobRecord> {
        self.records
    }
}

/// Aggregate metrics over a completed run — the three Table 2 columns plus
/// queueing diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Strategy name.
    pub strategy: String,
    /// Completed jobs.
    pub jobs_finished: usize,
    /// Jobs that never finished (starved / infeasible).
    pub jobs_unfinished: usize,
    /// Total simulation time `T_sim` (s): completion time of the last job.
    pub t_sim: f64,
    /// Mean final fidelity `μ_F`.
    pub mean_fidelity: f64,
    /// Fidelity standard deviation `σ_F` (population).
    pub std_fidelity: f64,
    /// Total communication time `T_comm` (s) summed over jobs.
    pub total_comm: f64,
    /// Mean queueing delay (s).
    pub mean_wait: f64,
    /// Mean turnaround (s).
    pub mean_turnaround: f64,
    /// Mean devices per job `k̄`.
    pub mean_devices_per_job: f64,
    /// Throughput (jobs/s) over `T_sim`.
    pub throughput: f64,
}

impl SummaryStats {
    /// Computes the summary from per-job records.
    pub fn from_records(strategy: impl Into<String>, records: &[JobRecord]) -> Self {
        let mut fid = Welford::new();
        let mut wait = Welford::new();
        let mut turn = Welford::new();
        let mut devices = Welford::new();
        let mut total_comm = 0.0;
        let mut t_sim: f64 = 0.0;
        let mut unfinished = 0usize;
        for r in records {
            if !r.finished() {
                unfinished += 1;
                continue;
            }
            fid.push(r.fidelity);
            wait.push(r.wait_time());
            turn.push(r.turnaround());
            devices.push(r.device_count() as f64);
            total_comm += r.comm_seconds;
            t_sim = t_sim.max(r.finish);
        }
        let finished = fid.count() as usize;
        SummaryStats {
            strategy: strategy.into(),
            jobs_finished: finished,
            jobs_unfinished: unfinished,
            t_sim,
            mean_fidelity: fid.mean(),
            std_fidelity: fid.std_dev(),
            total_comm,
            mean_wait: wait.mean(),
            mean_turnaround: turn.mean(),
            mean_devices_per_job: devices.mean(),
            throughput: if t_sim > 0.0 {
                finished as f64 / t_sim
            } else {
                0.0
            },
        }
    }

    /// Builds the Fig. 6 fidelity histogram over `[lo, hi)`.
    pub fn fidelity_histogram(records: &[JobRecord], lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for r in records.iter().filter(|r| r.finished()) {
            h.push(r.fidelity);
        }
        h
    }
}

/// Exports per-job records as CSV for post-simulation analysis (the
/// paper's JobRecordsManager workflow: wait times, execution durations,
/// throughput studies).
pub fn records_to_csv(records: &[JobRecord]) -> String {
    let mut out = String::from(
        "job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival,start,exec_end,finish,\
         wait,turnaround,fidelity,comm_seconds,devices,bypassed,attempts,throttled,\
         wasted_qubit_s,final_status\n",
    );
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.job_id.0,
            r.num_qubits,
            r.depth,
            r.num_shots,
            r.two_qubit_gates,
            r.arrival,
            r.start,
            r.exec_end,
            r.finish,
            r.wait_time(),
            r.turnaround(),
            r.fidelity,
            r.comm_seconds,
            r.device_count(),
            r.bypassed,
            r.attempts,
            r.throttled,
            r.wasted_qubit_s,
            r.final_status,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival: f64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: 190,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: arrival,
        }
    }

    #[test]
    fn lifecycle_and_derived_metrics() {
        let mut m = JobRecordsManager::new();
        let j = job(1, 5.0);
        m.record_arrival(&j);
        m.record_start(JobId(1), 8.0, &[(DeviceId(0), 127), (DeviceId(1), 63)]);
        m.record_exec_end(JobId(1), 100.0);
        m.record_finish(JobId(1), 103.8, 0.68, 3.8);
        let r = &m.records()[0];
        assert_eq!(r.wait_time(), 3.0);
        assert_eq!(r.turnaround(), 98.8);
        assert_eq!(r.device_count(), 2);
        assert!(r.finished());
        assert_eq!(m.finished_count(), 1);
    }

    #[test]
    fn bypasses_accumulate_until_dispatch() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        assert_eq!(m.records()[0].bypassed, 0);
        m.record_bypass(JobId(1));
        m.record_bypass(JobId(1));
        m.record_start(JobId(1), 5.0, &[(DeviceId(0), 190)]);
        assert_eq!(m.records()[0].bypassed, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn duplicate_arrival_panics() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_arrival(&job(1, 0.0));
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_panics() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_start(JobId(1), 1.0, &[(DeviceId(0), 190)]);
        m.record_start(JobId(1), 2.0, &[(DeviceId(0), 190)]);
    }

    #[test]
    fn summary_aggregates_table2_columns() {
        let mut m = JobRecordsManager::new();
        for (i, (fin, fid, comm)) in [(100.0, 0.6, 3.8), (200.0, 0.7, 7.6), (150.0, 0.65, 3.8)]
            .iter()
            .enumerate()
        {
            let j = job(i as u64, 0.0);
            m.record_arrival(&j);
            m.record_start(j.id, 1.0, &[(DeviceId(0), 100), (DeviceId(1), 90)]);
            m.record_finish(j.id, *fin, *fid, *comm);
        }
        let s = SummaryStats::from_records("test", m.records());
        assert_eq!(s.jobs_finished, 3);
        assert_eq!(s.jobs_unfinished, 0);
        assert_eq!(s.t_sim, 200.0);
        assert!((s.mean_fidelity - 0.65).abs() < 1e-12);
        assert!((s.total_comm - 15.2).abs() < 1e-12);
        assert!((s.mean_devices_per_job - 2.0).abs() < 1e-12);
        assert!((s.throughput - 3.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_unfinished() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(0, 0.0));
        m.record_arrival(&job(1, 0.0));
        m.record_start(JobId(0), 1.0, &[(DeviceId(0), 190)]);
        m.record_finish(JobId(0), 50.0, 0.7, 0.0);
        let s = SummaryStats::from_records("test", m.records());
        assert_eq!(s.jobs_finished, 1);
        assert_eq!(s.jobs_unfinished, 1);
    }

    #[test]
    fn csv_export_shape() {
        let mut m = JobRecordsManager::new();
        let j = job(7, 1.0);
        m.record_arrival(&j);
        m.record_start(JobId(7), 2.0, &[(DeviceId(0), 100), (DeviceId(2), 90)]);
        m.record_exec_end(JobId(7), 50.0);
        m.record_finish(JobId(7), 53.8, 0.67, 3.8);
        let csv = records_to_csv(m.records());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("job_id,"));
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 19);
        assert_eq!(fields[0], "7");
        assert_eq!(fields[13], "2"); // devices
        assert_eq!(fields[14], "0"); // bypassed
        assert_eq!(fields[9], "1"); // wait = 2.0 - 1.0
        assert_eq!(fields[15], "1"); // attempts
        assert_eq!(fields[16], "0"); // throttled
        assert_eq!(fields[17], "0"); // wasted_qubit_s
        assert_eq!(fields[18], "completed");
    }

    #[test]
    fn rejected_jobs_are_terminal_and_exported() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_throttle(JobId(1));
        m.record_throttle(JobId(1));
        m.record_rejected(JobId(1));
        let r = &m.records()[0];
        assert!(r.terminal() && !r.finished());
        assert_eq!(r.throttled, 2);
        assert_eq!(r.final_status, FinalStatus::Rejected);
        assert_eq!(m.finished_count(), 0);
        assert_eq!(m.rejected_count(), 1);
        assert_eq!(m.terminal_count(), 1);
        let csv = records_to_csv(m.records());
        assert!(csv.lines().nth(1).unwrap().ends_with("rejected"));
    }

    #[test]
    #[should_panic(expected = "rejected after dispatch")]
    fn reject_of_dispatched_job_panics() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_start(JobId(1), 1.0, &[(DeviceId(0), 190)]);
        m.record_rejected(JobId(1));
    }

    #[test]
    fn requeue_accumulates_waste_and_allows_restart() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 10.0));
        assert_eq!(m.record_start(JobId(1), 20.0, &[(DeviceId(0), 190)]), 1);
        // Killed at t = 50 after 30 s on 190 qubits.
        assert_eq!(m.record_requeue(JobId(1), 50.0), 1);
        let r = &m.records()[0];
        assert_eq!(r.wasted_qubit_s, 190.0 * 30.0);
        assert!(r.start.is_nan() && r.exec_end.is_nan() && r.parts.is_empty());
        assert!(!r.terminal());
        // Second attempt completes; wait still counts from first arrival.
        assert_eq!(m.record_start(JobId(1), 100.0, &[(DeviceId(1), 190)]), 2);
        m.record_finish(JobId(1), 160.0, 0.7, 0.0);
        let r = &m.records()[0];
        assert_eq!(r.attempts, 2);
        assert_eq!(r.wait_time(), 90.0);
        assert_eq!(r.final_status, FinalStatus::Completed);
        assert_eq!(m.terminal_count(), 1);
    }

    #[test]
    fn exhausted_jobs_are_terminal_but_not_finished() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_start(JobId(1), 1.0, &[(DeviceId(0), 190)]);
        m.record_requeue(JobId(1), 2.0);
        m.record_exhausted(JobId(1));
        let r = &m.records()[0];
        assert!(r.terminal() && !r.finished());
        assert_eq!(r.final_status, FinalStatus::RetriesExhausted);
        assert_eq!(m.finished_count(), 0);
        assert_eq!(m.terminal_count(), 1);
        let csv = records_to_csv(m.records());
        assert!(csv.contains("retries_exhausted"));
    }

    #[test]
    #[should_panic(expected = "requeued without being in flight")]
    fn requeue_of_idle_job_panics() {
        let mut m = JobRecordsManager::new();
        m.record_arrival(&job(1, 0.0));
        m.record_requeue(JobId(1), 5.0);
    }

    #[test]
    fn fidelity_histogram_covers_finished_jobs() {
        let mut m = JobRecordsManager::new();
        for i in 0..10 {
            let j = job(i, 0.0);
            m.record_arrival(&j);
            m.record_start(j.id, 0.0, &[(DeviceId(0), 190)]);
            m.record_finish(j.id, 10.0, 0.6 + i as f64 * 0.01, 0.0);
        }
        let h = SummaryStats::fidelity_histogram(m.records(), 0.5, 0.8, 30);
        assert_eq!(h.count(), 10);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }
}
