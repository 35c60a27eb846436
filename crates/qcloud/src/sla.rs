//! Service-quality analysis: wait-time tails, slowdown, deadline
//! satisfaction, and starvation/fairness metrics.
//!
//! The paper reports means over the 1,000-job trace; production schedulers
//! are judged on tails. This module computes the standard queueing-quality
//! metrics from the same [`JobRecord`] stream (percentile waits, per-job
//! slowdown, bounded slowdown, deadline miss rates), enabling apples-to-
//! apples scheduler comparisons beyond Table 2's three columns.
//!
//! Queue-jumping disciplines (EASY vs conservative backfilling) are
//! additionally judged on *who pays* for the jumps: [`QosReport`]
//! aggregates the per-job bypass counters the scheduler loop records
//! ([`JobRecord::bypassed`]) and scores distributional fairness with
//! [`jain_fairness`] over per-job slowdowns — `1` when every job is
//! stretched equally, `1/n` when one job absorbs all the queueing pain.

use crate::records::{FinalStatus, JobRecord};
use serde::{Deserialize, Serialize};

/// Interpolated percentile (`p ∈ [0, 100]`) of an unsorted sample.
/// Returns `NaN` on an empty sample. Linear interpolation between closest
/// ranks (the same convention as `numpy.percentile`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Per-job slowdown: `turnaround / service`, where service is the in-system
/// time after dispatch (`finish − start`). ≥ 1 by construction.
pub fn slowdown(r: &JobRecord) -> f64 {
    let service = r.finish - r.start;
    if service <= 0.0 {
        return f64::NAN;
    }
    r.turnaround() / service
}

/// Bounded slowdown with threshold `tau`:
/// `max(1, turnaround / max(service, tau))`. The standard fix for tiny jobs
/// dominating mean slowdown (Feitelson's BSLD, usually τ = 10 s).
pub fn bounded_slowdown(r: &JobRecord, tau: f64) -> f64 {
    let service = (r.finish - r.start).max(tau);
    (r.turnaround() / service).max(1.0)
}

/// Jain's fairness index over a sample of non-negative values:
/// `(Σx)² / (n · Σx²)`. Bounded in `[1/n, 1]` for any non-zero sample —
/// `1` iff all values are equal, `1/n` when a single value dominates
/// entirely. `NaN` on an empty or all-zero sample.
pub fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

/// Deadline policy: each job's deadline is
/// `arrival + slack_factor × service`, i.e. a job misses when its slowdown
/// exceeds `slack_factor` (a stretch deadline, since the trace carries no
/// explicit per-job deadlines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlinePolicy {
    /// Allowed stretch: 1.0 = no queueing tolerated, 2.0 = wait may equal
    /// service, etc.
    pub slack_factor: f64,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy { slack_factor: 2.0 }
    }
}

/// Aggregate service-quality report over finished jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosReport {
    /// Finished jobs analysed.
    pub jobs: usize,
    /// Median queueing delay (s).
    pub wait_p50: f64,
    /// 95th-percentile queueing delay (s).
    pub wait_p95: f64,
    /// 99th-percentile queueing delay (s).
    pub wait_p99: f64,
    /// Worst queueing delay (s).
    pub wait_max: f64,
    /// Median turnaround (s).
    pub turnaround_p50: f64,
    /// 95th-percentile turnaround (s).
    pub turnaround_p95: f64,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Mean bounded slowdown (τ = 10 s).
    pub mean_bounded_slowdown: f64,
    /// Fraction of jobs missing the stretch deadline.
    pub deadline_miss_rate: f64,
    /// The deadline policy applied.
    pub deadline: DeadlinePolicy,
    /// Worst per-job bypass count: the most queue jumps any single job
    /// suffered while waiting (the starvation tail).
    pub bypass_max: u32,
    /// Mean per-job bypass count.
    pub bypass_mean: f64,
    /// Fraction of jobs overtaken at least once.
    pub bypassed_fraction: f64,
    /// Jain's fairness index over per-job slowdowns (`[1/n, 1]`; higher is
    /// fairer — queueing pain spread evenly instead of starving a few).
    pub fairness_jain: f64,
    /// Useful qubit-seconds over total qubit-seconds consumed:
    /// `useful / (useful + wasted)`, where useful is `qubits × (exec_end −
    /// start)` summed over completed jobs and wasted sums
    /// [`JobRecord::wasted_qubit_s`] over **all** records (killed and
    /// failed attempts burn capacity whether or not the job eventually
    /// finishes). `1.0` in a fault-free run.
    pub goodput: f64,
    /// Extra dispatch attempts per job: `Σ max(attempts − 1, 0) / n` over
    /// all records. `0.0` in a fault-free run.
    pub retry_rate: f64,
    /// Total qubit-seconds burned by attempts that did not complete.
    pub wasted_qubit_s: f64,
    /// Jobs that exhausted their retry budget and left unfinished.
    pub jobs_exhausted: usize,
}

impl QosReport {
    /// Computes the report; unfinished jobs are excluded (callers should
    /// check `SummaryStats::jobs_unfinished` separately).
    pub fn from_records(records: &[JobRecord], deadline: DeadlinePolicy) -> Self {
        let finished: Vec<&JobRecord> = records.iter().filter(|r| r.finished()).collect();
        let waits: Vec<f64> = finished.iter().map(|r| r.wait_time()).collect();
        let turns: Vec<f64> = finished.iter().map(|r| r.turnaround()).collect();
        let slows: Vec<f64> = finished
            .iter()
            .map(|r| slowdown(r))
            .filter(|s| s.is_finite())
            .collect();
        let bslds: Vec<f64> = finished.iter().map(|r| bounded_slowdown(r, 10.0)).collect();
        let misses = finished
            .iter()
            .filter(|r| {
                let s = slowdown(r);
                s.is_finite() && s > deadline.slack_factor
            })
            .count();
        let bypass_max = finished.iter().map(|r| r.bypassed).max().unwrap_or(0);
        let bypass_total: u64 = finished.iter().map(|r| r.bypassed as u64).sum();
        let bypassed_jobs = finished.iter().filter(|r| r.bypassed > 0).count();
        let useful: f64 = finished
            .iter()
            .filter(|r| r.exec_end.is_finite() && r.start.is_finite())
            .map(|r| r.num_qubits as f64 * (r.exec_end - r.start))
            .sum();
        let wasted: f64 = records.iter().map(|r| r.wasted_qubit_s).sum();
        let retries: u64 = records
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum();
        let exhausted = records
            .iter()
            .filter(|r| r.final_status == FinalStatus::RetriesExhausted)
            .count();
        QosReport {
            jobs: finished.len(),
            wait_p50: percentile(&waits, 50.0),
            wait_p95: percentile(&waits, 95.0),
            wait_p99: percentile(&waits, 99.0),
            wait_max: waits.iter().copied().fold(f64::NAN, f64::max),
            turnaround_p50: percentile(&turns, 50.0),
            turnaround_p95: percentile(&turns, 95.0),
            mean_slowdown: mean(&slows),
            mean_bounded_slowdown: mean(&bslds),
            deadline_miss_rate: if finished.is_empty() {
                f64::NAN
            } else {
                misses as f64 / finished.len() as f64
            },
            deadline,
            bypass_max,
            bypass_mean: if finished.is_empty() {
                f64::NAN
            } else {
                bypass_total as f64 / finished.len() as f64
            },
            bypassed_fraction: if finished.is_empty() {
                f64::NAN
            } else {
                bypassed_jobs as f64 / finished.len() as f64
            },
            fairness_jain: jain_fairness(&slows),
            goodput: if useful + wasted > 0.0 {
                useful / (useful + wasted)
            } else {
                1.0
            },
            retry_rate: if records.is_empty() {
                0.0
            } else {
                retries as f64 / records.len() as f64
            },
            wasted_qubit_s: wasted,
            jobs_exhausted: exhausted,
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn record(arrival: f64, start: f64, finish: f64) -> JobRecord {
        JobRecord {
            job_id: JobId(0),
            num_qubits: 150,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 400,
            arrival,
            start,
            exec_end: finish,
            finish,
            fidelity: 0.65,
            comm_seconds: 3.8,
            parts: vec![(0, 75), (1, 75)],
            bypassed: 0,
            attempts: 1,
            throttled: 0,
            wasted_qubit_s: 0.0,
            final_status: if finish.is_finite() {
                FinalStatus::Completed
            } else {
                FinalStatus::Pending
            },
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        // Order-independence.
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(percentile(&shuffled, 50.0), 2.5);
    }

    #[test]
    fn percentile_degenerate_cases() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 100]")]
    fn percentile_rejects_bad_p() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn slowdown_definitions() {
        // arrival 0, start 10, finish 20: wait 10, service 10 → slowdown 2.
        let r = record(0.0, 10.0, 20.0);
        assert_eq!(slowdown(&r), 2.0);
        // No wait → slowdown 1.
        assert_eq!(slowdown(&record(5.0, 5.0, 25.0)), 1.0);
        // Tiny service with bounded slowdown: service 1 s, wait 99 s.
        let tiny = record(0.0, 99.0, 100.0);
        assert_eq!(slowdown(&tiny), 100.0);
        assert_eq!(bounded_slowdown(&tiny, 10.0), 10.0);
        // BSLD never drops below 1.
        assert_eq!(bounded_slowdown(&record(0.0, 0.0, 1.0), 10.0), 1.0);
    }

    #[test]
    fn report_aggregates_tails() {
        // 9 jobs waiting 0..=8 seconds with service 10.
        let records: Vec<JobRecord> = (0..9)
            .map(|i| record(0.0, i as f64, i as f64 + 10.0))
            .collect();
        let rep = QosReport::from_records(&records, DeadlinePolicy { slack_factor: 1.5 });
        assert_eq!(rep.jobs, 9);
        assert_eq!(rep.wait_p50, 4.0);
        assert_eq!(rep.wait_max, 8.0);
        assert!(rep.wait_p95 > rep.wait_p50);
        // Miss when slowdown = (wait+10)/10 > 1.5 ⇔ wait > 5 → waits 6,7,8.
        assert!((rep.deadline_miss_rate - 3.0 / 9.0).abs() < 1e-12);
        assert!(rep.mean_slowdown > 1.0);
    }

    #[test]
    fn jain_fairness_hand_computed() {
        // Equal shares → 1.
        assert!((jain_fairness(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        // One job absorbs everything → 1/n.
        assert!((jain_fairness(&[5.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        // Worked example: (1+2+3)² / (3·(1+4+9)) = 36/42.
        assert!((jain_fairness(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        // Degenerate samples.
        assert!(jain_fairness(&[]).is_nan());
        assert!(jain_fairness(&[0.0, 0.0]).is_nan());
    }

    #[test]
    fn starvation_fields_hand_computed() {
        // Three jobs, service 10 each: waits 0, 10, 30 → slowdowns 1, 2, 4.
        // Bypass counts 0, 1, 3.
        let mut records = vec![
            record(0.0, 0.0, 10.0),
            record(0.0, 10.0, 20.0),
            record(0.0, 30.0, 40.0),
        ];
        records[1].bypassed = 1;
        records[2].bypassed = 3;
        let rep = QosReport::from_records(&records, DeadlinePolicy::default());
        assert_eq!(rep.bypass_max, 3);
        assert!((rep.bypass_mean - 4.0 / 3.0).abs() < 1e-12);
        assert!((rep.bypassed_fraction - 2.0 / 3.0).abs() < 1e-12);
        // Jain over slowdowns [1, 2, 4]: 49 / (3·21) = 7/9.
        assert!((rep.fairness_jain - 49.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn starvation_fields_empty_records() {
        let rep = QosReport::from_records(&[], DeadlinePolicy::default());
        assert_eq!(rep.bypass_max, 0);
        assert!(rep.bypass_mean.is_nan());
        assert!(rep.bypassed_fraction.is_nan());
        assert!(rep.fairness_jain.is_nan());
    }

    #[test]
    fn unfinished_jobs_excluded_from_starvation_stats() {
        // An unfinished job's bypass count must not leak into the report.
        let mut unfinished = record(0.0, f64::NAN, f64::NAN);
        unfinished.finish = f64::NAN;
        unfinished.bypassed = 9;
        let records = vec![record(0.0, 0.0, 10.0), unfinished];
        let rep = QosReport::from_records(&records, DeadlinePolicy::default());
        assert_eq!(rep.bypass_max, 0);
        assert_eq!(rep.bypass_mean, 0.0);
    }

    #[test]
    fn unfinished_jobs_excluded() {
        let mut unfinished = record(0.0, 1.0, 2.0);
        unfinished.finish = f64::NAN;
        let records = vec![record(0.0, 0.0, 10.0), unfinished];
        let rep = QosReport::from_records(&records, DeadlinePolicy::default());
        assert_eq!(rep.jobs, 1);
        assert_eq!(rep.wait_p50, 0.0);
    }

    #[test]
    fn goodput_and_retry_metrics_hand_computed() {
        // Job A: clean run, 150 qubits × 10 s useful.
        let a = record(0.0, 0.0, 10.0);
        // Job B: one failed attempt wasting 300 qubit·s, then completes
        // with 150 × 10 s useful work.
        let mut b = record(0.0, 50.0, 60.0);
        b.attempts = 2;
        b.wasted_qubit_s = 300.0;
        // Job C: exhausted after two failed attempts, 450 qubit·s wasted.
        let mut c = record(0.0, f64::NAN, f64::NAN);
        c.exec_end = f64::NAN;
        c.attempts = 2;
        c.wasted_qubit_s = 450.0;
        c.final_status = FinalStatus::RetriesExhausted;
        let rep = QosReport::from_records(&[a, b, c], DeadlinePolicy::default());
        let useful = 2.0 * 150.0 * 10.0;
        assert!((rep.goodput - useful / (useful + 750.0)).abs() < 1e-12);
        assert!((rep.retry_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rep.wasted_qubit_s, 750.0);
        assert_eq!(rep.jobs_exhausted, 1);
        // Fault-free runs score perfect goodput.
        let clean = QosReport::from_records(&[record(0.0, 0.0, 10.0)], DeadlinePolicy::default());
        assert_eq!(clean.goodput, 1.0);
        assert_eq!(clean.retry_rate, 0.0);
        assert_eq!(clean.jobs_exhausted, 0);
    }

    #[test]
    fn empty_records_produce_nan_not_panic() {
        let rep = QosReport::from_records(&[], DeadlinePolicy::default());
        assert_eq!(rep.jobs, 0);
        assert!(rep.wait_p50.is_nan());
        assert!(rep.deadline_miss_rate.is_nan());
    }
}
