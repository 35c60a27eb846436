//! Job arrival processes (the paper's `JobGenerator`).
//!
//! Jobs are materialised up front (deterministically from a seed, or loaded
//! from CSV/JSON by the `qcs-workload` crate) and released into the cloud's
//! pending queue at their `arrival_time` by a generator coroutine.

use crate::job::{JobDistribution, JobId, QJob};
use qcs_desim::Xoshiro256StarStar;

/// Generates `n` jobs that all arrive at time 0 (the case-study setting:
/// a backlogged batch of 1'000 large circuits).
pub fn batch_at_zero(n: usize, dist: &JobDistribution, seed: u64) -> Vec<QJob> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| dist.sample(JobId(i as u64), 0.0, &mut rng))
        .collect()
}

/// Generates `n` jobs with exponential (Poisson-process) inter-arrival
/// times at `rate` jobs/second — the open-system variant used by the
/// queueing ablation.
pub fn poisson_arrivals(n: usize, rate: f64, dist: &JobDistribution, seed: u64) -> Vec<QJob> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += qcs_desim::dist::exponential(&mut rng, rate);
            dist.sample(JobId(i as u64), t, &mut rng)
        })
        .collect()
}

/// Generates a bimodal open-system trace: every `big_every`-th job is a
/// fleet-spanning long-runner (250 qubits, 100k shots), the rest are
/// small, short jobs (20–60 qubits, 10–30k shots), with Poisson arrivals
/// at `rate` jobs/second.
///
/// This is the head-of-line-blocking stress scenario: under strict FIFO a
/// blocked big job idles most of the fleet while backfillable small jobs
/// pile up behind it — the workload used by the `sched` bench and the
/// backfill acceptance tests to separate queue-aware disciplines from the
/// paper's FIFO scheduler.
pub fn bimodal_arrivals(n: usize, rate: f64, big_every: usize, seed: u64) -> Vec<QJob> {
    assert!(rate > 0.0, "arrival rate must be positive");
    assert!(big_every >= 2, "big_every must leave room for small jobs");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += qcs_desim::dist::exponential(&mut rng, rate);
            if i % big_every == big_every - 1 {
                QJob {
                    id: JobId(i as u64),
                    num_qubits: 250,
                    depth: 15,
                    num_shots: 100_000,
                    two_qubit_gates: 900,
                    arrival_time: t,
                }
            } else {
                QJob {
                    id: JobId(i as u64),
                    num_qubits: rng.range_u64(20, 60),
                    depth: 8,
                    num_shots: rng.range_u64(10_000, 30_000),
                    two_qubit_gates: 100,
                    arrival_time: t,
                }
            }
        })
        .collect()
}

/// Generates a diurnal open-system trace: a non-homogeneous Poisson
/// process whose instantaneous rate follows a sinusoidal day/night cycle,
///
/// ```text
/// λ(t) = base_rate · (1 + amplitude · sin(2π t / period))
/// ```
///
/// sampled by Lewis–Shedler thinning (draw candidate gaps at the peak rate
/// `base_rate · (1 + amplitude)`, keep each candidate with probability
/// `λ(t) / λ_peak`). Job bodies reuse the bimodal big/small mix (every
/// `big_every`-th *accepted* job is the fleet-spanning long-runner), so the
/// trace composes rush-hour load swings with the head-of-line-blocking
/// stressor. This is the service-mode workload: daytime peaks push the
/// intake queue past its admission watermark while the night trough lets
/// it drain.
///
/// `amplitude` must lie in `[0, 1)` so the rate stays strictly positive.
pub fn diurnal_arrivals(
    n: usize,
    base_rate: f64,
    amplitude: f64,
    period: f64,
    big_every: usize,
    seed: u64,
) -> Vec<QJob> {
    assert!(base_rate > 0.0, "arrival rate must be positive");
    assert!(
        (0.0..1.0).contains(&amplitude),
        "amplitude must be in [0, 1) to keep the rate positive"
    );
    assert!(period > 0.0, "period must be positive");
    assert!(big_every >= 2, "big_every must leave room for small jobs");
    let mut rng = Xoshiro256StarStar::new(seed);
    let peak = base_rate * (1.0 + amplitude);
    let mut t = 0.0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Candidate event of the homogeneous majorant process.
        t += qcs_desim::dist::exponential(&mut rng, peak);
        let lambda = base_rate * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
        if rng.next_f64() * peak >= lambda {
            continue; // thinned: candidate fell in a trough
        }
        let i = out.len();
        out.push(if i % big_every == big_every - 1 {
            QJob {
                id: JobId(i as u64),
                num_qubits: 250,
                depth: 15,
                num_shots: 100_000,
                two_qubit_gates: 900,
                arrival_time: t,
            }
        } else {
            QJob {
                id: JobId(i as u64),
                num_qubits: rng.range_u64(20, 60),
                depth: 8,
                num_shots: rng.range_u64(10_000, 30_000),
                two_qubit_gates: 100,
                arrival_time: t,
            }
        });
    }
    out
}

/// Generates bursty arrivals: `bursts` groups of `per_burst` jobs, the
/// groups separated by `gap` seconds (jobs within a burst arrive together).
pub fn bursty_arrivals(
    bursts: usize,
    per_burst: usize,
    gap: f64,
    dist: &JobDistribution,
    seed: u64,
) -> Vec<QJob> {
    assert!(gap >= 0.0, "gap must be non-negative");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut out = Vec::with_capacity(bursts * per_burst);
    let mut id = 0u64;
    for b in 0..bursts {
        let t = b as f64 * gap;
        for _ in 0..per_burst {
            out.push(dist.sample(JobId(id), t, &mut rng));
            id += 1;
        }
    }
    out
}

/// Validates a job list against a fleet: every job must satisfy Eq. 1
/// (larger than any single device — i.e. forced to split — yet within the
/// cloud's total capacity), and no two jobs may share an id
/// ([`check_unique_ids`]). Jobs that fit a single device are allowed too
/// (the framework handles them; the *case study* just doesn't generate
/// them); only cloud-overflow is fatal.
pub fn validate_jobs(jobs: &[QJob], total_capacity: u64) -> Result<(), String> {
    for j in jobs {
        j.validate()?;
        if j.num_qubits > total_capacity {
            return Err(format!(
                "job {:?} needs {} qubits but the cloud has {total_capacity}",
                j.id, j.num_qubits
            ));
        }
    }
    check_unique_ids(jobs)
}

/// `Err` naming the first repeated id (in id order) when two jobs share
/// one. The records and the queues key jobs by id, so a repeat would
/// corrupt a run midway. Generated traces number their jobs in order, so
/// one pass confirming strictly increasing ids usually settles it; any
/// other order falls back to scanning a sorted copy of the ids.
pub fn check_unique_ids(jobs: &[QJob]) -> Result<(), String> {
    if jobs.windows(2).all(|w| w[0].id < w[1].id) {
        return Ok(());
    }
    let mut ids: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(format!("duplicate job id {:?}", w[0])),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_mixes_sizes_deterministically() {
        let jobs = bimodal_arrivals(40, 0.1, 4, 3);
        assert_eq!(jobs.len(), 40);
        let big = jobs.iter().filter(|j| j.num_qubits == 250).count();
        assert_eq!(big, 10, "every 4th job is fleet-spanning");
        for j in &jobs {
            j.validate().unwrap();
            if j.num_qubits != 250 {
                assert!((20..=60).contains(&j.num_qubits));
            }
        }
        // Arrivals strictly increase; trace is reproducible.
        for w in jobs.windows(2) {
            assert!(w[1].arrival_time > w[0].arrival_time);
        }
        assert_eq!(jobs, bimodal_arrivals(40, 0.1, 4, 3));
    }

    #[test]
    fn repeated_ids_are_rejected_in_any_order() {
        let mut jobs = batch_at_zero(6, &JobDistribution::default(), 3);
        assert!(check_unique_ids(&jobs).is_ok());
        // Unsorted but distinct ids pass through the sorted fallback.
        jobs.swap(0, 5);
        assert!(validate_jobs(&jobs, 635).is_ok());
        jobs[4].id = jobs[1].id;
        let err = validate_jobs(&jobs, 635).unwrap_err();
        assert!(err.contains("duplicate job id JobId(1)"), "{err}");
        // Adjacent repeats fail the fast pass as well.
        let mut adjacent = batch_at_zero(3, &JobDistribution::default(), 3);
        adjacent[2].id = adjacent[1].id;
        assert!(check_unique_ids(&adjacent)
            .unwrap_err()
            .contains("JobId(1)"));
    }

    #[test]
    fn batch_all_at_zero() {
        let jobs = batch_at_zero(100, &JobDistribution::default(), 1);
        assert_eq!(jobs.len(), 100);
        assert!(jobs.iter().all(|j| j.arrival_time == 0.0));
        // Ids are dense and unique.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
    }

    #[test]
    fn poisson_interarrivals_have_expected_rate() {
        let jobs = poisson_arrivals(20_000, 0.5, &JobDistribution::default(), 2);
        let t_last = jobs.last().unwrap().arrival_time;
        let rate = jobs.len() as f64 / t_last;
        assert!((rate - 0.5).abs() < 0.02, "empirical rate {rate}");
        // Arrival times strictly increase.
        for w in jobs.windows(2) {
            assert!(w[1].arrival_time > w[0].arrival_time);
        }
    }

    #[test]
    fn bursts_are_spaced_by_gap() {
        let jobs = bursty_arrivals(3, 4, 100.0, &JobDistribution::default(), 3);
        assert_eq!(jobs.len(), 12);
        assert!(jobs[..4].iter().all(|j| j.arrival_time == 0.0));
        assert!(jobs[4..8].iter().all(|j| j.arrival_time == 100.0));
        assert!(jobs[8..].iter().all(|j| j.arrival_time == 200.0));
    }

    #[test]
    fn diurnal_modulates_rate_and_validates() {
        let period = 86_400.0;
        let jobs = diurnal_arrivals(4_000, 0.05, 0.8, period, 4, 7);
        assert_eq!(jobs.len(), 4_000);
        validate_jobs(&jobs, 635).unwrap();
        // Ids dense, arrivals strictly increasing, mix preserved.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
        for w in jobs.windows(2) {
            assert!(w[1].arrival_time > w[0].arrival_time);
        }
        let big = jobs.iter().filter(|j| j.num_qubits == 250).count();
        assert_eq!(big, 1_000, "every 4th job is fleet-spanning");
        // Day/night modulation: the sine's positive half-period (day) must
        // hold clearly more arrivals than the negative half (night).
        let (mut day, mut night) = (0usize, 0usize);
        for j in &jobs {
            if (std::f64::consts::TAU * j.arrival_time / period).sin() >= 0.0 {
                day += 1;
            } else {
                night += 1;
            }
        }
        assert!(
            day as f64 > 1.5 * night as f64,
            "no diurnal swing: {day} day vs {night} night arrivals"
        );
        // Long-run mean rate matches base_rate (thinning preserves it).
        let t_last = jobs.last().unwrap().arrival_time;
        let rate = jobs.len() as f64 / t_last;
        assert!((rate - 0.05).abs() < 0.005, "empirical rate {rate}");
    }

    #[test]
    fn diurnal_is_deterministic() {
        let a = diurnal_arrivals(200, 0.1, 0.5, 3_600.0, 5, 11);
        let b = diurnal_arrivals(200, 0.1, 0.5, 3_600.0, 5, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "amplitude must be in [0, 1)")]
    fn diurnal_rejects_full_amplitude() {
        diurnal_arrivals(10, 0.1, 1.0, 3_600.0, 4, 1);
    }

    #[test]
    fn validation_rejects_cloud_overflow() {
        let jobs = batch_at_zero(50, &JobDistribution::default(), 4);
        assert!(validate_jobs(&jobs, 635).is_ok());
        // With 50 draws from U[130, 250] some job exceeds 200 qubits.
        assert!(jobs.iter().any(|j| j.num_qubits > 200));
        assert!(validate_jobs(&jobs, 200).is_err());
    }

    #[test]
    fn deterministic_generation() {
        let a = batch_at_zero(50, &JobDistribution::default(), 9);
        let b = batch_at_zero(50, &JobDistribution::default(), 9);
        assert_eq!(a, b);
    }
}
