//! Open-system arrival processes: Poisson and Markov-modulated bursts.
//!
//! The paper's case study submits all 1,000 jobs at `t = 0` (closed
//! backlog). Real quantum clouds see *open* arrivals whose rate varies —
//! interactive daytime load, batch queues overnight, and correlated bursts
//! when a conference deadline nears. These processes generate arrival-time
//! sequences for such scenarios; combine them with a
//! [`JobDistribution`] via [`jobs_with_arrivals`]. Day/night cycles come
//! from `qcs_qcloud::jobgen::diurnal_arrivals`.

use qcs_desim::dist::exponential;
use qcs_desim::Xoshiro256StarStar;
use qcs_qcloud::{JobDistribution, JobId, QJob};
use serde::{Deserialize, Serialize};

/// Homogeneous Poisson process: exponential inter-arrivals at `rate`
/// jobs/second.
pub fn poisson_process(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += exponential(&mut rng, rate);
            t
        })
        .collect()
}

/// Two-state Markov-modulated Poisson process (MMPP-2): the canonical
/// bursty-traffic model. The modulating chain alternates between a *calm*
/// and a *burst* state with exponential sojourn times; arrivals are Poisson
/// at the state's rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mmpp2 {
    /// Arrival rate in the calm state (jobs/s).
    pub calm_rate: f64,
    /// Arrival rate in the burst state (jobs/s).
    pub burst_rate: f64,
    /// Mean sojourn in the calm state (s).
    pub calm_mean_sojourn: f64,
    /// Mean sojourn in the burst state (s).
    pub burst_mean_sojourn: f64,
}

impl Mmpp2 {
    /// Generates `n` arrival times starting in the calm state.
    pub fn arrivals(&self, n: usize, seed: u64) -> Vec<f64> {
        assert!(
            self.calm_rate > 0.0 && self.burst_rate > 0.0,
            "rates must be positive"
        );
        assert!(
            self.calm_mean_sojourn > 0.0 && self.burst_mean_sojourn > 0.0,
            "sojourns must be positive"
        );
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        let mut in_burst = false;
        // Time at which the modulating chain next switches state.
        let mut switch_at = exponential(&mut rng, 1.0 / self.calm_mean_sojourn);
        while out.len() < n {
            let rate = if in_burst {
                self.burst_rate
            } else {
                self.calm_rate
            };
            let dt = exponential(&mut rng, rate);
            if t + dt < switch_at {
                t += dt;
                out.push(t);
            } else {
                // Jump to the switch point and flip state; the memoryless
                // property lets us redraw the arrival clock.
                t = switch_at;
                in_burst = !in_burst;
                let mean = if in_burst {
                    self.burst_mean_sojourn
                } else {
                    self.calm_mean_sojourn
                };
                switch_at = t + exponential(&mut rng, 1.0 / mean);
            }
        }
        out
    }

    /// Long-run average arrival rate (jobs/s).
    pub fn mean_rate(&self) -> f64 {
        let pi_calm = self.calm_mean_sojourn / (self.calm_mean_sojourn + self.burst_mean_sojourn);
        pi_calm * self.calm_rate + (1.0 - pi_calm) * self.burst_rate
    }
}

/// Binds an arrival-time sequence to sampled job bodies: job `i` gets
/// `JobId(i)` (offset by `id_base`) and `arrivals[i]`.
pub fn jobs_with_arrivals(
    arrivals: &[f64],
    dist: &JobDistribution,
    id_base: u64,
    seed: u64,
) -> Vec<QJob> {
    let mut rng = Xoshiro256StarStar::new(seed);
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &t)| dist.sample(JobId(id_base + i as u64), t, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_monotone(ts: &[f64]) {
        for w in ts.windows(2) {
            assert!(w[1] >= w[0], "arrivals must be non-decreasing");
        }
    }

    #[test]
    fn poisson_mean_rate_converges() {
        let n = 20_000;
        let ts = poisson_process(n, 0.5, 42);
        assert_eq!(ts.len(), n);
        assert_monotone(&ts);
        let empirical_rate = n as f64 / ts.last().unwrap();
        assert!(
            (empirical_rate - 0.5).abs() < 0.02,
            "rate {empirical_rate} vs 0.5"
        );
    }

    #[test]
    fn poisson_is_seeded() {
        assert_eq!(poisson_process(100, 1.0, 7), poisson_process(100, 1.0, 7));
        assert_ne!(poisson_process(100, 1.0, 7), poisson_process(100, 1.0, 8));
    }

    #[test]
    fn mmpp_long_run_rate_matches_theory() {
        // Short sojourns → many modulation cycles → tight convergence.
        let m = Mmpp2 {
            calm_rate: 0.1,
            burst_rate: 2.0,
            calm_mean_sojourn: 50.0,
            burst_mean_sojourn: 10.0,
        };
        // π_calm = 5/6 → mean rate = 0.1·5/6 + 2.0·1/6 = 0.4166…
        assert!((m.mean_rate() - 0.41666).abs() < 1e-3);
        let n = 30_000;
        let ts = m.arrivals(n, 3);
        assert_monotone(&ts);
        let empirical = n as f64 / ts.last().unwrap();
        assert!(
            (empirical - m.mean_rate()).abs() / m.mean_rate() < 0.1,
            "empirical {empirical} vs {}",
            m.mean_rate()
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrivals: 1 for
        // Poisson, > 1 for MMPP.
        let cv2 = |ts: &[f64]| {
            let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
            let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let v = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
            v / (m * m)
        };
        let m = Mmpp2 {
            calm_rate: 0.05,
            burst_rate: 5.0,
            calm_mean_sojourn: 1000.0,
            burst_mean_sojourn: 50.0,
        };
        let bursty = cv2(&m.arrivals(20_000, 9));
        let poisson = cv2(&poisson_process(20_000, m.mean_rate(), 9));
        assert!(poisson < 1.2, "Poisson CV² ≈ 1, got {poisson}");
        assert!(bursty > 2.0, "MMPP must be bursty, CV² = {bursty}");
    }

    #[test]
    fn jobs_bind_ids_and_arrival_times() {
        let arrivals: Vec<f64> = (1..=10).map(|i| i as f64 * 5.0).collect();
        let jobs = jobs_with_arrivals(&arrivals, &JobDistribution::default(), 100, 1);
        assert_eq!(jobs.len(), 10);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(100 + i as u64));
            assert_eq!(j.arrival_time, arrivals[i]);
            j.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        poisson_process(1, 0.0, 1);
    }
}
