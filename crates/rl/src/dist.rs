//! The policy output distribution: a diagonal Gaussian over continuous
//! actions, as used for allocation weights and queue-slot scores.

use qcs_desim::dist::standard_normal;
use qcs_desim::Xoshiro256StarStar;

const LN_2PI: f64 = 1.8378770664093453;

/// A diagonal Gaussian over `dim` action components with state-independent
/// log standard deviations (the Stable-Baselines3 parameterisation for Box
/// action spaces).
#[derive(Debug, Clone)]
pub struct DiagGaussian<'a> {
    /// Per-sample means, row-major `[batch? — callers use single rows]`.
    pub mean: &'a [f32],
    /// Shared log-std vector, one per action dimension.
    pub log_std: &'a [f32],
}

impl DiagGaussian<'_> {
    /// Draws one action.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> Vec<f32> {
        let mut out = vec![0.0; self.mean.len()];
        self.sample_into(rng, &mut out);
        out
    }

    /// Draws one action into `out` (allocation-free; identical RNG
    /// consumption and results to [`DiagGaussian::sample`]).
    pub fn sample_into(&self, rng: &mut Xoshiro256StarStar, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.mean.len());
        for ((o, &mu), &ls) in out.iter_mut().zip(self.mean).zip(self.log_std) {
            *o = mu + ls.exp() * standard_normal(rng) as f32;
        }
    }

    /// Log-density of `action`.
    pub fn log_prob(&self, action: &[f32]) -> f64 {
        debug_assert_eq!(action.len(), self.mean.len());
        let mut lp = 0.0f64;
        for ((&a, &mu), &ls) in action.iter().zip(self.mean).zip(self.log_std) {
            let sigma = (ls as f64).exp();
            let z = (a as f64 - mu as f64) / sigma;
            lp += -0.5 * z * z - ls as f64 - 0.5 * LN_2PI;
        }
        lp
    }

    /// Differential entropy: `Σ (log σ + ½ ln 2πe)`.
    pub fn entropy(&self) -> f64 {
        self.log_std
            .iter()
            .map(|&ls| ls as f64 + 0.5 * (LN_2PI + 1.0))
            .sum()
    }

    /// Gradient of `log_prob(action)` w.r.t. the mean vector:
    /// `∂logp/∂μ_j = (a_j - μ_j)/σ_j²`.
    pub fn dlogp_dmean(&self, action: &[f32], out: &mut [f32]) {
        for j in 0..self.mean.len() {
            let sigma = (self.log_std[j] as f64).exp();
            let z = (action[j] as f64 - self.mean[j] as f64) / sigma;
            out[j] = (z / sigma) as f32;
        }
    }

    /// Gradient of `log_prob(action)` w.r.t. the log-std vector:
    /// `∂logp/∂logσ_j = z_j² - 1`.
    pub fn dlogp_dlogstd(&self, action: &[f32], out: &mut [f32]) {
        for j in 0..self.mean.len() {
            let sigma = (self.log_std[j] as f64).exp();
            let z = (action[j] as f64 - self.mean[j] as f64) / sigma;
            out[j] = (z * z - 1.0) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_logprob_matches_closed_form() {
        let mean = [0.0f32, 1.0];
        let log_std = [0.0f32, 0.0]; // σ = 1
        let d = DiagGaussian {
            mean: &mean,
            log_std: &log_std,
        };
        // logp([0,1]) at the mean of a unit Gaussian: -0.5 ln 2π per dim.
        let lp = d.log_prob(&[0.0, 1.0]);
        assert!((lp + LN_2PI).abs() < 1e-9);
    }

    #[test]
    fn gaussian_entropy_at_unit_sigma() {
        // 5-dim unit Gaussian entropy = 5 · ½ ln(2πe) ≈ 7.0947 — the paper's
        // initial entropy-loss of ≈ −7 in Fig. 5.
        let mean = [0.0f32; 5];
        let log_std = [0.0f32; 5];
        let d = DiagGaussian {
            mean: &mean,
            log_std: &log_std,
        };
        assert!((d.entropy() - 7.0947).abs() < 1e-3);
    }

    #[test]
    fn gaussian_sample_moments() {
        let mean = [2.0f32];
        let log_std = [(0.5f32).ln()];
        let d = DiagGaussian {
            mean: &mean,
            log_std: &log_std,
        };
        let mut rng = Xoshiro256StarStar::new(11);
        let mut w = qcs_desim::Welford::new();
        for _ in 0..100_000 {
            w.push(d.sample(&mut rng)[0] as f64);
        }
        assert!((w.mean() - 2.0).abs() < 0.01);
        assert!((w.std_dev() - 0.5).abs() < 0.01);
    }

    #[test]
    fn gaussian_grads_match_finite_difference() {
        let mean = [0.3f32, -0.7];
        let log_std = [-0.2f32, 0.4];
        let action = [0.5f32, -1.0];
        let d = DiagGaussian {
            mean: &mean,
            log_std: &log_std,
        };
        let mut dmu = [0.0f32; 2];
        let mut dls = [0.0f32; 2];
        d.dlogp_dmean(&action, &mut dmu);
        d.dlogp_dlogstd(&action, &mut dls);
        let eps = 1e-4f32;
        for j in 0..2 {
            let mut mp = mean;
            mp[j] += eps;
            let mut mm = mean;
            mm[j] -= eps;
            let up = DiagGaussian {
                mean: &mp,
                log_std: &log_std,
            }
            .log_prob(&action);
            let dn = DiagGaussian {
                mean: &mm,
                log_std: &log_std,
            }
            .log_prob(&action);
            let num = ((up - dn) / (2.0 * eps as f64)) as f32;
            assert!((num - dmu[j]).abs() < 1e-2, "dmu[{j}]: {num} vs {}", dmu[j]);

            let mut lp = log_std;
            lp[j] += eps;
            let mut lm = log_std;
            lm[j] -= eps;
            let up = DiagGaussian {
                mean: &mean,
                log_std: &lp,
            }
            .log_prob(&action);
            let dn = DiagGaussian {
                mean: &mean,
                log_std: &lm,
            }
            .log_prob(&action);
            let num = ((up - dn) / (2.0 * eps as f64)) as f32;
            assert!((num - dls[j]).abs() < 1e-2, "dls[{j}]: {num} vs {}", dls[j]);
        }
    }
}
