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
    /// The means of one sample, one per action dimension.
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

/// The terms of a [`DiagGaussian`] that depend on its `log_std` alone:
/// `σ_j = exp(log_std_j)` (in `f64` for densities and gradients, in `f32`
/// for sampling) and the entropy. Every row of a batch shares one
/// `log_std`, so its users compute these once per batch (per minibatch in
/// the update, per step in the rollout) instead of an `exp` per row and
/// action dimension. Each method gives the bits of its [`DiagGaussian`]
/// counterpart.
#[derive(Debug, Clone, Default)]
pub struct StdTerms {
    log_std: Vec<f32>,
    sigma: Vec<f64>,
    sigma_f32: Vec<f32>,
    entropy: f64,
}

impl StdTerms {
    /// An empty set of terms; call [`StdTerms::set`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the terms of `log_std`, reusing the buffers.
    pub fn set(&mut self, log_std: &[f32]) {
        self.log_std.clear();
        self.log_std.extend_from_slice(log_std);
        self.sigma.clear();
        self.sigma
            .extend(log_std.iter().map(|&ls| (ls as f64).exp()));
        self.sigma_f32.clear();
        self.sigma_f32.extend(log_std.iter().map(|&ls| ls.exp()));
        self.entropy = DiagGaussian { mean: &[], log_std }.entropy();
    }

    /// [`DiagGaussian::entropy`].
    pub fn entropy(&self) -> f64 {
        self.entropy
    }

    /// [`DiagGaussian::sample_into`] for the row `mean`: the same draws
    /// from `rng` and the same bits.
    pub fn sample_into(&self, mean: &[f32], rng: &mut Xoshiro256StarStar, out: &mut [f32]) {
        debug_assert_eq!(out.len(), mean.len());
        for ((o, &mu), &sigma) in out.iter_mut().zip(mean).zip(&self.sigma_f32) {
            *o = mu + sigma * standard_normal(rng) as f32;
        }
    }

    /// [`DiagGaussian::log_prob`] of `action` for the row `mean`. Leaves
    /// each `z_j = (a_j − μ_j)/σ_j` in `z` for [`StdTerms::add_scaled_grads`].
    pub fn log_prob(&self, mean: &[f32], action: &[f32], z: &mut [f64]) -> f64 {
        debug_assert_eq!(action.len(), mean.len());
        debug_assert_eq!(z.len(), mean.len());
        let mut lp = 0.0f64;
        let terms = self.sigma.iter().zip(&self.log_std);
        for (((z, &a), &mu), (&sigma, &ls)) in z.iter_mut().zip(action).zip(mean).zip(terms) {
            *z = (a as f64 - mu as f64) / sigma;
            lp += -0.5 * *z * *z - ls as f64 - 0.5 * LN_2PI;
        }
        lp
    }

    /// From the `z` that [`StdTerms::log_prob`] left: writes
    /// `scale·∂logp/∂μ_j` into `d_mean` and adds `scale·∂logp/∂logσ_j` into
    /// `d_log_std` — the bits of [`DiagGaussian::dlogp_dmean`] and
    /// [`DiagGaussian::dlogp_dlogstd`], each multiplied by `scale` in `f32`.
    pub fn add_scaled_grads(
        &self,
        z: &[f64],
        scale: f32,
        d_mean: &mut [f32],
        d_log_std: &mut [f32],
    ) {
        let grads = d_mean.iter_mut().zip(d_log_std.iter_mut());
        for ((dm, dls), (&z, &sigma)) in grads.zip(z.iter().zip(&self.sigma)) {
            *dm = (z / sigma) as f32 * scale;
            *dls += (z * z - 1.0) as f32 * scale;
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every [`StdTerms`] method against its [`DiagGaussian`] counterpart,
    /// bitwise, on one case: the log-density (and the `z` it leaves), both
    /// gradients scaled and accumulated as the losses do, the entropy, and
    /// sampling with its draws from the generator.
    fn check_std_terms(mean: &[f32], log_std: &[f32], action: &[f32], scale: f32, seed: u64) {
        let n = mean.len();
        let d = DiagGaussian { mean, log_std };
        let mut terms = StdTerms::new();
        terms.set(log_std);
        let mut z = vec![f64::NAN; n];
        let lp = terms.log_prob(mean, action, &mut z);
        assert_eq!(lp.to_bits(), d.log_prob(action).to_bits(), "log_prob");
        assert_eq!(terms.entropy().to_bits(), d.entropy().to_bits(), "entropy");

        let (mut dmu, mut dls) = (vec![0.0f32; n], vec![0.0f32; n]);
        d.dlogp_dmean(action, &mut dmu);
        d.dlogp_dlogstd(action, &mut dls);
        let mut d_mean = vec![f32::NAN; n];
        let mut d_log_std: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 0.5).collect();
        let want_mean: Vec<f32> = dmu.iter().map(|&g| g * scale).collect();
        let want_log_std: Vec<f32> = d_log_std
            .iter()
            .zip(&dls)
            .map(|(&acc, &g)| acc + g * scale)
            .collect();
        terms.add_scaled_grads(&z, scale, &mut d_mean, &mut d_log_std);
        assert_eq!(bits(&d_mean), bits(&want_mean), "dlogp_dmean");
        assert_eq!(bits(&d_log_std), bits(&want_log_std), "dlogp_dlogstd");

        let (mut r1, mut r2) = (Xoshiro256StarStar::new(seed), Xoshiro256StarStar::new(seed));
        let (mut a1, mut a2) = (vec![0.0f32; n], vec![0.0f32; n]);
        d.sample_into(&mut r1, &mut a1);
        terms.sample_into(mean, &mut r2, &mut a2);
        assert_eq!(bits(&a1), bits(&a2), "sample_into");
        assert_eq!(r1.next_u64(), r2.next_u64(), "draws");
    }

    #[test]
    fn std_terms_match_diag_gaussian_on_policy_shapes() {
        // The gym (5 actions) and scheduler (9 actions) heads at SB3's
        // initial σ = 1 and after log_std has moved either way.
        for n in [1usize, 5, 9] {
            let mean: Vec<f32> = (0..n).map(|j| j as f32 * 0.3 - 1.1).collect();
            let action: Vec<f32> = (0..n).map(|j| 0.7 - j as f32 * 0.45).collect();
            for ls in [0.0f32, -0.7, 0.35] {
                let log_std: Vec<f32> = (0..n).map(|j| ls + j as f32 * 0.05).collect();
                check_std_terms(&mean, &log_std, &action, -0.015625, n as u64);
                check_std_terms(&mean, &log_std, &action, 1.0, 7);
            }
        }
    }

    #[test]
    fn std_terms_follow_log_std_changes() {
        let mean = [0.2f32, -0.4];
        let action = [0.5f32, 0.1];
        let mut terms = StdTerms::new();
        let mut z = [0.0f64; 2];
        for log_std in [[0.0f32, 0.0], [0.0, 0.0], [-0.5, 0.25], [0.0, -0.0]] {
            terms.set(&log_std);
            let d = DiagGaussian {
                mean: &mean,
                log_std: &log_std,
            };
            let lp = terms.log_prob(&mean, &action, &mut z);
            assert_eq!(lp.to_bits(), d.log_prob(&action).to_bits(), "{log_std:?}");
            assert_eq!(
                terms.entropy().to_bits(),
                d.entropy().to_bits(),
                "{log_std:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// [`check_std_terms`] on random rows, log-stds and loss scales.
        #[test]
        fn std_terms_match_diag_gaussian(
            rows in proptest::collection::vec((-3.0f64..3.0, -3.0f64..2.0, -3.0f64..3.0), 1..=12),
            scale in -2.0f64..2.0,
            seed in 0u64..u64::MAX,
        ) {
            let mean: Vec<f32> = rows.iter().map(|r| r.0 as f32).collect();
            let log_std: Vec<f32> = rows.iter().map(|r| r.1 as f32).collect();
            let action: Vec<f32> = rows.iter().map(|r| r.2 as f32).collect();
            check_std_terms(&mean, &log_std, &action, scale as f32, seed);
        }
    }
}
