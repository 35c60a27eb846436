//! The actor-critic model: a Gaussian MLP policy plus an MLP value function,
//! mirroring Stable-Baselines3's `MlpPolicy` for Box action spaces.

use crate::dist::DiagGaussian;
use crate::nn::{Matrix, Mlp, MlpCache};
use crate::opt::Adam;
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// Actor-critic parameters: policy network (obs → action means), value
/// network (obs → scalar), and a state-independent `log_std` vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorCritic {
    /// Policy network producing action means.
    pub pi: Mlp,
    /// Value network producing state values.
    pub vf: Mlp,
    /// Shared log standard deviations (one per action dim).
    pub log_std: Vec<f32>,
    /// Accumulated gradient for `log_std`.
    #[serde(skip, default)]
    pub grad_log_std: Vec<f32>,
}

impl ActorCritic {
    /// Builds the SB3-default architecture: two 64-unit tanh hidden layers
    /// for both networks, policy head gain 0.01, value head gain 1.0,
    /// `log_std` initialised to 0 (σ = 1).
    pub fn new(obs_dim: usize, action_dim: usize, rng: &mut Xoshiro256StarStar) -> Self {
        ActorCritic {
            pi: Mlp::sb3_default(obs_dim, action_dim, 0.01, rng),
            vf: Mlp::sb3_default(obs_dim, 1, 1.0, rng),
            log_std: vec![0.0; action_dim],
            grad_log_std: vec![0.0; action_dim],
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.pi.in_dim()
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.pi.out_dim()
    }

    /// Zeroes all gradients (policy, value, log_std).
    pub fn zero_grad(&mut self) {
        self.pi.zero_grad();
        self.vf.zero_grad();
        if self.grad_log_std.len() != self.log_std.len() {
            self.grad_log_std = vec![0.0; self.log_std.len()];
        }
        self.grad_log_std.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Samples an action for a single observation; returns
    /// `(action, log_prob, value)`.
    pub fn act(
        &self,
        obs: &[f32],
        rng: &mut Xoshiro256StarStar,
        scratch: &mut ActScratch,
    ) -> (Vec<f32>, f64, f64) {
        let mut action = vec![0.0; self.action_dim()];
        let (logp, value) = self.act_into(obs, rng, scratch, &mut action);
        (action, logp, value)
    }

    /// Allocation-free [`ActorCritic::act`]: samples an action into
    /// `action_out`; returns `(log_prob, value)`. Bit-identical outputs and
    /// RNG consumption to `act`.
    pub fn act_into(
        &self,
        obs: &[f32],
        rng: &mut Xoshiro256StarStar,
        scratch: &mut ActScratch,
        action_out: &mut [f32],
    ) -> (f64, f64) {
        scratch.load_obs_row(obs);
        let mean = self.pi.forward(&scratch.obs_mat, &mut scratch.pi_cache);
        let dist = DiagGaussian {
            mean: mean.row(0),
            log_std: &self.log_std,
        };
        dist.sample_into(rng, action_out);
        let logp = dist.log_prob(action_out);
        let value = self
            .vf
            .forward(&scratch.obs_mat, &mut scratch.vf_cache)
            .get(0, 0) as f64;
        (logp, value)
    }

    /// Batched [`ActorCritic::act`] over a `[n, obs_dim]` observation
    /// matrix: one policy GEMM and one value GEMM for all environments
    /// instead of `n` per-row GEMVs. Actions are sampled row by row from
    /// the batched means in the same order (and with the same RNG stream)
    /// as `n` sequential `act` calls, so actions, log-probs and values are
    /// bit-identical to the per-env path. Writes into caller-provided
    /// buffers; performs no heap allocation after warm-up.
    pub fn act_batch(
        &self,
        obs: &Matrix,
        rng: &mut Xoshiro256StarStar,
        scratch: &mut ActScratch,
        actions: &mut Matrix,
        log_probs: &mut [f64],
        values: &mut [f64],
    ) {
        let n = obs.rows();
        assert_eq!(obs.cols(), self.obs_dim(), "obs dim mismatch");
        assert_eq!(log_probs.len(), n, "one log-prob slot per row");
        assert_eq!(values.len(), n, "one value slot per row");
        actions.reshape_for_overwrite(n, self.action_dim());
        let means = self.pi.forward(obs, &mut scratch.pi_cache);
        for (r, lp) in log_probs.iter_mut().enumerate() {
            let dist = DiagGaussian {
                mean: means.row(r),
                log_std: &self.log_std,
            };
            let action_row = actions.row_mut(r);
            dist.sample_into(rng, action_row);
            *lp = dist.log_prob(action_row);
        }
        let vals = self.vf.forward(obs, &mut scratch.vf_cache);
        for (r, v) in values.iter_mut().enumerate() {
            *v = vals.get(r, 0) as f64;
        }
    }

    /// Deterministic (mean) action for deployment.
    pub fn act_deterministic(&self, obs: &[f32], scratch: &mut ActScratch) -> Vec<f32> {
        let mut action = vec![0.0; self.action_dim()];
        self.act_deterministic_into(obs, scratch, &mut action);
        action
    }

    /// Allocation-free [`ActorCritic::act_deterministic`]: writes the mean
    /// action into `action_out` (length [`ActorCritic::action_dim`]).
    pub fn act_deterministic_into(
        &self,
        obs: &[f32],
        scratch: &mut ActScratch,
        action_out: &mut [f32],
    ) {
        scratch.load_obs_row(obs);
        let mean = self.pi.forward(&scratch.obs_mat, &mut scratch.pi_cache);
        action_out.copy_from_slice(mean.row(0));
    }

    /// State value estimate.
    pub fn value(&self, obs: &[f32], scratch: &mut ActScratch) -> f64 {
        scratch.load_obs_row(obs);
        self.vf
            .forward(&scratch.obs_mat, &mut scratch.vf_cache)
            .get(0, 0) as f64
    }

    /// Batched state-value estimates over a `[n, obs_dim]` observation
    /// matrix: one GEMM, bit-identical per-row results to `n` sequential
    /// [`ActorCritic::value`] calls.
    pub fn value_batch(&self, obs: &Matrix, scratch: &mut ActScratch, values: &mut [f64]) {
        assert_eq!(obs.cols(), self.obs_dim(), "obs dim mismatch");
        assert_eq!(values.len(), obs.rows(), "one value slot per row");
        let vals = self.vf.forward(obs, &mut scratch.vf_cache);
        for (r, v) in values.iter_mut().enumerate() {
            *v = vals.get(r, 0) as f64;
        }
    }

    /// Applies accumulated gradients with Adam. The tensor registration
    /// order is stable: policy layers (w, b), value layers (w, b), log_std.
    pub fn apply_gradients(&mut self, opt: &mut Adam) {
        let mut tensors: Vec<(&mut [f32], &[f32])> = Vec::new();
        for l in self.pi.layers_mut() {
            let (w, gw) = (&mut l.w, &l.grad_w);
            tensors.push((w.data_mut(), gw.data()));
            tensors.push((l.b.as_mut_slice(), l.grad_b.as_slice()));
        }
        for l in self.vf.layers_mut() {
            let (w, gw) = (&mut l.w, &l.grad_w);
            tensors.push((w.data_mut(), gw.data()));
            tensors.push((l.b.as_mut_slice(), l.grad_b.as_slice()));
        }
        tensors.push((self.log_std.as_mut_slice(), self.grad_log_std.as_slice()));
        opt.step(&mut tensors);
    }

    /// Global L2 norm of all gradients (for clipping / logging).
    pub fn grad_norm(&self) -> f32 {
        let mut acc = 0.0f32;
        for l in self.pi.layers().iter().chain(self.vf.layers()) {
            acc += l.grad_w.data().iter().map(|g| g * g).sum::<f32>();
            acc += l.grad_b.iter().map(|g| g * g).sum::<f32>();
        }
        acc += self.grad_log_std.iter().map(|g| g * g).sum::<f32>();
        acc.sqrt()
    }

    /// Scales all gradients by `factor` (gradient clipping support).
    pub fn scale_gradients(&mut self, factor: f32) {
        for l in self.pi.layers_mut().iter_mut().chain(self.vf.layers_mut()) {
            l.grad_w.data_mut().iter_mut().for_each(|g| *g *= factor);
            l.grad_b.iter_mut().for_each(|g| *g *= factor);
        }
        self.grad_log_std.iter_mut().for_each(|g| *g *= factor);
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ActorCritic serialisation cannot fail")
    }

    /// Deserialises from JSON. A model whose shapes do not fit together
    /// (see [`ActorCritic::check_shapes`]) is an `Err`, not a later panic.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let mut ac: ActorCritic = serde_json::from_str(s).map_err(|e| e.to_string())?;
        ac.check_shapes()?;
        ac.zero_grad(); // rebuild skipped gradient buffers
        Ok(ac)
    }

    /// `Err` naming the first shape mismatch: inside `pi` or `vf` (a
    /// weight matrix whose data does not fill it, a bias of the wrong
    /// length, layers that do not chain), `pi` and `vf` reading different
    /// input widths, `vf` without exactly one output, or `log_std` without
    /// one entry per action. Loaders of deserialised models call this
    /// before anything indexes by those shapes.
    pub fn check_shapes(&self) -> Result<(), String> {
        self.pi.check_shapes("pi")?;
        self.vf.check_shapes("vf")?;
        if self.vf.in_dim() != self.pi.in_dim() {
            return Err(format!(
                "vf input width {} differs from pi input width {}",
                self.vf.in_dim(),
                self.pi.in_dim()
            ));
        }
        if self.vf.out_dim() != 1 {
            return Err(format!("vf has {} outputs, expected 1", self.vf.out_dim()));
        }
        if self.log_std.len() != self.pi.out_dim() {
            return Err(format!(
                "log_std has {} entries for pi output width {}",
                self.log_std.len(),
                self.pi.out_dim()
            ));
        }
        Ok(())
    }
}

/// Reusable forward-pass scratch for [`ActorCritic::act`] and the batched
/// inference paths.
#[derive(Debug, Default)]
pub struct ActScratch {
    /// Policy network cache.
    pub pi_cache: MlpCache,
    /// Value network cache.
    pub vf_cache: MlpCache,
    /// Single-row observation staging buffer for the per-sample paths.
    obs_mat: Matrix,
}

impl ActScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a single observation as a `[1, obs_dim]` matrix without
    /// allocating (after warm-up).
    fn load_obs_row(&mut self, obs: &[f32]) {
        self.obs_mat.reshape_for_overwrite(1, obs.len());
        self.obs_mat.row_mut(0).copy_from_slice(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_initial_logstd() {
        let mut rng = Xoshiro256StarStar::new(1);
        let ac = ActorCritic::new(16, 5, &mut rng);
        assert_eq!(ac.obs_dim(), 16);
        assert_eq!(ac.action_dim(), 5);
        assert_eq!(ac.log_std, vec![0.0; 5]);
    }

    #[test]
    fn act_returns_consistent_logprob() {
        let mut rng = Xoshiro256StarStar::new(2);
        let ac = ActorCritic::new(4, 2, &mut rng);
        let mut scratch = ActScratch::new();
        let obs = vec![0.1, -0.2, 0.3, 0.0];
        let (action, logp, _v) = ac.act(&obs, &mut rng, &mut scratch);
        // Recompute log-prob by hand.
        let x = Matrix::from_vec(1, 4, obs.clone());
        let mut cache = MlpCache::new();
        let mean = ac.pi.forward(&x, &mut cache);
        let d = DiagGaussian {
            mean: mean.row(0),
            log_std: &ac.log_std,
        };
        assert!((d.log_prob(&action) - logp).abs() < 1e-9);
    }

    #[test]
    fn deterministic_action_is_mean() {
        let mut rng = Xoshiro256StarStar::new(3);
        let ac = ActorCritic::new(3, 2, &mut rng);
        let mut scratch = ActScratch::new();
        let obs = vec![0.5, 0.5, 0.5];
        let a1 = ac.act_deterministic(&obs, &mut scratch);
        let a2 = ac.act_deterministic(&obs, &mut scratch);
        assert_eq!(a1, a2);
    }

    #[test]
    fn act_deterministic_into_matches_act_deterministic_bitwise() {
        // The deployed scheduler's shape: 60 observations, 9 action slots.
        let mut rng = Xoshiro256StarStar::new(6);
        let ac = ActorCritic::new(60, 9, &mut rng);
        let obs: Vec<f32> = (0..4 * 60)
            .map(|i| ((i * 7) % 17) as f32 / 17.0 - 0.3)
            .collect();
        // A four-row batch runs the GEMM's full row blocks; one row at a
        // time runs its row tail. Both must give the same bits.
        let batch = Matrix::from_vec(4, 60, obs.clone());
        let mut cache = MlpCache::new();
        let means = ac.pi.forward(&batch, &mut cache);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut s1 = ActScratch::new();
        let mut s2 = ActScratch::new();
        let mut action = vec![f32::NAN; 9];
        for (r, row) in obs.chunks_exact(60).enumerate() {
            let reference = ac.act_deterministic(row, &mut s1);
            ac.act_deterministic_into(row, &mut s2, &mut action);
            assert_eq!(bits(&action), bits(&reference), "row {r}");
            assert_eq!(bits(&action), bits(means.row(r)), "row {r} vs batch");
        }
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let mut rng = Xoshiro256StarStar::new(4);
        let ac = ActorCritic::new(6, 3, &mut rng);
        let json = ac.to_json();
        let ac2 = ActorCritic::from_json(&json).unwrap();
        let mut s1 = ActScratch::new();
        let mut s2 = ActScratch::new();
        let obs = vec![0.1; 6];
        assert_eq!(
            ac.act_deterministic(&obs, &mut s1),
            ac2.act_deterministic(&obs, &mut s2)
        );
    }

    /// A JSON checkpoint of a small model after `edit`, loaded back.
    fn reload_edited(edit: impl FnOnce(&mut ActorCritic)) -> Result<ActorCritic, String> {
        let mut rng = Xoshiro256StarStar::new(9);
        let mut ac = ActorCritic::new(4, 2, &mut rng);
        edit(&mut ac);
        ActorCritic::from_json(&ac.to_json())
    }

    fn assert_rejected(edit: impl FnOnce(&mut ActorCritic), expected: &str) {
        let err = reload_edited(edit).expect_err("malformed checkpoint must not load");
        assert!(err.contains(expected), "error '{err}' lacks '{expected}'");
    }

    #[test]
    fn from_json_rejects_weight_data_one_short() {
        let short: Vec<String> = (0..255).map(|i| format!("{}", i as f32 * 1e-3)).collect();
        let json = format!(r#"{{"rows":4,"cols":64,"data":[{}]}}"#, short.join(","));
        assert_rejected(
            |ac| ac.pi.layers_mut()[0].w = serde_json::from_str(&json).unwrap(),
            "pi layer 0 weights: 255 values for a 4x64 matrix",
        );
    }

    #[test]
    fn from_json_rejects_bias_length_mismatch() {
        assert_rejected(
            |ac| {
                ac.pi.layers_mut()[1].b.pop();
            },
            "pi layer 1: 63 biases for output width 64",
        );
    }

    #[test]
    fn from_json_rejects_layers_that_do_not_chain() {
        let mut rng = Xoshiro256StarStar::new(10);
        let narrow = crate::nn::Linear::new(32, 64, 1.0, &mut rng);
        assert_rejected(
            |ac| ac.vf.layers_mut()[1] = narrow,
            "vf layer 1: input width 32 after output width 64",
        );
    }

    #[test]
    fn from_json_rejects_empty_network() {
        let empty = serde_json::from_str(r#"{"layers":[],"activation":"Tanh"}"#).unwrap();
        assert_rejected(|ac| ac.vf = empty, "vf: no layers");
    }

    #[test]
    fn from_json_rejects_pi_vf_input_mismatch() {
        let mut rng = Xoshiro256StarStar::new(11);
        let vf = Mlp::sb3_default(5, 1, 1.0, &mut rng);
        assert_rejected(
            |ac| ac.vf = vf,
            "vf input width 5 differs from pi input width 4",
        );
    }

    #[test]
    fn from_json_rejects_multi_output_value_head() {
        let mut rng = Xoshiro256StarStar::new(12);
        let vf = Mlp::sb3_default(4, 2, 1.0, &mut rng);
        assert_rejected(|ac| ac.vf = vf, "vf has 2 outputs, expected 1");
    }

    #[test]
    fn from_json_rejects_log_std_length_mismatch() {
        assert_rejected(
            |ac| ac.log_std.push(0.0),
            "log_std has 3 entries for pi output width 2",
        );
    }

    #[test]
    fn grad_scaling_and_norm() {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut ac = ActorCritic::new(2, 2, &mut rng);
        ac.zero_grad();
        ac.grad_log_std[0] = 3.0;
        ac.grad_log_std[1] = 4.0;
        assert!((ac.grad_norm() - 5.0).abs() < 1e-6);
        ac.scale_gradients(0.5);
        assert!((ac.grad_norm() - 2.5).abs() < 1e-6);
    }
}
