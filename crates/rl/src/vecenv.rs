//! Vectorised environments: step many environments per policy query, in
//! environment order on the calling thread.
//!
//! The hot-path API is [`VecEnv::step_into`]/[`VecEnv::reset_into`]: actions
//! arrive as a `[n_envs, action_dim]` matrix and next observations are
//! written straight into the caller's `[n_envs, obs_dim]` matrix, so a
//! rollout step performs no heap allocation. The Vec-of-Vec
//! [`VecEnv::step`]/[`VecEnv::reset_all`] wrappers remain for convenience
//! and tests.

use crate::env::{Env, StepInfo, StepResult};
use crate::nn::Matrix;
use qcs_desim::SplitMix64;

/// Wraps an env with Gym-style auto-reset: when an episode ends, the env is
/// reset immediately and the *initial observation of the next episode* is
/// returned in place of the terminal observation (the done flag still
/// refers to the finished episode).
struct AutoReset {
    env: Box<dyn Env>,
    base_seed: u64,
    episodes: u64,
}

impl AutoReset {
    fn new(env: Box<dyn Env>) -> Self {
        AutoReset {
            env,
            base_seed: 0,
            episodes: 0,
        }
    }

    fn seed_for_episode(&self, episode: u64) -> u64 {
        let mut sm = SplitMix64::new(self.base_seed ^ episode.wrapping_mul(0x2545F4914F6CDD1D));
        sm.next_u64()
    }

    fn reset_initial_into(&mut self, base_seed: u64, obs_out: &mut [f32]) {
        self.base_seed = base_seed;
        self.episodes = 0;
        let seed = self.seed_for_episode(0);
        self.env.reset_into(seed, obs_out);
    }

    fn step_into(&mut self, action: &[f32], obs_out: &mut [f32]) -> StepInfo {
        let info = self.env.step_into(action, obs_out);
        if info.done() {
            self.episodes += 1;
            let seed = self.seed_for_episode(self.episodes);
            self.env.reset_into(seed, obs_out);
        }
        info
    }
}

/// A fixed set of environments stepped in lock-step.
pub struct VecEnv {
    envs: Vec<AutoReset>,
    obs_dim: usize,
    action_dim: usize,
}

impl VecEnv {
    /// Runs all environments on the calling thread.
    pub fn sequential(envs: Vec<Box<dyn Env>>) -> Self {
        assert!(!envs.is_empty(), "need at least one environment");
        let obs_dim = envs[0].obs_dim();
        let action_dim = envs[0].action_dim();
        for e in &envs {
            assert_eq!(e.obs_dim(), obs_dim, "heterogeneous obs dims");
            assert_eq!(e.action_dim(), action_dim, "heterogeneous action dims");
        }
        VecEnv {
            envs: envs.into_iter().map(AutoReset::new).collect(),
            obs_dim,
            action_dim,
        }
    }

    /// Number of environments.
    pub fn num_envs(&self) -> usize {
        self.envs.len()
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Resets every environment with seeds derived from `base_seed`,
    /// writing initial observations into `obs_out` (reshaped to
    /// `[n_envs, obs_dim]`).
    pub fn reset_into(&mut self, base_seed: u64, obs_out: &mut Matrix) {
        obs_out.reshape_for_overwrite(self.envs.len(), self.obs_dim);
        let mut sm = SplitMix64::new(base_seed);
        for (e, ar) in self.envs.iter_mut().enumerate() {
            ar.reset_initial_into(sm.next_u64(), obs_out.row_mut(e));
        }
    }

    /// Steps every environment with its row of `actions`
    /// (`[n_envs, action_dim]`), writing next observations into `obs_out`
    /// (reshaped to `[n_envs, obs_dim]`) and per-env outcomes into `infos`.
    /// Environments that finish an episode auto-reset (Gym convention: the
    /// written observation is the next episode's initial state). Performs
    /// no heap allocation.
    pub fn step_into(&mut self, actions: &Matrix, obs_out: &mut Matrix, infos: &mut [StepInfo]) {
        let n_envs = self.envs.len();
        assert_eq!(actions.rows(), n_envs, "one action row per env");
        assert_eq!(actions.cols(), self.action_dim, "action dim mismatch");
        assert_eq!(infos.len(), n_envs, "one StepInfo slot per env");
        obs_out.reshape_for_overwrite(n_envs, self.obs_dim);
        for (e, ar) in self.envs.iter_mut().enumerate() {
            infos[e] = ar.step_into(actions.row(e), obs_out.row_mut(e));
        }
    }

    /// Resets every environment; returns initial observations in env order.
    /// Convenience wrapper over [`VecEnv::reset_into`] (allocates).
    pub fn reset_all(&mut self, base_seed: u64) -> Vec<Vec<f32>> {
        let mut obs = Matrix::zeros(0, 0);
        self.reset_into(base_seed, &mut obs);
        (0..self.envs.len()).map(|e| obs.row(e).to_vec()).collect()
    }

    /// Steps every environment with its action; results in env order.
    /// Convenience wrapper over [`VecEnv::step_into`] (allocates).
    pub fn step(&mut self, actions: &[Vec<f32>]) -> Vec<StepResult> {
        let n_envs = self.envs.len();
        assert_eq!(actions.len(), n_envs, "one action per env");
        let mut act_mat = Matrix::zeros(n_envs, self.action_dim);
        for (e, a) in actions.iter().enumerate() {
            assert_eq!(a.len(), self.action_dim, "action dim mismatch");
            act_mat.row_mut(e).copy_from_slice(a);
        }
        let mut obs = Matrix::zeros(0, 0);
        let mut infos = vec![StepInfo::default(); n_envs];
        self.step_into(&act_mat, &mut obs, &mut infos);
        (0..n_envs)
            .map(|e| StepResult {
                obs: obs.row(e).to_vec(),
                reward: infos[e].reward,
                terminated: infos[e].terminated,
                truncated: infos[e].truncated,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::bandit::ContinuousBandit;

    fn bandits(n: usize) -> Vec<Box<dyn Env>> {
        (0..n)
            .map(|_| Box::new(ContinuousBandit::new(vec![0.0])) as Box<dyn Env>)
            .collect()
    }

    #[test]
    fn sequential_reset_and_step() {
        let mut v = VecEnv::sequential(bandits(3));
        assert_eq!(v.num_envs(), 3);
        assert_eq!(v.obs_dim(), 1);
        let obs = v.reset_all(1);
        assert_eq!(obs.len(), 3);
        let results = v.step(&vec![vec![0.0]; 3]);
        assert_eq!(results.len(), 3);
        // Bandit episodes are single-step: all done, rewards near 1 for the
        // optimal action.
        for r in &results {
            assert!(r.done());
            assert!((r.reward - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn auto_reset_reseeds_deterministically() {
        let mut v = VecEnv::sequential(bandits(1));
        let first = v.reset_all(5);
        // Run two episodes, then reset everything and replay: identical.
        let r1 = v.step([vec![0.3]].as_ref());
        let r2 = v.step([vec![0.3]].as_ref());
        let again = v.reset_all(5);
        assert_eq!(first, again);
        let r1b = v.step([vec![0.3]].as_ref());
        let r2b = v.step([vec![0.3]].as_ref());
        assert_eq!(r1, r1b);
        assert_eq!(r2, r2b);
    }

    #[test]
    #[should_panic(expected = "one action per env")]
    fn wrong_action_count_panics() {
        let mut v = VecEnv::sequential(bandits(2));
        v.reset_all(0);
        v.step([vec![0.0]].as_ref());
    }

    #[test]
    #[should_panic(expected = "heterogeneous")]
    fn mixed_dims_rejected() {
        let envs: Vec<Box<dyn Env>> = vec![
            Box::new(ContinuousBandit::new(vec![0.0])),
            Box::new(ContinuousBandit::new(vec![0.0, 0.0])),
        ];
        let _ = VecEnv::sequential(envs);
    }
}
