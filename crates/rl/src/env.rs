//! The environment interface (Gymnasium-style).

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// Next observation.
    pub obs: Vec<f32>,
    /// Scalar reward.
    pub reward: f64,
    /// Episode ended by reaching a terminal state (value bootstrapping must
    /// not look past it).
    pub terminated: bool,
    /// Episode ended by an artificial horizon (bootstrapping may continue);
    /// treated like `terminated` by this PPO implementation, matching the
    /// single-step episodes used in the paper.
    pub truncated: bool,
}

impl StepResult {
    /// Whether the episode is over for rollout purposes.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// Step outcome without the observation — the observation is written into a
/// caller-provided buffer by [`Env::step_into`], keeping the rollout hot
/// path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepInfo {
    /// Scalar reward.
    pub reward: f64,
    /// Episode ended at a terminal state.
    pub terminated: bool,
    /// Episode ended by an artificial horizon.
    pub truncated: bool,
}

impl StepInfo {
    /// Whether the episode is over for rollout purposes.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// A reinforcement-learning environment with continuous observation and
/// action vectors (Gymnasium `Box` spaces).
///
/// Environments must be deterministic given the seed passed to
/// [`Env::reset`]: all stochasticity flows from that seed.
pub trait Env {
    /// Observation dimensionality.
    fn obs_dim(&self) -> usize;

    /// Action dimensionality.
    fn action_dim(&self) -> usize;

    /// Resets the environment with an explicit seed; returns the initial
    /// observation.
    fn reset(&mut self, seed: u64) -> Vec<f32>;

    /// Advances one step.
    fn step(&mut self, action: &[f32]) -> StepResult;

    /// Resets the environment, writing the initial observation into
    /// `obs_out` (length `obs_dim`). The default delegates to
    /// [`Env::reset`]; environments override it to avoid the allocation.
    fn reset_into(&mut self, seed: u64, obs_out: &mut [f32]) {
        let obs = self.reset(seed);
        obs_out.copy_from_slice(&obs);
    }

    /// Advances one step, writing the next observation into `obs_out`
    /// (length `obs_dim`). The default delegates to [`Env::step`];
    /// environments override it to make stepping allocation-free.
    fn step_into(&mut self, action: &[f32], obs_out: &mut [f32]) -> StepInfo {
        let r = self.step(action);
        obs_out.copy_from_slice(&r.obs);
        StepInfo {
            reward: r.reward,
            terminated: r.terminated,
            truncated: r.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_result_done() {
        let mk = |t, tr| StepResult {
            obs: vec![],
            reward: 0.0,
            terminated: t,
            truncated: tr,
        };
        assert!(!mk(false, false).done());
        assert!(mk(true, false).done());
        assert!(mk(false, true).done());
    }
}
