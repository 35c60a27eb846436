//! Advantage Actor-Critic (A2C): the synchronous on-policy baseline
//! (Mnih et al., 2016), for ablations against PPO.
//!
//! A2C is PPO without the trust region: one gradient pass per rollout, no
//! ratio clipping, and much shorter rollouts (SB3 defaults: `n_steps = 5`,
//! `gae_lambda = 1.0`). It is cheaper per step but less stable — the
//! `ppo_vs_a2c` ablation (qcs-bench) quantifies the gap on the allocation
//! environment. SB3 pairs A2C with RMSprop; this implementation reuses the
//! workspace Adam optimiser at SB3's A2C learning rate, which on these
//! small MLPs trains at least as stably.

use std::collections::VecDeque;

use crate::buffer::RolloutBuffer;
use crate::env::StepInfo;
use crate::nn::Matrix;
use crate::opt::Adam;
use crate::policy::{ActScratch, ActorCritic};
use crate::ppo::{TrainLog, TrainLogEntry};
use crate::update::{MinibatchExecutor, SampleCtx};
use crate::vecenv::VecEnv;
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// A2C hyper-parameters. `Default` mirrors Stable-Baselines3's A2C
/// defaults (with Adam as the optimiser).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A2cConfig {
    /// Steps collected per environment per update (SB3 default 5).
    pub n_steps: usize,
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ (SB3 A2C default 1.0 — plain returns).
    pub gae_lambda: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Learning rate (SB3 A2C default 7e-4).
    pub learning_rate: f32,
    /// Whether to normalise advantages over the rollout (SB3 A2C default:
    /// off, unlike PPO).
    pub normalize_advantage: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            n_steps: 5,
            gamma: 0.99,
            gae_lambda: 1.0,
            ent_coef: 0.0,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            learning_rate: 7e-4,
            normalize_advantage: false,
            seed: 0,
        }
    }
}

/// The A2C trainer; mirrors [`crate::ppo::Ppo`]'s interface so harnesses
/// can swap algorithms.
pub struct A2c {
    /// The trained model.
    pub ac: ActorCritic,
    /// Hyper-parameters.
    pub config: A2cConfig,
    opt: Adam,
    rng: Xoshiro256StarStar,
    log: TrainLog,
    timesteps: u64,
    ep_returns: VecDeque<f64>,
    scratch: ActScratch,
    exec: MinibatchExecutor,
    rollout_indices: Vec<usize>,
}

impl A2c {
    /// Creates an A2C trainer for the given observation/action sizes.
    pub fn new(obs_dim: usize, action_dim: usize, config: A2cConfig) -> Self {
        let mut rng = Xoshiro256StarStar::new(config.seed);
        let ac = ActorCritic::new(obs_dim, action_dim, &mut rng);
        let opt = Adam::new(config.learning_rate);
        A2c {
            ac,
            opt,
            rng,
            log: TrainLog::default(),
            timesteps: 0,
            ep_returns: VecDeque::with_capacity(100),
            scratch: ActScratch::new(),
            exec: MinibatchExecutor::new(),
            rollout_indices: Vec::new(),
            config,
        }
    }

    /// Training log so far.
    pub fn log(&self) -> &TrainLog {
        &self.log
    }

    /// Environment steps consumed so far.
    pub fn timesteps(&self) -> u64 {
        self.timesteps
    }

    /// Overrides the optimiser learning rate (for schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.opt.lr = lr;
    }

    /// Trains for (at least) `total_timesteps` environment steps.
    ///
    /// Uses the same batched, allocation-free rollout path as
    /// [`crate::ppo::Ppo::learn`]: one policy/value GEMM pair per step over
    /// all environments, observations swapped between two reusable
    /// matrices, transitions bulk-copied into the rollout slabs.
    pub fn learn(&mut self, envs: &mut VecEnv, total_timesteps: u64) {
        let n_envs = envs.num_envs();
        let obs_dim = self.ac.obs_dim();
        let action_dim = self.ac.action_dim();
        let mut buffer = RolloutBuffer::new(self.config.n_steps, n_envs, obs_dim, action_dim);

        let mut obs = Matrix::zeros(n_envs, obs_dim);
        let mut next_obs = Matrix::zeros(n_envs, obs_dim);
        let mut actions = Matrix::zeros(n_envs, action_dim);
        let mut values = vec![0.0f64; n_envs];
        let mut logps = vec![0.0f64; n_envs];
        let mut infos = vec![StepInfo::default(); n_envs];
        let mut ep_return_acc = vec![0.0f64; n_envs];

        envs.reset_into(self.config.seed, &mut obs);

        let target = self.timesteps + total_timesteps;
        while self.timesteps < target {
            buffer.clear();
            for _ in 0..self.config.n_steps {
                self.ac.act_batch(
                    &obs,
                    &mut self.rng,
                    &mut self.scratch,
                    &mut actions,
                    &mut logps,
                    &mut values,
                );
                envs.step_into(&actions, &mut next_obs, &mut infos);
                buffer.push_step(&obs, &actions, &infos, &values, &logps);
                for (e, info) in infos.iter().enumerate() {
                    ep_return_acc[e] += info.reward;
                    if info.done() {
                        if self.ep_returns.len() == 100 {
                            self.ep_returns.pop_front();
                        }
                        self.ep_returns.push_back(ep_return_acc[e]);
                        ep_return_acc[e] = 0.0;
                    }
                }
                std::mem::swap(&mut obs, &mut next_obs);
                self.timesteps += n_envs as u64;
            }
            self.ac.value_batch(&obs, &mut self.scratch, &mut values);
            buffer.compute_advantages(&values, self.config.gamma, self.config.gae_lambda);

            let diag = self.update(&buffer);
            let ep_rew_mean = if self.ep_returns.is_empty() {
                f64::NAN
            } else {
                self.ep_returns.iter().sum::<f64>() / self.ep_returns.len() as f64
            };
            self.log.entries.push(TrainLogEntry {
                timesteps: self.timesteps,
                ep_rew_mean,
                entropy_loss: diag.entropy_loss,
                policy_loss: diag.policy_loss,
                value_loss: diag.value_loss,
                approx_kl: 0.0,
                clip_fraction: 0.0,
            });
        }
    }

    /// One gradient step over the whole rollout (no epochs, no minibatches,
    /// no clipping — the defining differences from PPO). The single
    /// whole-rollout "minibatch" runs through the same sharded
    /// [`MinibatchExecutor`] as PPO's.
    fn update(&mut self, buffer: &RolloutBuffer) -> A2cDiagnostics {
        let n = buffer.len();
        let cfg = self.config.clone();

        let (mean_adv, std_adv) = if cfg.normalize_advantage {
            let m = buffer.advantages.iter().sum::<f64>() / n as f64;
            let v = buffer
                .advantages
                .iter()
                .map(|a| (a - m) * (a - m))
                .sum::<f64>()
                / n as f64;
            (m, v.sqrt().max(1e-8))
        } else {
            (0.0, 1.0)
        };

        let per_sample = |ctx: &mut SampleCtx| {
            let b = ctx.minibatch as f64;
            let action = buffer.action_row(ctx.buffer_index);
            let logp = ctx.gauss.log_prob(ctx.mean, action, ctx.z);
            let adv = (buffer.advantages[ctx.buffer_index] - mean_adv) / std_adv;
            ctx.diag.policy_loss += -logp * adv;
            ctx.diag.entropy_sum += ctx.gauss.entropy();

            // d(-logp·adv)/dθ — every sample contributes (no clipping).
            let scale = (-adv / b) as f32;
            ctx.gauss
                .add_scaled_grads(ctx.z, scale, ctx.d_mean, ctx.grad_log_std);
            if cfg.ent_coef != 0.0 {
                let g = -(cfg.ent_coef / b) as f32;
                for gls in ctx.grad_log_std.iter_mut() {
                    *gls += g;
                }
            }

            let err = ctx.value as f64 - buffer.returns[ctx.buffer_index];
            ctx.diag.value_loss += err * err;
            *ctx.d_value = (cfg.vf_coef * 2.0 * err / b) as f32;
        };

        if self.rollout_indices.len() != n {
            self.rollout_indices = (0..n).collect();
        }
        let sd = self
            .exec
            .run(&mut self.ac, buffer, &self.rollout_indices, &per_sample);

        let norm = self.ac.grad_norm();
        if norm > cfg.max_grad_norm {
            self.ac.scale_gradients(cfg.max_grad_norm / norm);
        }
        self.ac.apply_gradients(&mut self.opt);

        A2cDiagnostics {
            policy_loss: sd.policy_loss / n as f64,
            value_loss: sd.value_loss / n as f64,
            entropy_loss: -(sd.entropy_sum / n as f64),
        }
    }
}

struct A2cDiagnostics {
    policy_loss: f64,
    value_loss: f64,
    entropy_loss: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::bandit::ContinuousBandit;

    fn bandit_vecenv(n: usize) -> VecEnv {
        let envs: Vec<Box<dyn crate::env::Env>> = (0..n)
            .map(|_| Box::new(ContinuousBandit::new(vec![0.5, -0.25])) as Box<dyn crate::env::Env>)
            .collect();
        VecEnv::sequential(envs)
    }

    #[test]
    fn a2c_improves_on_bandit() {
        let cfg = A2cConfig {
            seed: 3,
            ..A2cConfig::default()
        };
        let mut a2c = A2c::new(1, 2, cfg);
        let mut envs = bandit_vecenv(4);
        a2c.learn(&mut envs, 20_000);
        let log = a2c.log();
        let first = log.entries.first().unwrap().ep_rew_mean;
        let last = log.final_reward();
        assert!(last > first + 0.05, "no learning: {first} -> {last}");
        assert!(last > 0.4, "final reward too low: {last}");
    }

    #[test]
    fn a2c_is_deterministic_given_seed() {
        let run = || {
            let mut a2c = A2c::new(
                1,
                2,
                A2cConfig {
                    seed: 11,
                    ..A2cConfig::default()
                },
            );
            let mut envs = bandit_vecenv(2);
            a2c.learn(&mut envs, 1_000);
            a2c.log().to_csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timestep_accounting_rounds_to_iterations() {
        let mut a2c = A2c::new(
            1,
            2,
            A2cConfig {
                seed: 1,
                ..A2cConfig::default()
            },
        );
        let mut envs = bandit_vecenv(3);
        a2c.learn(&mut envs, 100);
        // 5 steps × 3 envs = 15/iter → 7 iterations = 105 ≥ 100.
        assert_eq!(a2c.timesteps(), 105);
        assert_eq!(a2c.log().entries.len(), 7);
    }

    #[test]
    fn set_learning_rate_applies() {
        let mut a2c = A2c::new(1, 2, A2cConfig::default());
        a2c.set_learning_rate(1e-5);
        assert_eq!(a2c.opt.lr, 1e-5);
    }
}
