//! Proximal Policy Optimization with the clipped surrogate objective
//! (Schulman et al., 2017), matching Stable-Baselines3 defaults.

use std::collections::VecDeque;

use crate::buffer::RolloutBuffer;
use crate::env::StepInfo;
use crate::nn::Matrix;
use crate::opt::Adam;
use crate::policy::{ActScratch, ActorCritic};
use crate::update::{MinibatchExecutor, SampleCtx};
use crate::vecenv::VecEnv;
use qcs_desim::Xoshiro256StarStar;
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters. `Default` reproduces Stable-Baselines3's PPO
/// defaults (the paper trains with "default hyperparameters", §6.6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Steps collected per environment per iteration.
    pub n_steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimisation epochs per iteration.
    pub n_epochs: usize,
    /// Discount factor.
    pub gamma: f64,
    /// GAE smoothing factor λ.
    pub gae_lambda: f64,
    /// Clipping radius ε of the surrogate objective.
    pub clip_range: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Master seed for policy init and action sampling.
    pub seed: u64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            n_steps: 2048,
            batch_size: 64,
            n_epochs: 10,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            ent_coef: 0.0,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            learning_rate: 3e-4,
            seed: 0,
        }
    }
}

/// One row of training diagnostics (one per iteration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainLogEntry {
    /// Environment steps consumed so far.
    pub timesteps: u64,
    /// Mean return of the last 100 completed episodes.
    pub ep_rew_mean: f64,
    /// `-mean(entropy)` — comparable to SB3's `entropy_loss` (Fig. 5's right
    /// axis).
    pub entropy_loss: f64,
    /// Clipped-surrogate policy loss.
    pub policy_loss: f64,
    /// Value-function loss (MSE, before `vf_coef`).
    pub value_loss: f64,
    /// Approximate KL divergence between behaviour and current policy.
    pub approx_kl: f64,
    /// Fraction of samples where the ratio was clipped.
    pub clip_fraction: f64,
}

/// The full training log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainLog {
    /// One entry per PPO iteration.
    pub entries: Vec<TrainLogEntry>,
}

impl TrainLog {
    /// Renders the log as CSV (header + one row per iteration).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "timesteps,ep_rew_mean,entropy_loss,policy_loss,value_loss,approx_kl,clip_fraction\n",
        );
        for e in &self.entries {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                e.timesteps,
                e.ep_rew_mean,
                e.entropy_loss,
                e.policy_loss,
                e.value_loss,
                e.approx_kl,
                e.clip_fraction
            ));
        }
        out
    }

    /// The final logged mean episode reward (NaN if no entries).
    pub fn final_reward(&self) -> f64 {
        self.entries
            .last()
            .map(|e| e.ep_rew_mean)
            .unwrap_or(f64::NAN)
    }
}

/// The PPO trainer: owns the actor-critic, optimiser and logs.
pub struct Ppo {
    /// The trained model.
    pub ac: ActorCritic,
    /// Hyper-parameters.
    pub config: PpoConfig,
    opt: Adam,
    rng: Xoshiro256StarStar,
    log: TrainLog,
    timesteps: u64,
    ep_returns: VecDeque<f64>,
    // Reusable scratch.
    scratch: ActScratch,
    exec: MinibatchExecutor,
    /// The rollout's row order, reshuffled every epoch.
    indices: Vec<usize>,
}

impl Ppo {
    /// Creates a PPO trainer for the given observation/action sizes.
    pub fn new(obs_dim: usize, action_dim: usize, config: PpoConfig) -> Self {
        let mut rng = Xoshiro256StarStar::new(config.seed);
        let ac = ActorCritic::new(obs_dim, action_dim, &mut rng);
        let opt = Adam::new(config.learning_rate);
        Ppo {
            ac,
            opt,
            rng,
            log: TrainLog::default(),
            timesteps: 0,
            ep_returns: VecDeque::with_capacity(100),
            scratch: ActScratch::new(),
            exec: MinibatchExecutor::new(),
            indices: Vec::new(),
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

    /// Overrides the optimiser learning rate (for [`crate::schedule::Schedule`]-driven
    /// annealing between `learn` chunks).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.opt.lr = lr;
    }

    /// Trains for (at least) `total_timesteps` environment steps.
    ///
    /// Rollout collection is batched and allocation-free: each step runs
    /// one policy GEMM and one value GEMM over the `[n_envs, obs_dim]`
    /// observation matrix ([`ActorCritic::act_batch`]), steps all
    /// environments through [`VecEnv::step_into`] into a swap buffer, and
    /// bulk-copies the transition into the rollout slabs. Trajectories are
    /// bit-identical to the historical one-`act`-call-per-env loop.
    pub fn learn(&mut self, envs: &mut VecEnv, total_timesteps: u64) {
        let n_envs = envs.num_envs();
        let obs_dim = self.ac.obs_dim();
        let action_dim = self.ac.action_dim();
        let mut buffer = RolloutBuffer::new(self.config.n_steps, n_envs, obs_dim, action_dim);

        // Rollout scratch, allocated once per `learn`.
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
            // ---------------- rollout collection ----------------
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

            // Bootstrap values for the observation after the last step.
            self.ac.value_batch(&obs, &mut self.scratch, &mut values);
            buffer.compute_advantages(&values, self.config.gamma, self.config.gae_lambda);

            // ---------------- optimisation ----------------
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
                approx_kl: diag.approx_kl,
                clip_fraction: diag.clip_fraction,
            });
        }
    }

    /// One optimisation pass over a collected rollout: `n_epochs` epochs of
    /// shuffled minibatches, each minibatch executed by the sharded
    /// [`MinibatchExecutor`] (see [`crate::update`]), followed by gradient
    /// clipping and one Adam step per minibatch. After the first call on a
    /// buffer of this size it allocates nothing.
    ///
    /// Public so the update phase can be driven (and timed) in isolation on
    /// a prepared buffer; [`Ppo::learn`] is the normal entry point.
    pub fn update(&mut self, buffer: &RolloutBuffer) -> UpdateDiagnostics {
        let n = buffer.len();
        let cfg = self.config.clone();

        // Advantage normalisation over the whole rollout (SB3 normalises per
        // minibatch; whole-rollout normalisation is equivalent in practice
        // and keeps the minibatch loop allocation-free).
        let mean_adv = buffer.advantages.iter().sum::<f64>() / n as f64;
        let var_adv = buffer
            .advantages
            .iter()
            .map(|a| (a - mean_adv) * (a - mean_adv))
            .sum::<f64>()
            / n as f64;
        let std_adv = var_adv.sqrt().max(1e-8);

        self.indices.clear();
        self.indices.extend(0..n);
        let mut diag = UpdateDiagnostics::default();
        let mut diag_count = 0u64;

        // The clipped-surrogate loss for one sample: reads the forward
        // results from the shard context, writes the mean/value gradient
        // rows and shard-local diagnostics.
        let per_sample = |ctx: &mut SampleCtx| {
            let b = ctx.minibatch as f64;
            let action = buffer.action_row(ctx.buffer_index);
            let logp_new = ctx.gauss.log_prob(ctx.mean, action, ctx.z);
            let logp_old = buffer.log_probs[ctx.buffer_index];
            let adv = (buffer.advantages[ctx.buffer_index] - mean_adv) / std_adv;
            let ratio = (logp_new - logp_old).exp();
            let surr1 = ratio * adv;
            let clipped_ratio = ratio.clamp(1.0 - cfg.clip_range, 1.0 + cfg.clip_range);
            let surr2 = clipped_ratio * adv;
            ctx.diag.policy_loss += -surr1.min(surr2);
            if (ratio - 1.0).abs() > cfg.clip_range {
                ctx.diag.clipped += 1;
            }
            // SB3's approx_kl: mean((ratio-1) - log(ratio)).
            ctx.diag.approx_kl += (ratio - 1.0) - (logp_new - logp_old);
            ctx.diag.entropy_sum += ctx.gauss.entropy();

            // Policy gradient flows only through the unclipped branch.
            let dlogp = if surr1 <= surr2 {
                -(ratio * adv) / b
            } else {
                0.0
            };
            if dlogp != 0.0 {
                ctx.gauss
                    .add_scaled_grads(ctx.z, dlogp as f32, ctx.d_mean, ctx.grad_log_std);
            }
            // Entropy bonus: d(-ent_coef·mean(entropy))/dlogσ = -ent_coef/b.
            if cfg.ent_coef != 0.0 {
                let g = -(cfg.ent_coef / b) as f32;
                for gls in ctx.grad_log_std.iter_mut() {
                    *gls += g;
                }
            }

            // Value loss: vf_coef · mean((V−R)²).
            let err = ctx.value as f64 - buffer.returns[ctx.buffer_index];
            ctx.diag.value_loss += err * err;
            *ctx.d_value = (cfg.vf_coef * 2.0 * err / b) as f32;
        };

        for _epoch in 0..cfg.n_epochs {
            self.rng.shuffle(&mut self.indices);
            for chunk in self.indices.chunks(cfg.batch_size) {
                let b = chunk.len() as f64;
                // Forward, per-sample loss and backward across the shards;
                // shard gradients land reduced on `self.ac`.
                let sd = self.exec.run(&mut self.ac, buffer, chunk, &per_sample);

                // Global gradient clipping (SB3 max_grad_norm = 0.5).
                let norm = self.ac.grad_norm();
                if norm > cfg.max_grad_norm {
                    self.ac.scale_gradients(cfg.max_grad_norm / norm);
                }
                self.ac.apply_gradients(&mut self.opt);

                diag.policy_loss += sd.policy_loss / b;
                diag.value_loss += sd.value_loss / b;
                diag.entropy_loss += -(sd.entropy_sum / b);
                diag.approx_kl += sd.approx_kl / b;
                diag.clip_fraction += sd.clipped as f64 / b;
                diag_count += 1;
            }
        }

        let c = diag_count.max(1) as f64;
        diag.policy_loss /= c;
        diag.value_loss /= c;
        diag.entropy_loss /= c;
        diag.approx_kl /= c;
        diag.clip_fraction /= c;
        diag
    }
}

/// Per-`update` mean diagnostics (averaged over all minibatches).
#[derive(Debug, Default)]
pub struct UpdateDiagnostics {
    /// Clipped-surrogate policy loss.
    pub policy_loss: f64,
    /// Value-function MSE (before `vf_coef`).
    pub value_loss: f64,
    /// `-mean(entropy)`.
    pub entropy_loss: f64,
    /// Approximate KL divergence between behaviour and current policy.
    pub approx_kl: f64,
    /// Fraction of samples with a clipped importance ratio.
    pub clip_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::bandit::ContinuousBandit;
    use crate::vecenv::VecEnv;

    fn bandit_vecenv(n: usize) -> VecEnv {
        let envs: Vec<Box<dyn crate::env::Env>> = (0..n)
            .map(|_| Box::new(ContinuousBandit::new(vec![0.5, -0.25])) as Box<dyn crate::env::Env>)
            .collect();
        VecEnv::sequential(envs)
    }

    #[test]
    fn ppo_improves_on_bandit() {
        let cfg = PpoConfig {
            n_steps: 128,
            batch_size: 32,
            n_epochs: 10,
            seed: 7,
            ..PpoConfig::default()
        };
        let mut ppo = Ppo::new(1, 2, cfg);
        let mut envs = bandit_vecenv(4);
        ppo.learn(&mut envs, 12_000);
        let log = ppo.log();
        assert!(!log.entries.is_empty());
        let first = log.entries.first().unwrap().ep_rew_mean;
        let last = log.final_reward();
        assert!(
            last > first + 0.05,
            "no learning: first {first}, last {last}"
        );
        assert!(last > 0.5, "final reward too low: {last}");
        // Entropy should have dropped (more deterministic policy).
        let e0 = log.entries.first().unwrap().entropy_loss;
        let e1 = log.entries.last().unwrap().entropy_loss;
        assert!(
            e1 > e0,
            "entropy loss should increase (entropy shrink): {e0} -> {e1}"
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let run = || {
            let cfg = PpoConfig {
                n_steps: 64,
                batch_size: 32,
                n_epochs: 3,
                seed: 42,
                ..PpoConfig::default()
            };
            let mut ppo = Ppo::new(1, 2, cfg);
            let mut envs = bandit_vecenv(2);
            ppo.learn(&mut envs, 2_000);
            ppo.log().to_csv()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_naming_the_removed_worker_knob_still_loads() {
        // Configs serialised while `n_update_workers` existed still load:
        // the field is ignored, and every other value is kept.
        let cfg = PpoConfig {
            seed: 9,
            ..PpoConfig::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("n_update_workers"));
        let old = json.replace("\"seed\":9", "\"seed\":9,\"n_update_workers\":4");
        assert!(old.contains("\"n_update_workers\":4"), "{old}");
        let back: PpoConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn timestep_accounting() {
        let cfg = PpoConfig {
            n_steps: 32,
            batch_size: 16,
            n_epochs: 2,
            seed: 1,
            ..PpoConfig::default()
        };
        let mut ppo = Ppo::new(1, 2, cfg);
        let mut envs = bandit_vecenv(3);
        ppo.learn(&mut envs, 200);
        // Rounds up to whole iterations: 32 steps × 3 envs = 96/iter → 3
        // iterations = 288 ≥ 200.
        assert_eq!(ppo.timesteps(), 288);
        assert_eq!(ppo.log().entries.len(), 3);
    }

    #[test]
    fn csv_export_shape() {
        let cfg = PpoConfig {
            n_steps: 16,
            batch_size: 8,
            n_epochs: 1,
            seed: 1,
            ..PpoConfig::default()
        };
        let mut ppo = Ppo::new(1, 2, cfg);
        let mut envs = bandit_vecenv(1);
        ppo.learn(&mut envs, 32);
        let csv = ppo.log().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("timesteps,"));
        assert_eq!(lines.len(), 1 + ppo.log().entries.len());
    }
}
