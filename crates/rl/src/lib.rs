//! # qcs-rl — a from-scratch reinforcement-learning stack
//!
//! Replaces the Gymnasium + Stable-Baselines3 layer of the paper's Python
//! framework with a dependency-free Rust implementation:
//!
//! * [`env::Env`] — a Gymnasium-style environment trait (continuous
//!   observation/action boxes, `reset`/`step`, explicit seeding);
//! * [`nn`] — small dense neural networks (`f32`, manual backprop,
//!   orthogonal initialisation) sized for MLP policies;
//! * [`opt::Adam`] — the Adam optimiser;
//! * [`dist`] — the diagonal Gaussian policy head;
//! * [`buffer::RolloutBuffer`] — rollout storage with GAE(λ) advantage
//!   estimation;
//! * [`ppo::Ppo`] — Proximal Policy Optimization with the clipped surrogate
//!   objective and Stable-Baselines3 default hyper-parameters;
//! * [`vecenv::VecEnv`] — vectorised environments stepped in lock-step on
//!   the calling thread (deterministic per-env seed streams, batched
//!   `step_into` writing straight into the shared observation matrix);
//! * [`update::MinibatchExecutor`] — the sharded minibatch update PPO and
//!   A2C share, whose fixed shard partition and reduction order define
//!   every parameter bit.
//!
//! Gradient correctness is property-tested against finite differences (see
//! `tests/grad_check.rs`), and the PPO implementation is validated on the
//! toy environments in [`envs`].

#![warn(missing_docs)]

pub mod a2c;
pub mod buffer;
pub mod checkpoint;
pub mod dist;
pub mod env;
pub mod envs;
pub mod eval;
pub mod nn;
pub mod opt;
pub mod policy;
pub mod ppo;
pub mod reinforce;
pub mod schedule;
pub mod update;
pub mod vecenv;

pub use a2c::{A2c, A2cConfig};
pub use buffer::RolloutBuffer;
pub use checkpoint::{load_policy, save_policy};
pub use env::{Env, StepResult};
pub use eval::{evaluate, EvalStats};
pub use nn::{Activation, Linear, Matrix, Mlp};
pub use opt::Adam;
pub use policy::ActorCritic;
pub use ppo::{Ppo, PpoConfig, TrainLog, TrainLogEntry};
pub use reinforce::{Reinforce, ReinforceConfig};
pub use schedule::Schedule;
pub use update::{MinibatchExecutor, SHARD_ROWS};
pub use vecenv::VecEnv;
