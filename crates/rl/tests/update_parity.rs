//! Bit-reproducibility of the sharded update phase.
//!
//! The optimisation path (`qcs_rl::update`) partitions each minibatch into
//! shards by its size alone and reduces the shard gradient slabs in a
//! fixed order, so the floating-point summation tree — and therefore every
//! parameter bit — is a function of the inputs. These tests pin that
//! across random rollout/minibatch shapes and against golden parameter
//! bits.

use proptest::prelude::*;
use qcs_desim::Xoshiro256StarStar;
use qcs_rl::{Ppo, PpoConfig, RolloutBuffer};

/// Builds a filled rollout buffer with deterministic pseudo-random
/// contents (single-step episodes, plausible log-probs and values). Each
/// observation feature is an exact zero with probability `zero_share`,
/// as the empty queue slots of the scheduler environment are.
fn synthetic_buffer(
    n_steps: usize,
    n_envs: usize,
    obs_dim: usize,
    action_dim: usize,
    zero_share: f64,
    seed: u64,
) -> RolloutBuffer {
    let mut b = RolloutBuffer::new(n_steps, n_envs, obs_dim, action_dim);
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut obs = vec![0.0f32; obs_dim];
    let mut act = vec![0.0f32; action_dim];
    for _ in 0..n_steps * n_envs {
        for v in obs.iter_mut() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
            if zero_share > 0.0 && rng.next_f64() < zero_share {
                *v = 0.0;
            }
        }
        for v in act.iter_mut() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        let reward = rng.range_f64(-1.0, 1.0);
        let value = rng.range_f64(-0.5, 0.5);
        let logp = rng.range_f64(-4.0, -0.5);
        b.push(&obs, &act, reward, true, value, logp);
    }
    b.compute_advantages(&vec![0.0; n_envs], 0.99, 0.95);
    b
}

/// Runs one PPO optimisation pass (`n_epochs` epochs of shuffled
/// minibatches) on the given buffer and returns the trainer.
fn ppo_after_update(buffer: &RolloutBuffer, batch_size: usize, seed: u64) -> Ppo {
    let cfg = PpoConfig {
        n_steps: buffer.len(),
        batch_size,
        n_epochs: 2,
        seed,
        ..PpoConfig::default()
    };
    let mut ppo = Ppo::new(buffer.obs_dim(), buffer.action_dim(), cfg);
    ppo.update(buffer);
    ppo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PPO parameters after an update pass are finite, and a second run on
    /// the same inputs replays them bit for bit, across random rollout
    /// sizes, minibatch sizes and network dimensions — including ragged
    /// shard/minibatch tails.
    #[test]
    fn ppo_update_replays_bit_for_bit_across_shapes(
        seed in 0u64..10_000,
        rows in 2usize..96,
        batch_size in 1usize..80,
        obs_dim in 1usize..10,
        action_dim in 1usize..5,
    ) {
        let buffer = synthetic_buffer(rows, 1, obs_dim, action_dim, 0.0, seed ^ 0xB0FF);
        let first = ppo_after_update(&buffer, batch_size, seed);
        let ac = &first.ac;
        for layer in ac.pi.layers().iter().chain(ac.vf.layers()) {
            prop_assert!(layer.w.data().iter().chain(&layer.b).all(|v| v.is_finite()));
        }
        prop_assert!(ac.log_std.iter().all(|v| v.is_finite()));
        let again = ppo_after_update(&buffer, batch_size, seed);
        prop_assert_eq!(param_hash(&first), param_hash(&again));
    }
}

/// FNV-1a over the bits of every parameter, in the optimiser's tensor
/// order: policy layers (w, b), value layers (w, b), `log_std`.
fn param_hash(ppo: &Ppo) -> u64 {
    let ac = &ppo.ac;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |vs: &[f32]| {
        for v in vs {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    };
    for layer in ac.pi.layers().iter().chain(ac.vf.layers()) {
        eat(layer.w.data());
        eat(&layer.b);
    }
    eat(&ac.log_std);
    h
}

/// Parameters after one `Ppo::update` (2 epochs of 64-row minibatches, so
/// four 16-row shards each) on a 256-row synthetic buffer.
fn updated_param_hash(obs_dim: usize, action_dim: usize, zero_share: f64, seed: u64) -> u64 {
    let buffer = synthetic_buffer(256, 1, obs_dim, action_dim, zero_share, seed);
    let cfg = PpoConfig {
        n_steps: 256,
        batch_size: 64,
        n_epochs: 2,
        seed,
        ..PpoConfig::default()
    };
    let mut ppo = Ppo::new(obs_dim, action_dim, cfg);
    ppo.update(&buffer);
    param_hash(&ppo)
}

/// Golden parameter bits after an update, at the scheduler environment's
/// shape (60 observations with exact-zero features, 9 actions) and the
/// gym's (16 observations, 5 actions). The values were recorded with the
/// row-at-a-time axpy weight-gradient kernel and a backward pass that
/// still computed the first layer's input gradient, so they pin both the
/// tiled kernel and the skipped product as bit-identical to that code.
#[test]
fn ppo_update_parameters_match_golden() {
    assert_eq!(
        updated_param_hash(60, 9, 0.32, 5),
        0xb313_f767_4796_0487,
        "obs 60 / action 9 with exact-zero features"
    );
    assert_eq!(
        updated_param_hash(16, 5, 0.0, 6),
        0x1baa_1151_6e3c_2afc,
        "obs 16 / action 5"
    );
}
