//! Bit-identity guarantees of the batched inference and rollout paths.
//!
//! The batched `act_batch`/`value_batch` paths and the batched `VecEnv`
//! stepping exist purely for throughput: they must reproduce the per-env
//! reference computation *bit for bit* (same actions, log-probs, values and
//! trajectories for a fixed seed). These tests pin that contract.

use qcs_desim::Xoshiro256StarStar;
use qcs_rl::env::{Env, StepInfo};
use qcs_rl::envs::pointmass::PointMass;
use qcs_rl::nn::Matrix;
use qcs_rl::policy::{ActScratch, ActorCritic};
use qcs_rl::{RolloutBuffer, VecEnv};

/// Fills a `[n, dim]` observation matrix with deterministic pseudo-random
/// values in `[-1, 1]`.
fn random_obs(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut m = Matrix::zeros(n, dim);
    for v in m.data_mut() {
        *v = rng.range_f64(-1.0, 1.0) as f32;
    }
    m
}

/// `act_batch` must produce bit-identical actions, log-probs and values to
/// the sequential per-env `act` loop, across MLP shapes, batch sizes and
/// seeds — including identical RNG stream consumption (checked by comparing
/// the generators' end states).
#[test]
fn act_batch_matches_per_env_act_loop() {
    for &(obs_dim, action_dim) in &[(1usize, 1usize), (2, 3), (16, 5), (7, 2)] {
        for &n in &[1usize, 2, 5, 16, 33] {
            for seed in 0..3u64 {
                let mut init_rng = Xoshiro256StarStar::new(seed.wrapping_add(41));
                let ac = ActorCritic::new(obs_dim, action_dim, &mut init_rng);
                let obs = random_obs(n, obs_dim, seed ^ 0xABCD);

                // Reference: one act() per row, single shared RNG stream.
                let mut rng_ref = Xoshiro256StarStar::new(seed);
                let mut scratch_ref = ActScratch::new();
                let mut ref_actions = Vec::new();
                let mut ref_logps = Vec::new();
                let mut ref_values = Vec::new();
                for r in 0..n {
                    let (a, lp, v) = ac.act(obs.row(r), &mut rng_ref, &mut scratch_ref);
                    ref_actions.extend(a);
                    ref_logps.push(lp);
                    ref_values.push(v);
                }

                // Batched path from an identically seeded RNG.
                let mut rng_batch = Xoshiro256StarStar::new(seed);
                let mut scratch = ActScratch::new();
                let mut actions = Matrix::zeros(0, 0);
                let mut logps = vec![0.0; n];
                let mut values = vec![0.0; n];
                ac.act_batch(
                    &obs,
                    &mut rng_batch,
                    &mut scratch,
                    &mut actions,
                    &mut logps,
                    &mut values,
                );

                let case = format!("obs {obs_dim} act {action_dim} n {n} seed {seed}");
                assert_eq!(actions.data(), &ref_actions[..], "actions differ ({case})");
                assert_eq!(logps, ref_logps, "log-probs differ ({case})");
                assert_eq!(values, ref_values, "values differ ({case})");
                assert_eq!(rng_batch, rng_ref, "RNG streams diverged ({case})");

                // value_batch against per-row value().
                let mut vb = vec![0.0; n];
                ac.value_batch(&obs, &mut scratch, &mut vb);
                for (r, &v) in vb.iter().enumerate() {
                    assert_eq!(v, ac.value(obs.row(r), &mut scratch_ref), "{case}");
                }
            }
        }
    }
}

/// `act_into` is the allocation-free form of `act`: identical outputs and
/// RNG consumption.
#[test]
fn act_into_matches_act() {
    let mut init_rng = Xoshiro256StarStar::new(9);
    let ac = ActorCritic::new(4, 3, &mut init_rng);
    let obs = [0.25f32, -0.5, 0.75, 0.0];
    let mut rng_a = Xoshiro256StarStar::new(77);
    let mut rng_b = rng_a.clone();
    let mut s_a = ActScratch::new();
    let mut s_b = ActScratch::new();
    let (action_a, lp_a, v_a) = ac.act(&obs, &mut rng_a, &mut s_a);
    let mut action_b = vec![0.0f32; 3];
    let (lp_b, v_b) = ac.act_into(&obs, &mut rng_b, &mut s_b, &mut action_b);
    assert_eq!(action_a, action_b);
    assert_eq!(lp_a, lp_b);
    assert_eq!(v_a, v_b);
    assert_eq!(rng_a, rng_b);
}

/// `push_step` must store exactly what `n_envs` sequential `push` calls
/// store.
#[test]
fn push_step_matches_sequential_push() {
    let (n_steps, n_envs, obs_dim, action_dim) = (4, 3, 2, 2);
    let mut a = RolloutBuffer::new(n_steps, n_envs, obs_dim, action_dim);
    let mut b = RolloutBuffer::new(n_steps, n_envs, obs_dim, action_dim);
    let mut rng = Xoshiro256StarStar::new(5);
    for t in 0..n_steps {
        let obs = random_obs(n_envs, obs_dim, 100 + t as u64);
        let actions = random_obs(n_envs, action_dim, 200 + t as u64);
        let infos: Vec<StepInfo> = (0..n_envs)
            .map(|e| StepInfo {
                reward: rng.range_f64(-1.0, 1.0),
                terminated: (t + e) % 3 == 0,
                truncated: (t * e) % 5 == 0,
            })
            .collect();
        let values: Vec<f64> = (0..n_envs).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let logps: Vec<f64> = (0..n_envs).map(|_| rng.range_f64(-5.0, 0.0)).collect();
        a.push_step(&obs, &actions, &infos, &values, &logps);
        for e in 0..n_envs {
            b.push(
                obs.row(e),
                actions.row(e),
                infos[e].reward,
                infos[e].done(),
                values[e],
                logps[e],
            );
        }
    }
    assert_eq!(a.len(), b.len());
    assert_eq!(a.obs, b.obs);
    assert_eq!(a.actions, b.actions);
    assert_eq!(a.rewards, b.rewards);
    assert_eq!(a.dones, b.dones);
    assert_eq!(a.values, b.values);
    assert_eq!(a.log_probs, b.log_probs);
}

fn pointmass_envs(n: usize, horizon: usize) -> Vec<Box<dyn Env>> {
    (0..n)
        .map(|s| Box::new(PointMass::new(horizon).with_tag(s as u64)) as Box<dyn Env>)
        .collect()
}

/// Full-rollout equivalence: driving a `VecEnv` with the batched
/// `act_batch` + `step_into` hot path reproduces the historical
/// one-`act`-per-env + `step` loop transition for transition.
#[test]
fn batched_rollout_matches_per_env_rollout() {
    let (n_envs, horizon, steps) = (6, 8, 40);
    let mut init_rng = Xoshiro256StarStar::new(3);
    let ac = ActorCritic::new(2, 2, &mut init_rng);

    // --- reference: per-env act + Vec-of-Vec step API ---
    let mut envs_ref = VecEnv::sequential(pointmass_envs(n_envs, horizon));
    let mut rng_ref = Xoshiro256StarStar::new(123);
    let mut scratch_ref = ActScratch::new();
    let mut obs_ref = envs_ref.reset_all(42);
    let mut trace_ref: Vec<(Vec<f32>, f64, f64, f64, bool)> = Vec::new();
    for _ in 0..steps {
        let mut actions = Vec::new();
        for row in &obs_ref {
            let (a, lp, v) = ac.act(row, &mut rng_ref, &mut scratch_ref);
            trace_ref.push((a.clone(), lp, v, 0.0, false));
            actions.push(a);
        }
        let results = envs_ref.step(&actions);
        for (e, r) in results.iter().enumerate() {
            let idx = trace_ref.len() - n_envs + e;
            trace_ref[idx].3 = r.reward;
            trace_ref[idx].4 = r.done();
            obs_ref[e] = r.obs.clone();
        }
    }

    // --- batched hot path ---
    let mut envs = VecEnv::sequential(pointmass_envs(n_envs, horizon));
    let mut rng = Xoshiro256StarStar::new(123);
    let mut scratch = ActScratch::new();
    let mut obs = Matrix::zeros(0, 0);
    envs.reset_into(42, &mut obs);
    let mut next_obs = Matrix::zeros(0, 0);
    let mut actions = Matrix::zeros(0, 0);
    let mut logps = vec![0.0; n_envs];
    let mut values = vec![0.0; n_envs];
    let mut infos = vec![StepInfo::default(); n_envs];
    let mut trace: Vec<(Vec<f32>, f64, f64, f64, bool)> = Vec::new();
    for _ in 0..steps {
        ac.act_batch(
            &obs,
            &mut rng,
            &mut scratch,
            &mut actions,
            &mut logps,
            &mut values,
        );
        envs.step_into(&actions, &mut next_obs, &mut infos);
        for e in 0..n_envs {
            trace.push((
                actions.row(e).to_vec(),
                logps[e],
                values[e],
                infos[e].reward,
                infos[e].done(),
            ));
        }
        std::mem::swap(&mut obs, &mut next_obs);
    }

    assert_eq!(trace.len(), trace_ref.len());
    for (i, (got, want)) in trace.iter().zip(&trace_ref).enumerate() {
        assert_eq!(got, want, "transition {i} differs");
    }
    // Final observations agree too.
    for (e, row) in obs_ref.iter().enumerate() {
        assert_eq!(obs.row(e), &row[..], "final obs of env {e}");
    }
}
