//! RL stack benchmarks: policy inference latency (the per-decision cost of
//! the RL broker), rollout-collection throughput (per-env vs batched — the
//! dominant cost of every training experiment), GEMM micro-kernel
//! throughput (baseline 4×8 tile vs the runtime-selected wide tile, on a
//! 256-row batch and on the 16-row shard product the PPO update runs), and
//! PPO update-phase throughput at 1/2/4/8 update workers.
//!
//! The rollout benchmarks also emit `BENCH_rollout.json` at the repository
//! root with before/after steps-per-second plus `update_phase`, `gemm` and
//! `gemm_shard` sections, so the perf trajectory of both training phases is
//! tracked across PRs (and guarded by the CI `bench_guard` bin).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qcs_desim::Xoshiro256StarStar;
use qcs_rl::env::{Env, StepInfo};
use qcs_rl::envs::bandit::ContinuousBandit;
use qcs_rl::envs::pointmass::PointMass;
use qcs_rl::nn::{available_kernels, gemm_bias_with, select_kernel, GemmKernel, Matrix};
use qcs_rl::policy::{ActScratch, ActorCritic};
use qcs_rl::{Ppo, PpoConfig, RolloutBuffer, VecEnv, SHARD_ROWS};
use serde::Serialize;

const N_ENVS: usize = 16;
const HORIZON: usize = 64;

/// Update-phase bench shape: a fig5-sized rollout (2048 samples of the
/// 16-obs / 5-action allocation policy) optimised for one epoch.
const UPD_ROWS: usize = 2048;
const UPD_BATCH: usize = 256;
const UPD_OBS: usize = 16;
const UPD_ACT: usize = 5;

/// The GEMM shapes timed per kernel: a 256-row batch of the 64-wide hidden
/// layer, and the same layer on one 16-row update shard (the product
/// `Ppo::learn` actually runs).
const GEMM_SHAPES: [(usize, usize, usize); 2] = [(UPD_BATCH, 64, 64), (SHARD_ROWS, 64, 64)];

/// Builds a deterministic synthetic rollout for timing the optimisation
/// phase in isolation (contents don't matter for throughput, shapes do).
fn update_buffer() -> RolloutBuffer {
    let mut b = RolloutBuffer::new(UPD_ROWS, 1, UPD_OBS, UPD_ACT);
    let mut rng = Xoshiro256StarStar::new(41);
    let mut obs = vec![0.0f32; UPD_OBS];
    let mut act = vec![0.0f32; UPD_ACT];
    for _ in 0..UPD_ROWS {
        for v in obs.iter_mut() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        for v in act.iter_mut() {
            *v = rng.range_f64(-1.0, 1.0) as f32;
        }
        b.push(
            &obs,
            &act,
            rng.range_f64(-1.0, 1.0),
            true,
            rng.range_f64(-0.5, 0.5),
            rng.range_f64(-4.0, -0.5),
        );
    }
    b.compute_advantages(&[0.0], 0.99, 0.95);
    b
}

/// A PPO trainer configured to run exactly one optimisation epoch over
/// [`update_buffer`] per `update` call, with the given worker count.
fn update_ppo(workers: usize) -> Ppo {
    let cfg = PpoConfig {
        n_steps: UPD_ROWS,
        batch_size: UPD_BATCH,
        n_epochs: 1,
        seed: 3,
        n_update_workers: workers,
        ..PpoConfig::default()
    };
    Ppo::new(UPD_OBS, UPD_ACT, cfg)
}

fn pointmass_envs(n: usize) -> Vec<Box<dyn Env>> {
    (0..n)
        .map(|s| Box::new(PointMass::new(HORIZON).with_tag(s as u64)) as Box<dyn Env>)
        .collect()
}

fn pointmass_vecenv(n: usize) -> VecEnv {
    VecEnv::sequential(pointmass_envs(n))
}

/// The seed's matmul: row-at-a-time axpy accumulation into a zeroed output
/// (reloading/storing the output row every `k` iteration), kept verbatim as
/// the "before" kernel for the rollout-throughput comparison.
fn seed_matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    out.reshape_zeroed(a.rows(), b.cols());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        let a_row = &a.data()[i * k..(i + 1) * k];
        let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * bv;
            }
        }
    }
}

/// The seed's per-sample MLP forward: allocate a fresh `[1, obs]` input,
/// seed-kernel matmul + separate bias pass per layer, scalar libm `tanh`.
fn seed_forward(net: &qcs_rl::nn::Mlp, obs: &[f32], bufs: &mut Vec<Matrix>) -> f64 {
    bufs.resize_with(net.layers().len() + 1, || Matrix::zeros(0, 0));
    bufs[0] = Matrix::from_vec(1, obs.len(), obs.to_vec());
    for (i, layer) in net.layers().iter().enumerate() {
        let (head, tail) = bufs.split_at_mut(i + 1);
        let input = &head[i];
        let out = &mut tail[0];
        seed_matmul(input, &layer.w, out);
        for (o, &bias) in out.row_mut(0).iter_mut().zip(&layer.b) {
            *o += bias;
        }
        if i + 1 < net.layers().len() {
            for v in out.data_mut() {
                *v = v.tanh();
            }
        }
    }
    bufs.last().unwrap().get(0, 0) as f64
}

/// The seed's rollout loop: one policy + one value forward per env per step
/// (1-row GEMVs through [`seed_forward`]), per-step action/observation
/// allocations, and direct per-env stepping with seed-style auto-reset —
/// deliberately NOT routed through the new `VecEnv` wrappers, so the
/// recorded baseline pays exactly (and only) what the seed paid.
fn rollout_per_env(ac: &ActorCritic, envs: &mut [Box<dyn Env>], steps: usize) -> f64 {
    let mut rng = Xoshiro256StarStar::new(7);
    let mut pi_bufs: Vec<Matrix> = Vec::new();
    let mut vf_bufs: Vec<Matrix> = Vec::new();
    // Seed-style reset: per-env base seeds from one SplitMix64 stream, and
    // per-episode reseeding on done (matching the seed AutoReset wrapper).
    let mut sm = qcs_desim::SplitMix64::new(11);
    let base_seeds: Vec<u64> = envs.iter().map(|_| sm.next_u64()).collect();
    let episode_seed = |base: u64, episode: u64| -> u64 {
        qcs_desim::SplitMix64::new(base ^ episode.wrapping_mul(0x2545F4914F6CDD1D)).next_u64()
    };
    let mut episodes = vec![0u64; envs.len()];
    let mut obs: Vec<Vec<f32>> = envs
        .iter_mut()
        .zip(&base_seeds)
        .map(|(env, &s)| env.reset(episode_seed(s, 0)))
        .collect();
    let mut reward_acc = 0.0;
    for _ in 0..steps {
        for (e, env) in envs.iter_mut().enumerate() {
            let _ = seed_forward(&ac.pi, &obs[e], &mut pi_bufs);
            let mean = pi_bufs.last().unwrap().row(0);
            let action: Vec<f32> = mean
                .iter()
                .zip(&ac.log_std)
                .map(|(&mu, &ls)| mu + ls.exp() * qcs_desim::dist::standard_normal(&mut rng) as f32)
                .collect();
            let _value = seed_forward(&ac.vf, &obs[e], &mut vf_bufs);
            let mut r = env.step(&action);
            if r.done() {
                episodes[e] += 1;
                r.obs = env.reset(episode_seed(base_seeds[e], episodes[e]));
            }
            reward_acc += r.reward;
            obs[e] = r.obs.clone();
        }
    }
    reward_acc
}

/// The batched rollout hot path: one policy GEMM + one value GEMM per step
/// over all envs, observations written into reusable matrices.
fn rollout_batched(ac: &ActorCritic, envs: &mut VecEnv, steps: usize) -> f64 {
    let n = envs.num_envs();
    let mut rng = Xoshiro256StarStar::new(7);
    let mut scratch = ActScratch::new();
    let mut obs = Matrix::zeros(0, 0);
    envs.reset_into(11, &mut obs);
    let mut next_obs = Matrix::zeros(0, 0);
    let mut actions = Matrix::zeros(0, 0);
    let mut logps = vec![0.0; n];
    let mut values = vec![0.0; n];
    let mut infos = vec![StepInfo::default(); n];
    let mut reward_acc = 0.0;
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
        for info in &infos {
            reward_acc += info.reward;
        }
        std::mem::swap(&mut obs, &mut next_obs);
    }
    reward_acc
}

fn bench_policy_forward(c: &mut Criterion) {
    let mut rng = Xoshiro256StarStar::new(1);
    let ac = ActorCritic::new(16, 5, &mut rng);
    let mut scratch = ActScratch::new();
    let obs = vec![0.3f32; 16];
    c.bench_function("rl/policy_forward_16obs_5act", |b| {
        b.iter(|| ac.act_deterministic(&obs, &mut scratch))
    });
    c.bench_function("rl/policy_sample_16obs_5act", |b| {
        b.iter(|| ac.act(&obs, &mut rng, &mut scratch))
    });

    // Batched inference: 16 policies queries per call vs 16 act() calls.
    let obs_mat = Matrix::from_vec(16, 16, (0..256).map(|i| (i % 7) as f32 * 0.1).collect());
    let mut actions = Matrix::zeros(0, 0);
    let mut logps = vec![0.0; 16];
    let mut values = vec![0.0; 16];
    c.bench_function("rl/act_batch_16x_16obs_5act", |b| {
        b.iter(|| {
            ac.act_batch(
                &obs_mat,
                &mut rng,
                &mut scratch,
                &mut actions,
                &mut logps,
                &mut values,
            )
        })
    });
    c.bench_function("rl/act_per_env_16x_16obs_5act", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for r in 0..16 {
                let (_a, lp, _v) = ac.act(obs_mat.row(r), &mut rng, &mut scratch);
                acc += lp;
            }
            acc
        })
    });
}

fn bench_rollout(c: &mut Criterion) {
    let mut rng = Xoshiro256StarStar::new(2);
    let ac = ActorCritic::new(2, 2, &mut rng);
    let steps = 256usize;

    let mut group = c.benchmark_group("rl/rollout_pointmass_16env");
    group.throughput(Throughput::Elements((steps * N_ENVS) as u64));
    let mut raw_envs = pointmass_envs(N_ENVS);
    group.bench_function("per_env", |b| {
        b.iter(|| rollout_per_env(&ac, &mut raw_envs, steps))
    });
    let mut envs = pointmass_vecenv(N_ENVS);
    group.bench_function("batched", |b| {
        b.iter(|| rollout_batched(&ac, &mut envs, steps))
    });
    group.finish();

    write_rollout_json(&ac);
}

/// Repeats `f` until the time budget runs out and returns the best
/// observed units-per-second (least-noise estimate). `units` is the work
/// one call performs.
fn best_rate(budget: f64, units: f64, f: &mut dyn FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    let mut best = 0.0f64;
    loop {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.max(units / dt);
        if start.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    best
}

/// Rounds to `digits` decimal places (keeps the committed JSON tidy).
fn round_to(x: f64, digits: u32) -> f64 {
    let p = 10f64.powi(digits as i32);
    (x * p).round() / p
}

/// The `BENCH_rollout.json` document — serialised with the workspace
/// serde_json (the same parser family `bench_guard` reads it with), so
/// shape changes can never produce invalid JSON.
#[derive(Serialize)]
struct RolloutReport {
    bench: String,
    n_envs: usize,
    horizon: usize,
    steps_per_rollout: usize,
    per_env_steps_per_sec: f64,
    batched_steps_per_sec: f64,
    speedup: f64,
    host_cores: usize,
    update_phase: UpdatePhaseReport,
    gemm: GemmReport,
    gemm_shard: GemmReport,
}

#[derive(Serialize)]
struct UpdatePhaseReport {
    rows: usize,
    batch_size: usize,
    obs_dim: usize,
    action_dim: usize,
    n_epochs: usize,
    workers: Vec<WorkerRate>,
    speedup_4_workers: f64,
}

#[derive(Serialize)]
struct WorkerRate {
    workers: usize,
    samples_per_sec: f64,
}

#[derive(Serialize)]
struct GemmReport {
    m: usize,
    k: usize,
    n: usize,
    baseline_kernel: String,
    baseline_gflops: f64,
    selected_kernel: String,
    selected_gflops: f64,
    tile_speedup: f64,
}

/// Measures both rollout paths, the update phase at 1/2/4/8 workers and
/// the GEMM micro-kernels, and records the rates (and speedups) in
/// `BENCH_rollout.json` at the repository root.
fn write_rollout_json(ac: &ActorCritic) {
    if cfg!(debug_assertions) {
        // Unoptimised numbers would corrupt the tracked perf trajectory;
        // only measure from `cargo bench` (release) builds.
        return;
    }
    let steps = 256usize;
    let mut raw_envs = pointmass_envs(N_ENVS);
    let mut envs = pointmass_vecenv(N_ENVS);

    let rollout_units = (steps * N_ENVS) as f64;
    let per_env_sps = best_rate(0.7, rollout_units, &mut || {
        std::hint::black_box(rollout_per_env(ac, &mut raw_envs, steps));
    });
    let batched_sps = best_rate(0.7, rollout_units, &mut || {
        std::hint::black_box(rollout_batched(ac, &mut envs, steps));
    });
    let speedup = batched_sps / per_env_sps;

    // ---- update phase: samples/s through one optimisation epoch ----
    let buffer = update_buffer();
    let mut worker_rates: Vec<WorkerRate> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut ppo = update_ppo(workers);
        let sps = best_rate(0.6, UPD_ROWS as f64, &mut || {
            std::hint::black_box(ppo.update(&buffer));
        });
        worker_rates.push(WorkerRate {
            workers,
            samples_per_sec: round_to(sps, 1),
        });
    }
    let rate_at = |w: usize| {
        worker_rates
            .iter()
            .find(|r| r.workers == w)
            .expect("worker count measured")
            .samples_per_sec
    };
    let update_speedup_4w = rate_at(4) / rate_at(1);

    // ---- GEMM micro-kernels on policy-shaped products ----
    let [gemm, gemm_shard] = GEMM_SHAPES.map(|(m, k, n)| gemm_report(m, k, n));

    let host_cores = qcs_bench::cli::host_cores();
    let report = RolloutReport {
        bench: "rollout_pointmass".to_string(),
        n_envs: N_ENVS,
        horizon: HORIZON,
        steps_per_rollout: steps,
        per_env_steps_per_sec: round_to(per_env_sps, 1),
        batched_steps_per_sec: round_to(batched_sps, 1),
        speedup: round_to(speedup, 2),
        host_cores,
        update_phase: UpdatePhaseReport {
            rows: UPD_ROWS,
            batch_size: UPD_BATCH,
            obs_dim: UPD_OBS,
            action_dim: UPD_ACT,
            n_epochs: 1,
            workers: worker_rates,
            speedup_4_workers: round_to(update_speedup_4w, 2),
        },
        gemm,
        gemm_shard,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialisation cannot fail");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rollout.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    println!(
        "rollout throughput: per-env {per_env_sps:.0} steps/s, batched {batched_sps:.0} steps/s ({speedup:.2}x)"
    );
    println!(
        "update throughput: {} samples/s at 1/2/4/8 workers ({update_speedup_4w:.2}x at 4; {host_cores} cores)",
        report
            .update_phase
            .workers
            .iter()
            .map(|r| format!("{:.0}", r.samples_per_sec))
            .collect::<Vec<_>>()
            .join("/")
    );
    for g in [&report.gemm, &report.gemm_shard] {
        println!(
            "gemm {}x{}x{}: {} {:.2} GF/s -> {} {:.2} GF/s ({:.2}x) -> BENCH_rollout.json",
            g.m,
            g.k,
            g.n,
            g.baseline_kernel,
            g.baseline_gflops,
            g.selected_kernel,
            g.selected_gflops,
            g.tile_speedup
        );
    }
}

/// Times the baseline 4×8 tile and the kernel [`select_kernel`] picks on an
/// `m×k×n` biased product (best rate over 0.4 s each).
fn gemm_report(m: usize, k: usize, n: usize) -> GemmReport {
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.021)
        .collect();
    let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
    let mut out = vec![0.0f32; m * n];
    let gflop = (2.0 * (m * k * n) as f64) / 1e9;
    let mut kernel_rate = |kern: GemmKernel| {
        best_rate(0.4, gflop, &mut || {
            gemm_bias_with(kern, m, k, n, &a, &b, Some(&bias), &mut out);
            std::hint::black_box(&out);
        })
    };
    let baseline_kernel = GemmKernel::Tile4x8;
    let selected_kernel = select_kernel(m);
    let baseline_gflops = kernel_rate(baseline_kernel);
    let selected_gflops = kernel_rate(selected_kernel);
    GemmReport {
        m,
        k,
        n,
        baseline_kernel: baseline_kernel.name().to_string(),
        baseline_gflops: round_to(baseline_gflops, 2),
        selected_kernel: selected_kernel.name().to_string(),
        selected_gflops: round_to(selected_gflops, 2),
        tile_speedup: round_to(selected_gflops / baseline_gflops, 2),
    }
}

/// The PPO optimisation phase in isolation (one epoch over a prepared
/// fig5-sized rollout) at 1/2/4/8 update workers.
fn bench_update_phase(c: &mut Criterion) {
    let buffer = update_buffer();
    let mut group = c.benchmark_group("rl/update_2048rows_256batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(UPD_ROWS as u64));
    for workers in [1usize, 2, 4, 8] {
        let mut ppo = update_ppo(workers);
        group.bench_function(format!("{workers}w"), |b| {
            b.iter(|| std::hint::black_box(ppo.update(&buffer)))
        });
    }
    group.finish();
}

/// The GEMM micro-kernels on policy-shaped products (baseline 4×8 tile vs
/// every wide tile available on this machine).
fn bench_gemm_kernels(c: &mut Criterion) {
    for (m, k, n) in GEMM_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.07).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 11) as f32 * 0.05).collect();
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        let mut out = vec![0.0f32; m * n];
        let mut group = c.benchmark_group(format!("rl/gemm_{m}x{k}x{n}"));
        group.throughput(Throughput::Elements((m * k * n) as u64));
        for kern in available_kernels() {
            group.bench_function(kern.name(), |bch| {
                bch.iter(|| {
                    gemm_bias_with(kern, m, k, n, &a, &b, Some(&bias), &mut out);
                    std::hint::black_box(&out);
                })
            });
        }
        group.finish();
    }
}

fn bench_ppo_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("rl/ppo");
    group.sample_size(10);
    group.throughput(Throughput::Elements(2048));
    group.bench_function("one_iteration_2048_steps", |b| {
        b.iter(|| {
            let cfg = PpoConfig {
                n_steps: 512,
                batch_size: 64,
                n_epochs: 10,
                seed: 3,
                ..PpoConfig::default()
            };
            let mut ppo = Ppo::new(1, 2, cfg);
            let envs: Vec<Box<dyn qcs_rl::env::Env>> = (0..4)
                .map(|_| {
                    Box::new(ContinuousBandit::new(vec![0.5, -0.5])) as Box<dyn qcs_rl::env::Env>
                })
                .collect();
            let mut venv = VecEnv::sequential(envs);
            ppo.learn(&mut venv, 2048);
            ppo.log().final_reward()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_forward,
    bench_rollout,
    bench_gemm_kernels,
    bench_update_phase,
    bench_ppo_iteration
);
criterion_main!(benches);
