//! Reproduces **Fig. 5**: PPO training progress — average episode reward
//! (left axis) and entropy loss (right axis) over training timesteps.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin fig5 [-- --timesteps 100000 --seed 42 --envs 4 --update-workers 1 --comm-aware --queue-aware]
//! ```
//!
//! `--queue-aware` trains on the 19-dim observation with the three queue
//! features appended (see `GymConfig::queue_aware`); the default is the
//! paper's 16-dim state. `--update-workers N` parallelises the PPO
//! optimisation phase over `N` threads (bit-identical results at any `N`;
//! `0` = one per core).

use qcs_bench::cli::{arg, flag, reject_unread, update_workers_arg};
use qcs_bench::runner::results_dir;
use qcs_bench::train::{train_allocation_policy_opts, TrainOpts};
use qcs_qcloud::GymConfig;

fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let step = (values.len() as f64 / width as f64).max(1.0);
    let mut out = String::new();
    let mut i = 0.0;
    while (i as usize) < values.len() && out.chars().count() < width {
        let v = values[i as usize];
        let idx = (((v - lo) / span) * 7.0).round() as usize;
        out.push(BARS[idx.min(7)]);
        i += step;
    }
    out
}

fn main() {
    let timesteps: u64 = arg("--timesteps", 100_000);
    let seed: u64 = arg("--seed", 42);
    let n_envs: usize = arg("--envs", 4);
    let update_workers = update_workers_arg();
    let comm_aware = flag("--comm-aware");
    let queue_aware = flag("--queue-aware");
    reject_unread();

    eprintln!(
        "[fig5] training PPO for {timesteps} timesteps on {n_envs} envs \
         ({update_workers} update workers, comm_aware = {comm_aware}, \
         queue_aware = {queue_aware})..."
    );
    let gym = GymConfig {
        comm_aware_reward: comm_aware,
        queue_aware,
        ..GymConfig::default()
    };
    let t0 = std::time::Instant::now();
    let out = train_allocation_policy_opts(
        gym,
        TrainOpts {
            total_timesteps: timesteps,
            n_envs,
            seed,
            n_update_workers: update_workers,
        },
    );
    eprintln!("[fig5] done in {:.1}s", t0.elapsed().as_secs_f64());

    let log = out.ppo.log();
    let rewards: Vec<f64> = log.entries.iter().map(|e| e.ep_rew_mean).collect();
    let entropy: Vec<f64> = log.entries.iter().map(|e| e.entropy_loss).collect();

    println!("Fig. 5 — PPO training progress ({timesteps} timesteps)");
    println!();
    println!(
        "avg episode reward  [{:.4} → {:.4}]",
        rewards.first().unwrap_or(&f64::NAN),
        rewards.last().unwrap_or(&f64::NAN)
    );
    println!("  {}", sparkline(&rewards, 80));
    println!(
        "entropy loss        [{:.3} → {:.3}]  (paper: ≈ −7 → −2)",
        entropy.first().unwrap_or(&f64::NAN),
        entropy.last().unwrap_or(&f64::NAN)
    );
    println!("  {}", sparkline(&entropy, 80));
    println!();
    println!(
        "final: reward {:.4} (paper plateaus ≈ 0.70), entropy loss {:.3}",
        log.final_reward(),
        entropy.last().unwrap_or(&f64::NAN)
    );

    let dir = results_dir();
    // Variant-specific filenames: a queue-aware policy has a different
    // observation layout and must not clobber the cached 16-dim policy
    // `table2`/`fig6` deploy.
    let variant = match (comm_aware, queue_aware) {
        (false, false) => "",
        (true, false) => "_comm_aware",
        (false, true) => "_queue_aware",
        (true, true) => "_comm_queue_aware",
    };
    let csv_path = dir.join(format!("fig5_training{variant}.csv"));
    std::fs::write(&csv_path, log.to_csv()).expect("cannot write training CSV");
    let policy_path = dir.join(format!("rl_policy{variant}.json"));
    std::fs::write(&policy_path, out.policy_json()).expect("cannot write policy");
    eprintln!(
        "[fig5] wrote {} and {}",
        csv_path.display(),
        policy_path.display()
    );
}
