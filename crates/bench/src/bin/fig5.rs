//! Reproduces **Fig. 5**: PPO training progress — average episode reward
//! (left axis) and entropy loss (right axis) over training timesteps.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin fig5 [-- --timesteps 100000 --seed 42 --envs 4 --comm-aware]
//! ```
//!
//! Training runs on one thread. `--comm-aware` trains with the
//! communication-aware reward shaping and writes its own result files.

use qcs_bench::cli::{arg, flag, reject_unread};
use qcs_bench::runner::results_dir;
use qcs_bench::train::train_allocation_policy;

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
    let comm_aware = flag("--comm-aware");
    reject_unread();

    eprintln!(
        "[fig5] training PPO for {timesteps} timesteps on {n_envs} envs \
         (comm_aware = {comm_aware})..."
    );
    let t0 = std::time::Instant::now();
    let out = train_allocation_policy(timesteps, n_envs, seed, comm_aware);
    eprintln!("[fig5] done in {:.3}s", t0.elapsed().as_secs_f64());

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
    // A comm-aware policy must not clobber the cached policy that
    // `table2`/`fig6` deploy.
    let variant = if comm_aware { "_comm_aware" } else { "" };
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
