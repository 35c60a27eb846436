//! Train a PPO policy, save it to JSON, reload it through the `rl:<path>`
//! spec surface, and deploy it on a fresh workload.
//!
//! ```text
//! cargo run --release --example train_rl_scheduler [-- --env gym|sched] [--smoke]
//! ```
//!
//! * `--env gym` (default): the paper's single-step *placement* gym
//!   (§4.1/§6.6) — one job, one availability snapshot, one allocation.
//! * `--env sched`: the queue-deep *scheduling* environment
//!   ([`qcs::qcloud::rlsched::SchedulerEnv`]) — the agent is the
//!   scheduler, picking which queued job to dispatch next against the
//!   live fleet state; the checkpoint deploys as a full discipline via
//!   `rl:<path>` and is evaluated head-to-head against `conservative+*`.
//! * `--smoke` (with `--env sched`): a few updates on a fixed seed with
//!   finite-loss and round-trip assertions — the CI guard for the training
//!   path.
//! * A flag the chosen run does not read (a typo, or `--smoke` with
//!   `--env gym`) exits with status 2 and lists the flags it reads.
//!
//! Both runs train on one thread.

use qcs::prelude::*;
use qcs::qcloud::policies::{scheduler_by_name, RlBroker};
use qcs::qcloud::rlsched::{SchedCheckpoint, SchedEnvConfig, SchedulerEnv};
use qcs::rl::env::Env;
use qcs_bench::cli::{arg, flag, reject_unread};

fn main() {
    let env = arg("--env", "gym".to_string());
    // Only the scheduler training has a smoke mode.
    let smoke = env == "sched" && flag("--smoke");
    reject_unread();
    match env.as_str() {
        "sched" => train_sched(smoke),
        "gym" => train_gym(),
        other => {
            eprintln!("error: --env {other:?} is neither 'gym' nor 'sched'");
            std::process::exit(2)
        }
    }
}

/// The queue-deep scheduler loop: train, checkpoint, reload through
/// `rl:<path>`, and race the static disciplines on a bimodal trace.
fn train_sched(smoke: bool) {
    let seed = 7;
    let env_cfg = SchedEnvConfig::default();
    let obs_cfg = env_cfg.obs.clone();

    let envs: Vec<Box<dyn Env>> = (0..4)
        .map(|_| {
            Box::new(SchedulerEnv::new(
                &qcs::calibration::ibm_fleet(seed),
                SimParams::default(),
                env_cfg.clone(),
            )) as Box<dyn Env>
        })
        .collect();
    let mut envs = VecEnv::sequential(envs);

    let timesteps: u64 = if smoke { 2_048 } else { 24_576 };
    let cfg = PpoConfig {
        n_steps: 256,
        seed,
        ..PpoConfig::default()
    };
    let mut ppo = Ppo::new(obs_cfg.obs_dim(), obs_cfg.action_dim(), cfg);
    println!("training PPO on the scheduler loop for {timesteps} timesteps...");
    ppo.learn(&mut envs, timesteps);
    for e in ppo.log().entries.iter().step_by(4) {
        println!(
            "  t = {:>6}  reward = {:+.4}  policy_loss = {:+.4}  value_loss = {:.4}",
            e.timesteps, e.ep_rew_mean, e.policy_loss, e.value_loss
        );
    }
    for e in &ppo.log().entries {
        assert!(
            e.policy_loss.is_finite() && e.value_loss.is_finite() && e.ep_rew_mean.is_finite(),
            "training diverged at t = {}",
            e.timesteps
        );
    }

    // Checkpoint with the observation/placement contract baked in, then
    // reload through the same `rl:<path>` surface every harness uses.
    let path = std::env::temp_dir()
        .join("qcs_train_rl_scheduler")
        .join("sched_policy.json");
    SchedCheckpoint::new(obs_cfg, &env_cfg.placement, ppo.ac.clone())
        .save(&path)
        .expect("write checkpoint");
    let rl_spec = format!("rl:{}", path.display());
    println!("\ncheckpoint saved: {rl_spec}");

    // Head-to-head on a fresh bimodal trace (the benches run the full
    // version of this; see the rl_sched section of BENCH_sched.json).
    let n_jobs = if smoke { 60 } else { 300 };
    let jobs = qcs::qcloud::jobgen::bimodal_arrivals(n_jobs, 0.1, 4, seed + 1);
    println!("\nhead-to-head on {n_jobs} bimodal jobs:");
    println!(
        "  {:<20} {:>8} {:>10} {:>8} {:>9}",
        "spec", "BSLD", "wait p99", "jain", "goodput"
    );
    for spec in [
        rl_spec.as_str(),
        "speed",
        "backfill+speed",
        "conservative+speed",
    ] {
        let sched = scheduler_by_name(spec, seed, 1).expect("known scheduler spec");
        let env = QCloudSimEnv::with_scheduler(
            qcs::calibration::ibm_fleet(seed),
            sched,
            jobs.clone(),
            SimParams::default(),
            seed,
        );
        let r = env.run();
        assert_eq!(
            r.records.iter().filter(|rec| rec.finished()).count(),
            n_jobs,
            "{spec}: every job must finish"
        );
        let qos = QosReport::from_records(&r.records, DeadlinePolicy::default());
        println!(
            "  {:<20} {:>8.3} {:>10.1} {:>8.3} {:>9.3}",
            spec, qos.mean_bounded_slowdown, qos.wait_p99, qos.fairness_jain, qos.goodput
        );
    }
    if smoke {
        println!("\nsmoke OK: losses finite, checkpoint round-tripped through rl:<path>");
    }
}

/// The paper's single-step placement gym (the original example).
fn train_gym() {
    let seed = 7;
    let gym_cfg = GymConfig::default();

    // --- 1. Build the vectorised training environment (4 envs).
    let envs: Vec<Box<dyn Env>> = (0..4)
        .map(|_| {
            Box::new(QCloudGymEnv::new(
                &qcs::calibration::ibm_fleet(seed),
                JobDistribution::default(),
                SimParams::default(),
                gym_cfg.clone(),
            )) as Box<dyn Env>
        })
        .collect();
    let mut envs = VecEnv::sequential(envs);

    // --- 2. Train PPO (short budget for the example; the fig5 harness
    //        runs the paper's full 100k timesteps).
    let cfg = PpoConfig {
        n_steps: 512,
        seed,
        ..PpoConfig::default()
    };
    let mut ppo = Ppo::new(gym_cfg.obs_dim(), gym_cfg.max_devices, cfg);
    println!("training PPO for 20'000 timesteps...");
    ppo.learn(&mut envs, 20_000);
    for e in ppo.log().entries.iter().step_by(2) {
        println!(
            "  t = {:>6}  reward = {:.4}  entropy_loss = {:+.3}",
            e.timesteps, e.ep_rew_mean, e.entropy_loss
        );
    }

    // --- 3. Save + reload the policy (deployment artifact).
    let json = ppo.ac.to_json();
    println!("\npolicy serialised: {} bytes of JSON", json.len());
    let broker = RlBroker::from_json(&json, gym_cfg).expect("reload policy");

    // --- 4. Deploy on a fresh 100-job workload.
    let jobs = qcs::workload::smoke(100, seed + 1).jobs;
    let env = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(seed),
        Box::new(broker),
        jobs,
        SimParams::default(),
        seed,
    );
    let r = env.run();
    let s = &r.summary;
    println!("\ndeployed rlbase on 100 jobs:");
    println!(
        "  T_sim = {:.1} s, μ_F = {:.5} ± {:.5}",
        s.t_sim, s.mean_fidelity, s.std_fidelity
    );
    println!(
        "  T_comm = {:.1} s, devices/job = {:.2}",
        s.total_comm, s.mean_devices_per_job
    );
    println!("\nNote the paper's finding: trained on a fidelity-only reward,");
    println!("the agent fragments jobs (k̄ high, T_comm high) because Eq. 6's");
    println!("readout exponent √(q/k) rewards spreading. Retrain with");
    println!("GymConfig::comm_aware_reward to see the incentive flip.");
}
