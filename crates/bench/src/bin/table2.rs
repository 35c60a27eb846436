//! Reproduces **Table 2**: performance of the four allocation strategies on
//! 1'000 large circuits — total simulation time `T_sim`, mean fidelity
//! `μ_F ± σ_F`, and total communication time `T_comm`.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin table2 [-- --jobs 1000 --seed 42 --timesteps 100000]
//! ```
//!
//! `--strategies a,b,c` swaps the paper's four rows for any list of
//! scheduler specs: bare policies (`speed`, `minfrag`, `rl:<path>`),
//! composed disciplines (`backfill+speed`, `conservative+fair`,
//! `priority:edf+fair`), or `rl` for the trained-and-cached RL row.
//! `--help` lists the vocabulary.
//!
//! The RL row requires a trained policy; the binary trains one (caching it
//! in `results/rl_policy.json`) unless `--no-cache` is passed.

use qcs_bench::cli::{arg, faults_arg, flag, reject_unread};
use qcs_bench::runner::{results_dir, run_strategies_with_faults, table2_strategies, StrategySpec};
use qcs_bench::table::AsciiTable;
use qcs_bench::train::train_allocation_policy;
use qcs_qcloud::{GymConfig, SimParams};
use qcs_workload::suite::paper_case_study;

fn print_help() {
    println!("table2 — strategy comparison on the paper's case-study workload");
    println!("  --jobs N --seed S --timesteps T --no-cache");
    println!("  --strategies a,b,c   scheduler specs to compare (default: paper's four)");
    println!("  --faults SPEC        inject faults, e.g. 'crash:0@500+300;pfail:0.05;retries:4'");
    println!("policies: {}", qcs_qcloud::policies::names().join(", "));
    println!(
        "disciplines (compose as <discipline>+<policy>): {}",
        qcs_qcloud::policies::discipline_names().join(", ")
    );
    println!("plus `rl`: the trained-and-cached RL row");
}

fn main() {
    if flag("--help") {
        print_help();
        return;
    }
    let n_jobs: usize = arg("--jobs", 1_000);
    let seed: u64 = arg("--seed", 42);
    let timesteps: u64 = arg("--timesteps", 100_000);
    let no_cache = flag("--no-cache");
    let strategies: String = arg("--strategies", "speed,fidelity,fair,rl".to_string());
    let faults = faults_arg();
    reject_unread();
    let wants_rl = StrategySpec::list_wants_rl(&strategies);

    let dir = results_dir();
    let policy_path = dir.join("rl_policy.json");

    // --- RL policy: load cache or train (paper §6.6: 100k timesteps). ---
    let policy_json = if !wants_rl {
        String::new()
    } else if policy_path.exists() && !no_cache {
        eprintln!("[table2] using cached RL policy {}", policy_path.display());
        std::fs::read_to_string(&policy_path).expect("cannot read cached policy")
    } else {
        eprintln!("[table2] training RL policy for {timesteps} timesteps...");
        let t0 = std::time::Instant::now();
        let out = train_allocation_policy(timesteps, 4, seed, false);
        eprintln!(
            "[table2] training done in {:.3}s (final reward {:.4})",
            t0.elapsed().as_secs_f64(),
            out.ppo.log().final_reward()
        );
        let json = out.policy_json();
        std::fs::write(&policy_path, &json).expect("cannot cache policy");
        std::fs::write(dir.join("rl_training_log.csv"), out.ppo.log().to_csv())
            .expect("cannot write training log");
        json
    };

    // --- The case-study workload and the requested strategies. ---
    let mut suite = paper_case_study(seed);
    suite.jobs.truncate(n_jobs);
    let params = SimParams::default();
    let specs: Vec<StrategySpec> = if strategies == "speed,fidelity,fair,rl" {
        table2_strategies(policy_json, GymConfig::default())
    } else {
        StrategySpec::parse_list(&strategies, &policy_json, &GymConfig::default())
    };

    eprintln!(
        "[table2] running {} strategies × {} jobs in parallel...",
        specs.len(),
        suite.jobs.len()
    );
    let t0 = std::time::Instant::now();
    let results = run_strategies_with_faults(&specs, &suite.jobs, &params, seed, faults.as_ref());
    eprintln!(
        "[table2] simulations done in {:.3}s",
        t0.elapsed().as_secs_f64()
    );

    // --- Render. ---
    let mut table = AsciiTable::new(&[
        "Mode",
        "T_sim (s)",
        "mu_F",
        "sigma_F",
        "T_comm (s)",
        "k_mean",
        "mean_wait (s)",
    ]);
    for r in &results {
        let s = &r.summary;
        if faults.is_some() {
            // Under fault injection a job may honestly exhaust its retries
            // (counted as unfinished); only a *pending* record is a bug.
            assert!(
                r.records.iter().all(|rec| rec.terminal()),
                "{}: non-terminal job survived the run",
                s.strategy
            );
        } else {
            assert_eq!(
                s.jobs_unfinished, 0,
                "{}: {} jobs starved",
                s.strategy, s.jobs_unfinished
            );
        }
        table.row(vec![
            s.strategy.clone(),
            format!("{:.2}", s.t_sim),
            format!("{:.5}", s.mean_fidelity),
            format!("{:.5}", s.std_fidelity),
            format!("{:.2}", s.total_comm),
            format!("{:.2}", s.mean_devices_per_job),
            format!("{:.2}", s.mean_wait),
        ]);
    }
    println!("Table 2 — Performance of allocation strategies on {n_jobs} large circuits");
    println!("{}", table.render());
    println!("Paper reference (1'000 jobs):");
    println!("  speed    T_sim 108775.38  mu_F 0.65332 ± 0.01438  T_comm 5707.80");
    println!("  fidelity T_sim 209873.02  mu_F 0.68781 ± 0.02605  T_comm 3822.74");
    println!("  fair     T_sim 108778.16  mu_F 0.64373 ± 0.01478  T_comm 5707.80");
    println!("  rlbase   T_sim 106206.21  mu_F 0.62087 ± 0.01301  T_comm 6105.52");

    let csv_path = dir.join("table2.csv");
    std::fs::write(&csv_path, table.to_csv()).expect("cannot write table2.csv");
    eprintln!("[table2] wrote {}", csv_path.display());
}
