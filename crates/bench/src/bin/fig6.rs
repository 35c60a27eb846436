//! Reproduces **Fig. 6**: fidelity distributions of quantum jobs under the
//! four allocation strategies (four histograms).
//!
//! ```text
//! cargo run -p qcs-bench --release --bin fig6 [-- --jobs 1000 --seed 42 --bins 40]
//! ```
//!
//! Requires a trained RL policy (run `table2` or `fig5` first, or this
//! binary trains a quick one).

//! `--strategies a,b,c` sweeps arbitrary scheduler specs (incl. composed
//! disciplines like `backfill+speed` or `conservative+fair`) instead of
//! the paper's four.

use qcs_bench::cli::{arg, reject_unread};
use qcs_bench::runner::{results_dir, run_strategies, table2_strategies, StrategySpec};
use qcs_bench::train::train_allocation_policy;
use qcs_qcloud::{GymConfig, SimParams, SummaryStats};
use qcs_workload::suite::paper_case_study;

fn main() {
    let n_jobs: usize = arg("--jobs", 1_000);
    let seed: u64 = arg("--seed", 42);
    let bins: usize = arg("--bins", 40);
    let timesteps: u64 = arg("--timesteps", 60_000);
    let strategies: String = arg("--strategies", "speed,fidelity,fair,rl".to_string());
    reject_unread();
    let wants_rl = StrategySpec::list_wants_rl(&strategies);

    let dir = results_dir();
    let policy_path = dir.join("rl_policy.json");
    let policy_json = if !wants_rl {
        String::new()
    } else if policy_path.exists() {
        std::fs::read_to_string(&policy_path).expect("cannot read cached policy")
    } else {
        eprintln!("[fig6] no cached policy; training {timesteps} timesteps...");
        let out = train_allocation_policy(timesteps, 4, seed, false);
        let json = out.policy_json();
        std::fs::write(&policy_path, &json).expect("cannot cache policy");
        json
    };

    let mut suite = paper_case_study(seed);
    suite.jobs.truncate(n_jobs);
    let params = SimParams::default();
    let specs: Vec<StrategySpec> = if strategies == "speed,fidelity,fair,rl" {
        table2_strategies(policy_json, GymConfig::default())
    } else {
        StrategySpec::parse_list(&strategies, &policy_json, &GymConfig::default())
    };

    eprintln!(
        "[fig6] running {} strategies × {} jobs...",
        specs.len(),
        suite.jobs.len()
    );
    let results = run_strategies(&specs, &suite.jobs, &params, seed);

    // Common range across strategies so the four panels are comparable,
    // like the paper's shared x-axis.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in &results {
        for rec in &r.records {
            lo = lo.min(rec.fidelity);
            hi = hi.max(rec.fidelity);
        }
    }
    let pad = 0.01;
    let (lo, hi) = (lo - pad, hi + pad);

    println!("Fig. 6 — Fidelity distributions under four allocation strategies");
    println!("(shared range [{lo:.3}, {hi:.3}), {bins} bins)");
    for r in &results {
        let h = SummaryStats::fidelity_histogram(&r.records, lo, hi, bins);
        println!();
        println!(
            "--- {} (μ = {:.5}, σ = {:.5}, mode bin centre = {:.4}) ---",
            r.summary.strategy,
            r.summary.mean_fidelity,
            r.summary.std_fidelity,
            h.bin_center(h.mode_bin())
        );
        print!("{}", h.ascii(60));

        // CSV: bin_lo, bin_hi, count
        let mut csv = String::from("bin_lo,bin_hi,count\n");
        for i in 0..h.nbins() {
            let (a, b) = h.bin_edges(i);
            csv.push_str(&format!("{a:.6},{b:.6},{}\n", h.bins()[i]));
        }
        let path = dir.join(format!("fig6_{}.csv", r.summary.strategy));
        std::fs::write(&path, csv).expect("cannot write histogram CSV");
        eprintln!("[fig6] wrote {}", path.display());
    }

    println!();
    println!("Paper's qualitative shapes: speed & fair narrow around 0.65;");
    println!("fidelity-optimised right-shifted (above 0.66); RL flat/broad 0.60–0.64.");
}
