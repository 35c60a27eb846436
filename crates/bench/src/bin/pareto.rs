//! **Pareto sweep** (extension): traces the speed–fidelity trade-off
//! frontier by sweeping the [`HybridBroker`] weight from 0 (pure speed
//! ordering) to 1 (pure error-score ordering), in both its
//! availability-greedy and quality-strict variants, with the paper's named
//! strategies as reference points.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin pareto [-- --jobs 300 --seed 42 --steps 11]
//! ```
//!
//! The designed finding: the *ordering* knob barely moves fidelity while
//! the *waiting discipline* does — greedy points cluster at the speed
//! corner for any `w`, while strict points trade makespan for fidelity,
//! reproducing Table 2's speed/fidelity gap as a continuum. Output:
//! `results/pareto.csv` + an ASCII table.

use qcs_bench::cli::{arg, reject_unread};
use qcs_bench::runner::results_dir;
use qcs_bench::table::AsciiTable;
use qcs_calibration::ibm_fleet;
use qcs_qcloud::policies::{by_name, HybridBroker};
use qcs_qcloud::{Broker, QCloudSimEnv, SimParams};
use qcs_workload::suite::smoke;

fn main() {
    let n_jobs: usize = arg("--jobs", 300);
    let seed: u64 = arg("--seed", 42);
    let steps: usize = arg("--steps", 11);
    reject_unread();

    let params = SimParams::default();
    let jobs = smoke(n_jobs, seed).jobs;
    eprintln!("[pareto] {n_jobs} jobs, {steps} weight steps, seed {seed}");

    let mut table = AsciiTable::new(&[
        "policy",
        "T_sim (s)",
        "mu_F",
        "sigma_F",
        "T_comm (s)",
        "k_bar",
        "mean_wait (s)",
    ]);
    let mut csv = String::from("policy,w,strict,t_sim,mu_f,sigma_f,t_comm,k_bar,mean_wait\n");

    let mut run = |label: String, w: f64, strict: bool, broker: Box<dyn Broker>| {
        let env = QCloudSimEnv::new(ibm_fleet(seed), broker, jobs.clone(), params.clone(), seed);
        let result = env.run();
        let s = &result.summary;
        table.row(vec![
            label.clone(),
            format!("{:.0}", s.t_sim),
            format!("{:.5}", s.mean_fidelity),
            format!("{:.5}", s.std_fidelity),
            format!("{:.1}", s.total_comm),
            format!("{:.2}", s.mean_devices_per_job),
            format!("{:.1}", s.mean_wait),
        ]);
        csv.push_str(&format!(
            "{label},{w:.2},{strict},{:.2},{:.6},{:.6},{:.2},{:.3},{:.2}\n",
            s.t_sim,
            s.mean_fidelity,
            s.std_fidelity,
            s.total_comm,
            s.mean_devices_per_job,
            s.mean_wait
        ));
        eprintln!(
            "[pareto] {label}: T_sim={:.0}s muF={:.4} Tcomm={:.0}s",
            s.t_sim, s.mean_fidelity, s.total_comm
        );
    };

    // Reference corners: the paper's named policies.
    for pol in ["speed", "fidelity", "fair", "minfrag"] {
        run(
            format!("[{pol}]"),
            f64::NAN,
            false,
            by_name(pol, seed).expect("known policy"),
        );
    }
    // The two hybrid families.
    for i in 0..steps {
        let w = i as f64 / (steps - 1).max(1) as f64;
        run(
            format!("hybrid({w:.2})"),
            w,
            false,
            Box::new(HybridBroker::new(w)),
        );
    }
    for i in 0..steps {
        let w = i as f64 / (steps - 1).max(1) as f64;
        run(
            format!("strict({w:.2})"),
            w,
            true,
            Box::new(HybridBroker::strict(w)),
        );
    }

    println!("\nPareto sweep: ordering weight vs waiting discipline ({n_jobs} jobs)\n");
    println!("{}", table.render());
    let out = results_dir().join("pareto.csv");
    std::fs::write(&out, csv).expect("cannot write pareto.csv");
    println!("wrote {}", out.display());
}
