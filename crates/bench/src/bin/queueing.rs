//! **Open-system queueing sweep** (extension): the paper's case study is a
//! closed backlog (all jobs at `t = 0`); this harness drives the cloud with
//! Poisson arrivals at increasing offered load and reports wait-time tails
//! and slowdown per policy — where head-of-line blocking and the
//! fidelity policy's quality-strictness actually bite.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin queueing [-- --jobs 200 --seed 42]
//! ```
//!
//! `--faults <spec>` injects unplanned outages and execution failures
//! into every run (same script for every policy), e.g.
//! `--faults 'crash:0@500+300;pfail:0.05;retries:4'` — see
//! [`qcs_qcloud::FaultScript::parse`] for the grammar; a script that does
//! not parse exits 2. The goodput/retry columns then separate disciplines
//! by how much work the failures wasted.
//!
//! Output: `results/queueing.csv` + ASCII tables per arrival rate.

use qcs_bench::cli::{arg, faults_arg, reject_unread};
use qcs_bench::runner::results_dir;
use qcs_bench::table::AsciiTable;
use qcs_calibration::ibm_fleet;
use qcs_qcloud::policies::scheduler_by_name;
use qcs_qcloud::{DeadlinePolicy, JobDistribution, QCloudSimEnv, QosReport, SimParams};
use qcs_workload::arrival::{jobs_with_arrivals, poisson_process};

fn main() {
    let n_jobs: usize = arg("--jobs", 200);
    let seed: u64 = arg("--seed", 42);
    let faults = faults_arg();
    reject_unread();
    let params = SimParams::default();
    // Policies under FIFO, plus the queue-aware disciplines the redesign
    // added — exactly where wait-time tails separate them.
    let policies = [
        "speed",
        "fidelity",
        "fair",
        "minfrag",
        "backfill+speed",
        "conservative+speed",
        "conservative+fair",
        "priority:sjf+speed",
        "priority:edf+speed",
        "priority:aging+speed",
    ];
    // Paper-scale service times are ~100 s on premium devices; sweep the
    // arrival rate from light to saturating load.
    let rates = [0.002, 0.005, 0.01, 0.02];

    let mut csv = String::from(
        "rate,policy,wait_p50,wait_p95,wait_p99,mean_slowdown,mean_bsld,deadline_miss,\
         fairness_jain,bypass_max,goodput,retry_rate,jobs_exhausted,\
         waits_queue_drained,waits_insufficient_capacity,waits_policy_hold,\
         waits_backfill_hold,waits_device_offline,waits_admission_throttled\n",
    );
    for &rate in &rates {
        let arrivals = poisson_process(n_jobs, rate, seed);
        let jobs = jobs_with_arrivals(&arrivals, &JobDistribution::default(), 0, seed ^ 0xA5);
        println!(
            "\nArrival rate {rate} jobs/s ({n_jobs} jobs over {:.0} s)\n",
            arrivals.last().copied().unwrap_or(0.0)
        );
        let mut table = AsciiTable::new(&[
            "policy",
            "wait p50 (s)",
            "wait p95 (s)",
            "wait p99 (s)",
            "slowdown",
            "BSLD",
            "miss rate",
            "jain",
            "byp max",
            "goodput",
            "retries",
        ]);
        for pol in policies {
            let sched = scheduler_by_name(pol, seed, 1).expect("known scheduler spec");
            let mut env = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                sched,
                jobs.clone(),
                params.clone(),
                seed,
            );
            if let Some((script, retry)) = &faults {
                env.install_faults(script, *retry);
            }
            let result = env.run();
            let qos = QosReport::from_records(&result.records, DeadlinePolicy::default());
            table.row(vec![
                pol.into(),
                format!("{:.1}", qos.wait_p50),
                format!("{:.1}", qos.wait_p95),
                format!("{:.1}", qos.wait_p99),
                format!("{:.2}", qos.mean_slowdown),
                format!("{:.2}", qos.mean_bounded_slowdown),
                format!("{:.3}", qos.deadline_miss_rate),
                format!("{:.3}", qos.fairness_jain),
                format!("{}", qos.bypass_max),
                format!("{:.3}", qos.goodput),
                format!("{:.3}", qos.retry_rate),
            ]);
            // Per-`WaitReason` scheduler-idle attribution: separates "the
            // queue drained" from "work was held back" at a glance.
            let t = &result.telemetry;
            csv.push_str(&format!(
                "{rate},{pol},{:.3},{:.3},{:.3},{:.4},{:.4},{:.4},{:.4},{},{:.4},{:.4},{},\
                 {},{},{},{},{},{}\n",
                qos.wait_p50,
                qos.wait_p95,
                qos.wait_p99,
                qos.mean_slowdown,
                qos.mean_bounded_slowdown,
                qos.deadline_miss_rate,
                qos.fairness_jain,
                qos.bypass_max,
                qos.goodput,
                qos.retry_rate,
                qos.jobs_exhausted,
                t.waits_queue_drained,
                t.waits_insufficient_capacity,
                t.waits_policy_hold,
                t.waits_backfill_hold,
                t.waits_device_offline,
                t.waits_admission_throttled
            ));
        }
        println!("{}", table.render());
    }
    let out = results_dir().join("queueing.csv");
    std::fs::write(&out, csv).expect("cannot write queueing.csv");
    println!("\nwrote {}", out.display());
}
