//! **Service-mode driver** (extension): runs the scheduler disciplines as
//! a long-running open system behind the [`qcs_qcloud::service`] front end
//! — admission-controlled intake, region-sharded fleets, a routing layer,
//! and wall-clock decision-latency / sustained-throughput metrics.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin serve [-- --jobs 1000 --regions 4 \
//!     --spec backfill+speed --routing least-loaded --rate 0.05 \
//!     --watermark 24 --capacity 96 --throttle-delay 60 --attempts 3 \
//!     --threads 4]
//! ```
//!
//! Traffic is the diurnal open-arrival mix (`--amplitude 0` flattens it to
//! plain Poisson); `--open` disarms admission entirely. `--threads N` runs
//! the kernels on up to N worker threads. Hash and affinity routing give
//! every region a kernel of its own; least-loaded routing keeps all regions
//! on one kernel and so one worker. Results are the same at every N.
//! Output: per-shard ASCII table + service report on stdout, plus
//! `results/service.csv` (one row per shard and a `service` total row).

use qcs_bench::cli::{arg, flag, reject_unread};
use qcs_bench::runner::results_dir;
use qcs_bench::table::AsciiTable;
use qcs_calibration::regional_fleet;
use qcs_qcloud::jobgen::diurnal_arrivals;
use qcs_qcloud::policies::SchedSpec;
use qcs_qcloud::{
    AdmissionPolicy, ParallelServiceHarness, RoutingPolicy, ServiceConfig, SimParams,
};

fn main() {
    let n_jobs: usize = arg("--jobs", 1000);
    let regions: usize = arg("--regions", 1);
    let seed: u64 = arg("--seed", 42);
    let spec: SchedSpec = arg(
        "--spec",
        "backfill+speed".parse().expect("the default spec parses"),
    );
    let rate: f64 = arg("--rate", 0.05);
    let amplitude: f64 = arg("--amplitude", 0.8);
    let period: f64 = arg("--period", 3600.0);
    let big_every: usize = arg("--big-every", 5);
    let routing: RoutingPolicy = arg("--routing", RoutingPolicy::LeastLoaded);
    let threads: usize = arg("--threads", 1);
    let admission = if flag("--open") {
        AdmissionPolicy::open()
    } else {
        AdmissionPolicy {
            throttle_watermark: arg("--watermark", 24),
            queue_capacity: arg("--capacity", 96),
            throttle_delay_s: arg("--throttle-delay", 60.0),
            max_throttle_attempts: arg("--attempts", 3),
        }
    };
    reject_unread();
    let config = ServiceConfig { admission, routing };

    let jobs = diurnal_arrivals(n_jobs, rate, amplitude, period, big_every, seed);
    let horizon = jobs.last().map_or(0.0, |j| j.arrival_time);
    println!(
        "serve: {n_jobs} jobs over {horizon:.0} s (diurnal rate {rate}±{:.0}%), \
         {regions} region(s), spec {spec}, routing {routing}, {threads} thread(s), \
         admission {admission:?}",
        amplitude * 100.0
    );

    let outcome = ParallelServiceHarness::new(
        regional_fleet(regions, seed),
        |_region| spec.build(seed, 1),
        jobs,
        SimParams::default(),
        config,
        seed,
        threads,
    )
    .run();

    let report = &outcome.report;
    let mut table = AsciiTable::new(&[
        "shard",
        "routed",
        "done",
        "rejected",
        "wait (s)",
        "fidelity",
        "util",
        "dec p50 (µs)",
        "dec p99 (µs)",
        "busy (s)",
    ]);
    let mut csv = String::from(
        "shard,routed,finished,rejected,mean_wait,mean_fidelity,mean_utilization,\
         decide_p50_us,decide_p99_us,decide_count,decide_timed,busy_wall_s\n",
    );
    for (i, shard) in outcome.shards.iter().enumerate() {
        let lat = &report.per_shard_latency[i];
        // Wall-clock time the shard's kernel ran — measured only when the
        // shard has a kernel of its own (hash or affinity routing).
        let busy = report.shard_busy_s.get(i).copied();
        let busy_cell = busy.map_or_else(|| "-".to_string(), |b| format!("{b:.3}"));
        let rejected = shard
            .records
            .iter()
            .filter(|r| r.final_status == qcs_qcloud::FinalStatus::Rejected)
            .count();
        table.row(vec![
            format!("r{i}"),
            format!("{}", report.routed_per_shard[i]),
            format!("{}", shard.summary.jobs_finished),
            format!("{rejected}"),
            format!("{:.1}", shard.summary.mean_wait),
            format!("{:.4}", shard.summary.mean_fidelity),
            format!("{:.3}", shard.mean_device_utilization()),
            format!("{:.1}", lat.p50_us),
            format!("{:.1}", lat.p99_us),
            busy_cell.clone(),
        ]);
        csv.push_str(&format!(
            "r{i},{},{},{rejected},{:.3},{:.5},{:.4},{:.2},{:.2},{},{},{}\n",
            report.routed_per_shard[i],
            shard.summary.jobs_finished,
            shard.summary.mean_wait,
            shard.summary.mean_fidelity,
            shard.mean_device_utilization(),
            lat.p50_us,
            lat.p99_us,
            shard.telemetry.decisions,
            lat.count,
            busy_cell,
        ));
    }
    println!("{}", table.render());

    let a = &report.admission;
    println!(
        "intake: {} submitted = {} accepted + {} rejected ({} queue-full, {} throttled-out); \
         {} throttle rounds, {} admitted after backoff",
        a.submitted,
        a.accepted,
        a.rejected(),
        a.rejected_queue_full,
        a.rejected_throttled_out,
        a.throttle_events,
        a.throttled_then_admitted,
    );
    // The engine times one decide in 16; the exact count is the shards'.
    let decisions: u64 = outcome.shards.iter().map(|s| s.telemetry.decisions).sum();
    println!(
        "decide: {decisions} calls, {} timed (1 in 16), p50 {:.1} µs, p99 {:.1} µs, \
         mean {:.1} µs, max {:.1} µs",
        report.decision_latency.count,
        report.decision_latency.p50_us,
        report.decision_latency.p99_us,
        report.decision_latency.mean_us,
        report.decision_latency.max_us,
    );
    println!(
        "service: {:.0} sim-s in {:.3} wall-s, {:.0} sustained jobs/s, {} kernel events, \
         {} worker thread(s)",
        report.sim_seconds,
        report.wall_seconds,
        report.sustained_jobs_per_sec,
        report.events_processed,
        report.worker_threads,
    );
    csv.push_str(&format!(
        "service,{},{},{},{:.3},,,{:.2},{:.2},{decisions},{}\n",
        a.submitted,
        a.accepted,
        a.rejected(),
        report.sustained_jobs_per_sec,
        report.decision_latency.p50_us,
        report.decision_latency.p99_us,
        report.decision_latency.count,
    ));

    let out = results_dir().join("service.csv");
    std::fs::write(&out, csv).expect("cannot write service.csv");
    println!("wrote {}", out.display());
}
