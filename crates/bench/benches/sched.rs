//! Scheduler-loop benchmarks for the queue-aware disciplines the seed's
//! per-job API could not express — EASY and conservative backfilling vs
//! FIFO on a fragmented mixed-size workload, and EASY vs conservative on a
//! maintenance-heavy variant (scheduled windows carving capacity out of
//! the busy period).
//!
//! Release runs (`cargo bench -p qcs-bench --bench sched`) also emit
//! `BENCH_sched.json` at the repository root: the `fifo+speed` vs
//! `backfill+speed` comparison
//! (makespan, mean wait, mean device utilisation), the EASY-vs-
//! conservative makespan/fairness comparison (wait tails, mean slowdown,
//! Jain index over slowdowns) on both the bimodal and maintenance-heavy
//! scenarios, and a failure-heavy variant (two unplanned crashes + 5%
//! execution failures) recording goodput, retry rate and recovery
//! overhead per discipline — `bench_guard` holds the recorded
//! conservative fairness wins and fault-era goodput to hard floors.
//!
//! Service-mode sections (`service_1k`, `sharded_4x`) run the open-system
//! front end: decision-latency p50/p99 (over the engine's 1-in-16 sample
//! of decides; `decide_calls` is the exact count) and sustained jobs/s
//! through an armed intake on an overloaded diurnal trace, and the
//! four-region sharded fleet vs a monolithic scheduler (decide-cost
//! scaling plus the completeness/conservation flags) — guarded by a p99
//! ceiling and sustained-rate / scaling floors.
//!
//! The `rl_sched` section trains a PPO policy on the queue-deep scheduler
//! environment (`qcs_qcloud::rlsched::SchedulerEnv`), deploys the
//! checkpoint through the `rl:<path>` spec surface, and races it against
//! `speed` / `backfill+speed` / `conservative+speed` on the bimodal and
//! maintenance traces — honest head-to-head numbers either way.
//!
//! The `fleet_scale` section is the incremental-core stress test: 100k
//! bimodal jobs streamed over a 120-device fleet (throughput plus an
//! allocation count from the bench binary's counting global allocator,
//! ceiling-guarded so the slab/incremental paths stay allocation-lean),
//! and a 10k-deep backlogged queue where conservative's per-decide cost —
//! once a full availability rebuild per consult — is floored in jobs/s by
//! `bench_guard`, its ratio to EASY's recorded alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qcs_calibration::{ibm_fleet, regional_fleet, DeviceProfile};
use qcs_qcloud::jobgen::{batch_at_zero, bimodal_arrivals, diurnal_arrivals};
use qcs_qcloud::policies::scheduler_by_name;
use qcs_qcloud::rlsched::{SchedCheckpoint, SchedEnvConfig, SchedulerEnv};
use qcs_qcloud::simenv::RunResult;
use qcs_qcloud::{
    AdmissionPolicy, DeadlinePolicy, FaultScript, JobDistribution, MaintenanceWindow,
    ParallelServiceHarness, QCloudSimEnv, QJob, QosReport, RetryPolicy, RoutingPolicy,
    ServiceConfig, ServiceHarness, ServiceOutcome, SimParams,
};
use qcs_rl::env::Env;
use qcs_rl::{Ppo, PpoConfig, VecEnv};

const SEED: u64 = 7;

/// Counts every heap allocation made by the bench binary, so the
/// `fleet_scale` section can record (and `bench_guard` can ceiling) the
/// allocations-per-job cost of the scheduler loop. Deallocations are not
/// tracked — the guard is about allocator pressure on the hot path, not
/// leaks.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn run_spec(spec: &str, jobs: Vec<QJob>) -> RunResult {
    run_spec_with_windows(spec, jobs, &[])
}

/// Runs a spec over an explicit fleet (the `fleet_scale` section uses a
/// 120-device one instead of the default 5-device `ibm_fleet`).
fn run_spec_on(fleet: Vec<DeviceProfile>, spec: &str, jobs: Vec<QJob>) -> RunResult {
    let env = QCloudSimEnv::with_scheduler(
        fleet,
        scheduler_by_name(spec, SEED, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        SEED,
    );
    env.run()
}

/// The 120-device fleet for the `fleet_scale` section: 24 regional
/// five-device IBM-style fleets flattened into one scheduling domain.
fn fleet_120() -> Vec<DeviceProfile> {
    regional_fleet(24, SEED).into_iter().flatten().collect()
}

fn run_spec_with_windows(spec: &str, jobs: Vec<QJob>, windows: &[MaintenanceWindow]) -> RunResult {
    let mut env = QCloudSimEnv::with_scheduler(
        ibm_fleet(SEED),
        scheduler_by_name(spec, SEED, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        SEED,
    );
    for &w in windows {
        env.schedule_maintenance(w);
    }
    env.run()
}

fn run_spec_with_faults(spec: &str, jobs: Vec<QJob>) -> RunResult {
    let mut env = QCloudSimEnv::with_scheduler(
        ibm_fleet(SEED),
        scheduler_by_name(spec, SEED, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        SEED,
    );
    let (script, retry) = failure_scenario();
    env.install_faults(&script, retry);
    env.run()
}

/// The failure-heavy scenario: two unplanned crashes land inside the
/// bimodal trace's busy period (a premium device early, a mid-tier device
/// late) on top of a 5% per-attempt execution-failure rate — every
/// discipline must revoke leases, repair reservations and retry through
/// the backoff policy.
fn failure_scenario() -> (FaultScript, RetryPolicy) {
    let script = FaultScript::new(SEED)
        .with_crash(0, 3_000.0, 5_000.0)
        .with_crash(2, 12_000.0, 4_000.0)
        .with_exec_failures(0.05);
    let retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };
    (script, retry)
}

/// The maintenance-heavy scenario: three staggered windows carve devices
/// out of the bimodal trace's busy period, so reservations must dodge
/// scheduled capacity cliffs, and qubits released while offline surface
/// only at window close.
fn maintenance_windows() -> Vec<MaintenanceWindow> {
    vec![
        MaintenanceWindow {
            device: 1,
            start: 2_000.0,
            duration: 4_000.0,
        },
        MaintenanceWindow {
            device: 3,
            start: 9_000.0,
            duration: 5_000.0,
        },
        MaintenanceWindow {
            device: 0,
            start: 18_000.0,
            duration: 4_000.0,
        },
    ]
}

/// The bimodal head-of-line-blocking workload: every 4th job spans the
/// whole fleet (and runs long), the rest are small and short. Strict FIFO
/// idles most of the fleet whenever a big head is blocked.
fn fragmented_jobs(n: usize) -> Vec<QJob> {
    bimodal_arrivals(n, 0.1, 4, SEED)
}

/// Runs the service-mode front end over the given region fleets.
fn run_service(
    regions: Vec<Vec<DeviceProfile>>,
    spec: &'static str,
    jobs: Vec<QJob>,
    config: ServiceConfig,
) -> ServiceOutcome {
    ServiceHarness::new(
        regions,
        move |_region| scheduler_by_name(spec, SEED, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        config,
        SEED,
    )
    .run()
}

/// Same trace on `threads` worker threads: bit-identical records to
/// [`run_service`].
fn run_service_parallel(
    regions: Vec<Vec<DeviceProfile>>,
    spec: &'static str,
    jobs: Vec<QJob>,
    config: ServiceConfig,
    threads: usize,
) -> ServiceOutcome {
    ParallelServiceHarness::new(
        regions,
        move |_region| scheduler_by_name(spec, SEED, 1).expect("known spec"),
        jobs,
        SimParams::default(),
        config,
        SEED,
        threads,
    )
    .run()
}

/// The armed intake used by the service benchmarks: tight enough that the
/// overloaded diurnal trace actually exercises throttling and rejection.
fn bench_admission() -> AdmissionPolicy {
    AdmissionPolicy {
        throttle_watermark: 24,
        queue_capacity: 96,
        throttle_delay_s: 60.0,
        max_throttle_attempts: 3,
    }
}

fn bench_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/disciplines_1k_fragmented");
    group.sample_size(10);
    let jobs = fragmented_jobs(if cfg!(debug_assertions) { 200 } else { 1_000 });
    group.throughput(Throughput::Elements(jobs.len() as u64));
    for spec in [
        "speed",
        "backfill+speed",
        "conservative+speed",
        "priority:sjf+speed",
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(spec), &spec, |b, &s| {
            b.iter(|| run_spec(s, jobs.clone()).summary.t_sim)
        });
    }
    group.finish();

    // The same trace under the failure scenario: the loop now pays for
    // lease revocation, reservation repair and retry resubmission.
    let mut group = c.benchmark_group("sched/faulty_1k_fragmented");
    group.sample_size(10);
    group.throughput(Throughput::Elements(jobs.len() as u64));
    for spec in ["speed", "backfill+speed", "conservative+speed"] {
        group.bench_with_input(BenchmarkId::from_parameter(spec), &spec, |b, &s| {
            b.iter(|| run_spec_with_faults(s, jobs.clone()).summary.t_sim)
        });
    }
    group.finish();

    write_sched_json();
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/service_open_system");
    group.sample_size(10);
    let n = if cfg!(debug_assertions) { 150 } else { 500 };
    let jobs = diurnal_arrivals(n, 0.08, 0.8, 3_600.0, 5, SEED);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("service_diurnal", n), |b| {
        b.iter(|| {
            run_service(
                vec![ibm_fleet(SEED)],
                "backfill+speed",
                jobs.clone(),
                ServiceConfig {
                    admission: bench_admission(),
                    routing: RoutingPolicy::LeastLoaded,
                },
            )
            .report
            .sim_seconds
        })
    });
    group.finish();
}

fn bench_fleet_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/fleet_scale_120dev");
    group.sample_size(10);
    let n = if cfg!(debug_assertions) {
        1_000
    } else {
        20_000
    };
    let jobs = bimodal_arrivals(n, 0.25, 4, SEED);
    group.throughput(Throughput::Elements(n as u64));
    for spec in ["speed", "backfill+speed"] {
        group.bench_with_input(BenchmarkId::new(spec, n), &spec, |b, &s| {
            b.iter(|| run_spec_on(fleet_120(), s, jobs.clone()).summary.t_sim)
        });
    }
    group.finish();
}

/// Measures the discipline, service, fleet-scale and RL scenarios
/// directly, recording to `BENCH_sched.json` at the repository root.
fn write_sched_json() {
    if cfg!(debug_assertions) {
        // Unoptimised numbers would corrupt the tracked perf trajectory;
        // only measure from `cargo bench` (release) builds.
        return;
    }
    // Discipline comparisons (deterministic — single runs, not
    // timing-sensitive): FIFO vs EASY vs conservative on the bimodal
    // trace, then EASY vs conservative with maintenance windows carving
    // capacity out of the busy period.
    let frag = fragmented_jobs(1_000);
    let fifo = run_spec("speed", frag.clone());
    let easy = run_spec("backfill+speed", frag.clone());
    let cons = run_spec("conservative+speed", frag.clone());
    let fifo_util = fifo.mean_device_utilization();
    let easy_util = easy.mean_device_utilization();

    let windows = maintenance_windows();
    let m_easy = run_spec_with_windows("backfill+speed", frag.clone(), &windows);
    let m_cons = run_spec_with_windows("conservative+speed", frag.clone(), &windows);

    // Failure-heavy runs of the same trace: two unplanned crashes plus a
    // 5% execution-failure rate (see `failure_scenario`).
    let f_fifo = run_spec_with_faults("speed", frag.clone());
    let f_easy = run_spec_with_faults("backfill+speed", frag.clone());
    let f_cons = run_spec_with_faults("conservative+speed", frag);

    let quality = |res: &RunResult| -> (QosReport, String) {
        let q = QosReport::from_records(&res.records, DeadlinePolicy::default());
        let s = format!(
            "{{ \"t_sim\": {:.2}, \"mean_wait\": {:.2}, \"mean_utilization\": {:.4}, \
             \"queue_jumps\": {}, \"wait_p99\": {:.2}, \"wait_max\": {:.2}, \
             \"mean_slowdown\": {:.3}, \"jain_fairness\": {:.4}, \"bypass_max\": {} }}",
            res.summary.t_sim,
            res.summary.mean_wait,
            res.mean_device_utilization(),
            res.telemetry.out_of_order,
            q.wait_p99,
            q.wait_max,
            q.mean_slowdown,
            q.fairness_jain,
            q.bypass_max,
        );
        (q, s)
    };
    // Ratios normalised so > 1 means conservative wins.
    let versus =
        |easy: &RunResult, cons: &RunResult, q_easy: &QosReport, q_cons: &QosReport| -> String {
            format!(
                "{{ \"makespan_ratio\": {:.4}, \"wait_p99_ratio\": {:.4}, \
             \"slowdown_ratio\": {:.4}, \"jain_ratio\": {:.4} }}",
                easy.summary.t_sim / cons.summary.t_sim,
                q_easy.wait_p99 / q_cons.wait_p99,
                q_easy.mean_slowdown / q_cons.mean_slowdown,
                q_cons.fairness_jain / q_easy.fairness_jain,
            )
        };
    let (q_easy, s_easy) = quality(&easy);
    let (q_cons, s_cons) = quality(&cons);
    let (_, s_fifo) = quality(&fifo);
    let bimodal_vs = versus(&easy, &cons, &q_easy, &q_cons);
    let (qm_easy, sm_easy) = quality(&m_easy);
    let (qm_cons, sm_cons) = quality(&m_cons);
    let maint_vs = versus(&m_easy, &m_cons, &qm_easy, &qm_cons);

    // Fault-era rollup: goodput/retry/waste per discipline, plus the
    // recovery overhead (faulty vs fault-free makespan — the price of two
    // outages and the retry churn).
    let faulty = |res: &RunResult| -> String {
        assert!(
            res.records.iter().all(|r| r.terminal()),
            "faulty bench run left a non-terminal job"
        );
        let q = QosReport::from_records(&res.records, DeadlinePolicy::default());
        format!(
            "{{ \"t_sim\": {:.2}, \"goodput\": {:.4}, \"retry_rate\": {:.4}, \
             \"wasted_qubit_s\": {:.1}, \"jobs_exhausted\": {}, \"mean_wait\": {:.2} }}",
            res.summary.t_sim,
            q.goodput,
            q.retry_rate,
            q.wasted_qubit_s,
            q.jobs_exhausted,
            res.summary.mean_wait,
        )
    };
    let (sf_fifo, sf_easy, sf_cons) = (faulty(&f_fifo), faulty(&f_easy), faulty(&f_cons));

    // Service-mode sections. `service_1k`: an overloaded diurnal trace
    // (offered rate ~2.4x the sustainable one) through the armed intake on
    // one region — decision-latency tails, sustained jobs/s and the
    // admission verdict mix. Best-of-3 keeps the wall-clock tails honest
    // on a noisy host; the record stream is identical across repeats.
    let svc_jobs = diurnal_arrivals(1_000, 0.08, 0.8, 3_600.0, 5, SEED);
    let svc_run = || {
        run_service(
            vec![ibm_fleet(SEED)],
            "backfill+speed",
            svc_jobs.clone(),
            ServiceConfig {
                admission: bench_admission(),
                routing: RoutingPolicy::LeastLoaded,
            },
        )
    };
    let mut svc = svc_run();
    for _ in 0..2 {
        let again = svc_run();
        if again.report.decision_latency.p99_us < svc.report.decision_latency.p99_us {
            svc = again;
        }
    }
    svc.verify_complete(&svc_jobs)
        .expect("service_1k must account every submitted job");
    assert!(svc.report.admission.conserves());
    let svc_throttle_waits = svc.shards[0].telemetry.waits_admission_throttled;
    let s_service = format!(
        "{{ \"jobs\": 1000, \"regions\": 1, \"decide_calls\": {}, \"decide_p50_us\": {:.2}, \
         \"decide_p99_us\": {:.2}, \"sustained_jobs_per_sec\": {:.1}, \"accepted\": {}, \
         \"rejected\": {}, \"throttle_events\": {}, \"throttled_then_admitted\": {}, \
         \"waits_admission_throttled\": {svc_throttle_waits}, \"complete\": true }}",
        svc.shards[0].telemetry.decisions,
        svc.report.decision_latency.p50_us,
        svc.report.decision_latency.p99_us,
        svc.report.sustained_jobs_per_sec,
        svc.report.admission.accepted,
        svc.report.admission.rejected(),
        svc.report.admission.throttle_events,
        svc.report.admission.throttled_then_admitted,
    );

    // `sharded_4x`: the same open trace through four regional schedulers
    // vs one monolithic 20-device scheduler — per-decide cost scaling
    // (shorter queues, smaller fleets) plus the completeness proof.
    let shard_jobs = diurnal_arrivals(1_000, 0.1, 0.8, 3_600.0, 5, SEED ^ 0x5A);
    let open = || ServiceConfig {
        admission: AdmissionPolicy::open(),
        routing: RoutingPolicy::LeastLoaded,
    };
    let mono_fleet: Vec<DeviceProfile> = regional_fleet(4, SEED).into_iter().flatten().collect();
    let best_mean = |mk: &dyn Fn() -> ServiceOutcome| {
        let mut best = mk();
        for _ in 0..2 {
            let again = mk();
            if again.report.decision_latency.mean_us < best.report.decision_latency.mean_us {
                best = again;
            }
        }
        best
    };
    let mono = best_mean(&|| {
        run_service(
            vec![mono_fleet.clone()],
            "backfill+speed",
            shard_jobs.clone(),
            open(),
        )
    });
    let sharded = best_mean(&|| {
        run_service(
            regional_fleet(4, SEED),
            "backfill+speed",
            shard_jobs.clone(),
            open(),
        )
    });
    let sharded_complete = sharded.verify_complete(&shard_jobs).is_ok();
    let sharded_conserved = sharded.report.admission.conserves();
    let decide_scaling =
        mono.report.decision_latency.mean_us / sharded.report.decision_latency.mean_us;

    // Wall-clock scaling: the honest number for the threaded engine. A
    // heavier open trace (4k jobs, ~4× the load above) runs on one and on
    // 4 worker threads with hash routing, which gives every shard a kernel
    // of its own, so this measures real thread-level speedup. Least-loaded
    // routing keeps every shard on one kernel and so one worker (the
    // service module's "Kernel layout" docs). The record streams must stay
    // bit-identical; only the wall clock moves.
    // Best-of-3 per thread count; recorded alongside `host_cores` so the
    // bench_guard floor applies only where ≥ 4 cores can actually help.
    let wall_threads = 4usize;
    let wall_jobs = diurnal_arrivals(4_000, 0.4, 0.8, 3_600.0, 5, SEED ^ 0xA5);
    let hash_open = || ServiceConfig {
        admission: AdmissionPolicy::open(),
        routing: RoutingPolicy::Hash,
    };
    let best_wall = |mk: &dyn Fn() -> ServiceOutcome| -> (f64, ServiceOutcome) {
        let mut t0 = Instant::now();
        let mut out = mk();
        let mut best = t0.elapsed().as_secs_f64();
        for _ in 0..2 {
            t0 = Instant::now();
            out = mk();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, out)
    };
    let (seq_wall, seq_out) = best_wall(&|| {
        run_service(
            regional_fleet(4, SEED),
            "backfill+speed",
            wall_jobs.clone(),
            hash_open(),
        )
    });
    let (par_wall, par_out) = best_wall(&|| {
        run_service_parallel(
            regional_fleet(4, SEED),
            "backfill+speed",
            wall_jobs.clone(),
            hash_open(),
            wall_threads,
        )
    });
    for (i, (a, b)) in seq_out.shards.iter().zip(&par_out.shards).enumerate() {
        assert_eq!(
            a.records, b.records,
            "{wall_threads} threads diverged from one on shard {i} in the wall-clock bench"
        );
    }
    let wall_speedup = seq_wall / par_wall;

    let s_sharded = format!(
        "{{ \"jobs\": 1000, \"regions\": 4, \"complete\": {sharded_complete}, \
         \"conserved\": {sharded_conserved}, \"mono_decide_mean_us\": {:.2}, \
         \"sharded_decide_mean_us\": {:.2}, \"decide_cost_scaling\": {decide_scaling:.3}, \
         \"mono_decide_p99_us\": {:.2}, \"sharded_decide_p99_us\": {:.2}, \
         \"sustained_jobs_per_sec\": {:.1}, \"host_cores\": {}, \
         \"wall_clock_jobs\": {}, \"wall_clock_routing\": \"hash\", \
         \"wall_clock_threads\": {wall_threads}, \"seq_wall_ms\": {:.2}, \
         \"par_wall_ms\": {:.2}, \"wall_clock_speedup\": {wall_speedup:.3} }}",
        mono.report.decision_latency.mean_us,
        sharded.report.decision_latency.mean_us,
        mono.report.decision_latency.p99_us,
        sharded.report.decision_latency.p99_us,
        sharded.report.sustained_jobs_per_sec,
        qcs_bench::cli::host_cores(),
        wall_jobs.len(),
        seq_wall * 1e3,
        par_wall * 1e3,
    );

    // `fleet_scale`: the incremental-core stress section. A 100k-job
    // bimodal stream over a 120-device fleet measures sustained
    // scheduler-loop throughput and allocator pressure (allocations per
    // job, counted by this binary's global allocator); a 10k-deep
    // backlogged queue on the same fleet measures conservative's decide
    // throughput — what the incremental profile/timeline split exists to
    // defend (a full availability rebuild per consult held it around 0.03×
    // EASY's) — and records its ratio to EASY's.
    let fleet = fleet_120();
    let stream_100k = bimodal_arrivals(100_000, 0.25, 4, SEED);
    let timed = |spec: &str, jobs: &[QJob]| -> (f64, f64, RunResult) {
        let a0 = allocations();
        let t0 = Instant::now();
        let res = run_spec_on(fleet.clone(), spec, jobs.to_vec());
        let dt = t0.elapsed().as_secs_f64();
        let per_job = (allocations() - a0) as f64 / jobs.len() as f64;
        (jobs.len() as f64 / dt, per_job, res)
    };
    let (fs_fifo_jps, fs_fifo_apj, fs_fifo) = timed("speed", &stream_100k);
    let (fs_easy_jps, fs_easy_apj, fs_easy) = timed("backfill+speed", &stream_100k);
    let deep = batch_at_zero(10_000, &JobDistribution::default(), SEED);
    let (deep_easy_jps, _, _) = timed("backfill+speed", &deep);
    let (deep_cons_jps, _, _) = timed("conservative+speed", &deep);
    let deep_ratio = deep_cons_jps / deep_easy_jps;
    let s_fleet = format!(
        "{{ \"jobs\": 100000, \"devices\": {}, \
         \"fifo_speed\": {{ \"jobs_per_sec\": {fs_fifo_jps:.0}, \"allocs_per_job\": {fs_fifo_apj:.1}, \"t_sim\": {:.0} }}, \
         \"backfill_speed\": {{ \"jobs_per_sec\": {fs_easy_jps:.0}, \"allocs_per_job\": {fs_easy_apj:.1}, \"t_sim\": {:.0} }}, \
         \"deep_10k\": {{ \"easy_jobs_per_sec\": {deep_easy_jps:.0}, \"conservative_jobs_per_sec\": {deep_cons_jps:.0}, \"conservative_vs_easy\": {deep_ratio:.4} }} }}",
        fleet.len(),
        fs_fifo.summary.t_sim,
        fs_easy.summary.t_sim,
    );

    // `rl_sched`: the queue-deep RL scheduler — PPO trained on the real
    // scheduler loop (`SchedulerEnv`), checkpointed, reloaded through the
    // `rl:<path>` spec surface (the same `scheduler_by_name` every harness
    // uses), and raced against the static disciplines on the same bimodal
    // and maintenance traces as above. The training budget is bench-sized
    // (seconds, not a training farm), and the numbers are recorded
    // honestly — including the metrics where conservative still wins.
    let t_train = Instant::now();
    let env_cfg = SchedEnvConfig::default();
    let rl_timesteps: u64 = 8_192;
    let train_envs: Vec<Box<dyn Env>> = (0..4)
        .map(|_| {
            Box::new(SchedulerEnv::new(
                &ibm_fleet(SEED),
                SimParams::default(),
                env_cfg.clone(),
            )) as Box<dyn Env>
        })
        .collect();
    let mut rl_envs = VecEnv::sequential(train_envs);
    let mut ppo = Ppo::new(
        env_cfg.obs.obs_dim(),
        env_cfg.obs.action_dim(),
        PpoConfig {
            n_steps: 256,
            seed: SEED,
            ..PpoConfig::default()
        },
    );
    ppo.learn(&mut rl_envs, rl_timesteps);
    let train_seconds = t_train.elapsed().as_secs_f64();
    let ck_path = std::env::temp_dir()
        .join("qcs_bench_sched")
        .join("rl_sched_policy.json");
    SchedCheckpoint::new(env_cfg.obs.clone(), &env_cfg.placement, ppo.ac.clone())
        .save(&ck_path)
        .expect("write rl_sched checkpoint");
    let rl_spec = format!("rl:{}", ck_path.display());
    let rl_bim = run_spec(&rl_spec, fragmented_jobs(1_000));
    let rl_maint = run_spec_with_windows(&rl_spec, fragmented_jobs(1_000), &windows);
    let rl_completed = rl_bim.records.iter().all(|r| r.finished())
        && rl_maint.records.iter().all(|r| r.finished());
    let (q_rl, s_rl) = quality(&rl_bim);
    let (qm_rl, sm_rl) = quality(&rl_maint);
    let (q_fifo, _) = quality(&fifo);
    // Ratios normalised so > 1 means the RL scheduler wins.
    let rl_vs = |other: &RunResult, q_other: &QosReport, rl: &RunResult, q_rl: &QosReport| {
        format!(
            "{{ \"makespan_ratio\": {:.4}, \"wait_p99_ratio\": {:.4}, \
             \"slowdown_ratio\": {:.4}, \"jain_ratio\": {:.4} }}",
            other.summary.t_sim / rl.summary.t_sim,
            q_other.wait_p99 / q_rl.wait_p99,
            q_other.mean_slowdown / q_rl.mean_slowdown,
            q_rl.fairness_jain / q_other.fairness_jain,
        )
    };
    let rl_vs_fifo = rl_vs(&fifo, &q_fifo, &rl_bim, &q_rl);
    let rl_vs_easy = rl_vs(&easy, &q_easy, &rl_bim, &q_rl);
    let rl_vs_cons = rl_vs(&cons, &q_cons, &rl_bim, &q_rl);
    let rl_m_vs_cons = rl_vs(&m_cons, &qm_cons, &rl_maint, &qm_rl);
    let s_rl_sched = format!(
        "{{\n    \"timesteps\": {rl_timesteps},\n    \"train_seconds\": {train_seconds:.1},\n    \
         \"completed\": {rl_completed},\n    \"bimodal\": {s_rl},\n    \
         \"maintenance\": {sm_rl},\n    \"bimodal_vs_fifo\": {rl_vs_fifo},\n    \
         \"bimodal_vs_easy\": {rl_vs_easy},\n    \"bimodal_vs_conservative\": {rl_vs_cons},\n    \
         \"maintenance_vs_conservative\": {rl_m_vs_cons}\n  }}"
    );

    let json = format!(
        "{{\n  \"bench\": \"sched_loop\",\n  \"fragmented_1k\": {{\n    \"fifo_speed\": {s_fifo},\n    \"backfill_speed\": {s_easy},\n    \"conservative_speed\": {s_cons},\n    \"makespan_improvement\": {:.4},\n    \"utilization_improvement\": {:.4},\n    \"conservative_vs_easy\": {bimodal_vs}\n  }},\n  \"maintenance_1k\": {{\n    \"windows\": {},\n    \"backfill_speed\": {sm_easy},\n    \"conservative_speed\": {sm_cons},\n    \"conservative_vs_easy\": {maint_vs}\n  }},\n  \"faulty_1k\": {{\n    \"crashes\": 2,\n    \"exec_fail_prob\": 0.05,\n    \"fifo_speed\": {sf_fifo},\n    \"backfill_speed\": {sf_easy},\n    \"conservative_speed\": {sf_cons},\n    \"recovery_makespan_overhead\": {:.4}\n  }},\n  \"rl_sched\": {s_rl_sched},\n  \"service_1k\": {s_service},\n  \"sharded_4x\": {s_sharded},\n  \"fleet_scale\": {s_fleet}\n}}\n",
        fifo.summary.t_sim / easy.summary.t_sim,
        easy_util / fifo_util,
        windows.len(),
        f_cons.summary.t_sim / cons.summary.t_sim,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    }
    println!(
        "sched loop: backfill makespan x{:.3}, utilization x{:.3}; \
         conservative vs EASY slowdown x{:.3}, jain x{:.3} \
         (maintenance: slowdown x{:.3}, jain x{:.3}); \
         faulty conservative goodput {:.3}, recovery overhead x{:.3}; \
         service decide p99 {:.1} µs at {:.0} sustained jobs/s; \
         sharded decide-cost scaling x{decide_scaling:.2}, wall-clock \
         x{wall_speedup:.2} at {wall_threads} threads \
         (seq {:.1} ms, par {:.1} ms, hash routing); \
         fleet_scale 100k/120dev: fifo {fs_fifo_jps:.0} jobs/s \
         ({fs_fifo_apj:.0} allocs/job), easy {fs_easy_jps:.0} jobs/s \
         ({fs_easy_apj:.0} allocs/job), deep-10k conservative/EASY \
         x{deep_ratio:.3} \
         -> BENCH_sched.json",
        fifo.summary.t_sim / easy.summary.t_sim,
        easy_util / fifo_util,
        q_easy.mean_slowdown / q_cons.mean_slowdown,
        q_cons.fairness_jain / q_easy.fairness_jain,
        qm_easy.mean_slowdown / qm_cons.mean_slowdown,
        qm_cons.fairness_jain / qm_easy.fairness_jain,
        QosReport::from_records(&f_cons.records, DeadlinePolicy::default()).goodput,
        f_cons.summary.t_sim / cons.summary.t_sim,
        svc.report.decision_latency.p99_us,
        svc.report.sustained_jobs_per_sec,
        seq_wall * 1e3,
        par_wall * 1e3,
    );
    println!(
        "rl_sched: trained {rl_timesteps} steps in {train_seconds:.1}s; bimodal slowdown \
         vs fifo x{:.3}, vs EASY x{:.3}, vs conservative x{:.3}; maintenance vs \
         conservative x{:.3}; completed: {rl_completed}",
        q_fifo.mean_slowdown / q_rl.mean_slowdown,
        q_easy.mean_slowdown / q_rl.mean_slowdown,
        q_cons.mean_slowdown / q_rl.mean_slowdown,
        qm_cons.mean_slowdown / qm_rl.mean_slowdown,
    );
}

criterion_group!(benches, bench_disciplines, bench_service, bench_fleet_scale);
criterion_main!(benches);
