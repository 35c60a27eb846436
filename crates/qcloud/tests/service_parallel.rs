//! Thread-count identity: the service engine
//! ([`qcs_qcloud::ParallelServiceHarness`]) must produce **bit-identical**
//! outcomes at every worker-thread count, and the one-thread
//! [`qcs_qcloud::ServiceHarness`] is the reference — per-shard record
//! streams, scheduler telemetry, utilisation, admission accounting,
//! routing spread and kernel event counts — at every shard count and
//! routing policy, with and without an armed fault script.
//!
//! The grid test pins the full {1,2,4} shards × {1,2,4} threads ×
//! {hash, least-loaded, affinity} cross product deterministically; the
//! proptest walks random admission bands, disciplines and traffic over
//! the same axes; the golden test re-derives the pinned sharded-diurnal
//! fingerprint on two threads.

use proptest::prelude::*;
use qcs_calibration::{regional_fleet, DeviceProfile};
use qcs_qcloud::jobgen::{diurnal_arrivals, poisson_arrivals};
use qcs_qcloud::policies::scheduler_by_name;
use qcs_qcloud::{
    AdmissionPolicy, FaultScript, FinalStatus, JobDistribution, ParallelServiceHarness, QJob,
    RetryPolicy, RoutingPolicy, ServiceConfig, ServiceHarness, ServiceOutcome, SimParams,
};

const DISCIPLINES: [&str; 4] = [
    "speed",
    "backfill+speed",
    "conservative+fair",
    "priority:sjf+speed",
];

const ROUTINGS: [RoutingPolicy; 3] = [
    RoutingPolicy::Hash,
    RoutingPolicy::LeastLoaded,
    RoutingPolicy::Affinity,
];

/// Two-device regions keep test cases fast; capacity 254 per region.
fn small_regions(regions: usize, seed: u64) -> Vec<Vec<DeviceProfile>> {
    regional_fleet(regions, seed)
        .into_iter()
        .map(|mut f| {
            f.truncate(2);
            f
        })
        .collect()
}

/// Jobs that fit a 254-qubit region (splitting across its two devices).
fn small_dist() -> JobDistribution {
    JobDistribution {
        qubits: (50, 200),
        depth: (5, 12),
        shots: (10_000, 40_000),
        t2_density: (0.15, 0.35),
    }
}

fn sequential(
    regions: Vec<Vec<DeviceProfile>>,
    spec: &str,
    jobs: Vec<QJob>,
    config: ServiceConfig,
    seed: u64,
) -> ServiceOutcome {
    let spec = spec.to_string();
    ServiceHarness::new(
        regions,
        move |_region| scheduler_by_name(&spec, seed, 1).unwrap(),
        jobs,
        SimParams::default(),
        config,
        seed,
    )
    .run()
}

fn parallel(
    regions: Vec<Vec<DeviceProfile>>,
    spec: &str,
    jobs: Vec<QJob>,
    config: ServiceConfig,
    seed: u64,
    threads: usize,
) -> ServiceOutcome {
    let spec = spec.to_string();
    ParallelServiceHarness::new(
        regions,
        move |_region| scheduler_by_name(&spec, seed, 1).unwrap(),
        jobs,
        SimParams::default(),
        config,
        seed,
        threads,
    )
    .run()
}

/// Same fingerprint as the sequential suite: FNV-1a over the per-shard
/// record streams, covering placement, timing, verdicts and throttles.
fn fingerprint(outcome: &ServiceOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    for (i, s) in outcome.shards.iter().enumerate() {
        mix(0x5AD ^ i as u64);
        for r in &s.records {
            mix(r.job_id.0);
            mix(r.arrival.to_bits());
            mix(r.start.to_bits());
            mix(r.finish.to_bits());
            mix(r.fidelity.to_bits());
            mix(r.throttled as u64);
            mix(match r.final_status {
                FinalStatus::Pending => 0,
                FinalStatus::Completed => 1,
                FinalStatus::RetriesExhausted => 2,
                FinalStatus::Rejected => 3,
            });
            for &(d, a) in &r.parts {
                mix(d as u64);
                mix(a);
            }
        }
    }
    h
}

/// The identity contract: everything sim-time-derived, and the kernel
/// event counts, match bit for bit. Only wall-clock outputs may differ.
fn assert_bit_identical(seq: &ServiceOutcome, par: &ServiceOutcome, label: &str) {
    assert_eq!(seq.shards.len(), par.shards.len(), "{label}: shard count");
    for (i, (a, b)) in seq.shards.iter().zip(&par.shards).enumerate() {
        assert_eq!(a.records, b.records, "{label}: shard {i} record stream");
        assert_eq!(a.telemetry, b.telemetry, "{label}: shard {i} telemetry");
        assert_eq!(
            a.device_utilization, b.device_utilization,
            "{label}: shard {i} utilization"
        );
        assert_eq!(
            a.events_processed, b.events_processed,
            "{label}: shard {i} kernel events"
        );
    }
    assert_eq!(
        seq.report.events_processed, par.report.events_processed,
        "{label}: kernel events"
    );
    assert_eq!(
        seq.report.admission, par.report.admission,
        "{label}: admission accounting"
    );
    assert_eq!(
        seq.report.routed_per_shard, par.report.routed_per_shard,
        "{label}: routing spread"
    );
    assert_eq!(
        seq.merged_by_termination(),
        par.merged_by_termination(),
        "{label}: merged terminal stream"
    );
    assert_eq!(fingerprint(seq), fingerprint(par), "{label}: fingerprint");
}

/// The full ISSUE grid, deterministically: {1,2,4} shards × {1,2,4}
/// worker threads × all three routing policies, with an admission band
/// tight enough to exercise throttling and rejection on every axis.
#[test]
fn parallel_matches_sequential_across_grid() {
    let seed = 4242;
    for shards in [1usize, 2, 4] {
        let jobs = poisson_arrivals(40, 0.05, &small_dist(), seed ^ shards as u64);
        for routing in ROUTINGS {
            let config = ServiceConfig {
                admission: AdmissionPolicy {
                    throttle_watermark: 2,
                    queue_capacity: 8,
                    throttle_delay_s: 45.0,
                    max_throttle_attempts: 2,
                },
                routing,
            };
            let seq = sequential(
                small_regions(shards, seed),
                "backfill+speed",
                jobs.clone(),
                config,
                seed,
            );
            seq.verify_complete(&jobs).unwrap();
            for threads in [1usize, 2, 4] {
                let par = parallel(
                    small_regions(shards, seed),
                    "backfill+speed",
                    jobs.clone(),
                    config,
                    seed,
                    threads,
                );
                par.verify_complete(&jobs).unwrap();
                // Least-loaded routing shares one kernel; the others give
                // every shard its own.
                let kernels = if routing.needs_load_feedback() {
                    1
                } else {
                    shards
                };
                assert_eq!(par.report.worker_threads, threads.min(kernels));
                let busy = if kernels == shards { shards } else { 0 };
                assert_eq!(par.report.shard_busy_s.len(), busy);
                assert_bit_identical(
                    &seq,
                    &par,
                    &format!("{shards} shards / {threads} threads / {routing}"),
                );
            }
        }
    }
}

/// Two worker threads re-derive the one-thread suite's pinned golden
/// fingerprint (`service_proptests::sharded_diurnal_golden_fingerprint`)
/// — same trace, same armed intake, least-loaded routing on the shared
/// kernel.
#[test]
fn parallel_reproduces_sharded_diurnal_golden() {
    const GOLDEN_SHARDED_DIURNAL: u64 = 11643465090471230075;
    let seed = 2025;
    let jobs = diurnal_arrivals(120, 0.05, 0.8, 3_600.0, 5, seed);
    let config = ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 3,
            queue_capacity: 9,
            throttle_delay_s: 45.0,
            max_throttle_attempts: 2,
        },
        routing: RoutingPolicy::LeastLoaded,
    };
    let outcome = parallel(
        regional_fleet(2, seed),
        "backfill+speed",
        jobs.clone(),
        config,
        seed,
        2,
    );
    outcome.verify_complete(&jobs).unwrap();
    assert_eq!(
        fingerprint(&outcome),
        GOLDEN_SHARDED_DIURNAL,
        "two-thread run diverged from the golden fingerprint"
    );
}

/// Crash outages and execution faults ride on their shard's kernel: a
/// scripted fault run is bit-identical across thread counts in both
/// kernel layouts (one kernel per shard under hash routing, one shared
/// kernel under least-loaded routing).
#[test]
fn parallel_matches_sequential_under_faults() {
    let seed = 77;
    let jobs = poisson_arrivals(30, 0.02, &small_dist(), seed);
    let script = FaultScript::new(seed)
        .with_crash(0, 97.3, 400.0)
        .with_crash(1, 1_403.7, 250.0)
        .with_exec_failures(0.15);
    let retry = RetryPolicy {
        max_attempts: 4,
        ..RetryPolicy::default()
    };
    for routing in [RoutingPolicy::LeastLoaded, RoutingPolicy::Hash] {
        let config = ServiceConfig {
            admission: AdmissionPolicy {
                throttle_watermark: 3,
                queue_capacity: 12,
                throttle_delay_s: 60.0,
                max_throttle_attempts: 3,
            },
            routing,
        };
        let mut seq_h = ServiceHarness::new(
            small_regions(2, seed),
            |_| scheduler_by_name("backfill+speed", seed, 1).unwrap(),
            jobs.clone(),
            SimParams::default(),
            config,
            seed,
        );
        seq_h.install_faults(&script, retry);
        let seq = seq_h.run();
        seq.verify_complete(&jobs).unwrap();
        assert!(
            seq.shards
                .iter()
                .flat_map(|s| &s.records)
                .any(|r| r.attempts > 1 || r.wasted_qubit_s > 0.0),
            "fault script must actually bite for this test to mean anything"
        );
        for threads in [1usize, 2] {
            let mut par_h = ParallelServiceHarness::new(
                small_regions(2, seed),
                |_| scheduler_by_name("backfill+speed", seed, 1).unwrap(),
                jobs.clone(),
                SimParams::default(),
                config,
                seed,
                threads,
            );
            par_h.install_faults(&script, retry);
            let par = par_h.run();
            par.verify_complete(&jobs).unwrap();
            assert_bit_identical(
                &seq,
                &par,
                &format!("faults / {routing} / {threads} threads"),
            );
        }
    }
}

/// A shard's own kernel resumes its intake only at that shard's
/// arrivals: a shard that is routed no job runs the same few kernel
/// events however long the rest of the trace is.
#[test]
fn idle_shard_kernel_work_does_not_grow_with_the_trace() {
    let seed = 5;
    // Region 1 keeps one 127-qubit device; every job is larger, so hash
    // routing sends the whole trace to region 0.
    let mut regions = regional_fleet(2, seed);
    regions[1].truncate(1);
    let dist = JobDistribution {
        qubits: (130, 250),
        ..small_dist()
    };
    let idle_events = |n: usize| {
        let jobs = poisson_arrivals(n, 0.02, &dist, seed);
        let config = ServiceConfig {
            admission: AdmissionPolicy::open(),
            routing: RoutingPolicy::Hash,
        };
        let out = parallel(regions.clone(), "speed", jobs.clone(), config, seed, 2);
        out.verify_complete(&jobs).unwrap();
        assert_eq!(out.report.routed_per_shard, vec![n as u64, 0]);
        out.shards[1].events_processed
    };
    assert_eq!(idle_events(10), idle_events(40));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random traffic, admission bands and disciplines over the shard ×
    /// thread × routing axes: no thread count diverges from the
    /// one-thread reference.
    #[test]
    fn parallel_is_bit_identical_to_sequential(
        seed in 1u64..10_000,
        n in 15usize..35,
        rate in 0.005f64..0.15,
        shards_i in 0usize..3,
        threads_i in 0usize..3,
        watermark in 0usize..4,
        extra_capacity in 1usize..6,
        delay in 10.0f64..200.0,
        attempts in 0u32..4,
        disc in 0usize..DISCIPLINES.len(),
        routing in 0usize..ROUTINGS.len(),
    ) {
        let shards = [1usize, 2, 4][shards_i];
        let threads = [1usize, 2, 4][threads_i];
        let jobs = poisson_arrivals(n, rate, &small_dist(), seed);
        let config = ServiceConfig {
            admission: AdmissionPolicy {
                throttle_watermark: watermark,
                queue_capacity: watermark + extra_capacity,
                throttle_delay_s: delay,
                max_throttle_attempts: attempts,
            },
            routing: ROUTINGS[routing],
        };
        let seq = sequential(small_regions(shards, seed), DISCIPLINES[disc],
            jobs.clone(), config, seed);
        let par = parallel(small_regions(shards, seed), DISCIPLINES[disc],
            jobs.clone(), config, seed, threads);
        prop_assert!(par.verify_complete(&jobs).is_ok(),
            "completeness violated: {:?}", par.verify_complete(&jobs));
        prop_assert_eq!(seq.shards.len(), par.shards.len());
        for (sa, sb) in seq.shards.iter().zip(&par.shards) {
            prop_assert_eq!(&sa.records, &sb.records, "record stream diverged");
            prop_assert_eq!(sa.telemetry, sb.telemetry);
        }
        prop_assert_eq!(seq.report.admission, par.report.admission);
        prop_assert_eq!(&seq.report.routed_per_shard, &par.report.routed_per_shard);
        prop_assert_eq!(seq.report.events_processed, par.report.events_processed);
        prop_assert_eq!(fingerprint(&seq), fingerprint(&par));
    }
}
