//! Service-mode invariants: the open-traffic intake, admission control
//! and the sharded fleet router ([`qcs_qcloud::service`]).
//!
//! * **No silent job loss** — across random admission policies, routing
//!   policies, shard counts and disciplines:
//!   `accepted + rejected == submitted`, every submitted job lands in
//!   exactly one shard's records, and every record ends terminal
//!   (completed, retries-exhausted, or honestly `Rejected`).
//! * **Seed replay** — an identically-seeded service run reproduces the
//!   per-shard record streams and intake accounting bit for bit
//!   (`JobRecord` equality is `total_cmp`-based).
//! * **Batch parity** — a single-region service with the intake wide open
//!   is the batch environment wearing a different front door: the record
//!   stream matches `QCloudSimEnv` exactly.
//! * **Sharded completeness golden** — one pinned fingerprint for a fixed
//!   two-region diurnal run: any silent change to routing order, throttle
//!   sequencing or admission verdicts fails loudly.
//! * **Every decide timed once** — the pooled decision-latency count
//!   equals the shards' decisions, and each shard's summary its own, in
//!   both kernel layouts.

use proptest::prelude::*;
use qcs_calibration::{ibm_fleet, regional_fleet, DeviceProfile};
use qcs_qcloud::jobgen::{batch_at_zero, diurnal_arrivals, poisson_arrivals};
use qcs_qcloud::policies::scheduler_by_name;
use qcs_qcloud::{
    AdmissionPolicy, FinalStatus, JobDistribution, QCloudSimEnv, QJob, RoutingPolicy,
    ServiceConfig, ServiceHarness, ServiceOutcome, SimParams,
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

/// Two-device regions keep proptest cases fast; capacity 254 per region.
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

fn service(
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

/// FNV-1a over the per-shard record streams (region order), covering the
/// fields that pin placement, timing, admission verdicts and throttle
/// counts.
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

/// A single-region service with the intake wide open replays the batch
/// environment's records exactly: the router degenerates into the batch
/// generator, and decide timing (on in service shards, off in batch)
/// never touches sim time. Every
/// routing runs, so both kernel layouts (a shard's own kernel under hash
/// and affinity, the shared kernel under least-loaded) meet the batch
/// reference.
#[test]
fn open_single_region_service_matches_batch_env() {
    let seed = 7;
    let jobs = poisson_arrivals(60, 0.01, &JobDistribution::default(), seed);
    let batch = QCloudSimEnv::with_scheduler(
        ibm_fleet(seed),
        scheduler_by_name("conservative+speed", seed, 1).unwrap(),
        jobs.clone(),
        SimParams::default(),
        seed,
    )
    .run();
    for routing in ROUTINGS {
        let outcome = service(
            vec![ibm_fleet(seed)],
            "conservative+speed",
            jobs.clone(),
            ServiceConfig {
                admission: AdmissionPolicy::open(),
                routing,
            },
            seed,
        );
        assert_eq!(outcome.shards.len(), 1);
        assert_eq!(outcome.shards[0].records, batch.records, "{routing}");
        assert_eq!(outcome.shards[0].telemetry, batch.telemetry, "{routing}");
        assert_eq!(outcome.report.admission.submitted, 60);
        assert_eq!(outcome.report.admission.accepted, 60);
        assert!(outcome.report.decision_latency.count > 0);
    }
}

/// The engine times every `decide` of a service shard exactly once: each
/// shard's latency count is its `telemetry.decisions`, and the pooled
/// count is their sum, whether the shards share one kernel (least-loaded)
/// or each run their own (hash, affinity).
#[test]
fn decision_latency_counts_every_shard_decision() {
    let seed = 5;
    let jobs = poisson_arrivals(80, 0.02, &small_dist(), seed);
    for routing in ROUTINGS {
        let outcome = service(
            small_regions(3, seed),
            "backfill+speed",
            jobs.clone(),
            ServiceConfig {
                admission: AdmissionPolicy::open(),
                routing,
            },
            seed,
        );
        let report = &outcome.report;
        assert_eq!(report.per_shard_latency.len(), outcome.shards.len());
        let mut decisions = 0;
        for (shard, lat) in outcome.shards.iter().zip(&report.per_shard_latency) {
            assert_eq!(lat.count as u64, shard.telemetry.decisions, "{routing}");
            decisions += shard.telemetry.decisions;
        }
        assert!(decisions > 0);
        assert_eq!(report.decision_latency.count as u64, decisions, "{routing}");
        let max = report
            .per_shard_latency
            .iter()
            .map(|l| l.max_us)
            .fold(0.0, f64::max);
        assert_eq!(report.decision_latency.max_us, max, "{routing}");
    }
}

/// A throttling intake defers the whole burst (eight jobs arriving at
/// t = 0): jobs are admitted only after their backoff, the scheduler's
/// idle waits are attributed to admission (not a drained queue), and
/// nothing is lost.
#[test]
fn throttled_burst_is_deferred_then_admitted() {
    let seed = 11;
    let dist = small_dist();
    let jobs: Vec<QJob> = batch_at_zero(8, &dist, seed);
    let config = ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 0, // everything throttles at least once
            queue_capacity: usize::MAX,
            throttle_delay_s: 50.0,
            max_throttle_attempts: 1,
        },
        routing: RoutingPolicy::LeastLoaded,
    };
    let outcome = service(small_regions(1, seed), "speed", jobs.clone(), config, seed);
    outcome.verify_complete(&jobs).unwrap();
    let t = &outcome.report.admission;
    assert_eq!(t.submitted, 8);
    assert_eq!(t.accepted, 8);
    assert_eq!(t.throttle_events, 8);
    assert_eq!(t.throttled_then_admitted, 8);
    assert_eq!(t.rejected(), 0);
    let shard = &outcome.shards[0];
    assert!(
        shard.telemetry.waits_admission_throttled > 0,
        "idle-under-throttle must be attributed to admission"
    );
    for r in &shard.records {
        assert_eq!(r.throttled, 1);
        // Admission delay shows up as queueing: no start before the
        // backoff expired.
        assert!(r.start >= 50.0, "job started before its throttle expired");
    }
}

/// A zero-capacity intake rejects everything — terminally, visibly.
#[test]
fn full_queue_rejects_with_reason() {
    let seed = 13;
    let jobs = poisson_arrivals(10, 0.1, &small_dist(), seed);
    let config = ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 0,
            queue_capacity: 0,
            throttle_delay_s: 10.0,
            max_throttle_attempts: 0,
        },
        routing: RoutingPolicy::Hash,
    };
    let outcome = service(small_regions(2, seed), "speed", jobs.clone(), config, seed);
    outcome.verify_complete(&jobs).unwrap();
    let t = &outcome.report.admission;
    assert_eq!(t.rejected_queue_full, 10);
    assert_eq!(t.accepted, 0);
    let rejected = outcome
        .merged_records()
        .iter()
        .filter(|r| r.final_status == FinalStatus::Rejected)
        .count();
    assert_eq!(rejected, 10);
}

/// Golden fingerprint for a fixed two-region diurnal run with an armed
/// intake: pins routing order, admission verdicts, throttle sequencing
/// and the merged terminal job set.
#[test]
fn sharded_diurnal_golden_fingerprint() {
    let seed = 2025;
    let jobs = diurnal_arrivals(120, 0.05, 0.8, 3_600.0, 5, seed);
    // 250-qubit big jobs only fit a full 5-device region: use whole fleets.
    let config = ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 3,
            queue_capacity: 9,
            throttle_delay_s: 45.0,
            max_throttle_attempts: 2,
        },
        routing: RoutingPolicy::LeastLoaded,
    };
    let outcome = service(
        regional_fleet(2, seed),
        "backfill+speed",
        jobs.clone(),
        config,
        seed,
    );
    outcome.verify_complete(&jobs).unwrap();
    assert_eq!(
        outcome.report.routed_per_shard.iter().sum::<u64>(),
        120,
        "router must account every submission"
    );
    assert_eq!(
        fingerprint(&outcome),
        GOLDEN_SHARDED_DIURNAL,
        "sharded service run diverged from its golden fingerprint"
    );
    // 795 = 997 − 73 − 129: the run dispatches 73 attempts holding 129
    // parts, and each executor and sub-executor is spawned straight into
    // its timeout, so none spends an event on a zero-delay first resume
    // (with one each, the run took 997 events).
    assert_eq!(outcome.report.events_processed, 795);
}

const GOLDEN_SHARDED_DIURNAL: u64 = 11643465090471230075;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Admission control never loses jobs silently, across random traffic,
    /// admission bands, shard counts, routing and disciplines.
    #[test]
    fn admission_conserves_jobs(
        seed in 1u64..10_000,
        n in 20usize..50,
        rate in 0.005f64..0.2,
        regions in 1usize..=3,
        watermark in 0usize..6,
        extra_capacity in 0usize..6,
        delay in 10.0f64..200.0,
        attempts in 0u32..4,
        disc in 0usize..DISCIPLINES.len(),
        routing in 0usize..ROUTINGS.len(),
    ) {
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
        let outcome = service(
            small_regions(regions, seed),
            DISCIPLINES[disc],
            jobs.clone(),
            config,
            seed,
        );
        prop_assert!(outcome.verify_complete(&jobs).is_ok(),
            "completeness violated: {:?}", outcome.verify_complete(&jobs));
        let t = &outcome.report.admission;
        prop_assert_eq!(t.submitted, n as u64);
        prop_assert!(t.conserves(), "intake leaked: {:?}", t);
        prop_assert!(t.throttled_then_admitted <= t.accepted);
        prop_assert!(t.throttled_then_admitted + t.rejected_throttled_out <= t.throttle_events,
            "every throttled-then-resolved job served at least one round: {:?}", t);
        // Cross-check the intake counters against the records themselves.
        let merged = outcome.merged_records();
        let rejected = merged.iter()
            .filter(|r| r.final_status == FinalStatus::Rejected).count() as u64;
        prop_assert_eq!(rejected, t.rejected());
        let throttled_jobs = merged.iter().filter(|r| r.throttled > 0).count() as u64;
        prop_assert!(throttled_jobs <= t.throttle_events);
        let rounds: u64 = merged.iter().map(|r| r.throttled as u64).sum();
        prop_assert_eq!(rounds, t.throttle_events);
        // Routing accounted every submission.
        prop_assert_eq!(outcome.report.routed_per_shard.iter().sum::<u64>(), n as u64);
    }

    /// Bit-for-bit seed replay of the whole service loop: records,
    /// telemetry and intake accounting.
    #[test]
    fn service_replays_bit_for_bit(
        seed in 1u64..10_000,
        n in 15usize..30,
        regions in 1usize..=3,
        watermark in 0usize..4,
        extra_capacity in 1usize..6,
        disc in 0usize..DISCIPLINES.len(),
        routing in 0usize..ROUTINGS.len(),
    ) {
        let jobs = poisson_arrivals(n, 0.05, &small_dist(), seed);
        let config = ServiceConfig {
            admission: AdmissionPolicy {
                throttle_watermark: watermark,
                queue_capacity: watermark + extra_capacity,
                throttle_delay_s: 60.0,
                max_throttle_attempts: 2,
            },
            routing: ROUTINGS[routing],
        };
        let a = service(small_regions(regions, seed), DISCIPLINES[disc],
            jobs.clone(), config, seed);
        let b = service(small_regions(regions, seed), DISCIPLINES[disc],
            jobs, config, seed);
        prop_assert_eq!(a.shards.len(), b.shards.len());
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            prop_assert_eq!(&sa.records, &sb.records, "record stream diverged");
            prop_assert_eq!(sa.telemetry, sb.telemetry);
        }
        prop_assert_eq!(a.report.admission, b.report.admission);
        prop_assert_eq!(&a.report.routed_per_shard, &b.report.routed_per_shard);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
