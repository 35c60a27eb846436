//! Bit-exact parity between the queue-aware scheduler redesign and the
//! seed's consult-per-job FIFO loop.
//!
//! The golden fingerprints below were captured from the **pre-redesign**
//! scheduler (the seed's `Scheduler` coroutine: per-consult `CloudView`
//! rebuild from per-device qubit containers, head-of-line scanning, one
//! dispatch per consult) across every policy and a spread of workload
//! shapes. Both new paths must reproduce them exactly:
//!
//! * [`QCloudSimEnv::new`] — every [`Broker`] ported through
//!   [`FifoAdapter`] over the incremental `CloudState`;
//! * [`SnapshotAdapter`] — the seed mechanics kept as a test oracle in
//!   `tests/common` (one dispatch per decision, snapshot clone per
//!   consult).
//!
//! The fingerprint folds every field of every [`JobRecord`] — start,
//! execution end, finish, fidelity, communication delay, partition — at
//! full `f64` bit precision (FNV-1a over `to_bits`), so any divergence in
//! dispatch order, device choice, or timing arithmetic fails loudly.

mod common;

use common::SnapshotAdapter;
use qcs_calibration::ibm_fleet;
use qcs_qcloud::jobgen::{batch_at_zero, bimodal_arrivals, poisson_arrivals};
use qcs_qcloud::policies::{by_name, scheduler_by_name};
use qcs_qcloud::records::JobRecord;
use qcs_qcloud::{FifoAdapter, JobDistribution, QCloudSimEnv, QJob, SimParams};

fn fingerprint(records: &[JobRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for r in records {
        mix(r.job_id.0);
        mix(r.start.to_bits());
        mix(r.exec_end.to_bits());
        mix(r.finish.to_bits());
        mix(r.fidelity.to_bits());
        mix(r.comm_seconds.to_bits());
        for &(d, a) in &r.parts {
            mix(d as u64);
            mix(a);
        }
    }
    h
}

const POLICIES: [&str; 8] = [
    "speed",
    "fidelity",
    "fair",
    "roundrobin",
    "random",
    "minfrag",
    "hybrid",
    "hybrid-strict",
];

struct Case {
    name: &'static str,
    seed: u64,
    /// Golden fingerprints in `POLICIES` order, captured from the seed
    /// scheduler at commit 303b295.
    goldens: [u64; 8],
}

const CASES: [Case; 5] = [
    Case {
        name: "batch40",
        seed: 7,
        goldens: [
            0xd50a6b7727e9b826,
            0xbc27a8c2efc3f55d,
            0x162029b5df98c850,
            0x240a3854d3543af4,
            0xfe3457dfa26c07da,
            0xb38e3d5aa5078286,
            0xcd3bdf9806a35026,
            0xbc27a8c2efc3f55d,
        ],
    },
    Case {
        name: "poisson30",
        seed: 13,
        goldens: [
            0xf8ff4d454f1238c4,
            0x4f943bfcce8586cf,
            0xe477d3164f556b68,
            0x1b624e5c20ad6c4a,
            0xb1e979291867e430,
            0xe9383f141afebd3f,
            0x4e9a1ca0ed32068b,
            0x4f943bfcce8586cf,
        ],
    },
    Case {
        name: "backfill60",
        seed: 23,
        goldens: [
            0x552e659a7e83764b,
            0x79a18852a2b3e3d0,
            0xb03851f02ac7b1ce,
            0xdf0db36b8e41b70f,
            0x9eb46ba8e870d4ed,
            0x73ab4ff5ad4d601d,
            0x53fc43bf92f08b56,
            0x79a18852a2b3e3d0,
        ],
    },
    Case {
        name: "mixed50",
        seed: 31,
        goldens: [
            0xdede35db83c2b33b,
            0x7a895e6c42c12d3c,
            0xb02950efb1624595,
            0x5e9d5de0bea13eef,
            0x3ff4c4079ddfb516,
            0x619bcf34d900bbeb,
            0xe4908cdf25cf803f,
            0x7a895e6c42c12d3c,
        ],
    },
    Case {
        name: "atjobend30",
        seed: 41,
        goldens: [
            0xfec581d34bd49bf8,
            0x3f206d2bed596592,
            0x79e52c229956983c,
            0x9c46ffcc5e4e817e,
            0xe0a74c38d37f151b,
            0x702f03b0d8438690,
            0x54961d8e999985a8,
            0x3f206d2bed596592,
        ],
    },
];

fn workload(case: &Case) -> (Vec<QJob>, SimParams) {
    let dist = JobDistribution::default();
    match case.name {
        "batch40" => (batch_at_zero(40, &dist, case.seed), SimParams::default()),
        "poisson30" => (
            poisson_arrivals(30, 0.002, &dist, case.seed),
            SimParams::default(),
        ),
        "backfill60" => (
            batch_at_zero(60, &dist, case.seed),
            SimParams {
                backfill_depth: 4,
                ..SimParams::default()
            },
        ),
        "mixed50" => {
            let mixed = JobDistribution {
                qubits: (20, 250),
                ..JobDistribution::default()
            };
            (
                poisson_arrivals(50, 0.005, &mixed, case.seed),
                SimParams {
                    backfill_depth: 2,
                    ..SimParams::default()
                },
            )
        }
        "atjobend30" => (
            batch_at_zero(30, &dist, case.seed),
            SimParams {
                release: qcs_qcloud::config::ReleasePolicy::AtJobEnd,
                ..SimParams::default()
            },
        ),
        other => panic!("unknown case {other}"),
    }
}

#[test]
fn fifo_adapter_reproduces_seed_records_bit_for_bit() {
    for case in &CASES {
        let (jobs, params) = workload(case);
        for (pi, pol) in POLICIES.iter().enumerate() {
            let env = QCloudSimEnv::new(
                ibm_fleet(case.seed),
                by_name(pol, case.seed).unwrap(),
                jobs.clone(),
                params.clone(),
                case.seed,
            );
            let res = env.run();
            assert_eq!(res.summary.jobs_unfinished, 0, "{}/{pol}", case.name);
            assert_eq!(
                fingerprint(&res.records),
                case.goldens[pi],
                "{}/{pol}: FifoAdapter diverged from the seed scheduler",
                case.name
            );
        }
    }
}

#[test]
fn snapshot_oracle_reproduces_seed_records_bit_for_bit() {
    for case in &CASES {
        let (jobs, params) = workload(case);
        for (pi, pol) in POLICIES.iter().enumerate() {
            let window = params.backfill_depth + 1;
            let env = QCloudSimEnv::with_scheduler(
                ibm_fleet(case.seed),
                Box::new(SnapshotAdapter::new(
                    by_name(pol, case.seed).unwrap(),
                    window,
                )),
                jobs.clone(),
                params.clone(),
                case.seed,
            );
            let res = env.run();
            assert_eq!(
                fingerprint(&res.records),
                case.goldens[pi],
                "{}/{pol}: SnapshotAdapter diverged from the seed scheduler",
                case.name
            );
        }
    }
}

#[test]
fn fifo_adapter_and_snapshot_oracle_agree_on_fresh_workloads() {
    // Beyond the pinned cases: the two paths must agree on workloads the
    // goldens never saw (catches golden-table staleness).
    for seed in [101u64, 202, 303] {
        let jobs = poisson_arrivals(25, 0.004, &JobDistribution::default(), seed);
        for pol in POLICIES {
            let params = SimParams::default();
            let a = QCloudSimEnv::new(
                ibm_fleet(seed),
                by_name(pol, seed).unwrap(),
                jobs.clone(),
                params.clone(),
                seed,
            )
            .run();
            let b = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(SnapshotAdapter::new(by_name(pol, seed).unwrap(), 1)),
                jobs.clone(),
                params,
                seed,
            )
            .run();
            assert_eq!(a.records, b.records, "{pol}@{seed}");
        }
    }
}

#[test]
fn snapshot_adapter_single_steps() {
    use qcs_qcloud::policies::SpeedBroker;
    use qcs_qcloud::sched::{CloudState, DeviceSpec, Scheduler};
    use qcs_qcloud::JobId;
    let specs: Vec<DeviceSpec> = (0..5)
        .map(|i| DeviceSpec {
            capacity: 127,
            error_score: 0.01 + i as f64 * 0.001,
            clops: 220_000.0 - i as f64 * 10_000.0,
            qv_layers: 7.0,
        })
        .collect();
    let state = CloudState::new(&specs, &SimParams::default());
    let queue: Vec<QJob> = (0..2)
        .map(|i| QJob {
            id: JobId(i),
            num_qubits: 190,
            depth: 10,
            num_shots: 50_000,
            two_qubit_gates: 500,
            arrival_time: 0.0,
        })
        .collect();
    let mut s = SnapshotAdapter::new(Box::new(SpeedBroker::new()), 1);
    let d = s.decide(&queue, &state);
    assert_eq!(d.dispatches.len(), 1);
    assert_eq!(d.wait, None, "snapshot adapter asks for a re-consult");
}

/// Golden fingerprints for the conservative-backfilling discipline on the
/// bimodal head-of-line-blocking scenario (the `sched` bench workload).
/// Captured at the commit that introduced `ConservativeBackfillScheduler`;
/// any refactor of the reservation timeline, the compression pass, or the
/// admission rule that silently changes dispatch order fails here loudly.
///
/// The kernel event counts are pinned too. Each of the 300 dispatched
/// attempts and each of its sub-executors (576 under speed, 575 under
/// fair) is spawned straight into its timeout, so none spends an event on
/// a zero-delay first resume: 2,422 = 3,298 − 300 − 576 and
/// 2,408 = 3,283 − 300 − 575 (the counts with one such event each).
#[test]
fn conservative_backfill_bimodal_fingerprints_pinned() {
    let jobs = bimodal_arrivals(300, 0.1, 4, 7);
    for (spec, golden, events) in [
        ("conservative+speed", 0x37809333fa41e82au64, 2_422u64),
        ("conservative+fair", 0xada53bc32d0629b8u64, 2_408),
    ] {
        let env = QCloudSimEnv::with_scheduler(
            ibm_fleet(7),
            scheduler_by_name(spec, 7, 1).expect("known spec"),
            jobs.clone(),
            SimParams::default(),
            7,
        );
        let res = env.run();
        assert_eq!(res.summary.jobs_unfinished, 0, "{spec}");
        assert!(
            res.telemetry.out_of_order > 0,
            "{spec}: the bimodal trace must exercise backfilling"
        );
        assert_eq!(
            fingerprint(&res.records),
            golden,
            "{spec}: conservative dispatch stream changed on the pinned scenario"
        );
        assert_eq!(res.events_processed, events, "{spec}: kernel event count");
    }
}

#[test]
fn fifo_adapter_window_matches_simparams_backfill_depth() {
    // `QCloudSimEnv::new` must translate `backfill_depth` into the adapter
    // window exactly as the seed loop scanned `backfill_depth + 1` slots.
    let jobs = batch_at_zero(30, &JobDistribution::default(), 77);
    let params = SimParams {
        backfill_depth: 3,
        ..SimParams::default()
    };
    let a = QCloudSimEnv::new(
        ibm_fleet(77),
        by_name("speed", 77).unwrap(),
        jobs.clone(),
        params.clone(),
        77,
    )
    .run();
    let b = QCloudSimEnv::with_scheduler(
        ibm_fleet(77),
        Box::new(FifoAdapter::new(by_name("speed", 77).unwrap(), 4)),
        jobs,
        params,
        77,
    )
    .run();
    assert_eq!(a.records, b.records);
}

/// FNV-1a over the `to_bits` of every `(device, utilisation)` pair, in
/// device order — so any change to which change points feed the
/// time-weighted qubit level, or to the integration arithmetic, fails.
fn utilization_fingerprint<'a>(
    util: impl IntoIterator<Item = &'a (String, f64)>,
    seed: u64,
) -> u64 {
    let mut h = seed;
    for (name, u) in util {
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= u.to_bits();
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One batch scenario of the utilisation golden: a discipline, an optional
/// fault script, an optional maintenance window.
fn utilization_run(
    spec: &str,
    release: qcs_qcloud::config::ReleasePolicy,
    faults: bool,
    maintenance: bool,
) -> qcs_qcloud::simenv::RunResult {
    let seed = 19;
    let mixed = JobDistribution {
        qubits: (20, 250),
        ..JobDistribution::default()
    };
    let jobs = poisson_arrivals(60, 0.01, &mixed, seed);
    let params = SimParams {
        release,
        ..SimParams::default()
    };
    let mut env = QCloudSimEnv::with_scheduler(
        ibm_fleet(seed),
        scheduler_by_name(spec, seed, 1).expect("known spec"),
        jobs,
        params,
        seed,
    );
    if faults {
        env.install_faults(
            &qcs_qcloud::FaultScript::new(seed)
                .with_crash(1, 400.0, 900.0)
                .with_exec_failures(0.05),
            qcs_qcloud::RetryPolicy {
                max_attempts: 6,
                ..qcs_qcloud::RetryPolicy::default()
            },
        );
    }
    if maintenance {
        env.schedule_maintenance(qcs_qcloud::MaintenanceWindow {
            device: 2,
            start: 300.0,
            duration: 1_500.0,
        });
    }
    env.run()
}

/// Pins the bits of every per-device utilisation figure. The record
/// fingerprints above cover dispatch and timing but not
/// `RunResult::device_utilization`, which is integrated separately from
/// the qubit ledger's change points; this golden makes a change to that
/// ledger (or to where utilisation is read) fail loudly.
#[test]
fn device_utilization_bits_pinned() {
    use qcs_qcloud::config::ReleasePolicy;

    let mut h: u64 = 0xcbf29ce484222325;
    for release in [ReleasePolicy::PerDevice, ReleasePolicy::AtJobEnd] {
        for (spec, faults, maintenance) in [
            ("speed", false, false),
            ("fidelity", false, false),
            ("backfill+speed", true, false),
            ("conservative+speed", false, true),
        ] {
            let res = utilization_run(spec, release, faults, maintenance);
            assert!(
                res.records.iter().all(|r| r.terminal()),
                "{spec}/{release:?}: non-terminal job"
            );
            assert!(
                !faults || res.records.iter().any(|r| r.attempts > 1),
                "{spec}/{release:?}: the fault script must bite"
            );
            h = utilization_fingerprint(&res.device_utilization, h);
        }
    }
    assert_eq!(
        h, 0xc8edf4abb401e956,
        "batch device utilisation bits changed"
    );

    // The 4-region hash-routed service run with faults, on one and on two
    // worker threads: each must reproduce the same pinned bits.
    for threads in [1, 2] {
        let out = faulty_hash_service(threads);
        let bits = out.shards.iter().fold(0xcbf29ce484222325u64, |h, s| {
            utilization_fingerprint(&s.device_utilization, h)
        });
        assert_eq!(
            bits, 0x332f1a367a7285bd,
            "service utilisation bits changed on {threads} thread(s)"
        );
    }
}

/// Pins the record streams of [`device_utilization_bits_pinned`]'s service
/// run, shard by shard in region order: placement and every timing. A
/// shard's intake resumes only at that shard's arrivals, and builds each
/// resume clock `now + (arrival − now)` exactly as the batch generator
/// does; job 25 is dispatched at that clock, one ulp below its arrival
/// timestamp.
#[test]
fn service_record_bits_pinned() {
    for threads in [1, 2] {
        let out = faulty_hash_service(threads);
        let bits = out.shards.iter().fold(0xcbf29ce484222325u64, |h, s| {
            (h ^ fingerprint(&s.records)).wrapping_mul(0x100000001b3)
        });
        assert_eq!(
            bits, 0xbfb84e32e2444a52,
            "service record bits changed on {threads} thread(s)"
        );
    }
}

/// One 4-region hash-routed service run with a crash and execution
/// failures, checked complete and checked to actually hit a fault.
fn faulty_hash_service(threads: usize) -> qcs_qcloud::ServiceOutcome {
    use qcs_calibration::regional_fleet;
    use qcs_qcloud::{
        AdmissionPolicy, FaultScript, ParallelServiceHarness, RetryPolicy, RoutingPolicy,
        ServiceConfig, ServiceHarness,
    };

    let seed = 23;
    let dist = JobDistribution {
        qubits: (20, 300),
        ..JobDistribution::default()
    };
    let jobs = poisson_arrivals(120, 0.04, &dist, seed);
    let script = FaultScript::new(seed)
        .with_crash(0, 150.0, 600.0)
        .with_exec_failures(0.05);
    let retry = RetryPolicy {
        max_attempts: 4,
        ..RetryPolicy::default()
    };
    let config = ServiceConfig {
        admission: AdmissionPolicy::open(),
        routing: RoutingPolicy::Hash,
    };
    let make = |_| scheduler_by_name("backfill+speed", seed, 1).unwrap();
    let params = SimParams::default();
    let out = if threads == 1 {
        let mut h = ServiceHarness::new(
            regional_fleet(4, seed),
            make,
            jobs.clone(),
            params,
            config,
            seed,
        );
        h.install_faults(&script, retry);
        h.run()
    } else {
        let mut h = ParallelServiceHarness::new(
            regional_fleet(4, seed),
            make,
            jobs.clone(),
            params,
            config,
            seed,
            threads,
        );
        h.install_faults(&script, retry);
        h.run()
    };
    out.verify_complete(&jobs).expect("complete service run");
    assert!(
        out.shards
            .iter()
            .flat_map(|s| &s.records)
            .any(|r| r.attempts > 1),
        "the service fault script must bite"
    );
    out
}
