//! Chaos harness: random fault scripts across every scheduling discipline.
//!
//! `tests/scheduler_proptests.rs` pins the fault-free invariants; this
//! suite drives the fault-injection subsystem ([`qcs_qcloud::faults`])
//! with randomised crash/execution-failure scripts and checks what must
//! survive *any* failure pattern:
//!
//! * **Qubit conservation** — every run returns the fleet to full
//!   capacity. The sim asserts this at teardown once every job is
//!   terminal; crashes revoke leases and retries re-reserve, so the
//!   assert closing is itself the invariant under test.
//! * **No lost jobs** — every record ends terminal: completed (possibly
//!   after retries) or honestly retries-exhausted, never stuck pending.
//!   `finished + exhausted` must account for the whole workload.
//! * **Telemetry consistency** — completed records carry finite
//!   start/finish and `Completed`; exhausted records carry the full
//!   attempt count, `NaN` finish and non-negative wasted work; the QoS
//!   rollup (goodput, retry rate) stays within its definitional bounds.
//! * **Same-seed determinism** — an identically-scripted replay
//!   reproduces the record stream exactly (bitwise: `JobRecord` equality
//!   is `total_cmp`-based, so the `NaN` fields of exhausted jobs compare
//!   equal across replays).
//! * **Amended conservative promise** — crashes void standing start
//!   reservations (capacity vanishes from the projection), but a promise
//!   with **no failure event between decision and promised start**, for a
//!   job that needed only one attempt, still holds. This is the
//!   fault-tolerant form of the fault-free "never delays any reserved
//!   start" invariant.
//!
//! "No reservation targets an offline device" needs no explicit assert
//! here: `CloudState::reserve` panics on an offline target, and the
//! incrementally maintained `AvailabilityProfile` cannot even see a
//! crashed device — any violation aborts the run itself.
//!
//! Pinned golden fingerprints for one fixed fault script close the suite:
//! any silent change to crash sequencing, kill ordering, backoff draws or
//! retry accounting fails loudly.

use proptest::prelude::*;
use qcs_calibration::ibm_fleet;
use qcs_qcloud::config::ReleasePolicy;
use qcs_qcloud::jobgen::{batch_at_zero, poisson_arrivals};
use qcs_qcloud::policies::{by_name, scheduler_by_name};
use qcs_qcloud::sched::{ConservativeBackfillScheduler, ReservationLog};
use qcs_qcloud::{
    DeadlinePolicy, FaultScript, FinalStatus, JobDistribution, JobRecord, QCloudSimEnv, QJob,
    QosReport, RetryPolicy, SimParams,
};

/// One representative of every scheduling discipline family, plus
/// conservative backfilling under the strict fidelity broker (the policy
/// that declines capacity, so its bookings can strand an idle fleet).
const DISCIPLINES: [&str; 8] = [
    "speed",
    "fifo+fair",
    "backfill+speed",
    "conservative+speed",
    "priority:sjf+speed",
    "priority:edf+fair",
    "priority:aging+fair",
    "conservative+fidelity",
];

/// A saturating workload: all-at-zero guarantees in-flight work for any
/// crash instant in the first half of the trace.
fn workload(n: usize, seed: u64) -> Vec<QJob> {
    batch_at_zero(n, &JobDistribution::default(), seed)
}

fn faulty_env(
    spec: &str,
    jobs: Vec<QJob>,
    script: FaultScript,
    retry: RetryPolicy,
    release: ReleasePolicy,
    seed: u64,
) -> QCloudSimEnv {
    let params = SimParams {
        release,
        ..SimParams::default()
    };
    let mut env = QCloudSimEnv::with_scheduler(
        ibm_fleet(seed),
        scheduler_by_name(spec, seed, 1).unwrap(),
        jobs,
        params,
        seed,
    );
    env.install_faults(&script, retry);
    env
}

/// Builds a random script: up to two non-overlapping crashes (distinct
/// devices — same-device overlap is rejected by `validate`) plus a flat
/// execution-failure probability.
fn random_script(
    fault_seed: u64,
    crash_sel: u8,
    dev: usize,
    at: f64,
    down_for: f64,
    pfail: f64,
) -> FaultScript {
    let mut script = FaultScript::new(fault_seed).with_exec_failures(pfail);
    if crash_sel >= 1 {
        script = script.with_crash(dev % 5, at, down_for);
    }
    if crash_sel >= 2 {
        script = script.with_crash((dev + 2) % 5, at * 1.7 + 100.0, down_for * 0.6);
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation, no-lost-jobs and telemetry consistency under random
    /// fault scripts, for every discipline family and both release
    /// policies.
    #[test]
    fn chaos_conserves_qubits_and_loses_no_jobs(
        seed in 1u64..10_000,
        n in 20usize..45,
        crash_sel in 0u8..3,
        dev in 0usize..5,
        at in 0.0f64..4_000.0,
        down_for in 300.0f64..2_500.0,
        pfail in 0.0f64..0.25,
        disc_idx in 0usize..DISCIPLINES.len(),
        release_sel in 0u8..2,
    ) {
        let script = random_script(seed ^ 0xC4A0_5EED, crash_sel, dev, at, down_for, pfail);
        let retry = RetryPolicy { max_attempts: 6, ..RetryPolicy::default() };
        let release = if release_sel == 0 { ReleasePolicy::PerDevice } else { ReleasePolicy::AtJobEnd };
        let spec = DISCIPLINES[disc_idx];
        // `run()` itself asserts fleet-wide qubit conservation at teardown
        // once every record is terminal — reaching the assertions below
        // means revocation and re-reservation balanced out.
        let res = faulty_env(spec, workload(n, seed), script, retry, release, seed).run();

        prop_assert!(
            res.records.iter().all(|r| r.terminal()),
            "{spec}: non-terminal record survived the run"
        );
        let completed = res.records.iter()
            .filter(|r| r.final_status == FinalStatus::Completed).count();
        let exhausted = res.records.iter()
            .filter(|r| r.final_status == FinalStatus::RetriesExhausted).count();
        prop_assert_eq!(completed + exhausted, n, "{}: jobs lost", spec);
        prop_assert_eq!(res.summary.jobs_finished, completed, "{}: summary disagrees", spec);

        for r in &res.records {
            match r.final_status {
                FinalStatus::Completed => {
                    prop_assert!(r.start.is_finite() && r.finish.is_finite() && r.attempts >= 1,
                        "{}: completed job {:?} with unfinished fields", spec, r.job_id);
                }
                FinalStatus::RetriesExhausted => {
                    prop_assert_eq!(r.attempts, retry.max_attempts,
                        "{}: job {:?} gave up early", spec, r.job_id);
                    prop_assert!(r.finish.is_nan() && r.wasted_qubit_s >= 0.0,
                        "{}: exhausted job {:?} claims completion", spec, r.job_id);
                }
                FinalStatus::Pending | FinalStatus::Rejected => unreachable!(),
            }
            prop_assert!(r.wasted_qubit_s >= 0.0);
        }

        let qos = QosReport::from_records(&res.records, DeadlinePolicy::default());
        prop_assert!((0.0..=1.0 + 1e-9).contains(&qos.goodput),
            "{}: goodput {} outside [0, 1]", spec, qos.goodput);
        prop_assert!(qos.retry_rate >= 0.0);
        prop_assert_eq!(qos.jobs_exhausted, exhausted);
    }

    /// An identically-scripted replay reproduces the record stream
    /// bitwise — crash sequencing, kill ordering, failure draws and
    /// backoff jitter are all deterministic in the seeds.
    #[test]
    fn chaos_same_seed_replays_bit_for_bit(
        seed in 1u64..10_000,
        n in 20usize..40,
        crash_sel in 0u8..3,
        dev in 0usize..5,
        at in 0.0f64..3_000.0,
        down_for in 300.0f64..2_000.0,
        pfail in 0.0f64..0.3,
        disc_idx in 0usize..DISCIPLINES.len(),
    ) {
        let retry = RetryPolicy { max_attempts: 4, ..RetryPolicy::default() };
        let spec = DISCIPLINES[disc_idx];
        let mk = || {
            let script = random_script(seed, crash_sel, dev, at, down_for, pfail);
            faulty_env(spec, workload(n, seed), script, retry,
                ReleasePolicy::PerDevice, seed).run()
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.records, b.records, "{}: replay diverged", spec);
        prop_assert_eq!(a.summary.jobs_finished, b.summary.jobs_finished);
        prop_assert_eq!(a.events_processed, b.events_processed);
    }

    /// The amended conservative promise: a start reservation with no
    /// failure event (crash or recovery boundary) between its decision
    /// and its promised start, for a job that completed on its first
    /// attempt, still holds under fault injection. (Crashes inside the
    /// window legitimately void the promise; retried jobs' recorded
    /// start belongs to a later attempt than the promise did.)
    #[test]
    fn conservative_promises_hold_between_failure_events(
        seed in 1u64..5_000,
        n in 20usize..40,
        dev in 0usize..5,
        at in 100.0f64..4_000.0,
        down_for in 300.0f64..2_500.0,
        pfail in 0.0f64..0.15,
        policy_idx in 0usize..3,
    ) {
        let policy = ["speed", "fair", "minfrag"][policy_idx];
        let script = FaultScript::new(seed)
            .with_crash(dev % 5, at, down_for)
            .with_exec_failures(pfail);
        let boundaries = [at, at + down_for];
        let retry = RetryPolicy { max_attempts: 8, ..RetryPolicy::default() };
        let log: ReservationLog = Default::default();
        let sched = ConservativeBackfillScheduler::new(by_name(policy, seed).unwrap())
            .with_reservation_log(log.clone());
        let jobs = poisson_arrivals(n, 0.01, &JobDistribution::default(), seed);
        let mut env = QCloudSimEnv::with_scheduler(
            ibm_fleet(seed), Box::new(sched), jobs, SimParams::default(), seed,
        );
        env.install_faults(&script, retry);
        let res = env.run();
        prop_assert!(res.records.iter().all(|r| r.terminal()));

        let by_id: std::collections::HashMap<u64, &JobRecord> =
            res.records.iter().map(|r| (r.job_id.0, r)).collect();
        for p in log.lock().unwrap().iter() {
            if !p.reserved_start.is_finite() {
                continue; // unsatisfiable in every projected state: no promise
            }
            let rec = by_id[&p.job.0];
            if rec.attempts != 1 || rec.final_status != FinalStatus::Completed {
                continue; // the recorded start belongs to a later attempt
            }
            if boundaries.iter().any(|&b| p.decided_at <= b && b <= p.reserved_start) {
                continue; // a failure event voided the promise
            }
            prop_assert!(
                rec.start <= p.reserved_start + 1e-6,
                "{policy}: job {:?} started at {} past its {} promise (issued at {})",
                p.job, rec.start, p.reserved_start, p.decided_at
            );
        }
    }
}

/// Folds every lifecycle field — including the fault-era ones (attempts,
/// wasted work, final status) — at full bit precision.
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
        mix(r.attempts as u64);
        mix(r.wasted_qubit_s.to_bits());
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
    h
}

/// Golden fingerprints for one fixed fault script (a mid-trace crash of
/// the premium `ibm_brussels` device plus 10% execution failures) across
/// the discipline families. Captured at the commit that introduced fault
/// injection; any silent change to crash sequencing, victim ordering,
/// failure draws, backoff jitter or retry accounting fails here loudly.
#[test]
fn faulty_fingerprints_pinned() {
    for (spec, golden) in [
        ("speed", 0x819c2b733916a8ceu64),
        ("backfill+speed", 0x6a2f0b29392ec459u64),
        ("conservative+speed", 0x76bed1797b3b61b7u64),
        ("priority:aging+fair", 0x318d5be235017f5fu64),
    ] {
        let script = FaultScript::new(17)
            .with_crash(1, 400.0, 1_200.0)
            .with_exec_failures(0.1);
        let retry = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        let res = faulty_env(
            spec,
            workload(35, 17),
            script,
            retry,
            ReleasePolicy::PerDevice,
            17,
        )
        .run();
        assert!(res.records.iter().all(|r| r.terminal()), "{spec}");
        let retried = res.records.iter().filter(|r| r.attempts > 1).count();
        assert!(
            retried > 0,
            "{spec}: the pinned script must exercise the retry path"
        );
        assert_eq!(
            fingerprint(&res.records),
            golden,
            "{spec}: fault-era record stream changed on the pinned script \
             (got {:#018x})",
            fingerprint(&res.records)
        );
    }
}
