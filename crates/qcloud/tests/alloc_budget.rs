//! Heap allocations per job on the dispatch → execute → release cycle.
//!
//! A counting global allocator tallies the allocations made by the test
//! thread while a run executes, and each workload must stay at or below
//! its per-job budget. Both runs stay on the calling thread: the service
//! runs at one worker thread, which is the caller. The counts are
//! deterministic (same code, same inputs), so a budget trips only when a
//! change starts allocating per job again, for example by collecting a
//! device order, a partition or a replay buffer into a fresh `Vec`.
//!
//! The budgets sit a little above the counts measured when they were set
//! (noted on each constant); the cycle allocated about 81 and 234 per job
//! on these two workloads before the per-job path stopped allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qcs_calibration::{ibm_fleet, regional_fleet};
use qcs_qcloud::jobgen::{bimodal_arrivals, diurnal_arrivals};
use qcs_qcloud::policies::scheduler_by_name;
use qcs_qcloud::{
    AdmissionPolicy, FaultScript, ParallelServiceHarness, QCloudSimEnv, RetryPolicy, RoutingPolicy,
    ServiceConfig, SimParams,
};

/// The system allocator, counting the allocations of threads that opted
/// in.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its output with the allocations this thread made
/// meanwhile (`realloc` counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const JOBS: usize = 5_000;
const SEED: u64 = 3;

/// Budget for the faulty service run (measured 5.15 per job).
const SERVICE_BUDGET_PER_JOB: f64 = 6.0;
/// Budget for the overloaded batch EASY run (measured 4.70 per job).
const BATCH_BUDGET_PER_JOB: f64 = 5.5;

/// The armed, hash-routed four-region service of the repository
/// benchmark (its admission band, crash script and retry policy) on a
/// shorter diurnal trace, at one worker thread.
#[test]
fn faulty_sharded_service_stays_within_its_allocation_budget() {
    let jobs = diurnal_arrivals(JOBS, 0.05, 0.8, 3_600.0, 5, SEED);
    let config = ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 24,
            queue_capacity: 96,
            throttle_delay_s: 60.0,
            max_throttle_attempts: 3,
        },
        routing: RoutingPolicy::Hash,
    };
    let mut harness = ParallelServiceHarness::new(
        regional_fleet(4, SEED),
        |_| scheduler_by_name("backfill+speed", SEED, 1).unwrap(),
        jobs.clone(),
        SimParams::default(),
        config,
        SEED,
        1,
    );
    let script = FaultScript::new(SEED)
        .with_crash(0, 50_000.0, 20_000.0)
        .with_crash(2, 300_000.0, 20_000.0)
        .with_exec_failures(0.02);
    let retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };
    harness.install_faults(&script, retry);
    let (outcome, allocs) = counted(|| harness.run());
    outcome.verify_complete(&jobs).unwrap();
    let retries: u32 = outcome
        .shards
        .iter()
        .flat_map(|s| &s.records)
        .map(|r| r.attempts.saturating_sub(1))
        .sum();
    assert!(retries > 0, "the fault script must force retries");
    let per_job = allocs as f64 / JOBS as f64;
    assert!(
        per_job <= SERVICE_BUDGET_PER_JOB,
        "service run allocated {per_job:.2} times per job (budget {SERVICE_BUDGET_PER_JOB})"
    );
}

/// Batch EASY backfilling on a bimodal trace that overloads the
/// five-device fleet, so each decide scans deep behind a blocked head.
#[test]
fn overloaded_batch_backfill_stays_within_its_allocation_budget() {
    let env = QCloudSimEnv::with_scheduler(
        ibm_fleet(SEED),
        scheduler_by_name("backfill+speed", SEED, 1).unwrap(),
        bimodal_arrivals(JOBS, 0.1, 4, SEED),
        SimParams::default(),
        SEED,
    );
    let (res, allocs) = counted(|| env.run());
    assert_eq!(res.summary.jobs_finished, JOBS);
    assert!(
        res.telemetry.waits_backfill_hold > 0,
        "the trace must keep a blocked head for backfilling"
    );
    let per_job = allocs as f64 / JOBS as f64;
    assert!(
        per_job <= BATCH_BUDGET_PER_JOB,
        "batch run allocated {per_job:.2} times per job (budget {BATCH_BUDGET_PER_JOB})"
    );
}
