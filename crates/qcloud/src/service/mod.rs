//! # Service-mode front end: open traffic over sharded scheduler loops
//!
//! Every other harness in this repo is a *closed batch replay*: the whole
//! job vector is materialised up front, the same intake releases it under
//! an admission policy that accepts everything, and the run ends when the
//! backlog drains. This module turns the same scheduler disciplines into a
//! long-running *open system* — the ROADMAP's production-service north
//! star — with three cleanly separated layers:
//!
//! * **Intake** ([`AdmissionPolicy`], [`AdmissionTelemetry`]) — the front
//!   door. Each arriving job is offered against the target shard's
//!   pending-queue depth and deterministically **accepted**, **throttled**
//!   (parked in a backoff coroutine and re-offered, at most
//!   `max_throttle_attempts` times) or **rejected with a reason**
//!   ([`RejectReason`]), ending as
//!   [`crate::records::FinalStatus::Rejected`]. Admission never loses a
//!   job silently: `accepted + rejected == submitted` is a checked
//!   invariant, and rejected/throttled jobs stay visible in the records
//!   (`throttled` counter, CSV `final_status` column). The scheduler side
//!   shows up as [`crate::sched::WaitReason::AdmissionThrottled`] when its
//!   queue is empty *because* the intake is holding work back.
//!
//! * **Scheduler loop** (per shard) — unchanged from the batch
//!   environment: the same `SchedulerProc` drives any
//!   [`crate::sched::Scheduler`] discipline over the shard's pending
//!   queue, unwrapped. The engine itself wall-clocks a fixed 1-in-16
//!   sample of a service shard's `decide` calls (decides 0, 16, 32, …)
//!   into a log-bucketed histogram the shard owns
//!   ([`qcs_desim::LogHistogram`]; no lock, no per-call allocation), and
//!   teardown merges the shards' histograms, so a run reports
//!   decision-latency p50/p99 ([`LatencySummary`]: count, mean and max
//!   exact over the sample, p50/p99 within 1/64 ≈ 1.6% of an order
//!   statistic next to the interpolated percentile) and sustained jobs/s
//!   alongside the sim-time QoS numbers. The exact decide count is each
//!   shard's `telemetry.decisions`. Timings never feed back into the
//!   simulation — the record stream remains bit-for-bit seed-replayable.
//!
//! * **Router** ([`RoutingPolicy`]) — the fleet front. Devices are
//!   partitioned into *regions*, one scheduler instance per region (each
//!   region keeps its own [`crate::cloud::QCloud`] and qubit ledger in its
//!   shard state; the kernel holds no capacity).
//!   The router releases arrivals at their timestamps, filters regions
//!   that can hold the job at all, and picks one by hash, least-loaded or
//!   affinity policy; only then does admission run against that shard. On
//!   partitionable traces the sharded system provably produces a
//!   complete, conservation-respecting terminal job set
//!   ([`ServiceOutcome::verify_complete`] plus the per-shard teardown
//!   assertion), pinned by proptests and a golden fingerprint.
//!
//! [`ParallelServiceHarness`] is the engine that wires the three layers
//! together; [`ServiceHarness`] is the same engine on one thread.
//! [`ServiceOutcome`]/[`ServiceReport`] carry per-shard
//! [`crate::simenv::RunResult`]s plus the service-level metrics.
//!
//! # Kernel layout
//!
//! The routing policy picks the layout
//! ([`RoutingPolicy::needs_load_feedback`]):
//!
//! * **Least-loaded routing** reads live queue depths at every arrival, so
//!   every shard and the router share **one** kernel at any thread count.
//!   Shards on kernels of their own would have to meet at a barrier at
//!   every routing instant. An earlier epoch-barrier backend did exactly
//!   that: on `serve --jobs 200000 --regions 4 --seed 7` on a 2-core host
//!   it took about 6 s on two threads, against 1.4 s on one kernel.
//! * **Hash and affinity routing** read only the job and the static fleet
//!   shape. The whole stream is routed up front and every shard gets a
//!   kernel of its own, whose intake resumes only at that shard's
//!   arrivals. The kernels run on `min(threads, regions)` scoped threads.
//!
//! **Why results cannot depend on the thread count.** The layout is a
//! function of the routing policy alone. Each kernel owns its world — its
//! shards' state and its intake's admission counters — and that world is
//! reachable only from the thread running the kernel, so a per-shard
//! kernel replays the same events whichever worker runs it. Across kernels
//! there are only the read-only job stream and the admission counters,
//! summed at teardown. `threads` moves the wall-clock outputs
//! (`wall_seconds`, decision latencies, `shard_busy_s`) and nothing else,
//! pinned at 1, 2 and 4 threads by `tests/service_parallel.rs`. Fault injection is
//! shard-local: crash and retry coroutines run on their shard's kernel
//! ([`ParallelServiceHarness::install_faults`]).

mod admission;
mod harness;
mod latency;
mod router;

pub use admission::{AdmissionDecision, AdmissionPolicy, AdmissionTelemetry, RejectReason};
pub(crate) use harness::RouterProc;
pub use harness::{
    ParallelServiceHarness, ServiceConfig, ServiceHarness, ServiceOutcome, ServiceReport,
};
pub use latency::LatencySummary;
pub use router::{RoutingPolicy, ShardLoad};
