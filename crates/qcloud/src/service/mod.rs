//! # Service-mode front end: open traffic over sharded scheduler loops
//!
//! Every other harness in this repo is a *closed batch replay*: the whole
//! job vector is materialised up front, a generator releases it, and the
//! run ends when the backlog drains. This module turns the same scheduler
//! disciplines into a long-running *open system* — the ROADMAP's
//! production-service north star — with three cleanly separated layers:
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
//!   queue. The service layer wraps each discipline in an
//!   [`InstrumentedScheduler`] that wall-clocks every `decide` call, so a
//!   run reports decision-latency p50/p99 ([`LatencySummary`]) and
//!   sustained jobs/s alongside the sim-time QoS numbers. Timings never
//!   feed back into the simulation — the record stream remains
//!   bit-for-bit seed-replayable.
//!
//! * **Router** ([`RoutingPolicy`]) — the fleet front. Devices are
//!   partitioned into *regions*, one scheduler instance per region, all
//!   hosted on **one** `qcs-desim` kernel (each region keeps its own
//!   [`crate::cloud::QCloud`] and qubit ledger in its shard state; the
//!   kernel holds no capacity).
//!   The router releases arrivals at their timestamps, filters regions
//!   that can hold the job at all, and picks one by hash, least-loaded or
//!   affinity policy; only then does admission run against that shard. On
//!   partitionable traces the sharded system provably produces a
//!   complete, conservation-respecting terminal job set
//!   ([`ServiceOutcome::verify_complete`] plus the per-shard teardown
//!   assertion), pinned by proptests and a golden fingerprint.
//!
//! [`ServiceHarness`] wires the three layers together;
//! [`ServiceOutcome`]/[`ServiceReport`] carry per-shard
//! [`crate::simenv::RunResult`]s plus the service-level metrics.
//!
//! # Threading model
//!
//! Two interchangeable backends produce **bit-identical** outcomes:
//!
//! * [`ServiceHarness`] — every region shard and the router share one
//!   kernel; sim time is globally serialized. The reference semantics.
//! * [`ParallelServiceHarness`] — one kernel **per region shard**, each
//!   on a dedicated OS worker thread (shard `i` → worker `i % threads`,
//!   so results are independent of the thread count). The arrival stream
//!   is partitioned and fed to the shard kernels; terminal records merge
//!   back in a fixed `(sim_time, job_id)` order
//!   ([`ServiceOutcome::merged_by_termination`]).
//!
//! **Epoch length vs. routing fidelity.** The synchronization granularity
//! is dictated by how much cross-shard state the routing policy reads
//! ([`RoutingPolicy::needs_load_feedback`]). Stateless policies (hash,
//! affinity) admit an *unbounded* epoch: placement is a pure function of
//! the job and the static fleet shape, so shards free-run to completion
//! and the wall-clock speedup approaches the shard count. Least-loaded
//! routing reads live queue depths at every arrival instant, so each
//! routing instant is its own epoch boundary: every shard kernel is
//! paused at exactly that sim time (`Simulation::run_epoch`'s
//! clock-pinning barrier) before the coordinator snapshots loads and
//! places the batch. That preserves routing fidelity perfectly — the
//! snapshot a parallel run routes against is bit-identical to the
//! sequential one — at the price of a barrier per arrival batch;
//! load-fed routing therefore parallelizes the shard *work* but not the
//! routing *decisions*, and its speedup is bounded by how much execution
//! happens between arrivals.
//!
//! **Determinism.** The kernel orders events by `(time, seq)`; shard
//! state is touched only by that shard's coroutines plus the intake.
//! Both parallel modes replay every intake action at the same sim time
//! and in the same per-shard relative order as the sequential router
//! (see `parallel`'s module docs for the full argument), and intake
//! resume clocks are produced by the same `SimTime` float arithmetic, so
//! every record timestamp matches to the last ulp.
//!
//! **Why cross-epoch kills are safe.** Fault injection interacts with
//! the barriers through PR 8's slab kernel: process and event handles are
//! generation-checked, so a `CrashProc` firing in a later epoch against
//! executor pids recorded in an earlier one is a checked no-op when those
//! processes already retired — never a use-after-free of a recycled slot. Crash, retry and lease-revocation machinery is
//! entirely shard-local, so it rides inside each shard's kernel
//! unchanged ([`ParallelServiceHarness::install_faults`]).

mod admission;
mod harness;
mod latency;
mod parallel;
mod router;

pub use admission::{AdmissionDecision, AdmissionPolicy, AdmissionTelemetry, RejectReason};
pub use harness::{ServiceConfig, ServiceHarness, ServiceOutcome, ServiceReport};
pub use latency::{InstrumentedScheduler, LatencySamples, LatencySummary};
pub use parallel::ParallelServiceHarness;
pub use router::{RoutingPolicy, ShardLoad};
