//! # qcs-qcloud — the quantum cloud scheduling framework
//!
//! The primary contribution of Luo et al. (ICPP 2025), re-implemented in
//! Rust: a discrete-event simulation of a quantum cloud whose jobs *exceed
//! the qubit capacity of any single QPU* and must be partitioned across
//! several devices connected by real-time classical communication.
//!
//! ## Architecture (paper §3)
//!
//! * [`job::QJob`] — a quantum job `(q, d, s, t₂)` with an arrival time;
//! * [`device::QDevice`] — a QPU with qubit capacity, coupling map, CLOPS,
//!   quantum volume and calibration-derived error rates;
//! * [`cloud::QCloud`] — the fleet of registered devices;
//! * [`broker::Broker`] — the per-job device-selection policy interface,
//!   with the paper's four policies in [`policies`] (speed,
//!   error-aware/fidelity, fair, RL) plus round-robin and random baselines;
//! * [`sched::Scheduler`] — the queue-aware scheduling layer: batch
//!   decisions over the whole pending queue against an incrementally
//!   maintained [`sched::CloudState`], with the paper's FIFO discipline as
//!   [`sched::FifoAdapter`] and EASY backfilling / priority disciplines as
//!   alternatives (composable by name, e.g. `backfill+speed`);
//! * [`model`] — the closed-form execution-time (Eq. 3), fidelity
//!   (Eqs. 4–8) and communication (Eq. 9) models;
//! * [`records::JobRecordsManager`] — lifecycle events and summary metrics;
//! * [`simenv::QCloudSimEnv`] — orchestration: arrival process, scheduler
//!   loop, atomic multi-device reservation, parallel execution,
//!   inter-device communication, release;
//! * [`service`] — the open-system front end: admission-controlled intake,
//!   region-sharded fleets behind a routing layer, and wall-clock
//!   decision-latency / sustained-throughput metrics;
//! * [`gym::QCloudGymEnv`] — the Gymnasium-style single-step training
//!   environment of §4.1 (16-dim state, 5-dim continuous action);
//! * [`rlsched::SchedulerEnv`] — the queue-deep scheduling environment:
//!   the agent *is* the scheduler, observing the pending-queue window plus
//!   per-device state and picking which job to dispatch next. Each episode
//!   runs on the simulation engine itself and each step answers one
//!   consult of its scheduler, so training sees exactly the consults that
//!   [`rlsched::RlSchedScheduler`] answers when a trained checkpoint is
//!   deployed through an `rl:<path>` spec in any harness.

#![warn(missing_docs)]

pub mod broker;
pub mod cloud;
pub mod config;
pub mod cutting;
pub mod device;
pub mod faults;
pub mod gym;
pub mod inline_vec;
pub mod job;
pub mod jobgen;
pub mod maintenance;
pub mod model;
pub mod partition;
pub mod policies;
pub mod records;
pub mod rlsched;
pub mod sched;
pub mod service;
pub mod simenv;
pub mod sla;

pub use broker::{AllocationPlan, Broker, CloudView, DeviceView, Parts};
pub use cloud::QCloud;
pub use config::SimParams;
pub use cutting::{
    realtime_comm_outcome, CircuitLocality, CommOutcome, CuttingExecModel, CuttingOutcome,
    FragmentSite,
};
pub use device::{DeviceId, QDevice};
pub use faults::{
    AvoidSet, CrashEvent, DeviceAvoidingBroker, FaultInjector, FaultScript, RetryPolicy,
};
pub use gym::{GymConfig, QCloudGymEnv};
pub use inline_vec::InlineVec;
pub use job::{JobDistribution, JobId, QJob};
pub use maintenance::{MaintenanceCalendar, MaintenanceWindow};
pub use model::comm::CommModel;
pub use model::exec_time::ExecTimeModel;
pub use model::fidelity::{FidelityModel, FidelityModelKind};
pub use records::{FinalStatus, JobRecord, JobRecordsManager, SummaryStats};
pub use rlsched::{
    episode_objective, RewardWeights, RlSchedScheduler, SchedCheckpoint, SchedEnvConfig,
    SchedObsConfig, SchedulerEnv,
};
pub use sched::{
    BackfillScheduler, CloudState, ConservativeBackfillScheduler, Dispatch, FifoAdapter,
    PriorityDiscipline, PriorityScheduler, SchedTelemetry, Scheduler, SchedulingDecision,
    SnapshotAdapter, WaitReason,
};
pub use service::{
    AdmissionDecision, AdmissionPolicy, AdmissionTelemetry, LatencySummary, ParallelServiceHarness,
    RejectReason, RoutingPolicy, ServiceConfig, ServiceHarness, ServiceOutcome, ServiceReport,
};
pub use simenv::QCloudSimEnv;
pub use sla::{bounded_slowdown, jain_fairness, percentile, slowdown, DeadlinePolicy, QosReport};
