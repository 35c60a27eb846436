//! Queue-deep RL scheduling: the agent *is* the [`Scheduler`].
//!
//! The single-step gym ([`crate::gym::QCloudGymEnv`]) trains a *placement*
//! policy: one job, one synthetic availability snapshot, one allocation.
//! This module trains a *scheduling* policy on the real scheduler loop, so
//! the agent competes with the queue-aware disciplines (backfill,
//! conservative) on their own terms.
//!
//! ## The environment is the engine
//!
//! [`SchedulerEnv`] does not model the cloud itself: each episode is a
//! [`crate::QCloudSimEnv`] whose scheduler parks on every consult, and each
//! step answers one parked consult. The agent's pick goes through the same
//! pick → decision code the deployed [`RlSchedScheduler`] runs (its
//! `Picker`: the broker consult for the picked slot, the idle-fleet
//! fallback and the wait reason), and the decision through the engine's
//! own validate → record → reserve → execute path. A dispatch re-consults
//! at once, inside the same wake, exactly as a deployed scheduler's loop
//! continues; no kernel event runs between a consult and its answer. So a
//! training step *is* a deployed consult, bit for bit:
//! `tests/rlsched_proptests.rs` drives the environment with a policy and
//! checks the records and the consult count against the same policy
//! deployed in `QCloudSimEnv`.
//!
//! ## Observation contract
//!
//! A flat `f32` vector, every feature normalised and clamped to `[0, 1]`
//! (see [`SchedObsConfig`] for the normalisers). Layout, in order:
//!
//! | block | width | contents |
//! |---|---|---|
//! | queue window | `3·K` | per queued job (FIFO order, first `K`): qubits, wait so far, best-case execution seconds |
//! | queue pool | `3` | backlog length, total queued qubit demand / fleet capacity, mean wait |
//! | devices | `6·D` | per device: free fraction, busy fraction, mean utilisation, error score, CLOPS, offline flag |
//! | fleet | `3` | online free fraction, lease qubits releasing within the short / long lookahead horizon |
//!
//! `obs_dim = 3K + 3 + 6D + 3` ([`SchedObsConfig::obs_dim`]). The queue
//! window plus pooled aggregates follows DRLQ/QFOR-style fixed-window
//! encodings; the lease-lookahead tail is what the incremental
//! [`CloudState`] lease table gives us for free.
//!
//! **Cost.** One observation costs O(K + D + leases + saturating prefix),
//! not O(backlog). The two pooled sums (queued demand and mean wait) walk
//! the queue only until their prefix proves the feature is pinned at 1.0,
//! which on a deep backlog takes a few hundred jobs however long the queue
//! is. The mean-wait shortcut relies on the release precondition of the
//! [`Scheduler`] contract: no queued job arrives later than
//! `state.now() + RELEASE_SLACK_S`. When no prefix saturates, the walk
//! finishes the full reference sum, in the same order, so the features are
//! bit-identical to summing the whole queue either way.
//!
//! A deployed consult where no job among the first `K` fits the online
//! free qubits costs no observation and no forward pass at all: every
//! action then ends in the same wait (see the action contract), so
//! [`RlSchedScheduler`] answers it without asking the network (a quarter
//! to a third of the consults on an overloaded bimodal trace). The
//! training environment still encodes and asks the agent on every consult.
//!
//! ## Action contract
//!
//! A continuous vector of length `K + 1` ([`SchedObsConfig::action_dim`]);
//! the argmax selects what to do:
//!
//! * index `j < K`: try to dispatch the `j`-th queued job **now** through
//!   the configured placement broker (index 0 = FIFO head; `j > 0` is a
//!   queue jump and records bypass events exactly like the simulation
//!   scheduler loop). The broker is consulted only when the online free
//!   qubits can hold the picked job, the rule EASY's candidate scan
//!   follows too, so a stateful placement (the `random` RNG) draws only
//!   for picks the free qubits can hold;
//! * index `K`, an out-of-range slot, a pick the online free qubits cannot
//!   hold, or a placement refusal: **wait** until the next consult — the
//!   next time the engine wakes the scheduler with a non-empty queue (an
//!   arrival, a lease release, a job finish, a maintenance edge), not
//!   merely the next event. On an idle fleet a wait would never be woken,
//!   so the idle-fleet fallback dispatches the first placeable job in FIFO
//!   order instead.
//!
//! ## Reward contract
//!
//! Potential-based on the run telemetry: after every step the environment
//! recomputes the scalar episode objective [`episode_objective`] — a
//! slowdown / utilisation / fairness mix over the [`QosReport`] machinery
//! applied to the [`crate::records::JobRecord`] stream emitted so far —
//! and pays the *delta*. Rewards telescope, so the episode return equals
//! the objective of the final record stream; `tests/rlsched_proptests.rs`
//! pins exactly that invariant (no drift between the reward signal and the
//! telemetry the benches report).
//!
//! ## Deployment
//!
//! [`SchedCheckpoint`] wraps the trained [`qcs_rl::policy::ActorCritic`]
//! with its observation config and placement name; `rl:<path>` specs
//! pointing at such a checkpoint resolve through
//! [`crate::policies::scheduler_by_name`] to the [`RlSchedScheduler`]
//! inference adapter, so the trained agent runs in every harness
//! (table2 / fig6 / queueing / serve) exactly like any named discipline.
//!
//! [`Scheduler`]: crate::sched::Scheduler
//! [`CloudState`]: crate::sched::CloudState
//! [`QosReport`]: crate::sla::QosReport

mod adapter;
mod env;

pub use adapter::{try_load_scheduler, RlSchedScheduler, SchedCheckpoint, SCHED_CHECKPOINT_KIND};
pub use env::{SchedEnvConfig, SchedulerEnv};

use crate::job::QJob;
use crate::records::JobRecord;
use crate::sched::{CloudState, RELEASE_SLACK_S};
use crate::sla::{DeadlinePolicy, QosReport};
use serde::{Deserialize, Serialize};

/// Normalisers and window sizes for the scheduler-environment observation
/// (see the [module docs](self) for the full layout).
///
/// Serialised inside [`SchedCheckpoint`] so a deployed policy always
/// decodes observations with the exact config it was trained on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedObsConfig {
    /// Queue-window slots `K`: the first `K` pending jobs are encoded
    /// individually (and are individually addressable by the action).
    pub queue_slots: usize,
    /// Device slots `D` in the observation (≥ fleet size).
    pub max_devices: usize,
    /// Qubit-demand normaliser (largest expected job).
    pub q_norm: f64,
    /// Wait-time normaliser in seconds.
    pub wait_norm: f64,
    /// Execution-time normaliser in seconds (best-case service time).
    pub exec_norm: f64,
    /// Backlog-length normaliser.
    pub queue_len_norm: f64,
    /// CLOPS normaliser.
    pub clops_norm: f64,
    /// Short lease-lookahead horizon in seconds.
    pub lookahead_short: f64,
    /// Long lease-lookahead horizon in seconds.
    pub lookahead_long: f64,
}

impl Default for SchedObsConfig {
    fn default() -> Self {
        SchedObsConfig {
            queue_slots: 8,
            max_devices: 5,
            q_norm: 250.0,
            wait_norm: 3600.0,
            exec_norm: 600.0,
            queue_len_norm: 32.0,
            clops_norm: 1e6,
            lookahead_short: 120.0,
            lookahead_long: 1200.0,
        }
    }
}

impl SchedObsConfig {
    /// Observation dimensionality: `3K + 3 + 6D + 3`.
    pub fn obs_dim(&self) -> usize {
        3 * self.queue_slots + 3 + 6 * self.max_devices + 3
    }

    /// Action dimensionality: one logit per queue slot plus the wait slot.
    pub fn action_dim(&self) -> usize {
        self.queue_slots + 1
    }
}

/// Weights of the episode objective (see [`episode_objective`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewardWeights {
    /// Penalty per unit of excess mean bounded slowdown (τ = 10).
    pub slowdown: f64,
    /// Bonus per unit of fleet qubit utilisation.
    pub utilization: f64,
    /// Bonus per unit of Jain fairness over per-job slowdowns.
    pub fairness: f64,
}

impl Default for RewardWeights {
    fn default() -> Self {
        RewardWeights {
            slowdown: 1.0,
            utilization: 1.0,
            fairness: 0.5,
        }
    }
}

/// The scalar objective of one (possibly partial) episode, computed from
/// the emitted [`JobRecord`] stream — the same stream the bench telemetry
/// reports. [`SchedulerEnv`] pays the per-step *delta* of this value, so
/// the episode return telescopes to the objective of the final records:
///
/// ```text
/// J = −w_slowdown · (mean_bounded_slowdown − 1)
///     + w_utilization · Σ_finished qubits·exec_time / (capacity · T_end)
///     + w_fairness · jain(per-job slowdowns)
/// ```
///
/// With no finished jobs yet the slowdown/fairness/utilisation terms are 0
/// (the `QosReport` NaNs are treated as "no signal", not as a penalty).
pub fn episode_objective(records: &[JobRecord], total_capacity: u64, w: &RewardWeights) -> f64 {
    let report = QosReport::from_records(records, DeadlinePolicy::default());
    let excess_slowdown = if report.mean_bounded_slowdown.is_finite() {
        report.mean_bounded_slowdown - 1.0
    } else {
        0.0
    };
    let fairness = if report.fairness_jain.is_finite() {
        report.fairness_jain
    } else {
        0.0
    };
    let mut useful_qubit_s = 0.0f64;
    let mut t_end = 0.0f64;
    for r in records {
        if r.finished() {
            useful_qubit_s += r.num_qubits as f64 * (r.exec_end - r.start);
            t_end = t_end.max(r.finish);
        }
    }
    let utilization = if t_end > 0.0 {
        useful_qubit_s / (total_capacity.max(1) as f64 * t_end)
    } else {
        0.0
    };
    w.utilization * utilization + w.fairness * fairness - w.slowdown * excess_slowdown
}

/// Normalises to the unit interval. Saturating semantics: out-of-range,
/// infinite, and NaN inputs all land on a bound (`NaN` → 1.0 — "unknown"
/// reads as "saturated", e.g. the best-case execution time of a job on an
/// all-offline fleet).
fn unit(x: f64) -> f32 {
    if x.is_nan() {
        return 1.0;
    }
    x.clamp(0.0, 1.0) as f32
}

/// Pooled queue demand over fleet capacity, `unit(Σ qubits / capacity)`.
///
/// The `u64` prefix sum never decreases, so once it reaches the capacity
/// the feature is 1.0 whatever the rest of the queue holds (rounding to
/// `f64` and dividing are monotone, so the quotient is at least 1 and
/// clamps to exactly 1.0). The walk stops there.
fn pooled_demand(queue: &[QJob], total_capacity: u64) -> f32 {
    let cap = total_capacity.max(1);
    let mut demand = 0u64;
    for job in queue {
        demand += job.num_qubits;
        if demand >= cap {
            return 1.0;
        }
    }
    unit(demand as f64 / cap as f64)
}

/// Pooled mean wait over the wait normaliser, `unit(Σ (now − arrival) / n
/// / wait_norm)`, summed in queue order from `-0.0` as `Iterator::sum`
/// does, so every bit matches the plain two-pass formula.
///
/// The walk returns 1.0 as soon as the prefix sum `S` reaches
/// `T = n·w·(1 + 1e-6) + n·1e-11` (`w` = `wait_norm`, `n` = queue length).
/// Why the full sum would also saturate:
///
/// * Every queued job satisfies the release contract `arrival <= fl(now +
///   s)` with `s` = [`RELEASE_SLACK_S`]. `fl(now + s)` is at least as close
///   to `now + s` as `now` is, so `arrival - now <= 2s` and every remaining
///   term is at least `-δ`, `δ = 2s·(1 + 2⁻⁵³) < 2.1e-12`.
/// * Each later addition gives at least `(S − δ)(1 − u)`, `u = 2⁻⁵³`, so
///   after at most `n` of them the sum is at least `S(1 − u)ⁿ − nδ`. With
///   `n ≤ 2³⁰`, `(1 − u)ⁿ⁺⁴ ≥ 1 − 1.2e-7` also covers the rounding of `T`
///   itself, leaving a sum above `n·w·(1 + 8.7e-7) + n·7.8e-12`.
/// * Dividing by `n` and then by `w` loses at most two more roundings, so
///   the quotient is above 1 (`w > 0`) or `+∞` (`w = +0`, the mean being
///   positive); a sum that reached `+∞` stays there and reads `+∞` or NaN.
///   All of these clamp to 1.0.
///
/// The shortcut is off (the threshold is NaN, which never compares true)
/// when `w` is negative, `-0.0` or NaN, or the queue is longer than 2³⁰;
/// when no prefix reaches `T`, the loop has computed the reference sum.
fn pooled_mean_wait(queue: &[QJob], now: f64, wait_norm: f64) -> f32 {
    if queue.is_empty() {
        return unit(0.0 / wait_norm);
    }
    let n = queue.len() as f64;
    let saturated_at = if wait_norm.is_sign_positive() && queue.len() <= 1 << 30 {
        n * wait_norm * (1.0 + 1e-6) + n * 1e-11
    } else {
        f64::NAN
    };
    let mut sum = -0.0f64;
    for job in queue {
        sum += now - job.arrival_time;
        if sum >= saturated_at {
            return 1.0;
        }
    }
    unit(sum / n / wait_norm)
}

/// Writes the scheduler observation for `queue` against `state` into `out`
/// (length [`SchedObsConfig::obs_dim`]). Shared verbatim by the training
/// environment and the deployed [`RlSchedScheduler`], so train-time and
/// inference-time encodings cannot drift.
///
/// `queue` must honour the [`Scheduler`](crate::sched::Scheduler) release
/// contract (`arrival_time <= state.now() + RELEASE_SLACK_S`); debug builds
/// check it. See the module docs' "Cost" paragraph.
pub fn encode_sched_observation_into(
    out: &mut [f32],
    queue: &[QJob],
    state: &CloudState,
    cfg: &SchedObsConfig,
) {
    assert_eq!(out.len(), cfg.obs_dim(), "observation buffer size mismatch");
    let now = state.now();
    debug_assert!(
        queue
            .iter()
            .all(|j| j.arrival_time <= now + RELEASE_SLACK_S),
        "a queued job arrives after state.now() + RELEASE_SLACK_S"
    );
    let view = state.view();
    let total_capacity: u64 = view.devices.iter().map(|d| d.capacity).sum();
    let cap = total_capacity.max(1) as f64;

    // Queue window: the first K pending jobs, FIFO order.
    for i in 0..cfg.queue_slots {
        let base = 3 * i;
        if let Some(job) = queue.get(i) {
            out[base] = unit(job.num_qubits as f64 / cfg.q_norm);
            out[base + 1] = unit((now - job.arrival_time) / cfg.wait_norm);
            out[base + 2] = unit(state.best_exec_seconds(job) / cfg.exec_norm);
        } else {
            out[base] = 0.0;
            out[base + 1] = 0.0;
            out[base + 2] = 0.0;
        }
    }

    // Pooled queue aggregates (the jobs past the window still count here).
    let pbase = 3 * cfg.queue_slots;
    out[pbase] = unit(queue.len() as f64 / cfg.queue_len_norm);
    out[pbase + 1] = pooled_demand(queue, total_capacity);
    out[pbase + 2] = pooled_mean_wait(queue, now, cfg.wait_norm);

    // Per-device summaries (offline devices advertise zero free in the
    // view; the explicit flag tells "busy" from "dark").
    let dbase = pbase + 3;
    for d in 0..cfg.max_devices {
        let base = dbase + 6 * d;
        if let Some(v) = view.devices.get(d) {
            out[base] = unit(v.free as f64 / v.capacity.max(1) as f64);
            out[base + 1] = unit(v.busy_fraction);
            out[base + 2] = unit(v.mean_utilization);
            out[base + 3] = unit(v.error_score);
            out[base + 4] = unit(v.clops / cfg.clops_norm);
            out[base + 5] = if state.is_offline(v.id) { 1.0 } else { 0.0 };
        } else {
            out[base..base + 6].fill(0.0);
        }
    }

    // Fleet tail: free now, and lease qubits coming back soon (the
    // lookahead the incremental lease table makes O(leases)).
    let tbase = dbase + 6 * cfg.max_devices;
    out[tbase] = unit(state.total_free() as f64 / cap);
    let mut short = 0u64;
    let mut long = 0u64;
    for l in state.leases() {
        if l.release_at <= now + cfg.lookahead_short {
            short += l.qubits;
        }
        if l.release_at <= now + cfg.lookahead_long {
            long += l.qubits;
        }
    }
    out[tbase + 1] = unit(short as f64 / cap);
    out[tbase + 2] = unit(long as f64 / cap);
}

/// Argmax slot of an action vector (ties break to the lowest index, so a
/// constant policy output degrades to FIFO-head dispatch, not to waiting).
pub(crate) fn argmax(action: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &a) in action.iter().enumerate() {
        if a > action[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::job::JobId;
    use crate::records::JobRecordsManager;
    use crate::sched::DeviceSpec;

    fn two_device_state() -> CloudState {
        let specs = vec![
            DeviceSpec {
                capacity: 100,
                error_score: 0.02,
                clops: 2e5,
                qv_layers: 7.0,
            },
            DeviceSpec {
                capacity: 50,
                error_score: 0.05,
                clops: 1e5,
                qv_layers: 6.0,
            },
        ];
        CloudState::new(&specs, &SimParams::default())
    }

    fn job(id: u64, q: u64, arrival: f64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time: arrival,
        }
    }

    #[test]
    fn observation_is_bounded_and_sized() {
        let state = two_device_state();
        let cfg = SchedObsConfig::default();
        let queue: Vec<QJob> = (0..12).map(|i| job(i, 40 + 30 * i, 0.0)).collect();
        let mut out = vec![f32::NAN; cfg.obs_dim()];
        encode_sched_observation_into(&mut out, &queue, &state, &cfg);
        for (i, &v) in out.iter().enumerate() {
            assert!((0.0..=1.0).contains(&v), "feature {i} = {v} out of [0,1]");
        }
        // Pooled backlog: 12 jobs / 32.
        assert!((out[3 * cfg.queue_slots] - 12.0 / 32.0).abs() < 1e-6);
        // Fleet free fraction: everything idle.
        let tbase = 3 * cfg.queue_slots + 3 + 6 * cfg.max_devices;
        assert_eq!(out[tbase], 1.0);
        // No leases: lookahead features are zero.
        assert_eq!(out[tbase + 1], 0.0);
        assert_eq!(out[tbase + 2], 0.0);
    }

    #[test]
    fn empty_slots_are_zeroed() {
        let state = two_device_state();
        let cfg = SchedObsConfig::default();
        let queue = vec![job(0, 60, 0.0)];
        let mut out = vec![f32::NAN; cfg.obs_dim()];
        encode_sched_observation_into(&mut out, &queue, &state, &cfg);
        // Slots 1..K empty; devices 2..D empty.
        for i in 1..cfg.queue_slots {
            assert_eq!(&out[3 * i..3 * i + 3], &[0.0, 0.0, 0.0], "slot {i}");
        }
        let dbase = 3 * cfg.queue_slots + 3;
        for d in 2..cfg.max_devices {
            assert!(
                out[dbase + 6 * d..dbase + 6 * d + 6]
                    .iter()
                    .all(|&v| v == 0.0),
                "device slot {d}"
            );
        }
    }

    #[test]
    fn lease_lookahead_counts_returning_qubits() {
        let mut state = two_device_state();
        let cfg = SchedObsConfig::default();
        let j = job(0, 60, 0.0);
        // Place 60 qubits on device 0; under PerDevice the lease returns at
        // its own execution time, which for the default model is well under
        // the long horizon.
        state.reserve(&j, &[(crate::device::DeviceId(0), 60)], 0.0);
        let release = state.leases()[0].release_at;
        assert!(release > 0.0 && release <= cfg.lookahead_long);
        let mut out = vec![0.0; cfg.obs_dim()];
        encode_sched_observation_into(&mut out, &[], &state, &cfg);
        let tbase = 3 * cfg.queue_slots + 3 + 6 * cfg.max_devices;
        assert!((out[tbase + 2] - 60.0 / 150.0).abs() < 1e-6, "long horizon");
        assert!((out[tbase] - 90.0 / 150.0).abs() < 1e-6, "free fraction");
    }

    #[test]
    fn objective_telescopes_from_empty() {
        let w = RewardWeights::default();
        assert_eq!(episode_objective(&[], 100, &w), 0.0);
        // One finished job: slowdown 1 (no wait) → excess 0, fairness 1.
        let mut mgr = JobRecordsManager::new();
        let j = job(1, 50, 0.0);
        mgr.record_arrival(&j);
        mgr.record_start(j.id, 0.0, &[(crate::device::DeviceId(0), 50)]);
        mgr.record_exec_end(j.id, 10.0);
        mgr.record_finish(j.id, 10.0, 0.9, 0.0);
        let jv = episode_objective(mgr.records(), 100, &w);
        // util = 50·10 / (100·10) = 0.5; fairness = 1; slowdown excess = 0.
        assert!((jv - (w.utilization * 0.5 + w.fairness)).abs() < 1e-9);
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(argmax(&[0.1, 0.5, 0.5]), 1);
        assert_eq!(argmax(&[-1.0, -0.5, 2.0]), 2);
    }
}
