//! Deployment of a trained scheduler policy: the checkpoint format, the
//! [`Scheduler`] inference adapter that `rl:<path>` specs resolve to when
//! the checkpoint was trained on [`super::SchedulerEnv`], and the `Picker`
//! both of them turn a queue-slot pick into a decision with.

use super::{argmax, encode_sched_observation_into, SchedObsConfig};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::job::QJob;
use crate::policies::Placement;
use crate::sched::{
    first_placeable, CloudState, Dispatch, Scheduler, SchedulingDecision, WaitReason,
};
use qcs_rl::policy::{ActScratch, ActorCritic};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// The `kind` tag distinguishing a scheduler-environment checkpoint from a
/// plain [`ActorCritic`] (gym placement) checkpoint, which has no `kind`
/// field at all.
pub const SCHED_CHECKPOINT_KIND: &str = "sched_env";

/// A deployable scheduler policy: the trained network plus everything
/// needed to reproduce its train-time observation encoding and placement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedCheckpoint {
    /// Always [`SCHED_CHECKPOINT_KIND`] — the type probe `rl:<path>`
    /// loading keys on.
    pub kind: String,
    /// The observation config the policy was trained with.
    pub obs: SchedObsConfig,
    /// Placement spec token (e.g. `speed`) the agent's picks run through.
    pub placement: String,
    /// The trained actor-critic network.
    pub policy: ActorCritic,
}

impl SchedCheckpoint {
    /// Bundles a trained policy with its observation config and placement.
    /// Panics if the network's dimensions do not match `obs`.
    pub fn new(obs: SchedObsConfig, placement: &Placement, policy: ActorCritic) -> Self {
        assert_eq!(policy.obs_dim(), obs.obs_dim(), "policy obs_dim mismatch");
        assert_eq!(
            policy.action_dim(),
            obs.action_dim(),
            "policy action_dim mismatch"
        );
        SchedCheckpoint {
            kind: SCHED_CHECKPOINT_KIND.to_string(),
            obs,
            placement: placement.to_string(),
            policy,
        }
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation cannot fail")
    }

    /// Parses from JSON. A checkpoint of another kind, a malformed policy
    /// (see [`ActorCritic::check_shapes`]), a policy whose widths do not
    /// match `obs`, or a placement token that does not parse is an `Err`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let ck: SchedCheckpoint = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if ck.kind != SCHED_CHECKPOINT_KIND {
            return Err(format!(
                "not a scheduler checkpoint: kind '{}' (expected '{SCHED_CHECKPOINT_KIND}')",
                ck.kind
            ));
        }
        ck.policy.check_shapes()?;
        ck.check()?;
        Ok(ck)
    }

    /// The placement the agent's picks run through, or `Err` when the
    /// token does not parse or the policy's widths do not match `obs`.
    fn check(&self) -> Result<Placement, String> {
        if self.policy.obs_dim() != self.obs.obs_dim() {
            return Err(format!(
                "policy reads {} observations, obs config has {}",
                self.policy.obs_dim(),
                self.obs.obs_dim()
            ));
        }
        if self.policy.action_dim() != self.obs.action_dim() {
            return Err(format!(
                "policy emits {} actions, obs config has {}",
                self.policy.action_dim(),
                self.obs.action_dim()
            ));
        }
        self.placement
            .parse()
            .map_err(|e| format!("checkpoint placement '{}': {e}", self.placement))
    }

    /// Writes the checkpoint atomically (temp file + rename), creating
    /// parent directories as needed — the same durability contract as
    /// [`qcs_rl::checkpoint::save_policy`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }
}

/// Loads `path` as a [`Scheduler`] **if** it holds a scheduler-environment
/// checkpoint. Returns `None` when the file is unreadable or holds
/// anything else (e.g. a plain gym [`ActorCritic`] checkpoint), so the
/// caller can fall through to the placement-broker path and its existing
/// error reporting. Panics (with the decode error) only when the `kind`
/// tag matches but the body is malformed — a corrupt checkpoint, not a
/// different format.
pub fn try_load_scheduler(path: &str, seed: u64) -> Option<Box<dyn Scheduler>> {
    let text = std::fs::read_to_string(path).ok()?;
    let probe = serde_json::parse_value(&text).ok()?;
    if probe.get_field("kind").and_then(|k| k.as_str()) != Some(SCHED_CHECKPOINT_KIND) {
        return None;
    }
    let ck = SchedCheckpoint::from_json(&text)
        .unwrap_or_else(|e| panic!("invalid scheduler RL checkpoint '{path}': {e}"));
    Some(Box::new(RlSchedScheduler::from_checkpoint(ck, seed)))
}

/// The inference adapter: runs a [`SchedCheckpoint`] policy as a
/// queue-aware [`Scheduler`]. Each consult encodes the queue/state
/// observation exactly as in training, takes the deterministic argmax
/// action, and hands it to the same `Picker` the training environment
/// answers its consults with: the picked job dispatches through the
/// checkpoint's placement broker (one dispatch, immediate re-consult — the
/// single-dispatch adapter pattern), or the adapter parks with an honest
/// [`WaitReason`]. The idle-fleet fallback (a wait with nothing in flight
/// dispatches the first placeable job in FIFO order instead) lives in the
/// `Picker` alone, so training and deployment cannot disagree on it.
pub struct RlSchedScheduler {
    policy: ActorCritic,
    cfg: SchedObsConfig,
    picker: Picker,
    obs: Vec<f32>,
    action: Vec<f32>,
    scratch: ActScratch,
    name: String,
}

impl RlSchedScheduler {
    /// Instantiates the adapter from a parsed checkpoint. `seed` feeds the
    /// placement (only the stochastic baselines use it). Panics when the
    /// checkpoint's placement token or network dimensions are invalid
    /// (a checkpoint from [`SchedCheckpoint::from_json`] never is).
    pub fn from_checkpoint(ck: SchedCheckpoint, seed: u64) -> Self {
        let placement = ck
            .check()
            .unwrap_or_else(|e| panic!("invalid scheduler checkpoint: {e}"));
        RlSchedScheduler {
            obs: vec![0.0; ck.obs.obs_dim()],
            action: vec![0.0; ck.obs.action_dim()],
            picker: Picker::new(placement.build(seed), ck.obs.queue_slots),
            policy: ck.policy,
            cfg: ck.obs,
            scratch: ActScratch::new(),
            name: "rlsched".to_string(),
        }
    }
}

impl Scheduler for RlSchedScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        encode_sched_observation_into(&mut self.obs, queue, state, &self.cfg);
        self.policy
            .act_deterministic_into(&self.obs, &mut self.scratch, &mut self.action);
        self.picker.decide(argmax(&self.action), queue, state)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Turns a queue-slot pick into a [`SchedulingDecision`]: the one copy of
/// that step, shared by the deployed [`RlSchedScheduler`] and the training
/// environment ([`super::SchedulerEnv`]), so both answer a consult with the
/// same broker calls in the same order.
///
/// A pick inside the queue window dispatches that job when the placement
/// broker can place it now; anything else — the wait slot, an empty slot,
/// a placement refusal — waits. A wait is only safe when something in
/// flight will wake the scheduler again. With an idle fleet
/// (`state.leases()` empty) only a future arrival could, and the picker
/// cannot see whether one exists, so it falls back to dispatching the
/// first broker-placeable job in FIFO order. This idle-fleet fallback
/// lives here and nowhere else: it is work-conserving and never worse
/// than a deadlock.
pub(crate) struct Picker {
    broker: Box<dyn Broker>,
    view: CloudView,
    queue_slots: usize,
}

impl Picker {
    /// A picker over `broker` for a policy with `queue_slots` addressable
    /// queue slots.
    pub(crate) fn new(broker: Box<dyn Broker>, queue_slots: usize) -> Self {
        Picker {
            broker,
            view: CloudView {
                devices: Vec::new(),
            },
            queue_slots,
        }
    }

    /// The decision for `pick` against a non-empty `queue` and `state`.
    pub(crate) fn decide(
        &mut self,
        pick: usize,
        queue: &[QJob],
        state: &CloudState,
    ) -> SchedulingDecision {
        if pick >= self.queue_slots || pick >= queue.len() {
            return self.hold_or_fallback(queue, state);
        }
        state.copy_view_into(&mut self.view);
        match self.broker.select(&queue[pick], &self.view) {
            AllocationPlan::Dispatch(parts) => SchedulingDecision {
                dispatches: vec![Dispatch {
                    queue_index: pick,
                    parts,
                }],
                // Re-consult immediately: the policy may want to dispatch
                // several queued jobs back to back before waiting.
                wait: None,
            },
            AllocationPlan::Wait => self.hold_or_fallback(queue, state),
        }
    }

    /// The wait path, with the idle-fleet fallback (see the type docs).
    fn hold_or_fallback(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        if state.leases().is_empty() {
            state.copy_view_into(&mut self.view);
            if let Some(d) = first_placeable(&mut *self.broker, queue, &self.view) {
                return SchedulingDecision {
                    dispatches: vec![d],
                    wait: None,
                };
            }
        }
        SchedulingDecision::wait(wait_reason(queue, state))
    }
}

/// Why the head job cannot start (mirrors the FIFO adapter's
/// classification): not enough online qubits, offline qubits would cover
/// it, or the policy simply declined.
fn wait_reason(queue: &[QJob], state: &CloudState) -> WaitReason {
    let head = &queue[0];
    if state.view().total_free() < head.num_qubits {
        let offline_extra: u64 = (0..state.len())
            .map(|i| crate::device::DeviceId(i as u32))
            .filter(|&d| state.is_offline(d))
            .map(|d| state.actual_level(d))
            .sum();
        if offline_extra > 0 && state.view().total_free() + offline_extra >= head.num_qubits {
            WaitReason::DeviceOffline
        } else {
            WaitReason::InsufficientCapacity
        }
    } else {
        WaitReason::PolicyHold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimParams;
    use crate::job::JobId;
    use crate::sched::DeviceSpec;
    use qcs_desim::Xoshiro256StarStar;

    fn checkpoint() -> SchedCheckpoint {
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(17);
        let policy = ActorCritic::new(obs.obs_dim(), obs.action_dim(), &mut rng);
        SchedCheckpoint::new(obs, &Placement::Speed, policy)
    }

    fn state() -> CloudState {
        let specs: Vec<DeviceSpec> = (0..2)
            .map(|i| DeviceSpec {
                capacity: 100,
                error_score: 0.02 + 0.01 * i as f64,
                clops: 2e5,
                qv_layers: 7.0,
            })
            .collect();
        CloudState::new(&specs, &SimParams::default())
    }

    fn job(id: u64, q: u64) -> QJob {
        QJob {
            id: JobId(id),
            num_qubits: q,
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time: 0.0,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let ck = checkpoint();
        let json = ck.to_json();
        let back = SchedCheckpoint::from_json(&json).expect("round trip");
        assert_eq!(back.kind, SCHED_CHECKPOINT_KIND);
        assert_eq!(back.obs, ck.obs);
        assert_eq!(back.placement, "speed");
    }

    /// `checkpoint()` after `edit`, through JSON and back.
    fn reload_edited(edit: impl FnOnce(&mut SchedCheckpoint)) -> Result<SchedCheckpoint, String> {
        let mut ck = checkpoint();
        edit(&mut ck);
        SchedCheckpoint::from_json(&ck.to_json())
    }

    #[test]
    fn from_json_rejects_policy_obs_width_mismatch() {
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(4);
        let policy = ActorCritic::new(obs.obs_dim() - 1, obs.action_dim(), &mut rng);
        let err = reload_edited(|ck| ck.policy = policy).expect_err("must not load");
        assert!(err.contains("observations"), "{err}");
    }

    #[test]
    fn from_json_rejects_policy_action_width_mismatch() {
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(4);
        let policy = ActorCritic::new(obs.obs_dim(), obs.action_dim() + 1, &mut rng);
        let err = reload_edited(|ck| ck.policy = policy).expect_err("must not load");
        assert!(err.contains("actions"), "{err}");
    }

    #[test]
    fn from_json_rejects_unparseable_placement() {
        let err =
            reload_edited(|ck| ck.placement = "teleport".to_string()).expect_err("must not load");
        assert!(err.contains("checkpoint placement 'teleport'"), "{err}");
    }

    #[test]
    fn from_json_rejects_malformed_policy() {
        let err = reload_edited(|ck| {
            ck.policy.log_std.push(0.0);
        })
        .expect_err("must not load");
        assert!(err.contains("log_std"), "{err}");
    }

    #[test]
    fn plain_policy_json_is_not_a_sched_checkpoint() {
        let mut rng = Xoshiro256StarStar::new(3);
        let plain = ActorCritic::new(4, 2, &mut rng).to_json();
        assert!(SchedCheckpoint::from_json(&plain).is_err());
    }

    #[test]
    fn decisions_never_park_and_dispatch_together() {
        let mut sched = RlSchedScheduler::from_checkpoint(checkpoint(), 0);
        let st = state();
        let queue: Vec<QJob> = (0..4).map(|i| job(i, 40 + 20 * i)).collect();
        let d = sched.decide(&queue, &st);
        // Exactly one of: a dispatch batch with re-consult, or a pure wait.
        if d.dispatches.is_empty() {
            assert!(d.wait.is_some(), "empty dispatch with no wait reason");
        } else {
            assert_eq!(d.dispatches.len(), 1);
            assert!(d.wait.is_none());
            let dis = &d.dispatches[0];
            assert!(dis.queue_index < queue.len());
            let total: u64 = dis.parts.iter().map(|&(_, a)| a).sum();
            assert_eq!(total, queue[dis.queue_index].num_qubits);
        }
        assert_eq!(sched.name(), "rlsched");
    }

    #[test]
    fn wait_reason_classifies_capacity() {
        let st = state();
        // Head demands more than the whole fleet: insufficient capacity.
        let big = vec![job(0, 500)];
        assert_eq!(wait_reason(&big, &st), WaitReason::InsufficientCapacity);
        // Head fits: any refusal is a policy hold.
        let small = vec![job(1, 50)];
        assert_eq!(wait_reason(&small, &st), WaitReason::PolicyHold);
    }

    #[test]
    fn idle_fleet_hold_falls_back_to_dispatch() {
        let mut sched = RlSchedScheduler::from_checkpoint(checkpoint(), 0);
        let mut st = state();
        let queue = vec![job(0, 50), job(1, 60)];
        // Nothing in flight: a hold would deadlock the sim, so the adapter
        // must dispatch instead.
        let d = sched.picker.hold_or_fallback(&queue, &st);
        assert_eq!(d.dispatches.len(), 1, "idle fleet must dispatch");
        assert!(d.wait.is_none());
        // With work in flight a hold is safe: the release will wake us.
        st.reserve(&job(9, 40), &[(crate::device::DeviceId(0), 40)], 0.0);
        let d = sched.picker.hold_or_fallback(&queue, &st);
        assert!(d.dispatches.is_empty());
        assert_eq!(d.wait, Some(WaitReason::PolicyHold));
    }

    #[test]
    fn try_load_distinguishes_checkpoint_kinds() {
        let dir = std::env::temp_dir().join("qcs_rlsched_adapter_test");
        std::fs::create_dir_all(&dir).unwrap();
        let sched_path = dir.join("sched.json");
        checkpoint().save(&sched_path).unwrap();
        let loaded = try_load_scheduler(sched_path.to_str().unwrap(), 0);
        assert!(loaded.is_some(), "sched checkpoint must load");
        assert_eq!(loaded.unwrap().name(), "rlsched");

        // A plain gym policy is *not* claimed by the scheduler loader.
        let mut rng = Xoshiro256StarStar::new(5);
        let plain_path = dir.join("plain.json");
        std::fs::write(&plain_path, ActorCritic::new(16, 5, &mut rng).to_json()).unwrap();
        assert!(try_load_scheduler(plain_path.to_str().unwrap(), 0).is_none());

        // Missing file: None (the broker path owns the error message).
        assert!(try_load_scheduler("/nonexistent/ck.json", 0).is_none());
    }
}
