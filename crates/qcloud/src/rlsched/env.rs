//! The scheduler-loop training environment: the simulation engine itself,
//! with the *scheduler decision* handed to the agent, one consult per step
//! (see "The environment is the engine" in the [module docs](super)).

use super::adapter::Picker;
use super::{
    argmax, encode_sched_observation_into, episode_objective, RewardWeights, SchedObsConfig,
};
use crate::config::SimParams;
use crate::job::QJob;
use crate::jobgen::bimodal_arrivals;
use crate::maintenance::MaintenanceWindow;
use crate::policies::Placement;
use crate::records::JobRecord;
use crate::sched::{CloudState, Scheduler, SchedulingDecision, WaitReason};
use crate::simenv::{apply_decision, consult, QCloudSimEnv, SchedState};
use qcs_calibration::DeviceProfile;
use qcs_rl::env::{Env, StepResult};

/// Episode/workload configuration for [`SchedulerEnv`].
#[derive(Debug, Clone)]
pub struct SchedEnvConfig {
    /// Observation layout and normalisers (also fixes the action space).
    pub obs: SchedObsConfig,
    /// Placement policy that turns the agent's *which job* pick into a
    /// concrete device partition.
    pub placement: Placement,
    /// Jobs per episode.
    pub n_jobs: usize,
    /// Poisson arrival rate of the bimodal trace (jobs/second).
    pub arrival_rate: f64,
    /// Every `big_every`-th job of the trace is a large (250-qubit) job.
    pub big_every: usize,
    /// Scheduled maintenance windows, replayed every episode.
    pub maintenance: Vec<MaintenanceWindow>,
    /// Objective weights (see [`episode_objective`]).
    pub reward: RewardWeights,
    /// Hard step cap per episode (truncation backstop; real episodes end
    /// far earlier because every wait lasts until the next consult).
    pub max_steps: u64,
}

impl Default for SchedEnvConfig {
    fn default() -> Self {
        SchedEnvConfig {
            obs: SchedObsConfig::default(),
            placement: Placement::Speed,
            n_jobs: 24,
            arrival_rate: 0.1,
            big_every: 4,
            maintenance: Vec::new(),
            reward: RewardWeights::default(),
            max_steps: 4096,
        }
    }
}

/// The episode engine's scheduler: it parks on every consult and leaves
/// the answer to [`SchedulerEnv::step`].
struct Ask;

impl Scheduler for Ask {
    fn decide(&mut self, _: &[QJob], _: &CloudState) -> SchedulingDecision {
        SchedulingDecision::wait(WaitReason::PolicyHold)
    }

    fn name(&self) -> &str {
        "agent"
    }
}

/// The queue-deep scheduling environment (see the
/// [module docs](crate::rlsched) for the observation/action/reward
/// contract).
pub struct SchedulerEnv {
    cfg: SchedEnvConfig,
    params: SimParams,
    /// The episode's engine, whose fleet the next episode reuses.
    engine: QCloudSimEnv,
    /// Answers consults; rebuilt every reset with the episode's seed.
    picker: Picker,
    /// Consults seen so far this episode (the shard's decision count).
    consults: u64,
    /// Whether a consult is parked, waiting for the next step's answer.
    asked: bool,
    prev_objective: f64,
    steps: u64,
    done: bool,
}

impl SchedulerEnv {
    /// Builds the environment over `profiles` (typically
    /// [`qcs_calibration::ibm_fleet`]). Panics if the fleet exceeds the
    /// observation's device slots.
    pub fn new(profiles: &[DeviceProfile], params: SimParams, cfg: SchedEnvConfig) -> Self {
        assert!(
            profiles.len() <= cfg.obs.max_devices,
            "more devices than observation slots"
        );
        let engine = QCloudSimEnv::with_scheduler(
            profiles.to_vec(),
            Box::new(Ask),
            Vec::new(),
            params.clone(),
            0,
        );
        SchedulerEnv {
            picker: Picker::new(cfg.placement.build(0), cfg.obs.queue_slots),
            engine,
            cfg,
            params,
            consults: 0,
            asked: false,
            prev_objective: 0.0,
            steps: 0,
            done: false,
        }
    }

    /// The environment's configuration.
    pub fn config(&self) -> &SchedEnvConfig {
        &self.cfg
    }

    /// Total fleet qubit capacity (the utilisation denominator).
    pub fn total_capacity(&self) -> u64 {
        self.engine.cloud().total_capacity()
    }

    /// The telemetry emitted so far this episode — the exact stream the
    /// reward deltas are computed from (pinned by the reward-accounting
    /// proptest).
    pub fn records(&self) -> &[JobRecord] {
        self.shard().records.records()
    }

    fn shard(&self) -> &SchedState {
        &self.engine.sim.world().shards[0]
    }

    /// Runs the kernel until the scheduler is consulted (a new decision is
    /// counted) or the heap drains.
    fn run_to_consult(&mut self) {
        let sim = &mut self.engine.sim;
        self.asked = loop {
            let decisions = sim.world().shards[0].telemetry.decisions;
            if decisions > self.consults {
                self.consults = decisions;
                break true;
            }
            if !sim.step() {
                break false;
            }
        };
    }

    fn observe(&mut self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cfg.obs.obs_dim()];
        let st = &mut self.engine.sim.world_mut().shards[0];
        encode_sched_observation_into(
            &mut out,
            st.pending.make_contiguous(),
            &st.cloud_state,
            &self.cfg.obs,
        );
        out
    }
}

impl Env for SchedulerEnv {
    fn obs_dim(&self) -> usize {
        self.cfg.obs.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.cfg.obs.action_dim()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let jobs = bimodal_arrivals(
            self.cfg.n_jobs,
            self.cfg.arrival_rate,
            self.cfg.big_every,
            seed,
        );
        // The same engine a deployed run builds: this fleet, this trace and
        // every maintenance window, scheduled in the same order.
        let fleet = self.engine.cloud().devices().iter();
        let profiles = fleet.map(|d| d.profile.clone()).collect();
        self.engine =
            QCloudSimEnv::with_scheduler(profiles, Box::new(Ask), jobs, self.params.clone(), 0);
        for &w in &self.cfg.maintenance {
            self.engine.schedule_maintenance(w);
        }
        self.picker = Picker::new(self.cfg.placement.build(seed), self.cfg.obs.queue_slots);
        self.consults = 0;
        self.prev_objective = 0.0;
        self.steps = 0;
        self.done = false;
        self.run_to_consult();
        self.observe()
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        assert_eq!(action.len(), self.action_dim(), "action dim mismatch");
        assert!(!self.done, "step on a finished episode (reset first)");
        self.steps += 1;
        // With no consult parked (say, no jobs) the step only reports.
        if self.asked {
            let (kernel, world) = self.engine.sim.split();
            let st = &mut world.shards[0];
            let decision = self.picker.decide(
                argmax(action),
                st.pending.make_contiguous(),
                &st.cloud_state,
            );
            if apply_decision(kernel, st, 0, decision).is_none() {
                // A dispatch re-consults at once, inside the same wake. The
                // job just dispatched is not terminal, so the wake ends
                // parked, as the deployed one does.
                consult(kernel, world, 0);
            }
        }
        self.run_to_consult();

        let st = self.shard();
        let terminated = st.records.terminal_count() == st.total_jobs;
        // Work left on a drained heap: the placement refuses every queued
        // job on an idle fleet, and the records show the refusals.
        let truncated = !terminated && (!self.asked || self.steps >= self.cfg.max_steps);
        let objective = episode_objective(
            st.records.records(),
            self.total_capacity(),
            &self.cfg.reward,
        );
        let reward = objective - self.prev_objective;
        self.prev_objective = objective;
        self.done = terminated || truncated;
        StepResult {
            obs: self.observe(),
            reward,
            terminated,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    fn env(cfg: SchedEnvConfig) -> SchedulerEnv {
        SchedulerEnv::new(&ibm_fleet(1), SimParams::default(), cfg)
    }

    /// Drives an episode with a fixed action, returning (return, steps).
    fn run_episode(e: &mut SchedulerEnv, seed: u64, slot: usize) -> (f64, u64) {
        let mut action = vec![0.0f32; e.action_dim()];
        action[slot] = 1.0;
        e.reset(seed);
        let mut ret = 0.0;
        let mut steps = 0;
        loop {
            let r = e.step(&action);
            ret += r.reward;
            steps += 1;
            if r.terminated || r.truncated {
                assert!(r.terminated, "fifo-head policy must drain the trace");
                return (ret, steps);
            }
        }
    }

    #[test]
    fn fifo_head_policy_completes_every_job() {
        let cfg = SchedEnvConfig {
            n_jobs: 16,
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let (ret, _) = run_episode(&mut e, 11, 0);
        assert_eq!(e.records().len(), 16);
        assert!(e.records().iter().all(|r| r.finished()));
        let recomputed = episode_objective(e.records(), e.total_capacity(), &e.config().reward);
        assert!(
            (ret - recomputed).abs() < 1e-9,
            "return {ret} drifted from objective {recomputed}"
        );
    }

    #[test]
    fn wait_only_policy_terminates_via_fallback() {
        let cfg = SchedEnvConfig {
            n_jobs: 8,
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let wait_slot = e.action_dim() - 1;
        let (_, steps) = run_episode(&mut e, 3, wait_slot);
        assert!(e.records().iter().all(|r| r.finished()));
        assert!(steps <= e.config().max_steps);
    }

    #[test]
    fn episodes_are_deterministic_per_seed() {
        let mut a = env(SchedEnvConfig::default());
        let mut b = env(SchedEnvConfig::default());
        let oa = a.reset(42);
        let ob = b.reset(42);
        assert_eq!(oa, ob);
        let mut action = vec![0.0f32; a.action_dim()];
        action[0] = 1.0;
        for _ in 0..40 {
            let ra = a.step(&action);
            let rb = b.step(&action);
            assert_eq!(ra, rb);
            if ra.done() {
                break;
            }
        }
        assert_eq!(a.records(), b.records());
        // Distinct seeds → distinct traces.
        let oc = a.reset(43);
        assert_ne!(oa, oc);
    }

    #[test]
    fn maintenance_window_is_respected() {
        // Put device 0 in maintenance across the whole episode: no lease
        // may ever touch it, and no finished job may have run there.
        let cfg = SchedEnvConfig {
            n_jobs: 12,
            maintenance: vec![MaintenanceWindow {
                device: 0,
                start: 0.0,
                duration: 1e9,
            }],
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let mut action = vec![0.0f32; e.action_dim()];
        action[0] = 1.0;
        e.reset(9);
        loop {
            assert!(
                e.shard()
                    .cloud_state
                    .leases()
                    .iter()
                    .all(|l| l.device.index() != 0),
                "lease on offline device"
            );
            let r = e.step(&action);
            if r.done() {
                break;
            }
        }
        assert!(e.records().iter().all(|r| r.finished()));
        assert!(e
            .records()
            .iter()
            .flat_map(|r| r.parts.iter())
            .all(|&(d, _)| d != 0));
    }

    #[test]
    fn empty_episode_terminates_on_its_first_step() {
        let cfg = SchedEnvConfig {
            n_jobs: 0,
            ..SchedEnvConfig::default()
        };
        let mut e = env(cfg);
        let obs = e.reset(5);
        assert_eq!(obs.len(), e.obs_dim());
        let r = e.step(&vec![0.0f32; e.action_dim()]);
        assert!(r.terminated && !r.truncated);
        assert_eq!(r.reward, 0.0);
        assert!(e.records().is_empty());
    }
}
