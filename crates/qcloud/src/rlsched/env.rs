//! The scheduler-loop training environment: an event-driven replay of the
//! simulation's dispatch/execute/release cycle with the *scheduler decision*
//! handed to the agent, one queue pick (or wait) per step.
//!
//! The environment reuses the production pieces — [`CloudState`] for
//! reservations/leases/availability, [`JobRecordsManager`] for telemetry,
//! the closed-form execution/communication/fidelity models — and mirrors
//! the executor semantics of [`crate::simenv`] exactly: per-part duration
//! from Eq. 3, job execution as the max over parts, per-device lease
//! release, blocking classical communication after execution, Eqs. 4–8
//! fidelity at finish. A policy trained here therefore sees the same
//! dynamics the harnesses replay.

use super::{
    argmax, encode_sched_observation_into, episode_objective, RewardWeights, SchedObsConfig,
};
use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::config::SimParams;
use crate::inline_vec::InlineVec;
use crate::job::{JobId, QJob};
use crate::jobgen::bimodal_arrivals;
use crate::maintenance::{MaintenanceWindow, OfflineFlags};
use crate::model::fidelity::DeviceErrorRates;
use crate::policies::Placement;
use crate::records::JobRecordsManager;
use crate::sched::{CloudState, DeviceSpec};
use qcs_calibration::DeviceProfile;
use qcs_rl::env::{Env, StepResult};

/// Static per-device data (capacity, speed, calibration-derived errors).
#[derive(Debug, Clone)]
struct DeviceSlot {
    error_rates: DeviceErrorRates,
    clops: f64,
    qv_layers: f64,
}

/// A dispatched job awaiting its execution-end and finish events.
#[derive(Debug, Clone)]
struct Inflight {
    id: JobId,
    exec_end: f64,
    finish: f64,
    fidelity: f64,
    comm: f64,
    exec_done: bool,
}

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
    /// far earlier because every wait consumes a discrete event).
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

/// The queue-deep scheduling environment (see the
/// [module docs](crate::rlsched) for the observation/action/reward
/// contract).
pub struct SchedulerEnv {
    cfg: SchedEnvConfig,
    params: SimParams,
    specs: Vec<DeviceSpec>,
    slots: Vec<DeviceSlot>,
    total_capacity: u64,
    broker: Box<dyn Broker>,
    // Episode state.
    state: CloudState,
    flags: OfflineFlags,
    arrivals: Vec<QJob>,
    next_arrival: usize,
    pending: Vec<QJob>,
    inflight: Vec<Inflight>,
    records: JobRecordsManager,
    now: f64,
    prev_objective: f64,
    steps: u64,
    done: bool,
    // Scratch.
    view: CloudView,
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
        let specs: Vec<DeviceSpec> = profiles
            .iter()
            .map(|p| DeviceSpec {
                capacity: p.spec.num_qubits as u64,
                error_score: p.error_score(&params.error_weights),
                clops: p.spec.clops,
                qv_layers: p.spec.qv_layers(),
            })
            .collect();
        let slots: Vec<DeviceSlot> = profiles
            .iter()
            .map(|p| DeviceSlot {
                error_rates: DeviceErrorRates {
                    single_qubit: p.calibration.avg_rx_error(),
                    two_qubit: p.calibration.avg_two_qubit_error(),
                    readout: p.calibration.avg_readout_error(),
                },
                clops: p.spec.clops,
                qv_layers: p.spec.qv_layers(),
            })
            .collect();
        let total_capacity = specs.iter().map(|s| s.capacity).sum();
        let state = CloudState::new(&specs, &params);
        let view = state.view().clone();
        let flags = OfflineFlags::new(specs.len());
        let broker = cfg.placement.build(0);
        SchedulerEnv {
            cfg,
            params,
            specs,
            slots,
            total_capacity,
            broker,
            state,
            flags,
            arrivals: Vec::new(),
            next_arrival: 0,
            pending: Vec::new(),
            inflight: Vec::new(),
            records: JobRecordsManager::new(),
            now: 0.0,
            prev_objective: 0.0,
            steps: 0,
            done: false,
            view,
        }
    }

    /// The environment's configuration.
    pub fn config(&self) -> &SchedEnvConfig {
        &self.cfg
    }

    /// Total fleet qubit capacity (the utilisation denominator).
    pub fn total_capacity(&self) -> u64 {
        self.total_capacity
    }

    /// The telemetry emitted so far this episode — the exact stream the
    /// reward deltas are computed from (pinned by the reward-accounting
    /// proptest).
    pub fn records(&self) -> &[crate::records::JobRecord] {
        self.records.records()
    }

    /// The earliest future event, or `None` when the episode has none left.
    fn next_event_time(&self) -> Option<f64> {
        let mut t = f64::INFINITY;
        if let Some(j) = self.arrivals.get(self.next_arrival) {
            t = t.min(j.arrival_time);
        }
        for l in self.state.leases() {
            t = t.min(l.release_at);
        }
        for f in &self.inflight {
            t = t.min(if f.exec_done { f.finish } else { f.exec_end });
        }
        for w in &self.cfg.maintenance {
            if w.start > self.now {
                t = t.min(w.start);
            }
            if w.end() > self.now {
                t = t.min(w.end());
            }
        }
        t.is_finite().then_some(t)
    }

    /// Processes every event due at `t` (maintenance edges, lease releases,
    /// execution ends, finishes, arrivals — the same intra-instant order
    /// the simulation's coroutines resolve to) and refreshes the state.
    fn process_events_at(&mut self, t: f64) {
        debug_assert!(t >= self.now, "event time moved backwards");
        self.now = t;
        for d in 0..self.specs.len() {
            let off = self
                .cfg
                .maintenance
                .iter()
                .any(|w| w.device == d && w.contains(t));
            self.flags.set_offline(d, off);
        }
        let due: Vec<(JobId, crate::device::DeviceId, u64)> = self
            .state
            .leases()
            .iter()
            .filter(|l| l.release_at <= t)
            .map(|l| (l.job, l.device, l.qubits))
            .collect();
        for (job, device, qubits) in due {
            self.state.release(job, device, qubits, t);
        }
        for f in &mut self.inflight {
            if !f.exec_done && f.exec_end <= t {
                self.records.record_exec_end(f.id, f.exec_end);
                f.exec_done = true;
            }
        }
        let records = &mut self.records;
        self.inflight.retain(|f| {
            if f.exec_done && f.finish <= t {
                records.record_finish(f.id, f.finish, f.fidelity, f.comm);
                false
            } else {
                true
            }
        });
        while self
            .arrivals
            .get(self.next_arrival)
            .is_some_and(|j| j.arrival_time <= t)
        {
            let job = self.arrivals[self.next_arrival].clone();
            self.records.record_arrival(&job);
            self.pending.push(job);
            self.next_arrival += 1;
        }
        self.state.refresh(t, &self.flags);
    }

    /// Advances to the next event batch. Returns `false` when none remain.
    fn advance_to_next_event(&mut self) -> bool {
        match self.next_event_time() {
            Some(t) => {
                self.process_events_at(t);
                true
            }
            None => false,
        }
    }

    /// Dispatches `pending[idx]` on `parts` at the current instant,
    /// mirroring the simulation scheduler loop (bypass records for
    /// overtaken jobs, start record, reservation) and the executor's
    /// timing/fidelity arithmetic.
    fn dispatch(&mut self, idx: usize, parts: &[(crate::device::DeviceId, u64)]) {
        for overtaken in self.pending.iter().take(idx) {
            self.records.record_bypass(overtaken.id);
        }
        let job = self.pending.remove(idx);
        let total: u64 = parts.iter().map(|&(_, a)| a).sum();
        assert_eq!(
            total, job.num_qubits,
            "placement allocated {total} of {} qubits for job {:?}",
            job.num_qubits, job.id
        );
        self.records.record_start(job.id, self.now, parts);
        self.state.reserve(&job, parts, self.now);
        let k = parts.len();
        let max_exec = parts
            .iter()
            .map(|&(d, _)| {
                let dev = &self.slots[d.index()];
                self.params
                    .exec
                    .execution_seconds(job.num_shots, dev.qv_layers, dev.clops)
            })
            .fold(0.0f64, f64::max);
        let comm = self.params.comm.comm_seconds(job.num_qubits, k);
        let fids: InlineVec<f64, 4> = parts
            .iter()
            .map(|&(d, a)| {
                let dev = &self.slots[d.index()];
                self.params.fidelity.device_fidelity(
                    &dev.error_rates,
                    job.depth,
                    job.two_qubit_gates,
                    a,
                    job.num_qubits,
                    k,
                )
            })
            .collect();
        let fidelity = self
            .params
            .fidelity
            .final_fidelity(&fids, self.params.comm.phi);
        self.inflight.push(Inflight {
            id: job.id,
            exec_end: self.now + max_exec,
            finish: self.now + max_exec + comm,
            fidelity,
            comm,
            exec_done: false,
        });
    }

    /// Consults the placement broker for `pending[idx]` against a fresh
    /// view; dispatches on success.
    fn try_dispatch(&mut self, idx: usize) -> bool {
        self.state.copy_view_into(&mut self.view);
        match self.broker.select(&self.pending[idx], &self.view) {
            AllocationPlan::Dispatch(parts) => {
                self.dispatch(idx, &parts);
                true
            }
            AllocationPlan::Wait => false,
        }
    }

    /// The idle-fleet fallback shared with the deployment adapter:
    /// dispatches the first broker-placeable pending job in FIFO order.
    fn fallback_dispatch(&mut self) -> bool {
        for i in 0..self.pending.len() {
            self.state.copy_view_into(&mut self.view);
            if let AllocationPlan::Dispatch(parts) =
                self.broker.select(&self.pending[i], &self.view)
            {
                self.dispatch(i, &parts);
                return true;
            }
        }
        false
    }

    /// All work drained: nothing queued, in flight, leased, or yet to come.
    fn drained(&self) -> bool {
        self.pending.is_empty()
            && self.inflight.is_empty()
            && self.next_arrival >= self.arrivals.len()
            && self.state.leases().is_empty()
    }

    fn observe(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cfg.obs.obs_dim()];
        encode_sched_observation_into(&mut out, &self.pending, &self.state, &self.cfg.obs);
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
        self.state = CloudState::new(&self.specs, &self.params);
        for &w in &self.cfg.maintenance {
            self.state.add_maintenance_window(w);
        }
        self.flags = OfflineFlags::new(self.specs.len());
        self.arrivals = bimodal_arrivals(
            self.cfg.n_jobs,
            self.cfg.arrival_rate,
            self.cfg.big_every,
            seed,
        );
        self.next_arrival = 0;
        self.pending.clear();
        self.inflight.clear();
        self.records = JobRecordsManager::new();
        self.now = 0.0;
        self.prev_objective = 0.0;
        self.steps = 0;
        self.done = false;
        self.broker = self.cfg.placement.build(seed);
        // Roll forward to the first decision point (first arrival).
        while self.pending.is_empty() && self.advance_to_next_event() {}
        self.observe()
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        assert_eq!(action.len(), self.action_dim(), "action dim mismatch");
        assert!(!self.done, "step on a finished episode (reset first)");
        self.steps += 1;
        let pick = argmax(action);
        let mut truncated = false;

        let dispatched =
            pick < self.cfg.obs.queue_slots && pick < self.pending.len() && self.try_dispatch(pick);
        if !dispatched {
            // Wait. A wait is only honoured while leased work will produce
            // the wake-up event; with an idle fleet the deployed adapter
            // ([`super::RlSchedScheduler`]) cannot see future arrivals and
            // falls back to a FIFO-greedy dispatch — training mirrors that
            // exactly so the policy never meets unseen dynamics.
            if !self.pending.is_empty() && self.state.leases().is_empty() {
                if !self.fallback_dispatch() && !self.advance_to_next_event() {
                    // The placement refuses every queued job on an idle
                    // fleet (e.g. a job larger than total capacity) and no
                    // event is coming: truncate, leaving the refusals
                    // visible as unfinished records.
                    truncated = true;
                }
            } else if !self.advance_to_next_event() && !self.pending.is_empty() {
                // Defensive: pending work with neither leases nor events
                // cannot progress (unreachable — leases imply events).
                truncated = true;
            }
            // Roll through no-decision stretches (empty queue) to the next
            // choice point.
            while self.pending.is_empty() && self.advance_to_next_event() {}
        }

        let terminated = self.drained();
        if !terminated && self.steps >= self.cfg.max_steps {
            truncated = true;
        }
        let objective = episode_objective(
            self.records.records(),
            self.total_capacity,
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
        // Distinct seeds → distinct traces.
        let oc = a.reset(43);
        assert_ne!(oa, oc);
    }

    #[test]
    fn maintenance_window_is_respected() {
        // Put device 0 in maintenance across the whole episode: no lease
        // may ever touch it, and the offline flag shows in observations.
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
                e.state.leases().iter().all(|l| l.device.index() != 0),
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
}
