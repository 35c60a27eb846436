//! The reinforcement-learning training environment (paper §4.1 / §6.6).
//!
//! `QCloudGymEnv` is a Gymnasium-style single-step environment:
//!
//! * **State** (dim `1 + 3k`, `k = 5` devices → 16): normalised job qubit
//!   count `q/q_max`, then per device the normalised free-qubit level
//!   `Cᵢ/150`, the error score `Eᵢ`, and normalised CLOPS `Kᵢ/10⁶`
//!   (zero-padded when fewer than `k` devices). With
//!   [`GymConfig::queue_aware`] (default **off**, for paper parity) three
//!   queue features are appended — normalised queue length, total queued
//!   qubit demand, and head-of-queue waiting time — matching the
//!   queue-aware scheduler redesign ([`crate::sched`]), so a policy can
//!   learn congestion-sensitive allocation.
//! * **Action** (dim `k`): unnormalised allocation weights; the environment
//!   normalises (`âᵢ = aᵢ/(Σa+ε)·q`), rounds, and adjusts so `Σâᵢ = q`.
//! * **Reward**: the mean per-device circuit fidelity `R = (1/k')Σ Fᵢ`
//!   across the devices actually used. The optional
//!   [`GymConfig::comm_aware_reward`] extension multiplies in the
//!   `φ^(k'−1)` communication penalty (the paper's "communication-aware
//!   reward shaping" future-work item).
//! * Episodes terminate after the single allocation decision.
//!
//! The environment implements native [`Env::reset_into`]/[`Env::step_into`]
//! so rollout collection on the paper's env is allocation-free end to end
//! (observations are written into caller buffers; the action
//! post-processing reuses [`PartitionScratch`]).

use crate::broker::CloudView;
use crate::config::SimParams;
use crate::device::DeviceId;
use crate::job::{JobDistribution, JobId, QJob};
use crate::model::fidelity::DeviceErrorRates;
use crate::partition::{weights_to_parts_into, PartitionScratch};
use qcs_calibration::DeviceProfile;
use qcs_desim::Xoshiro256StarStar;
use qcs_rl::env::{Env, StepInfo, StepResult};
use serde::{Deserialize, Serialize};

/// Observation/action normalisation and reward options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GymConfig {
    /// Number of device slots in the observation (paper: 5).
    pub max_devices: usize,
    /// Qubit-count normaliser `q_max`. The paper's text says 50 with jobs
    /// of 130–250 qubits (the observation simply exceeds 1); we default to
    /// 250 so observations stay in `[0, 1]`, and keep it configurable.
    pub q_max_norm: f64,
    /// Free-level normaliser (paper: 150).
    pub capacity_norm: f64,
    /// CLOPS normaliser (paper: 10⁶).
    pub clops_norm: f64,
    /// Multiply the reward by `φ^(k−1)` (future-work reward shaping).
    pub comm_aware_reward: bool,
    /// Probability that a device appears partially busy at episode start
    /// (teaches availability awareness).
    pub busy_device_prob: f64,
    /// Append the three queue features to the observation (default off:
    /// the paper's 16-dim state). See [`QueueFeatures`].
    #[serde(default)]
    pub queue_aware: bool,
    /// Queue-length normaliser for the queue features.
    #[serde(default = "default_queue_len_norm")]
    pub queue_len_norm: f64,
    /// Head-wait normaliser (seconds) for the queue features.
    #[serde(default = "default_queue_wait_norm")]
    pub queue_wait_norm: f64,
}

fn default_queue_len_norm() -> f64 {
    32.0
}

fn default_queue_wait_norm() -> f64 {
    3_600.0
}

impl Default for GymConfig {
    fn default() -> Self {
        GymConfig {
            max_devices: 5,
            q_max_norm: 250.0,
            capacity_norm: 150.0,
            clops_norm: 1e6,
            comm_aware_reward: false,
            busy_device_prob: 0.5,
            queue_aware: false,
            queue_len_norm: default_queue_len_norm(),
            queue_wait_norm: default_queue_wait_norm(),
        }
    }
}

impl GymConfig {
    /// Observation dimensionality: `1 + 3k`, plus 3 when
    /// [`GymConfig::queue_aware`] is set.
    pub fn obs_dim(&self) -> usize {
        1 + 3 * self.max_devices + if self.queue_aware { 3 } else { 0 }
    }
}

/// Aggregate pending-queue signals for queue-aware observations: what the
/// scheduler loop knows beyond the head job. All zeros ≙ an empty queue.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueFeatures {
    /// Jobs pending behind the one being placed.
    pub backlog: usize,
    /// Total qubit demand of the backlog.
    pub backlog_qubits: u64,
    /// How long the job being placed has already waited (s).
    pub head_wait: f64,
}

/// Encodes the §4.1 state vector from a job's qubit demand and a fleet
/// view into `out` (length [`GymConfig::obs_dim`]). Shared by the training
/// env and the deployed [`crate::policies::RlBroker`]. `queue` is ignored
/// unless [`GymConfig::queue_aware`] is set; the deployed broker has no
/// queue context and passes [`QueueFeatures::default`] (an empty queue).
pub fn encode_observation_into(
    out: &mut [f32],
    job_qubits: u64,
    view: &CloudView,
    queue: &QueueFeatures,
    cfg: &GymConfig,
) {
    assert_eq!(out.len(), cfg.obs_dim(), "observation buffer mismatch");
    out[0] = (job_qubits as f64 / cfg.q_max_norm) as f32;
    for slot in 0..cfg.max_devices {
        let base = 1 + 3 * slot;
        if let Some(d) = view.devices.get(slot) {
            out[base] = (d.free as f64 / cfg.capacity_norm) as f32;
            out[base + 1] = d.error_score as f32;
            out[base + 2] = (d.clops / cfg.clops_norm) as f32;
        } else {
            out[base] = 0.0;
            out[base + 1] = 0.0;
            out[base + 2] = 0.0;
        }
    }
    if cfg.queue_aware {
        // The raw signals are unbounded (queue depth and head wait grow
        // without limit on a backlogged trace), so clamp to [0, 1] after
        // normalising — consistent with the device features, which are
        // bounded by construction. Past the normaliser, "very congested"
        // carries no more signal than "congested", and an unclamped value
        // would drift the feature scale out from under a trained policy.
        let base = 1 + 3 * cfg.max_devices;
        out[base] = (queue.backlog as f64 / cfg.queue_len_norm).min(1.0) as f32;
        out[base + 1] =
            (queue.backlog_qubits as f64 / (cfg.q_max_norm * cfg.queue_len_norm)).min(1.0) as f32;
        out[base + 2] = (queue.head_wait / cfg.queue_wait_norm).min(1.0) as f32;
    }
}

/// Static per-device data the environment simulates against.
#[derive(Debug, Clone)]
struct DeviceSlot {
    error_rates: DeviceErrorRates,
    error_score: f64,
    clops: f64,
    capacity: u64,
    qv_layers: f64,
}

/// The single-step training environment.
pub struct QCloudGymEnv {
    cfg: GymConfig,
    params: SimParams,
    dist: JobDistribution,
    devices: Vec<DeviceSlot>,
    rng: Xoshiro256StarStar,
    // Current episode state.
    job: QJob,
    frees: Vec<u64>,
    queue: QueueFeatures,
    episode: u64,
    // Reusable buffers (allocation-free stepping).
    view: CloudView,
    scratch: PartitionScratch,
    parts: Vec<(DeviceId, u64)>,
}

impl QCloudGymEnv {
    /// Builds the environment from device profiles (typically
    /// [`qcs_calibration::ibm_fleet`]).
    pub fn new(
        profiles: &[DeviceProfile],
        dist: JobDistribution,
        params: SimParams,
        cfg: GymConfig,
    ) -> Self {
        assert!(
            profiles.len() <= cfg.max_devices,
            "more devices than observation slots"
        );
        let devices: Vec<DeviceSlot> = profiles
            .iter()
            .map(|p| DeviceSlot {
                error_rates: DeviceErrorRates {
                    single_qubit: p.calibration.avg_rx_error(),
                    two_qubit: p.calibration.avg_two_qubit_error(),
                    readout: p.calibration.avg_readout_error(),
                },
                error_score: p.error_score(&params.error_weights),
                clops: p.spec.clops,
                capacity: p.spec.num_qubits as u64,
                qv_layers: p.spec.qv_layers(),
            })
            .collect();
        let view = CloudView {
            devices: devices
                .iter()
                .enumerate()
                .map(|(i, d)| crate::broker::DeviceView {
                    id: DeviceId(i as u32),
                    free: d.capacity,
                    capacity: d.capacity,
                    busy_fraction: 0.0,
                    mean_utilization: 0.0,
                    error_score: d.error_score,
                    clops: d.clops,
                    qv_layers: d.qv_layers,
                })
                .collect(),
        };
        let frees = devices.iter().map(|d| d.capacity).collect();
        QCloudGymEnv {
            cfg,
            params,
            dist,
            devices,
            rng: Xoshiro256StarStar::new(0),
            job: QJob {
                id: JobId(0),
                num_qubits: 1,
                depth: 1,
                num_shots: 1,
                two_qubit_gates: 1,
                arrival_time: 0.0,
            },
            frees,
            queue: QueueFeatures::default(),
            episode: 0,
            view,
            scratch: PartitionScratch::default(),
            parts: Vec::new(),
        }
    }

    /// The environment's config.
    pub fn config(&self) -> &GymConfig {
        &self.cfg
    }

    /// Draws the next episode (job, availability, queue context) and
    /// refreshes the internal view. No allocation.
    fn sample_episode(&mut self) {
        self.episode += 1;
        self.job = self.dist.sample(JobId(self.episode), 0.0, &mut self.rng);
        for (i, d) in self.devices.iter().enumerate() {
            let free = if self.rng.next_f64() < self.cfg.busy_device_prob {
                // Partially busy: keep at least ~25% free so episodes
                // are usually feasible.
                self.rng.range_u64(d.capacity / 4, d.capacity)
            } else {
                d.capacity
            };
            self.frees[i] = free;
            let v = &mut self.view.devices[i];
            v.free = free;
            let busy = 1.0 - free as f64 / d.capacity.max(1) as f64;
            v.busy_fraction = busy;
            v.mean_utilization = busy;
        }
        if self.cfg.queue_aware {
            // Synthesise congestion: a geometric-ish backlog with demand
            // drawn from the job distribution's qubit range and a head wait
            // up to the normaliser.
            let backlog = self.rng.range_u64(0, self.cfg.queue_len_norm as u64) as usize;
            let (qlo, qhi) = self.dist.qubits;
            let mut backlog_qubits = 0u64;
            for _ in 0..backlog {
                backlog_qubits += self.rng.range_u64(qlo, qhi);
            }
            self.queue = QueueFeatures {
                backlog,
                backlog_qubits,
                head_wait: self.rng.range_f64(0.0, self.cfg.queue_wait_norm),
            };
        }
    }

    /// Writes the current episode's observation into `out`.
    fn observe_into(&self, out: &mut [f32]) {
        encode_observation_into(out, self.job.num_qubits, &self.view, &self.queue, &self.cfg);
    }

    /// The reward for allocating `parts` of the current job — mean device
    /// fidelity (Eq. 7 per device), optionally × the φ penalty.
    fn reward_for(&self, parts: &[(DeviceId, u64)]) -> f64 {
        if parts.is_empty() {
            return 0.0;
        }
        let k = parts.len();
        let mut sum = 0.0f64;
        for &(dev, amt) in parts {
            let d = &self.devices[dev.index()];
            sum += self.params.fidelity.device_fidelity(
                &d.error_rates,
                self.job.depth,
                self.job.two_qubit_gates,
                amt,
                self.job.num_qubits,
                k,
            );
        }
        let mean = sum / k as f64;
        if self.cfg.comm_aware_reward {
            mean * self.params.comm.fidelity_penalty(k)
        } else {
            mean
        }
    }

    /// Scores `action` against the current episode without advancing it.
    fn score_action(&mut self, action: &[f32]) -> f64 {
        assert_eq!(action.len(), self.cfg.max_devices, "action dim mismatch");
        let weights = &action[..self.devices.len()];
        let feasible = weights_to_parts_into(
            weights,
            self.job.num_qubits,
            &self.frees,
            &mut self.scratch,
            &mut self.parts,
        );
        if feasible {
            self.reward_for(&self.parts)
        } else {
            // Infeasible system state (rare): no allocation, zero reward.
            0.0
        }
    }
}

impl Env for QCloudGymEnv {
    fn obs_dim(&self) -> usize {
        self.cfg.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.cfg.max_devices
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let mut obs = vec![0.0f32; self.cfg.obs_dim()];
        self.reset_into(seed, &mut obs);
        obs
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        let mut obs = vec![0.0f32; self.cfg.obs_dim()];
        let info = self.step_into(action, &mut obs);
        StepResult {
            obs,
            reward: info.reward,
            terminated: info.terminated,
            truncated: info.truncated,
        }
    }

    fn reset_into(&mut self, seed: u64, obs_out: &mut [f32]) {
        self.rng = Xoshiro256StarStar::new(seed);
        self.episode = 0;
        self.queue = QueueFeatures::default();
        self.sample_episode();
        self.observe_into(obs_out);
    }

    fn step_into(&mut self, action: &[f32], obs_out: &mut [f32]) -> StepInfo {
        let reward = self.score_action(action);
        self.sample_episode();
        self.observe_into(obs_out);
        StepInfo {
            reward,
            terminated: true,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_calibration::ibm_fleet;

    fn env() -> QCloudGymEnv {
        QCloudGymEnv::new(
            &ibm_fleet(1),
            JobDistribution::default(),
            SimParams::default(),
            GymConfig::default(),
        )
    }

    fn env_with(cfg: GymConfig) -> QCloudGymEnv {
        QCloudGymEnv::new(
            &ibm_fleet(1),
            JobDistribution::default(),
            SimParams::default(),
            cfg,
        )
    }

    #[test]
    fn observation_shape_matches_paper() {
        let mut e = env();
        assert_eq!(e.obs_dim(), 16, "1 + 3·5 = 16 (paper §4.1)");
        assert_eq!(e.action_dim(), 5);
        let obs = e.reset(1);
        assert_eq!(obs.len(), 16);
        // q/q_max in (0, 1]; free levels in (0, 127/150]; CLOPS ≤ 0.22.
        assert!(obs[0] > 0.0 && obs[0] <= 1.0);
        for slot in 0..5 {
            let free = obs[1 + 3 * slot];
            let err = obs[2 + 3 * slot];
            let clops = obs[3 + 3 * slot];
            assert!((0.0..=127.0 / 150.0 + 1e-6).contains(&free));
            assert!(err > 0.0 && err < 0.05);
            assert!(clops > 0.0 && clops <= 0.22 + 1e-6);
        }
    }

    #[test]
    fn queue_aware_observation_appends_three_features() {
        let cfg = GymConfig {
            queue_aware: true,
            ..GymConfig::default()
        };
        let mut e = env_with(cfg.clone());
        assert_eq!(e.obs_dim(), 19, "16 + 3 queue features");
        let obs = e.reset(2);
        assert_eq!(obs.len(), 19);
        for f in &obs[16..] {
            assert!((0.0..=1.0 + 1e-6).contains(f), "queue feature {f}");
        }
        // Across episodes the synthetic backlog must actually vary.
        let mut seen_nonzero = false;
        for _ in 0..20 {
            let r = e.step(&[1.0; 5]);
            seen_nonzero |= r.obs[16] > 0.0;
        }
        assert!(seen_nonzero, "queue features never non-zero");
    }

    #[test]
    fn queue_features_clamp_to_unit_interval() {
        // Backlogged traces produce raw queue signals far past the
        // normalisers; the encoded features must saturate at 1, matching
        // the bounded device features.
        let cfg = GymConfig {
            queue_aware: true,
            ..GymConfig::default()
        };
        let view = CloudView {
            devices: vec![crate::broker::DeviceView {
                id: DeviceId(0),
                free: 100,
                capacity: 127,
                busy_fraction: 0.2,
                mean_utilization: 0.2,
                error_score: 0.01,
                clops: 220_000.0,
                qv_layers: 7.0,
            }],
        };
        let oversized = QueueFeatures {
            backlog: 10_000,
            backlog_qubits: 2_000_000,
            head_wait: 500_000.0,
        };
        let mut obs = vec![0.0f32; cfg.obs_dim()];
        encode_observation_into(&mut obs, 190, &view, &oversized, &cfg);
        let base = 1 + 3 * cfg.max_devices;
        assert_eq!(obs[base], 1.0, "queue length saturates");
        assert_eq!(obs[base + 1], 1.0, "queued demand saturates");
        assert_eq!(obs[base + 2], 1.0, "head wait saturates");
        // In-range signals still scale linearly below the clamp.
        let small = QueueFeatures {
            backlog: 16,
            backlog_qubits: 4_000,
            head_wait: 1_800.0,
        };
        encode_observation_into(&mut obs, 190, &view, &small, &cfg);
        assert_eq!(obs[base], 0.5);
        assert_eq!(obs[base + 1], 0.5);
        assert_eq!(obs[base + 2], 0.5);
    }

    #[test]
    fn queue_aware_flag_off_is_paper_parity() {
        // Default-off must leave both the shape and the RNG stream exactly
        // as the paper env: the flag draws extra random numbers only when
        // enabled, so rewards and observations match the 16-dim env.
        let mut plain = env();
        let mut explicit = env_with(GymConfig {
            queue_aware: false,
            ..GymConfig::default()
        });
        let a = plain.reset(7);
        let b = explicit.reset(7);
        assert_eq!(a, b);
        for _ in 0..50 {
            let ra = plain.step(&[0.4, 0.8, 0.1, 0.0, 1.0]);
            let rb = explicit.step(&[0.4, 0.8, 0.1, 0.0, 1.0]);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn native_into_paths_match_allocating_paths() {
        let mut a = env();
        let mut b = env();
        let mut obs = vec![0.0f32; a.obs_dim()];
        b.reset_into(9, &mut obs);
        assert_eq!(a.reset(9), obs);
        for i in 0..100 {
            let act = [0.1 * i as f32 % 1.0, 0.5, 0.9, 0.2, 0.7];
            let r = a.step(&act);
            let info = b.step_into(&act, &mut obs);
            assert_eq!(r.obs, obs, "step {i}");
            assert_eq!(r.reward, info.reward);
            assert_eq!(r.terminated, info.terminated);
            assert_eq!(r.truncated, info.truncated);
        }
    }

    #[test]
    fn episodes_are_single_step() {
        let mut e = env();
        e.reset(2);
        let r = e.step(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert!(r.terminated);
        assert!(!r.truncated);
        assert_eq!(r.obs.len(), 16, "auto-advances to the next episode state");
    }

    #[test]
    fn reward_in_unit_interval_and_meaningful() {
        let mut e = env();
        e.reset(3);
        let mut sum = 0.0;
        for _ in 0..200 {
            let r = e.step(&[1.0, 1.0, 1.0, 1.0, 1.0]);
            assert!((0.0..=1.0).contains(&r.reward), "reward {}", r.reward);
            sum += r.reward;
        }
        let mean = sum / 200.0;
        assert!(
            (0.4..0.95).contains(&mean),
            "mean reward {mean} outside plausible fidelity band"
        );
    }

    /// The paper's training reward (mean device fidelity, **no** φ penalty)
    /// is genuinely maximised by fragmenting: Eq. 6's readout exponent
    /// `√(q/k)` *shrinks* as k grows, outweighing the cleaner-device
    /// advantage. This is exactly why the paper's trained agent spreads
    /// jobs (highest `T_comm`, lowest deployed fidelity in Table 2). With
    /// communication-aware shaping the incentive flips.
    #[test]
    fn plain_reward_favours_spreading_comm_aware_reverses_it() {
        let mean_reward = |comm_aware: bool, weights: &[f32; 5]| -> f64 {
            let cfg = GymConfig {
                comm_aware_reward: comm_aware,
                busy_device_prob: 0.0,
                ..GymConfig::default()
            };
            let mut e = QCloudGymEnv::new(
                &ibm_fleet(1),
                JobDistribution::default(),
                SimParams::default(),
                cfg,
            );
            e.reset(4);
            let n = 300;
            (0..n).map(|_| e.step(weights).reward).sum::<f64>() / n as f64
        };
        let focused = [1.0f32, 1.0, 0.0, 0.0, 0.0];
        let spread = [0.2f32, 0.2, 0.2, 0.2, 0.2];

        // Plain (paper) reward: spreading wins — the agent's fragmentation
        // incentive.
        assert!(
            mean_reward(false, &spread) > mean_reward(false, &focused),
            "plain reward should favour spreading: spread {} vs focused {}",
            mean_reward(false, &spread),
            mean_reward(false, &focused)
        );
        // Comm-aware shaping: concentration wins.
        assert!(
            mean_reward(true, &focused) > mean_reward(true, &spread),
            "shaped reward should favour focus: focused {} vs spread {}",
            mean_reward(true, &focused),
            mean_reward(true, &spread)
        );
    }

    #[test]
    fn comm_aware_reward_penalises_fragmentation() {
        let cfg = GymConfig {
            comm_aware_reward: true,
            busy_device_prob: 0.0, // always fully free → deterministic k
            ..GymConfig::default()
        };
        let mut e = QCloudGymEnv::new(
            &ibm_fleet(1),
            JobDistribution::default(),
            SimParams::default(),
            cfg.clone(),
        );
        let plain = GymConfig {
            busy_device_prob: 0.0,
            ..GymConfig::default()
        };
        let mut e2 = QCloudGymEnv::new(
            &ibm_fleet(1),
            JobDistribution::default(),
            SimParams::default(),
            plain,
        );
        e.reset(5);
        e2.reset(5);
        let spread = [0.2f32, 0.2, 0.2, 0.2, 0.2];
        let r_shaped = e.step(&spread).reward;
        let r_plain = e2.step(&spread).reward;
        assert!(
            r_shaped < r_plain,
            "shaping must penalise: {r_shaped} !< {r_plain}"
        );
    }

    #[test]
    fn reset_is_deterministic() {
        let mut a = env();
        let mut b = env();
        assert_eq!(a.reset(42), b.reset(42));
        let act = vec![0.5f32; 5];
        assert_eq!(a.step(&act), b.step(&act));
    }

    #[test]
    fn encode_observation_pads_missing_devices() {
        let cfg = GymConfig::default();
        let view = CloudView {
            devices: vec![crate::broker::DeviceView {
                id: DeviceId(0),
                free: 100,
                capacity: 127,
                busy_fraction: 0.2,
                mean_utilization: 0.2,
                error_score: 0.01,
                clops: 220_000.0,
                qv_layers: 7.0,
            }],
        };
        let mut obs = vec![f32::NAN; cfg.obs_dim()];
        encode_observation_into(&mut obs, 190, &view, &QueueFeatures::default(), &cfg);
        assert_eq!(obs.len(), 16);
        assert!(obs[4..].iter().all(|&x| x == 0.0), "slots 2–5 zero-padded");
    }

    #[test]
    fn gym_config_tolerates_pre_queue_aware_json() {
        // Checkpoint configs serialised before the queue-aware fields were
        // added must still load (serde defaults).
        let old = r#"{"max_devices":5,"q_max_norm":250.0,"capacity_norm":150.0,"clops_norm":1000000.0,"comm_aware_reward":false,"busy_device_prob":0.5}"#;
        let cfg: GymConfig = serde_json::from_str(old).unwrap();
        assert!(!cfg.queue_aware);
        assert_eq!(cfg.obs_dim(), 16);
        let json = serde_json::to_string(&GymConfig::default()).unwrap();
        let back: GymConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, GymConfig::default());
    }
}
