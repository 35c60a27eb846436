//! RL-based allocation (paper §5, "Reinforcement Learning Mode"): a trained
//! PPO policy emits continuous allocation weights over the fleet, which are
//! normalised and rounded into a qubit partition (§4.1).

use crate::broker::{AllocationPlan, Broker, CloudView, Parts};
use crate::gym::{encode_observation_into, GymConfig};
use crate::job::QJob;
use crate::partition::{weights_to_parts_into, PartitionScratch};
use qcs_rl::policy::{ActScratch, ActorCritic};

/// Deploys a trained [`ActorCritic`] as an allocation policy. Uses the
/// deterministic (mean) action, matching SB3's `predict(deterministic=True)`
/// deployment convention.
///
/// A job larger than the view's free qubits waits before the observation
/// is encoded: no partition of the free qubits holds it, whatever the
/// weights, so the forward pass could not change the answer.
pub struct RlBroker {
    policy: ActorCritic,
    cfg: GymConfig,
    scratch: ActScratch,
    obs: Vec<f32>,
    weights: Vec<f32>,
    /// Per-device free qubits of the current view, reused across selects.
    limits: Vec<u64>,
    partition: PartitionScratch,
}

impl RlBroker {
    /// Wraps a trained policy. `cfg` must match the training configuration
    /// (normalisers and device-slot count); panics otherwise.
    pub fn new(policy: ActorCritic, cfg: GymConfig) -> Self {
        if let Err(e) = check_layout(&policy, &cfg) {
            panic!("{e}");
        }
        RlBroker {
            obs: vec![0.0; cfg.obs_dim()],
            weights: vec![0.0; cfg.max_devices],
            policy,
            cfg,
            scratch: ActScratch::new(),
            limits: Vec::new(),
            partition: PartitionScratch::default(),
        }
    }

    /// Loads a policy previously saved with
    /// [`ActorCritic::to_json`]. A malformed policy, or one whose widths do
    /// not match `cfg`, is an `Err`.
    pub fn from_json(json: &str, cfg: GymConfig) -> Result<Self, String> {
        let policy = ActorCritic::from_json(json)?;
        check_layout(&policy, &cfg)?;
        Ok(Self::new(policy, cfg))
    }
}

/// `Err` unless `policy` reads `cfg`'s observation layout and emits one
/// weight per device slot.
fn check_layout(policy: &ActorCritic, cfg: &GymConfig) -> Result<(), String> {
    if policy.obs_dim() != cfg.obs_dim() {
        return Err(format!(
            "policy was trained with a different observation layout: {} inputs, config has {}",
            policy.obs_dim(),
            cfg.obs_dim()
        ));
    }
    if policy.action_dim() != cfg.max_devices {
        return Err(format!(
            "policy was trained with a different device count: {} outputs, config has {}",
            policy.action_dim(),
            cfg.max_devices
        ));
    }
    Ok(())
}

impl Broker for RlBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        if job.num_qubits > view.total_free() {
            return AllocationPlan::Wait;
        }
        encode_observation_into(&mut self.obs, job.num_qubits, view, &self.cfg);
        self.policy
            .act_deterministic_into(&self.obs, &mut self.scratch, &mut self.weights);
        self.limits.clear();
        self.limits.extend(view.devices.iter().map(|d| d.free));
        let mut parts = Parts::new();
        if weights_to_parts_into(
            &self.weights[..view.devices.len()],
            job.num_qubits,
            &self.limits,
            &mut self.partition,
            &mut parts,
        ) {
            AllocationPlan::Dispatch(parts)
        } else {
            AllocationPlan::Wait
        }
    }

    fn name(&self) -> &str {
        "rlbase"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{test_job, test_view};
    use proptest::prelude::*;
    use qcs_desim::Xoshiro256StarStar;

    fn untrained_broker() -> RlBroker {
        let cfg = GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(1);
        let policy = ActorCritic::new(cfg.obs_dim(), cfg.max_devices, &mut rng);
        RlBroker::new(policy, cfg)
    }

    #[test]
    fn produces_valid_dispatch_on_free_fleet() {
        let mut b = untrained_broker();
        let view = test_view(&[127, 127, 127, 127, 127]);
        let job = test_job(190);
        let plan = b.select(&job, &view);
        plan.validate(&job, &view).unwrap();
        assert!(plan.device_count() >= 2, "q > 127 forces a split");
    }

    #[test]
    fn waits_when_fleet_exhausted() {
        let mut b = untrained_broker();
        let view = test_view(&[30, 30, 30, 30, 30]);
        assert_eq!(b.select(&test_job(190), &view), AllocationPlan::Wait);
    }

    #[test]
    fn deterministic_deployment() {
        let mut b1 = untrained_broker();
        let mut b2 = untrained_broker();
        let view = test_view(&[127, 90, 127, 60, 127]);
        let job = test_job(210);
        assert_eq!(b1.select(&job, &view), b2.select(&job, &view));
    }

    #[test]
    fn from_json_rejects_width_mismatches_with_the_config() {
        let cfg = GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(3);
        let wide_obs = ActorCritic::new(cfg.obs_dim() + 1, cfg.max_devices, &mut rng);
        let err = RlBroker::from_json(&wide_obs.to_json(), cfg.clone())
            .err()
            .expect("obs width mismatch must not load");
        assert!(err.contains("different observation layout"), "{err}");
        let extra_device = ActorCritic::new(cfg.obs_dim(), cfg.max_devices + 1, &mut rng);
        let err = RlBroker::from_json(&extra_device.to_json(), cfg.clone())
            .err()
            .expect("action width mismatch must not load");
        assert!(err.contains("different device count"), "{err}");
        let mut malformed = ActorCritic::new(cfg.obs_dim(), cfg.max_devices, &mut rng);
        malformed.log_std.pop();
        assert!(RlBroker::from_json(&malformed.to_json(), cfg).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let cfg = GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(2);
        let policy = ActorCritic::new(cfg.obs_dim(), cfg.max_devices, &mut rng);
        let json = policy.to_json();
        let mut b1 = RlBroker::new(policy, cfg.clone());
        let mut b2 = RlBroker::from_json(&json, cfg).unwrap();
        let view = test_view(&[127, 127, 127, 127, 127]);
        let job = test_job(170);
        assert_eq!(b1.select(&job, &view), b2.select(&job, &view));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The guarded `select` is the plain chain — encode, act,
        /// `weights_to_parts_into` — bit for bit, on generated views of one
        /// to five devices and jobs on both sides of the free qubits. A job
        /// larger than the free qubits waits without an observation being
        /// encoded; every third job is one by construction.
        #[test]
        fn guard_answers_as_the_plain_chain(seed in 0u64..1_000_000_000) {
            let mut rng = Xoshiro256StarStar::new(seed);
            let cfg = GymConfig::default();
            let policy = ActorCritic::new(cfg.obs_dim(), cfg.max_devices, &mut rng);
            let mut broker = RlBroker::new(policy.clone(), cfg.clone());
            let mut obs = vec![0.0f32; cfg.obs_dim()];
            let mut weights = vec![0.0f32; cfg.max_devices];
            let mut scratch = ActScratch::new();
            let mut partition = PartitionScratch::default();
            let selects = 12;
            let mut guarded = 0;
            for i in 0..selects {
                let n = rng.range_u64(1, cfg.max_devices as u64) as usize;
                let frees: Vec<u64> = (0..n)
                    .map(|_| match rng.next_below(3) {
                        0 => 0,
                        _ => rng.range_u64(0, 127),
                    })
                    .collect();
                let view = test_view(&frees);
                let free = view.total_free();
                let job = test_job(match i % 3 {
                    0 => free + rng.range_u64(1, 250),
                    1 => rng.range_u64(1, free.max(1)),
                    _ => rng.range_u64(1, 400),
                });
                broker.obs.fill(f32::NAN);
                let got = broker.select(&job, &view);

                encode_observation_into(&mut obs, job.num_qubits, &view, &cfg);
                policy.act_deterministic_into(&obs, &mut scratch, &mut weights);
                let mut parts = Parts::new();
                let want = if weights_to_parts_into(
                    &weights[..n],
                    job.num_qubits,
                    &frees,
                    &mut partition,
                    &mut parts,
                ) {
                    AllocationPlan::Dispatch(parts)
                } else {
                    AllocationPlan::Wait
                };
                prop_assert_eq!(&got, &want, "frees {:?} job {}", frees, job.num_qubits);

                let too_big = job.num_qubits > free;
                prop_assert_eq!(broker.obs.iter().all(|v| v.is_nan()), too_big);
                if too_big {
                    prop_assert_eq!(got, AllocationPlan::Wait);
                    guarded += 1;
                }
            }
            prop_assert!(guarded * 3 >= selects, "{guarded} of {selects} guarded");
        }
    }

    #[test]
    #[should_panic(expected = "different observation layout")]
    fn mismatched_policy_rejected() {
        let cfg = GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(3);
        let policy = ActorCritic::new(7, cfg.max_devices, &mut rng);
        let _ = RlBroker::new(policy, cfg);
    }
}
