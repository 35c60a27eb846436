//! RL-based allocation (paper §5, "Reinforcement Learning Mode"): a trained
//! PPO policy emits continuous allocation weights over the fleet, which are
//! normalised and rounded into a qubit partition (§4.1).

use crate::broker::{AllocationPlan, Broker, CloudView};
use crate::gym::{encode_observation_into, GymConfig, QueueFeatures};
use crate::job::QJob;
use crate::partition::{free_limits, weights_to_parts};
use qcs_rl::policy::{ActScratch, ActorCritic};

/// Deploys a trained [`ActorCritic`] as an allocation policy. Uses the
/// deterministic (mean) action, matching SB3's `predict(deterministic=True)`
/// deployment convention.
pub struct RlBroker {
    policy: ActorCritic,
    cfg: GymConfig,
    scratch: ActScratch,
    obs: Vec<f32>,
    weights: Vec<f32>,
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
        // The deployed broker has no queue context: an empty queue.
        let queue = QueueFeatures::default();
        encode_observation_into(&mut self.obs, job.num_qubits, view, &queue, &self.cfg);
        self.policy
            .act_deterministic_into(&self.obs, &mut self.scratch, &mut self.weights);
        let limits = free_limits(view);
        match weights_to_parts(&self.weights[..view.devices.len()], job.num_qubits, &limits) {
            Some(parts) => AllocationPlan::Dispatch(parts),
            None => AllocationPlan::Wait,
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

    #[test]
    #[should_panic(expected = "different observation layout")]
    fn mismatched_policy_rejected() {
        let cfg = GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(3);
        let policy = ActorCritic::new(7, cfg.max_devices, &mut rng);
        let _ = RlBroker::new(policy, cfg);
    }
}
