//! The allocation policies of paper §5 plus two extra baselines.
//!
//! | Policy | Paper mode | Selection rule |
//! |---|---|---|
//! | [`SpeedBroker`] | Speed-based | fastest (highest-CLOPS) devices first, spill on contention |
//! | [`FidelityBroker`] | Error-aware | lowest-error devices, *waits* for them (quality-strict) |
//! | [`FairBroker`] | Fair | least-utilised devices first, spill on contention |
//! | [`RlBroker`] | RL-based | trained PPO policy emits allocation weights |
//! | [`RoundRobinBroker`] | — | rotating start device (baseline) |
//! | [`RandomBroker`] | — | random device order (baseline) |
//!
//! Specs are **typed**: [`SchedSpec`] (a [`Discipline`] plus a
//! [`Placement`]) is the parsed form of the CLI's `[discipline+]policy`
//! grammar — see the [`spec`] module for the grammar definition and the
//! single registry every help listing derives from. The stringly surface
//! is a thin wrapper: [`by_name`] (including `rl:<checkpoint-path>` for a
//! trained RL policy) and [`scheduler_by_name`] (`backfill+speed`,
//! `priority:edf+fair`, …) parse to the typed form and build from it, so
//! they accept exactly the registry's strings; [`names`] and
//! [`discipline_names`] feed CLI help text from the registry.

pub mod fair;
pub mod fidelity;
pub mod hybrid;
pub mod minfrag;
pub mod random;
pub mod rl;
pub mod round_robin;
pub mod spec;
pub mod speed;

pub use fair::FairBroker;
pub use fidelity::FidelityBroker;
pub use hybrid::HybridBroker;
pub use minfrag::MinFragBroker;
pub use random::RandomBroker;
pub use rl::RlBroker;
pub use round_robin::RoundRobinBroker;
pub use spec::{Discipline, Placement, PriorityRule, SchedSpec, SpecParseError};
pub use speed::SpeedBroker;

use crate::broker::Broker;
use crate::gym::GymConfig;
use crate::sched::{
    BackfillScheduler, ConservativeBackfillScheduler, FifoAdapter, PriorityDiscipline,
    PriorityScheduler, Scheduler,
};
use crate::sla::DeadlinePolicy;

/// The paper strategies by name (for harness CLI selection): `speed`,
/// `fidelity`, `fair`, `roundrobin`, `random`, `minfrag`, `hybrid`,
/// `hybrid-strict`, plus `rl:<checkpoint-path>` — the deployed RL policy
/// loaded from an [`qcs_rl::policy::ActorCritic`] JSON checkpoint (as
/// written by the `fig5`/`table2` harness binaries), so `rlbase` is
/// reachable from the CLI like every other policy.
///
/// Panics (with the I/O or decode error) when an `rl:` checkpoint exists
/// syntactically but cannot be loaded — a misconfiguration, not an unknown
/// name. Returns `None` only for unrecognised names.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Broker>> {
    name.parse::<Placement>().ok().map(|p| p.build(seed))
}

impl Placement {
    /// Instantiates the policy. `seed` feeds the stochastic baselines
    /// ([`Placement::Random`]).
    ///
    /// Panics (with the I/O or decode error) when an
    /// [`Placement::Rl`] checkpoint cannot be loaded — a
    /// misconfiguration, not an unknown name.
    pub fn build(&self, seed: u64) -> Box<dyn Broker> {
        match self {
            Placement::Speed => Box::new(SpeedBroker::new()),
            Placement::Fidelity => Box::new(FidelityBroker::new()),
            Placement::Fair => Box::new(FairBroker::new()),
            Placement::RoundRobin => Box::new(RoundRobinBroker::new()),
            Placement::Random => Box::new(RandomBroker::new(seed)),
            Placement::MinFrag => Box::new(MinFragBroker::new()),
            Placement::Hybrid => Box::new(HybridBroker::new(0.5)),
            Placement::HybridStrict => Box::new(HybridBroker::strict(0.5)),
            Placement::Rl { path } => {
                let json = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read RL checkpoint '{path}': {e}"));
                let broker = RlBroker::from_json(&json, GymConfig::default())
                    .unwrap_or_else(|e| panic!("invalid RL checkpoint '{path}': {e}"));
                Box::new(broker)
            }
        }
    }
}

impl SchedSpec {
    /// Instantiates the composed scheduler. `window` is the FIFO scan
    /// depth (the seed semantics; `window = backfill_depth + 1` reproduces
    /// `SimParams`), ignored by the other disciplines.
    pub fn build(&self, seed: u64, window: usize) -> Box<dyn Scheduler> {
        // An `rl:` checkpoint can hold either a per-job placement policy
        // (a plain ActorCritic, composable under any discipline) or a
        // complete queue-deep scheduler trained on
        // [`crate::rlsched::SchedulerEnv`]. Probe for the latter first: it
        // replaces the whole discipline, so composing it makes no sense.
        if let Placement::Rl { path } = &self.placement {
            if let Some(sched) = crate::rlsched::try_load_scheduler(path, seed) {
                assert!(
                    matches!(self.discipline, Discipline::Fifo),
                    "scheduler RL checkpoint '{path}' is a complete discipline; \
                     it cannot compose under '{}'",
                    self.discipline
                );
                return sched;
            }
        }
        let broker = self.placement.build(seed);
        match self.discipline {
            Discipline::Fifo => Box::new(FifoAdapter::new(broker, window)),
            Discipline::Backfill => Box::new(BackfillScheduler::new(broker)),
            Discipline::Conservative => Box::new(ConservativeBackfillScheduler::new(broker)),
            Discipline::Priority(rule) => {
                let d = match rule {
                    PriorityRule::Sjf => PriorityDiscipline::ShortestFirst,
                    PriorityRule::Edf => {
                        PriorityDiscipline::EarliestDeadline(DeadlinePolicy::default())
                    }
                    // 0.1 qubits of priority per queued second: a 250-qubit
                    // job overtakes a fresh 130-qubit job after 20 minutes
                    // of waiting.
                    PriorityRule::Aging => PriorityDiscipline::WeightedAging { aging: 0.1 },
                };
                Box::new(PriorityScheduler::new(broker, d))
            }
        }
    }
}

/// Every name [`by_name`] accepts, for CLI help text, in registry order
/// ([`spec::PLACEMENTS`]). `rl:<path>` stands for the checkpoint-loading
/// spec.
pub fn names() -> Vec<&'static str> {
    spec::PLACEMENTS.iter().map(|c| c.token).collect()
}

/// Scheduling-discipline prefixes [`scheduler_by_name`] accepts in front of
/// a policy name (joined with `+`), for CLI help text, in registry order
/// ([`spec::DISCIPLINES`]).
pub fn discipline_names() -> Vec<&'static str> {
    spec::DISCIPLINES.iter().map(|c| c.token).collect()
}

/// Resolves a composed scheduler spec `[discipline+]policy` to a
/// queue-aware [`Scheduler`]:
///
/// * a bare policy name (`speed`, `rl:<path>`, …) or `fifo+<policy>` runs
///   under [`FifoAdapter`] with the given scan `window` (the seed
///   semantics; `window = backfill_depth + 1` reproduces `SimParams`);
/// * `backfill+<policy>` runs EASY backfilling ([`BackfillScheduler`]);
/// * `conservative+<policy>` runs conservative backfilling with
///   availability-aware start reservations for every queued job
///   ([`ConservativeBackfillScheduler`]);
/// * `priority+<policy>` (alias `priority:sjf`), `priority:edf+<policy>`,
///   `priority:aging+<policy>` run the ranked-queue disciplines
///   ([`PriorityScheduler`]).
///
/// Returns `None` when either component is unknown; parse via
/// [`SchedSpec`] directly for an error naming the offending token.
pub fn scheduler_by_name(spec: &str, seed: u64, window: usize) -> Option<Box<dyn Scheduler>> {
    spec.parse::<SchedSpec>()
        .ok()
        .map(|s| s.build(seed, window))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_known_policies() {
        for n in [
            "speed",
            "fidelity",
            "fair",
            "roundrobin",
            "random",
            "minfrag",
        ] {
            assert_eq!(by_name(n, 0).unwrap().name(), n);
        }
        assert_eq!(by_name("hybrid", 0).unwrap().name(), "hybrid(0.50)");
        assert_eq!(
            by_name("hybrid-strict", 0).unwrap().name(),
            "hybrid-strict(0.50)"
        );
        assert!(
            by_name("rlbase", 0).is_none(),
            "rlbase needs a trained policy (use rl:<path>)"
        );
        assert!(by_name("nope", 0).is_none());
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for n in names() {
            if n.starts_with("rl:") {
                continue; // needs a checkpoint file
            }
            assert!(by_name(n, 0).is_some(), "{n} listed but unresolvable");
        }
    }

    #[test]
    fn rl_spec_loads_checkpoint_from_disk() {
        use qcs_desim::Xoshiro256StarStar;
        let cfg = crate::gym::GymConfig::default();
        let mut rng = Xoshiro256StarStar::new(5);
        let policy = qcs_rl::policy::ActorCritic::new(cfg.obs_dim(), cfg.max_devices, &mut rng);
        let dir = std::env::temp_dir().join("qcs_rl_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        std::fs::write(&path, policy.to_json()).unwrap();
        let spec = format!("rl:{}", path.display());
        let broker = by_name(&spec, 0).expect("rl: spec must resolve");
        assert_eq!(broker.name(), "rlbase");
    }

    #[test]
    #[should_panic(expected = "cannot read RL checkpoint")]
    fn rl_spec_missing_file_panics_with_context() {
        by_name("rl:/nonexistent/policy.json", 0);
    }

    #[test]
    fn rl_spec_resolves_scheduler_checkpoints() {
        use crate::rlsched::{SchedCheckpoint, SchedObsConfig};
        use qcs_desim::Xoshiro256StarStar;
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(8);
        let policy = qcs_rl::policy::ActorCritic::new(obs.obs_dim(), obs.action_dim(), &mut rng);
        let ck = SchedCheckpoint::new(obs, &Placement::Speed, policy);
        let dir = std::env::temp_dir().join("qcs_rl_spec_sched_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sched_policy.json");
        ck.save(&path).unwrap();
        // The same `rl:<path>` surface that loads gym checkpoints resolves
        // a scheduler checkpoint to the full inference adapter.
        let spec = format!("rl:{}", path.display());
        let sched = scheduler_by_name(&spec, 0, 1).expect("sched checkpoint must resolve");
        assert_eq!(sched.name(), "rlsched");
    }

    #[test]
    #[should_panic(expected = "cannot compose")]
    fn sched_checkpoint_rejects_discipline_composition() {
        use crate::rlsched::{SchedCheckpoint, SchedObsConfig};
        use qcs_desim::Xoshiro256StarStar;
        let obs = SchedObsConfig::default();
        let mut rng = Xoshiro256StarStar::new(8);
        let policy = qcs_rl::policy::ActorCritic::new(obs.obs_dim(), obs.action_dim(), &mut rng);
        let ck = SchedCheckpoint::new(obs, &Placement::Speed, policy);
        let dir = std::env::temp_dir().join("qcs_rl_spec_sched_compose_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sched_policy.json");
        ck.save(&path).unwrap();
        let _ = scheduler_by_name(&format!("backfill+rl:{}", path.display()), 0, 1);
    }

    #[test]
    fn scheduler_specs_compose() {
        for (spec, name) in [
            ("speed", "speed"),
            ("fifo+fair", "fair"),
            ("backfill+speed", "backfill+speed"),
            ("conservative+speed", "conservative+speed"),
            ("conservative+fair", "conservative+fair"),
            ("priority+speed", "priority:sjf+speed"),
            ("priority:sjf+minfrag", "priority:sjf+minfrag"),
            ("priority:edf+fair", "priority:edf+fair"),
            ("priority:aging+speed", "priority:aging+speed"),
        ] {
            let s = scheduler_by_name(spec, 0, 1).unwrap_or_else(|| panic!("{spec} unresolved"));
            assert_eq!(s.name(), name, "{spec}");
        }
        assert!(scheduler_by_name("warp+speed", 0, 1).is_none());
        // The seed-mechanics oracle is a test fixture, not a discipline.
        assert!(scheduler_by_name("snapshot+speed", 0, 1).is_none());
        assert!(scheduler_by_name("backfill+warp", 0, 1).is_none());
        for d in discipline_names() {
            assert!(
                scheduler_by_name(&format!("{d}+speed"), 0, 1).is_some(),
                "{d} listed but unresolvable"
            );
        }
    }
}
