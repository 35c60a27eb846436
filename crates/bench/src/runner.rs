//! Strategy execution helpers shared by the harness binaries.

use qcs_calibration::ibm_fleet;
use qcs_qcloud::policies::{scheduler_by_name, FairBroker, FidelityBroker, RlBroker, SpeedBroker};
use qcs_qcloud::simenv::RunResult;
use qcs_qcloud::{
    Broker, FaultScript, FifoAdapter, GymConfig, QCloudSimEnv, QJob, RetryPolicy, Scheduler,
    SimParams,
};

/// How to instantiate a strategy for a run.
#[derive(Debug, Clone)]
pub enum StrategySpec {
    /// A policy or composed scheduler spec resolved through
    /// [`scheduler_by_name`]: a bare policy (`speed`, `fidelity`, `fair`,
    /// `roundrobin`, `random`, `minfrag`, `hybrid`, `rl:<path>`) runs
    /// under the paper's FIFO discipline; `<discipline>+<policy>` composes
    /// a queue-aware discipline with it (`backfill+speed`,
    /// `priority:edf+fair`, …).
    Named(String),
    /// The RL policy, from a serialised [`qcs_rl::ActorCritic`] JSON.
    Rl {
        /// Policy JSON (from [`qcs_rl::ActorCritic::to_json`]).
        policy_json: String,
        /// The observation/normalisation config used in training.
        gym: GymConfig,
    },
}

impl StrategySpec {
    /// Strategy display name.
    pub fn name(&self) -> &str {
        match self {
            StrategySpec::Named(n) => n,
            StrategySpec::Rl { .. } => "rlbase",
        }
    }

    /// Builds the queue-aware scheduler; `window` is the FIFO scan window
    /// (`params.backfill_depth + 1` for parity with [`QCloudSimEnv::new`]).
    pub fn scheduler(&self, seed: u64, window: usize) -> Box<dyn Scheduler> {
        match self {
            StrategySpec::Named(n) => scheduler_by_name(n, seed, window)
                .unwrap_or_else(|| panic!("unknown strategy '{n}'")),
            StrategySpec::Rl { policy_json, gym } => {
                let broker =
                    RlBroker::from_json(policy_json, gym.clone()).expect("invalid RL policy JSON");
                Box::new(FifoAdapter::new(Box::new(broker), window))
            }
        }
    }
}

/// Runs one strategy over a job trace on the five-device paper fleet.
pub fn run_strategy(
    spec: &StrategySpec,
    jobs: Vec<QJob>,
    params: &SimParams,
    seed: u64,
) -> RunResult {
    run_strategy_with_faults(spec, jobs, params, seed, None)
}

/// [`run_strategy`] with an optional fault script + retry policy (from
/// `FaultScript::parse` of a `--faults` CLI spec) installed before the
/// run. Every strategy sees the *same* script; the fault seed lives in
/// the script, so injection is identical across strategies.
pub fn run_strategy_with_faults(
    spec: &StrategySpec,
    jobs: Vec<QJob>,
    params: &SimParams,
    seed: u64,
    faults: Option<&(FaultScript, RetryPolicy)>,
) -> RunResult {
    let mut env = QCloudSimEnv::with_scheduler(
        ibm_fleet(seed),
        spec.scheduler(seed, params.backfill_depth + 1),
        jobs,
        params.clone(),
        seed,
    );
    if let Some((script, retry)) = faults {
        env.install_faults(script, *retry);
    }
    env.run()
}

/// Runs several strategies over the *same* job trace, in parallel across
/// OS threads (each strategy's simulation is independent).
pub fn run_strategies(
    specs: &[StrategySpec],
    jobs: &[QJob],
    params: &SimParams,
    seed: u64,
) -> Vec<RunResult> {
    run_strategies_with_faults(specs, jobs, params, seed, None)
}

/// [`run_strategies`] under an optional shared fault script.
pub fn run_strategies_with_faults(
    specs: &[StrategySpec],
    jobs: &[QJob],
    params: &SimParams,
    seed: u64,
    faults: Option<&(FaultScript, RetryPolicy)>,
) -> Vec<RunResult> {
    let items: Vec<(StrategySpec, Vec<QJob>)> =
        specs.iter().map(|s| (s.clone(), jobs.to_vec())).collect();
    qcs_desim::parallel::par_map(items, specs.len(), |(spec, jobs)| {
        run_strategy_with_faults(&spec, jobs, params, seed, faults)
    })
}

impl StrategySpec {
    /// Whether any entry in a comma-separated `--strategies` list names the
    /// trained-RL row (`rl` / `rlbase`), i.e. whether the caller must
    /// supply a policy JSON to [`StrategySpec::parse_list`].
    pub fn list_wants_rl(list: &str) -> bool {
        list.split(',').any(|s| matches!(s.trim(), "rl" | "rlbase"))
    }

    /// Parses a comma-separated `--strategies` list into specs: `rl` /
    /// `rlbase` become the trained-RL row (deployed from `policy_json`
    /// under `gym`), everything else is a [`StrategySpec::Named`] scheduler
    /// spec resolved at run time. Empty entries are skipped.
    pub fn parse_list(list: &str, policy_json: &str, gym: &GymConfig) -> Vec<StrategySpec> {
        list.split(',')
            .map(|s| s.trim())
            .filter(|s| !s.is_empty())
            .map(|s| {
                if matches!(s, "rl" | "rlbase") {
                    StrategySpec::Rl {
                        policy_json: policy_json.to_string(),
                        gym: gym.clone(),
                    }
                } else {
                    StrategySpec::Named(s.to_string())
                }
            })
            .collect()
    }
}

/// The paper's four Table 2 strategies; the RL row requires a trained
/// policy JSON.
pub fn table2_strategies(rl_policy_json: String, gym: GymConfig) -> Vec<StrategySpec> {
    vec![
        StrategySpec::Named("speed".into()),
        StrategySpec::Named("fidelity".into()),
        StrategySpec::Named("fair".into()),
        StrategySpec::Rl {
            policy_json: rl_policy_json,
            gym,
        },
    ]
}

/// Convenience: builds plain brokers for tests.
pub fn builtin_brokers() -> Vec<Box<dyn Broker>> {
    vec![
        Box::new(SpeedBroker::new()),
        Box::new(FidelityBroker::new()),
        Box::new(FairBroker::new()),
    ]
}

/// Ensures the `results/` directory exists and returns its path.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("QCS_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
    );
    std::fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_workload::smoke;

    #[test]
    fn named_strategies_run_and_agree_with_direct_construction() {
        let jobs = smoke(15, 3).jobs;
        let params = SimParams::default();
        let spec = StrategySpec::Named("speed".into());
        let a = run_strategy(&spec, jobs.clone(), &params, 3);
        let env = QCloudSimEnv::new(ibm_fleet(3), Box::new(SpeedBroker::new()), jobs, params, 3);
        let b = env.run();
        assert_eq!(a.summary.t_sim, b.summary.t_sim);
        assert_eq!(a.summary.mean_fidelity, b.summary.mean_fidelity);
    }

    #[test]
    fn parallel_strategy_runs_match_sequential() {
        let jobs = smoke(12, 5).jobs;
        let params = SimParams::default();
        let specs = vec![
            StrategySpec::Named("speed".into()),
            StrategySpec::Named("fidelity".into()),
            StrategySpec::Named("fair".into()),
        ];
        let par = run_strategies(&specs, &jobs, &params, 5);
        for (spec, p) in specs.iter().zip(&par) {
            let s = run_strategy(spec, jobs.clone(), &params, 5);
            assert_eq!(p.summary.t_sim, s.summary.t_sim, "{}", spec.name());
            assert_eq!(p.summary.mean_fidelity, s.summary.mean_fidelity);
        }
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn unknown_strategy_panics() {
        StrategySpec::Named("warp".into()).scheduler(0, 1);
    }

    #[test]
    fn strategy_list_parsing_handles_rl_aliases() {
        assert!(StrategySpec::list_wants_rl("speed,rl"));
        assert!(StrategySpec::list_wants_rl("speed, rlbase ,fair"));
        assert!(!StrategySpec::list_wants_rl("speed,rl:path.json"));
        let gym = GymConfig::default();
        let specs = StrategySpec::parse_list("speed,,rlbase, backfill+fair ", "{}", &gym);
        assert_eq!(specs.len(), 3);
        assert!(matches!(&specs[0], StrategySpec::Named(n) if n == "speed"));
        assert!(matches!(&specs[1], StrategySpec::Rl { policy_json, .. } if policy_json == "{}"));
        assert!(matches!(&specs[2], StrategySpec::Named(n) if n == "backfill+fair"));
    }

    #[test]
    fn composed_discipline_specs_run() {
        let jobs = smoke(15, 9).jobs;
        let params = SimParams::default();
        for spec in [
            "backfill+speed",
            "priority:sjf+fair",
            "priority:edf+minfrag",
        ] {
            let res = run_strategy(&StrategySpec::Named(spec.into()), jobs.clone(), &params, 9);
            assert_eq!(res.summary.jobs_unfinished, 0, "{spec}");
        }
    }
}
