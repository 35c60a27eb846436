//! Cross-crate integration tests: the full pipeline from workload
//! generation through scheduling to summary metrics, exercising every
//! layer together.

use qcs::prelude::*;
use qcs::qcloud::policies::by_name;

fn run(policy: &str, n_jobs: usize, seed: u64) -> qcs::qcloud::simenv::RunResult {
    let jobs = qcs::workload::smoke(n_jobs, seed).jobs;
    let env = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(seed),
        by_name(policy, seed).unwrap(),
        jobs,
        SimParams::default(),
        seed,
    );
    env.run()
}

#[test]
fn every_builtin_policy_completes_the_workload() {
    for policy in ["speed", "fidelity", "fair", "roundrobin", "random"] {
        let r = run(policy, 40, 3);
        assert_eq!(r.summary.jobs_finished, 40, "{policy}");
        assert_eq!(r.summary.jobs_unfinished, 0, "{policy}");
        assert!(r.summary.mean_fidelity > 0.5 && r.summary.mean_fidelity < 0.85);
        assert!(r.summary.t_sim > 0.0);
    }
}

#[test]
fn table2_orderings_hold_end_to_end() {
    let n = 120;
    let seed = 42;
    let speed = run("speed", n, seed).summary;
    let fidelity = run("fidelity", n, seed).summary;
    let fair = run("fair", n, seed).summary;

    // Fidelity wins on fidelity, pays in makespan, saves communication.
    assert!(fidelity.mean_fidelity > speed.mean_fidelity + 0.005);
    assert!(fidelity.mean_fidelity > fair.mean_fidelity + 0.005);
    assert!(fidelity.t_sim > 1.15 * speed.t_sim);
    assert!(fidelity.total_comm < speed.total_comm);
    // Speed and fair are close in makespan (paper reports them equal).
    let ratio = speed.t_sim / fair.t_sim;
    assert!(
        (0.8..1.25).contains(&ratio),
        "speed/fair makespan ratio {ratio}"
    );
    // Error-aware always uses the minimal two devices.
    assert!((fidelity.mean_devices_per_job - 2.0).abs() < 1e-9);
}

#[test]
fn conservation_qubits_always_returned() {
    // After any run, every device must be back at full free capacity —
    // checked indirectly: a follow-up job can still use the whole fleet.
    let jobs1 = qcs::workload::smoke(25, 9).jobs;
    let mut all = jobs1;
    // A final 250-qubit job that needs 2 full devices.
    all.push(QJob {
        id: JobId(9999),
        num_qubits: 250,
        depth: 10,
        num_shots: 20_000,
        two_qubit_gates: 700,
        arrival_time: 0.0,
    });
    let env = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(9),
        by_name("speed", 9).unwrap(),
        all,
        SimParams::default(),
        9,
    );
    let r = env.run();
    assert_eq!(r.summary.jobs_unfinished, 0);
}

#[test]
fn csv_roundtrip_preserves_simulation_outcomes() {
    let jobs = qcs::workload::smoke(20, 5).jobs;
    let csv = qcs::workload::csv::to_csv(&jobs);
    let reloaded = qcs::workload::csv::from_csv(&csv).unwrap();
    assert_eq!(jobs, reloaded);

    let direct = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(5),
        by_name("fair", 5).unwrap(),
        jobs,
        SimParams::default(),
        5,
    )
    .run();
    let replayed = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(5),
        by_name("fair", 5).unwrap(),
        reloaded,
        SimParams::default(),
        5,
    )
    .run();
    assert_eq!(direct.summary.t_sim, replayed.summary.t_sim);
    assert_eq!(direct.summary.mean_fidelity, replayed.summary.mean_fidelity);
}

#[test]
fn rl_policy_trains_and_deploys_end_to_end() {
    use qcs::qcloud::policies::RlBroker;
    use qcs::rl::env::Env;

    let gym_cfg = GymConfig::default();
    let envs: Vec<Box<dyn Env>> = (0..2)
        .map(|_| {
            Box::new(QCloudGymEnv::new(
                &qcs::calibration::ibm_fleet(1),
                JobDistribution::default(),
                SimParams::default(),
                gym_cfg.clone(),
            )) as Box<dyn Env>
        })
        .collect();
    let mut venv = VecEnv::sequential(envs);
    let mut ppo = Ppo::new(
        gym_cfg.obs_dim(),
        gym_cfg.max_devices,
        PpoConfig {
            n_steps: 128,
            batch_size: 32,
            n_epochs: 4,
            seed: 1,
            ..PpoConfig::default()
        },
    );
    ppo.learn(&mut venv, 2_000);
    assert!(ppo.log().final_reward() > 0.3, "training collapsed");

    let broker = RlBroker::from_json(&ppo.ac.to_json(), gym_cfg).unwrap();
    let jobs = qcs::workload::smoke(20, 2).jobs;
    let env = QCloudSimEnv::new(
        qcs::calibration::ibm_fleet(2),
        Box::new(broker),
        jobs,
        SimParams::default(),
        2,
    );
    let r = env.run();
    assert_eq!(r.summary.jobs_finished, 20);
    assert!(r.summary.mean_devices_per_job >= 2.0);
}

#[test]
fn gym_observation_matches_paper_dimensions() {
    use qcs::rl::env::Env;
    let mut env = QCloudGymEnv::new(
        &qcs::calibration::ibm_fleet(3),
        JobDistribution::default(),
        SimParams::default(),
        GymConfig::default(),
    );
    assert_eq!(env.obs_dim(), 16); // 1 + 3·5 (paper §4.1)
    assert_eq!(env.action_dim(), 5);
    let obs = env.reset(1);
    assert_eq!(obs.len(), 16);
    let step = env.step(&[0.2; 5]);
    assert!(step.terminated, "single-step episodes (paper §4.1)");
}

#[test]
fn deterministic_across_full_stack() {
    let a = run("speed", 30, 77);
    let b = run("speed", 30, 77);
    assert_eq!(a.records, b.records);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn paper_constraint_eq1_holds_for_generated_workloads() {
    let jobs = qcs::workload::paper_case_study(1).jobs;
    let fleet = qcs::calibration::ibm_fleet(1);
    let max_single = fleet
        .iter()
        .map(|d| d.spec.num_qubits as u64)
        .max()
        .unwrap();
    let total: u64 = fleet.iter().map(|d| d.spec.num_qubits as u64).sum();
    for j in &jobs {
        assert!(j.num_qubits > max_single, "job must exceed any single QPU");
        assert!(j.num_qubits < total, "job must fit the cloud");
    }
}
