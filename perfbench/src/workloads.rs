//! The two workloads. Each pass builds its inputs from the seed, makes
//! the timed public calls, and checks what they returned.
//!
//! | workload | timed calls | layer it loads |
//! |---|---|---|
//! | `service_sharded` | `ParallelServiceHarness::run` | `service` (+ `faults`) |
//! | `rl_train` | `Ppo::learn` ×2, `QCloudSimEnv::run` ×5 | `gym`, `rlsched`, `rl` |

use std::collections::BTreeMap;
use std::time::Instant;

use qcs_calibration::{ibm_fleet, regional_fleet};
use qcs_qcloud::jobgen::{bimodal_arrivals, diurnal_arrivals};
use qcs_qcloud::policies::{by_name, RlBroker};
use qcs_qcloud::{
    AdmissionPolicy, BackfillScheduler, Broker, DeadlinePolicy,
    FaultScript, FifoAdapter, GymConfig, JobDistribution, JobRecord, ParallelServiceHarness,
    QCloudGymEnv, QCloudSimEnv, QJob, QosReport, RetryPolicy, RlSchedScheduler, RoutingPolicy,
    SchedCheckpoint, SchedEnvConfig, Scheduler, SchedulerEnv, ServiceConfig, ServiceHarness,
    SimParams, SummaryStats,
};
use qcs_rl::env::Env;
use qcs_rl::{Ppo, PpoConfig, VecEnv};
use qcs_workload::paper_case_study;

use crate::fingerprint::Fingerprint;
use crate::meter;
use crate::trace::{self, CallStats, Sink, Spans, TimedBroker, TimedEnv, TimedScheduler};

/// Jobs in the `service_sharded` trace.
pub const SERVICE_JOBS: usize = 200_000;
/// Prefix of the `service_sharded` trace replayed through both harnesses.
pub const SERVICE_PARITY_JOBS: usize = 20_000;
/// Region shards of `service_sharded`.
pub const SERVICE_REGIONS: usize = 4;
/// Worker threads of `service_sharded`.
pub const SERVICE_THREADS: usize = 2;
/// Environments per PPO training phase.
pub const RL_ENVS: usize = 4;
/// Environment steps of the paper's PPO broker phase.
pub const GYM_STEPS: u64 = 10_240;
/// Environment steps of the queue-deep `SchedulerEnv` phase.
pub const SCHED_STEPS: u64 = 4_096;
/// Seed of both training phases and of the fleet they train on (the
/// paper's); `--seed` drives the deployment fleet and traces.
pub const TRAIN_SEED: u64 = 42;
/// Jobs in the bimodal trace the trained queue-deep scheduler deploys on.
pub const RL_DEPLOY_JOBS: usize = 10_000;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Parallel sharded service with armed admission and faults.
    ServiceSharded,
    /// PPO broker and queue-deep scheduler training, then deployment.
    RlTrain,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 2] = [Workload::ServiceSharded, Workload::RlTrain];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServiceSharded => "service_sharded",
            Workload::RlTrain => "rl_train",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Checks made once per process, outside every timed window.
    pub fn precheck(self, seed: u64) -> Result<(), String> {
        match self {
            Workload::ServiceSharded => service_parity(seed),
            _ => Ok(()),
        }
    }

    /// Runs one pass: set-up, timed calls, checks.
    pub fn pass(self, seed: u64, traced: bool, spans: &mut Spans) -> Pass {
        match self {
            Workload::ServiceSharded => service_pass(seed, traced, spans),
            Workload::RlTrain => rl_pass(seed, traced, spans),
        }
    }

    /// Threads a pass keeps busy, and so the reference round runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::ServiceSharded => SERVICE_THREADS,
            Workload::RlTrain => 1,
        }
    }

    /// Jobs one pass submits.
    pub fn jobs_per_pass(self) -> u64 {
        match self {
            Workload::ServiceSharded => SERVICE_JOBS as u64,
            // Table 2's four rows each replay the 1 000-job case study.
            Workload::RlTrain => 4 * 1_000 + RL_DEPLOY_JOBS as u64,
        }
    }
}

/// Simulated outcomes of a pass: deterministic for a seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOutcome {
    /// Simulated makespan (s).
    pub makespan_s: f64,
    /// Mean turnaround (arrival to finish) of finished jobs (s).
    pub mean_turnaround_s: f64,
    /// Mean slowdown of finished jobs.
    pub mean_slowdown: f64,
    /// Mean fidelity of finished jobs (paper μ_F).
    pub mean_fidelity: f64,
    /// Total blocking communication time (paper T_comm, s).
    pub comm_s: f64,
    /// Mean queueing delay (s).
    pub mean_wait_s: f64,
    /// Useful over consumed qubit-seconds.
    pub goodput: f64,
    /// Admission rejections over submitted jobs.
    pub rejected_frac: f64,
    /// Final mean episode reward of the PPO broker (0 off `rl_train`).
    pub train_reward: f64,
}

impl SimOutcome {
    fn fields(&self) -> [f64; 9] {
        [
            self.makespan_s,
            self.mean_turnaround_s,
            self.mean_slowdown,
            self.mean_fidelity,
            self.comm_s,
            self.mean_wait_s,
            self.goodput,
            self.rejected_frac,
            self.train_reward,
        ]
    }

    /// Bitwise equality of every field.
    pub fn same_as(&self, other: &SimOutcome) -> bool {
        self.fields()
            .iter()
            .zip(other.fields())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn from_records(records: &[JobRecord], makespan_s: f64) -> Self {
        let summary = SummaryStats::from_records("perfbench", records);
        let qos = QosReport::from_records(records, DeadlinePolicy::default());
        SimOutcome {
            makespan_s,
            mean_turnaround_s: summary.mean_turnaround,
            mean_slowdown: qos.mean_slowdown,
            mean_fidelity: summary.mean_fidelity,
            comm_s: summary.total_comm,
            mean_wait_s: summary.mean_wait,
            goodput: qos.goodput,
            ..SimOutcome::default()
        }
    }
}

/// What one pass measured and checked.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of set-up: fleet, trace and harness/env construction.
    pub setup_s: f64,
    /// Host seconds of the timed public calls.
    pub pass_s: f64,
    /// Host seconds inside `run()` calls.
    pub run_s: f64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs whose records ended terminal.
    pub terminal: u64,
    /// Jobs that ended non-terminal or were flagged by a check.
    pub failed: u64,
    /// What the checks found.
    pub failures: Vec<String>,
    /// Fingerprint of every record stream (and training result).
    pub fingerprint: u64,
    /// Simulated outcomes.
    pub sim: SimOutcome,
    /// Work per host second that tracing overhead is judged on: jobs per
    /// second of `run()`, or environment steps per second of `learn`.
    pub throughput: f64,
    /// Per-layer numbers (filled on traced passes).
    pub layers: BTreeMap<&'static str, f64>,
    /// Self times that together make up the pass's timed calls (traced
    /// passes): each layer's share.
    pub leaves: Vec<(&'static str, f64)>,
}

impl Pass {
    fn fail_all(&mut self, why: String) {
        self.failures.push(why);
        self.failed = self.submitted;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Sinks for the scheduler and placement wrappers of one pass.
struct Probes {
    decide: Sink,
    select: Sink,
}

impl Probes {
    fn new() -> Self {
        Probes {
            decide: trace::sink(),
            select: trace::sink(),
        }
    }
}

/// The scheduling discipline a placement policy runs under.
#[derive(Clone, Copy)]
enum Discipline {
    Fifo(usize),
    Backfill,
}

/// Composes a discipline over a placement policy, as `scheduler_by_name`
/// does, with timing wrappers around both when `probes` is given.
fn compose(
    discipline: Discipline,
    broker: Box<dyn Broker>,
    probes: Option<&Probes>,
) -> Box<dyn Scheduler> {
    let broker: Box<dyn Broker> = match probes {
        Some(p) => Box::new(TimedBroker::new(broker, p.select.clone())),
        None => broker,
    };
    let sched: Box<dyn Scheduler> = match discipline {
        Discipline::Fifo(window) => Box::new(FifoAdapter::new(broker, window)),
        Discipline::Backfill => Box::new(BackfillScheduler::new(broker)),
    };
    timed(sched, probes)
}

fn timed(sched: Box<dyn Scheduler>, probes: Option<&Probes>) -> Box<dyn Scheduler> {
    match probes {
        Some(p) => Box::new(TimedScheduler::new(sched, p.decide.clone())),
        None => sched,
    }
}

fn policy(name: &str, seed: u64) -> Box<dyn Broker> {
    by_name(name, seed).expect("built-in placement policy")
}

fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Counts allocations while `f` runs, when `on`.
fn counting<T>(on: bool, f: impl FnOnce() -> T) -> (T, u64) {
    meter::set_counting(on);
    let a0 = meter::allocations();
    let out = f();
    let allocs = meter::allocations() - a0;
    meter::set_counting(false);
    (out, allocs)
}

/// Flags a record stream that lost jobs (every job of the run fails) and
/// every record that did not end terminal (or, when `complete` is
/// required, did not finish).
fn check_records(
    pass: &mut Pass,
    label: &str,
    records: &[JobRecord],
    submitted: u64,
    complete: bool,
) {
    let terminal = records.iter().filter(|r| r.terminal()).count() as u64;
    pass.terminal += terminal;
    if records.len() as u64 != submitted {
        pass.failed += submitted;
        pass.failures.push(format!(
            "{label}: {} records for {submitted} submitted jobs",
            records.len()
        ));
        return;
    }
    let ok = if complete {
        records.iter().filter(|r| r.finished()).count() as u64
    } else {
        terminal
    };
    let bad = submitted - ok;
    if bad > 0 {
        pass.failed += bad;
        pass.failures.push(format!(
            "{label}: {bad} of {submitted} jobs did not {}",
            if complete { "finish" } else { "end terminal" }
        ));
    }
}

/// Decide/select layer numbers, shared by every workload.
fn sched_layers(pass: &mut Pass, decide: &CallStats, select: &CallStats) {
    pass.set("sched.decide_calls", decide.calls as f64);
    pass.set("sched.decide_s", decide.seconds());
    pass.set(
        "sched.discipline_self_s",
        decide.seconds() - select.seconds(),
    );
    pass.set("sched.decide_p50_us", decide.hist.quantile_us(0.5));
    pass.set("sched.decide_p99_us", decide.hist.quantile_us(0.99));
    pass.set("policies.select_calls", select.calls as f64);
    pass.set("policies.select_s", select.seconds());
}

/// Engine numbers: `engine_s` is host time the kernels ran, `events` the
/// kernel events they processed.
fn engine_layers(pass: &mut Pass, engine_s: f64, decide: &CallStats, events: u64, jobs: u64) {
    let self_s = engine_s - decide.seconds();
    pass.set("simenv.self_s", self_s);
    pass.set("desim.events", events as f64);
    pass.set("desim.events_per_job", events as f64 / jobs as f64);
    pass.set("simenv.ns_per_event", self_s * 1e9 / events as f64);
}

fn setup_layers(pass: &mut Pass, trace_s: f64, build_s: f64) {
    pass.setup_s = trace_s + build_s;
    pass.set("setup.trace_s", trace_s);
    pass.set("setup.build_s", build_s);
}

fn service_jobs(n: usize, seed: u64) -> Vec<QJob> {
    diurnal_arrivals(n, 0.05, 0.8, 3_600.0, 5, seed)
}

/// The armed intake of the `serve` binary, with hash routing so every
/// shard kernel free-runs on its worker.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionPolicy {
            throttle_watermark: 24,
            queue_capacity: 96,
            throttle_delay_s: 60.0,
            max_throttle_attempts: 3,
        },
        routing: RoutingPolicy::Hash,
    }
}

/// Two crashes inside the first 20k jobs' horizon (about 400k simulated
/// seconds) plus 2% execution failures, retried up to six times.
fn service_faults(seed: u64) -> (FaultScript, RetryPolicy) {
    let script = FaultScript::new(seed)
        .with_crash(0, 50_000.0, 20_000.0)
        .with_crash(2, 300_000.0, 20_000.0)
        .with_exec_failures(0.02);
    let retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };
    (script, retry)
}

/// Replays a prefix of the `service_sharded` trace through the sequential
/// and the parallel harness; their records must agree exactly.
fn service_parity(seed: u64) -> Result<(), String> {
    let jobs = service_jobs(SERVICE_PARITY_JOBS, seed);
    let (script, retry) = service_faults(seed);
    let make = |_region: usize| compose(Discipline::Backfill, policy("speed", seed), None);
    let mut seq = ServiceHarness::new(
        regional_fleet(SERVICE_REGIONS, seed),
        make,
        jobs.clone(),
        SimParams::default(),
        service_config(),
        seed,
    );
    seq.install_faults(&script, retry);
    let seq = seq.run();
    let mut par = ParallelServiceHarness::new(
        regional_fleet(SERVICE_REGIONS, seed),
        make,
        jobs,
        SimParams::default(),
        service_config(),
        seed,
        SERVICE_THREADS,
    );
    par.install_faults(&script, retry);
    let par = par.run();
    for (i, (a, b)) in seq.shards.iter().zip(&par.shards).enumerate() {
        if a.records != b.records {
            return Err(format!(
                "service parity: shard {i} records differ between the sequential and \
                 parallel harness on the first {SERVICE_PARITY_JOBS} jobs"
            ));
        }
    }
    if seq.merged_by_termination() != par.merged_by_termination() {
        return Err("service parity: merged record streams differ".into());
    }
    Ok(())
}

fn service_pass(seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    let root = spans.open("service_sharded", None);
    let t0 = Instant::now();
    let jobs = service_jobs(SERVICE_JOBS, seed);
    let t1 = Instant::now();
    let (script, retry) = service_faults(seed);
    let probes = traced.then(Probes::new);
    let mut harness = ParallelServiceHarness::new(
        regional_fleet(SERVICE_REGIONS, seed),
        |_region| compose(Discipline::Backfill, policy("speed", seed), probes.as_ref()),
        jobs,
        SimParams::default(),
        service_config(),
        seed,
        SERVICE_THREADS,
    );
    harness.install_faults(&script, retry);
    let t2 = Instant::now();
    spans.record("setup.trace", Some(root), t0, t1);
    spans.record("setup.build", Some(root), t1, t2);

    let t3 = Instant::now();
    let (mut outcome, allocs) = counting(traced, || harness.run());
    let t4 = Instant::now();
    let run_span = spans.record("service.run", Some(root), t3, t4);
    spans.close(root);

    let n = SERVICE_JOBS as u64;
    let mut pass = Pass {
        submitted: n,
        run_s: secs(t3, t4),
        pass_s: secs(t3, t4),
        ..Pass::default()
    };
    pass.throughput = n as f64 / pass.run_s;
    setup_layers(&mut pass, secs(t0, t1), secs(t1, t2));

    // The checks read the shards in place; the harness consumed the jobs,
    // so the completeness check regenerates them from the seed. Records are
    // then moved out of the shards, never cloned, so the benchmark holds no
    // second copy beside the program's and adds nothing to its memory peak.
    let mut fp = Fingerprint::default();
    for s in &outcome.shards {
        fp.records(&s.records);
    }
    fp.float(outcome.report.sim_seconds);
    pass.fingerprint = fp.finish();
    if let Err(e) = outcome.verify_complete(&service_jobs(SERVICE_JOBS, seed)) {
        pass.fail_all(format!("service_sharded: verify_complete: {e}"));
    }
    if !outcome.report.admission.conserves() {
        pass.fail_all(format!(
            "service_sharded: admission accounting leaks: {:?}",
            outcome.report.admission
        ));
    }
    let mut records: Vec<JobRecord> = Vec::new();
    for s in &mut outcome.shards {
        records.append(&mut std::mem::take(&mut s.records));
    }
    check_records(&mut pass, "service_sharded", &records, n, false);
    let report = &outcome.report;
    let mut sim = SimOutcome::from_records(&records, report.sim_seconds);
    sim.rejected_frac = report.admission.rejected() as f64 / n as f64;
    pass.sim = sim;

    if let Some(p) = probes {
        let run_s = pass.run_s;
        let kernel = report.wall_seconds;
        let busy_sum: f64 = report.shard_busy_s.iter().sum();
        let busy_max = report.shard_busy_s.iter().copied().fold(0.0, f64::max);
        let threads = report.worker_threads as f64;
        let idle = threads * kernel - busy_sum;
        let qos = QosReport::from_records(&records, DeadlinePolicy::default());
        let retries: u64 = records
            .iter()
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum();
        pass.set("service.run_s", run_s);
        pass.set("service.kernel_wall_s", kernel);
        pass.set("service.shard_busy_sum_s", busy_sum);
        pass.set("service.shard_busy_max_s", busy_max);
        pass.set("service.idle_s", idle);
        pass.set("service.teardown_merge_s", run_s - kernel);
        pass.set("service.merge_s", report.merge_wall_s);
        pass.set(
            "service.events_per_job",
            report.events_processed as f64 / n as f64,
        );
        pass.set("service.decide_p50_us", report.decision_latency.p50_us);
        pass.set("service.decide_p99_us", report.decision_latency.p99_us);
        pass.set("service.goodput", pass.sim.goodput);
        pass.set("service.rejected_frac", pass.sim.rejected_frac);
        pass.set("admission.accepted", report.admission.accepted as f64);
        pass.set(
            "admission.throttle_events",
            report.admission.throttle_events as f64,
        );
        pass.set("admission.rejected", report.admission.rejected() as f64);
        pass.set("faults.retries", retries as f64);
        pass.set("faults.wasted_qubit_s", qos.wasted_qubit_s);
        pass.set("alloc.per_job", allocs as f64 / n as f64);
        let events = report.events_processed;
        pass.set(
            "records.bytes_per_job",
            meter::drop_measuring((records, outcome)) as f64 / n as f64,
        );
        let (decide, select) = (trace::drain(&p.decide), trace::drain(&p.select));
        spans.fold("sched.decide", run_span, &decide);
        spans.fold("policies.select", run_span, &select);
        sched_layers(&mut pass, &decide, &select);
        engine_layers(&mut pass, busy_sum, &decide, events, n);
        // Worker time is spread over `threads` workers; dividing by the
        // thread count turns it into shares of the `run()` wall clock.
        pass.leaves = vec![
            (
                "service.kernel_self_s",
                (busy_sum - decide.seconds()) / threads,
            ),
            (
                "sched.discipline_self_s",
                (decide.seconds() - select.seconds()) / threads,
            ),
            ("policies.select_s", select.seconds() / threads),
            ("service.idle_s", idle / threads),
            ("service.teardown_merge_s", run_s - kernel),
        ];
    }
    pass
}

fn wrap_env<E: Env + 'static>(env: E, sink: Option<&Sink>) -> Box<dyn Env> {
    match sink {
        Some(s) => Box::new(TimedEnv::new(env, s.clone())),
        None => Box::new(env),
    }
}

fn rl_pass(seed: u64, traced: bool, spans: &mut Spans) -> Pass {
    let root = spans.open("rl_train", None);
    let t0 = Instant::now();
    let case_jobs = paper_case_study(seed).jobs;
    let bimodal_jobs = bimodal_arrivals(RL_DEPLOY_JOBS, 0.1, 4, seed);
    let t1 = Instant::now();
    let gym_sink = traced.then(trace::sink);
    let sched_sink = traced.then(trace::sink);
    let gym_cfg = GymConfig::default();
    let gym_envs: Vec<Box<dyn Env>> = (0..RL_ENVS)
        .map(|_| {
            let env = QCloudGymEnv::new(
                &ibm_fleet(TRAIN_SEED),
                JobDistribution::default(),
                SimParams::default(),
                gym_cfg.clone(),
            );
            wrap_env(env, gym_sink.as_ref())
        })
        .collect();
    let mut gym_vec = VecEnv::sequential(gym_envs);
    let mut gym_ppo = Ppo::new(
        gym_cfg.obs_dim(),
        gym_cfg.max_devices,
        PpoConfig {
            seed: TRAIN_SEED,
            n_steps: 2048 / RL_ENVS,
            ..PpoConfig::default()
        },
    );
    let sched_cfg = SchedEnvConfig::default();
    let sched_envs: Vec<Box<dyn Env>> = (0..RL_ENVS)
        .map(|_| {
            let env = SchedulerEnv::new(
                &ibm_fleet(TRAIN_SEED),
                SimParams::default(),
                sched_cfg.clone(),
            );
            wrap_env(env, sched_sink.as_ref())
        })
        .collect();
    let mut sched_vec = VecEnv::sequential(sched_envs);
    let mut sched_ppo = Ppo::new(
        sched_cfg.obs.obs_dim(),
        sched_cfg.obs.action_dim(),
        PpoConfig {
            seed: TRAIN_SEED,
            n_steps: 256,
            ..PpoConfig::default()
        },
    );
    let t2 = Instant::now();
    spans.record("setup.trace", Some(root), t0, t1);
    spans.record("setup.build", Some(root), t1, t2);

    let t3 = Instant::now();
    gym_ppo.learn(&mut gym_vec, GYM_STEPS);
    let t4 = Instant::now();
    sched_ppo.learn(&mut sched_vec, SCHED_STEPS);
    let t5 = Instant::now();
    let gym_span = spans.record("rl.learn_gym", Some(root), t3, t4);
    let sched_span = spans.record("rl.learn_sched", Some(root), t4, t5);
    // Dropping the vectorised envs flushes the env wrappers' counts.
    drop(gym_vec);
    drop(sched_vec);

    // Deployment: Table 2's four rows on the case study, then the
    // queue-deep scheduler on the bimodal trace. The checkpoint goes
    // through its JSON form, as `rl:<path>` loads it.
    let probes = traced.then(Probes::new);
    let window = SimParams::default().backfill_depth + 1;
    let rl_broker = RlBroker::from_json(&gym_ppo.ac.to_json(), gym_cfg.clone())
        .expect("a freshly trained policy deploys");
    let mut rows: Vec<(&'static str, Box<dyn Scheduler>, Vec<QJob>)> =
        ["speed", "fidelity", "fair"]
            .into_iter()
            .map(|name| {
                let sched = compose(
                    Discipline::Fifo(window),
                    policy(name, seed),
                    probes.as_ref(),
                );
                (name, sched, case_jobs.clone())
            })
            .collect();
    let rlbase = compose(
        Discipline::Fifo(window),
        Box::new(rl_broker),
        probes.as_ref(),
    );
    rows.push(("rlbase", rlbase, case_jobs));
    let ck = SchedCheckpoint::new(
        sched_cfg.obs.clone(),
        &sched_cfg.placement,
        sched_ppo.ac.clone(),
    );
    let ck = SchedCheckpoint::from_json(&ck.to_json()).expect("checkpoint JSON round-trips");
    let rl_sched = timed(
        Box::new(RlSchedScheduler::from_checkpoint(ck, seed)),
        probes.as_ref(),
    );
    rows.push(("rl_sched", rl_sched, bimodal_jobs));

    let train_reward = gym_ppo.log().final_reward();
    let steps = gym_ppo.timesteps() + sched_ppo.timesteps();
    let learn_s = secs(t3, t5);
    let mut pass = Pass {
        submitted: Workload::RlTrain.jobs_per_pass(),
        throughput: steps as f64 / learn_s,
        ..Pass::default()
    };
    let mut fp = Fingerprint::default();
    fp.float(train_reward);
    fp.float(sched_ppo.log().final_reward());
    let mut build_s = 0.0;
    let mut events = 0u64;
    let mut allocs = 0u64;
    let mut run_spans = Vec::new();
    let mut owned_bytes = 0u64;
    for (name, sched, jobs) in rows {
        let submitted = jobs.len() as u64;
        let b0 = Instant::now();
        let env =
            QCloudSimEnv::with_scheduler(ibm_fleet(seed), sched, jobs, SimParams::default(), seed);
        let b1 = Instant::now();
        let (result, a) = counting(traced, || env.run());
        let r1 = Instant::now();
        run_spans.push(spans.record("simenv.run", Some(root), b1, r1));
        build_s += secs(b0, b1);
        pass.run_s += secs(b1, r1);
        allocs += a;
        events += result.events_processed;
        check_records(&mut pass, name, &result.records, submitted, true);
        fp.records(&result.records);
        match name {
            "rlbase" => {
                pass.sim = SimOutcome::from_records(&result.records, result.summary.t_sim);
            }
            "rl_sched" => {
                let qos = QosReport::from_records(&result.records, DeadlinePolicy::default());
                pass.sim.mean_slowdown = qos.mean_slowdown;
            }
            _ => {}
        }
        if traced {
            owned_bytes += meter::drop_measuring(result);
        }
    }
    spans.close(root);
    pass.sim.train_reward = train_reward;
    if !train_reward.is_finite() {
        pass.fail_all("rl_train: PPO broker logged no finished episode".into());
    }
    pass.fingerprint = fp.finish();
    pass.pass_s = learn_s + pass.run_s;
    setup_layers(&mut pass, secs(t0, t1), secs(t1, t2) + build_s);

    if let (Some(p), Some(gs), Some(ss)) = (probes, gym_sink, sched_sink) {
        let (gym, sched) = (trace::drain(&gs), trace::drain(&ss));
        let (decide, select) = (trace::drain(&p.decide), trace::drain(&p.select));
        spans.fold("gym.step", gym_span, &gym);
        spans.fold("rlsched.step", sched_span, &sched);
        if let Some(&first) = run_spans.first() {
            // The deploy runs share one set of wrappers: fold them once,
            // under the first run.
            spans.fold("sched.decide", first, &decide);
            spans.fold("policies.select", first, &select);
        }
        let n = pass.submitted;
        pass.set("gym.step_calls", gym.calls as f64);
        pass.set("gym.step_s", gym.seconds());
        pass.set("rlsched.step_calls", sched.calls as f64);
        pass.set("rlsched.step_s", sched.seconds());
        pass.set("rl.learn_gym_s", secs(t3, t4));
        pass.set("rl.learn_sched_s", secs(t4, t5));
        pass.set("rl.self_s", learn_s - gym.seconds() - sched.seconds());
        pass.set("rl.train_steps_per_s", pass.throughput);
        pass.set("rl.train_reward", train_reward);
        pass.set("simenv.run_s", pass.run_s);
        pass.set("alloc.per_job", allocs as f64 / n as f64);
        pass.set("records.bytes_per_job", owned_bytes as f64 / n as f64);
        sched_layers(&mut pass, &decide, &select);
        let run_s = pass.run_s;
        engine_layers(&mut pass, run_s, &decide, events, n);
        pass.leaves = vec![
            ("gym.step_s", gym.seconds()),
            ("rlsched.step_s", sched.seconds()),
            ("rl.self_s", learn_s - gym.seconds() - sched.seconds()),
            ("simenv.self_s", pass.run_s - decide.seconds()),
            (
                "sched.discipline_self_s",
                decide.seconds() - select.seconds(),
            ),
            ("policies.select_s", select.seconds()),
        ];
    }
    pass
}
