//! Property-based reward accounting for the queue-deep scheduling
//! environment ([`qcs_qcloud::rlsched::SchedulerEnv`]):
//!
//! * **Return = telemetry** — for random traces, random action streams,
//!   random placements, and runs with a random maintenance window, the
//!   episode return (sum of per-step rewards) equals the episode objective
//!   recomputed from the emitted [`qcs_qcloud::JobRecord`] stream. The
//!   reward signal the agent trains on and the telemetry the benches
//!   report cannot drift apart.
//! * **Termination** — every episode terminates within the step cap, all
//!   jobs reach a terminal record, and the record stream is internally
//!   consistent (arrival ≤ start ≤ exec_end ≤ finish).
//! * **Determinism** — identical seeds and action streams replay to
//!   bit-identical returns and records.
//! * **Encoder parity** — the observation encoder, whose pooled features
//!   stop walking the queue once they saturate, is bitwise equal to the
//!   plain two-pass encoder kept below as the oracle, on queues up to 20k
//!   deep whose mean wait and demand sit on either side of saturation.

use proptest::prelude::*;
use qcs_calibration::ibm_fleet;
use qcs_desim::Xoshiro256StarStar;
use qcs_qcloud::maintenance::OfflineFlags;
use qcs_qcloud::policies::Placement;
use qcs_qcloud::rlsched::{
    encode_sched_observation_into, episode_objective, SchedEnvConfig, SchedObsConfig, SchedulerEnv,
};
use qcs_qcloud::sched::{CloudState, DeviceSpec, RELEASE_SLACK_S};
use qcs_qcloud::{JobId, MaintenanceWindow, QJob, SimParams};
use qcs_rl::env::Env;

/// Drives one full episode with a pseudo-random action stream derived from
/// `action_seed`, returning (return, steps, terminated).
fn run_episode(env: &mut SchedulerEnv, trace_seed: u64, action_seed: u64) -> (f64, u64, bool) {
    let mut rng = Xoshiro256StarStar::new(action_seed);
    let dim = env.action_dim();
    env.reset(trace_seed);
    let mut ret = 0.0f64;
    let mut steps = 0u64;
    loop {
        let action: Vec<f32> = (0..dim).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let r = env.step(&action);
        ret += r.reward;
        steps += 1;
        if r.terminated || r.truncated {
            return (ret, steps, r.terminated);
        }
        assert!(
            steps <= env.config().max_steps,
            "episode exceeded the step cap without truncating"
        );
    }
}

fn env_with(placement: Placement, n_jobs: usize, windows: Vec<MaintenanceWindow>) -> SchedulerEnv {
    let cfg = SchedEnvConfig {
        placement,
        n_jobs,
        maintenance: windows,
        ..SchedEnvConfig::default()
    };
    SchedulerEnv::new(&ibm_fleet(1), SimParams::default(), cfg)
}

fn check_records(env: &SchedulerEnv, n_jobs: usize) {
    let records = env.records();
    assert_eq!(records.len(), n_jobs, "every arrival must be recorded");
    for r in records {
        if r.finished() {
            assert!(
                r.arrival <= r.start,
                "job {:?} started before arriving",
                r.job_id
            );
            assert!(
                r.start <= r.exec_end,
                "job {:?} exec_end before start",
                r.job_id
            );
            assert!(
                r.exec_end <= r.finish,
                "job {:?} finish before exec_end",
                r.job_id
            );
            let total: u64 = r.parts.iter().map(|&(_, a)| a).sum();
            assert_eq!(total, r.num_qubits, "job {:?} partition mismatch", r.job_id);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The episode return equals the objective recomputed from the emitted
    /// record stream, for random traces and action streams under the
    /// work-conserving placements.
    #[test]
    fn episode_return_matches_qos_telemetry(
        trace_seed in 0u64..1000,
        action_seed in 0u64..1000,
        n_jobs in 4usize..20,
        placement_ix in 0usize..3,
    ) {
        let placement = match placement_ix {
            0 => Placement::Speed,
            1 => Placement::Fair,
            _ => Placement::MinFrag,
        };
        let mut env = env_with(placement, n_jobs, Vec::new());
        let (ret, _, terminated) = run_episode(&mut env, trace_seed, action_seed);
        prop_assert!(terminated, "episode must drain, not truncate");
        check_records(&env, n_jobs);
        prop_assert!(env.records().iter().all(|r| r.finished()));
        let recomputed = episode_objective(
            env.records(),
            env.total_capacity(),
            &env.config().reward,
        );
        prop_assert!(
            (ret - recomputed).abs() <= 1e-6 * recomputed.abs().max(1.0),
            "return {ret} drifted from telemetry objective {recomputed}"
        );
    }

    /// Same invariant across a maintenance window on a random device: the
    /// outage throttles capacity mid-episode, bypasses and waits pile up,
    /// and the accounting still closes exactly.
    #[test]
    fn maintenance_runs_keep_reward_and_telemetry_aligned(
        trace_seed in 0u64..500,
        action_seed in 0u64..500,
        device in 0usize..5,
        start in 0.0f64..5000.0,
        duration in 500.0f64..8000.0,
    ) {
        let window = MaintenanceWindow { device, start, duration };
        let mut env = env_with(Placement::Speed, 12, vec![window]);
        let (ret, _, terminated) = run_episode(&mut env, trace_seed, action_seed);
        prop_assert!(terminated);
        check_records(&env, 12);
        prop_assert!(env.records().iter().all(|r| r.finished()));
        // No finished part may have started on the dark device inside the
        // window (leases never touch offline devices).
        for r in env.records() {
            if r.finished() && window.contains(r.start) {
                prop_assert!(
                    r.parts.iter().all(|&(d, _)| d as usize != device),
                    "job {:?} placed on device {device} during its outage",
                    r.job_id
                );
            }
        }
        let recomputed = episode_objective(
            env.records(),
            env.total_capacity(),
            &env.config().reward,
        );
        prop_assert!(
            (ret - recomputed).abs() <= 1e-6 * recomputed.abs().max(1.0),
            "return {ret} drifted from telemetry objective {recomputed}"
        );
    }

    /// Identical seeds and action streams replay bit-identically.
    #[test]
    fn episodes_replay_deterministically(
        trace_seed in 0u64..500,
        action_seed in 0u64..500,
    ) {
        let mut a = env_with(Placement::Speed, 10, Vec::new());
        let mut b = env_with(Placement::Speed, 10, Vec::new());
        let (ra, sa, _) = run_episode(&mut a, trace_seed, action_seed);
        let (rb, sb, _) = run_episode(&mut b, trace_seed, action_seed);
        prop_assert_eq!(ra.to_bits(), rb.to_bits(), "returns diverged");
        prop_assert_eq!(sa, sb, "step counts diverged");
        prop_assert_eq!(a.records(), b.records(), "record streams diverged");
    }
}

/// The oracle's saturating normaliser, as the encoder defines it.
fn unit(x: f64) -> f32 {
    if x.is_nan() {
        return 1.0;
    }
    x.clamp(0.0, 1.0) as f32
}

/// The two-pass observation encoder the early-exit one replaced, verbatim:
/// both pooled sums walk the whole queue.
fn reference_encode(out: &mut [f32], queue: &[QJob], state: &CloudState, cfg: &SchedObsConfig) {
    assert_eq!(out.len(), cfg.obs_dim(), "observation buffer size mismatch");
    let now = state.now();
    let view = state.view();
    let total_capacity: u64 = view.devices.iter().map(|d| d.capacity).sum();
    let cap = total_capacity.max(1) as f64;

    // Queue window: the first K pending jobs, FIFO order.
    for i in 0..cfg.queue_slots {
        let base = 3 * i;
        if let Some(job) = queue.get(i) {
            out[base] = unit(job.num_qubits as f64 / cfg.q_norm);
            out[base + 1] = unit((now - job.arrival_time) / cfg.wait_norm);
            out[base + 2] = unit(state.best_exec_seconds(job) / cfg.exec_norm);
        } else {
            out[base] = 0.0;
            out[base + 1] = 0.0;
            out[base + 2] = 0.0;
        }
    }

    // Pooled queue aggregates (the jobs past the window still count here).
    let pbase = 3 * cfg.queue_slots;
    let demand: u64 = queue.iter().map(|j| j.num_qubits).sum();
    let mean_wait = if queue.is_empty() {
        0.0
    } else {
        queue.iter().map(|j| now - j.arrival_time).sum::<f64>() / queue.len() as f64
    };
    out[pbase] = unit(queue.len() as f64 / cfg.queue_len_norm);
    out[pbase + 1] = unit(demand as f64 / cap);
    out[pbase + 2] = unit(mean_wait / cfg.wait_norm);

    // Per-device summaries (offline devices advertise zero free in the
    // view; the explicit flag tells "busy" from "dark").
    let dbase = pbase + 3;
    for d in 0..cfg.max_devices {
        let base = dbase + 6 * d;
        if let Some(v) = view.devices.get(d) {
            out[base] = unit(v.free as f64 / v.capacity.max(1) as f64);
            out[base + 1] = unit(v.busy_fraction);
            out[base + 2] = unit(v.mean_utilization);
            out[base + 3] = unit(v.error_score);
            out[base + 4] = unit(v.clops / cfg.clops_norm);
            out[base + 5] = if state.is_offline(v.id) { 1.0 } else { 0.0 };
        } else {
            out[base..base + 6].fill(0.0);
        }
    }

    // Fleet tail: free now, and lease qubits coming back soon (the
    // lookahead the incremental lease table makes O(leases)).
    let tbase = dbase + 6 * cfg.max_devices;
    out[tbase] = unit(state.total_free() as f64 / cap);
    let mut short = 0u64;
    let mut long = 0u64;
    for l in state.leases() {
        if l.release_at <= now + cfg.lookahead_short {
            short += l.qubits;
        }
        if l.release_at <= now + cfg.lookahead_long {
            long += l.qubits;
        }
    }
    out[tbase + 1] = unit(short as f64 / cap);
    out[tbase + 2] = unit(long as f64 / cap);
}

/// A queue of `depth` jobs in enqueue order whose waits at `now` sum to
/// about `depth · mean_wait`: waits drawn from `[0, 2·mean_wait)`, oldest
/// first, the newest `at_slack` jobs arriving at exactly
/// `now + RELEASE_SLACK_S` (the latest the release contract allows), and
/// the head's wait chosen to close the sum. Some cases move a few old jobs
/// to the tail, where a retried job rejoins.
fn random_queue(
    rng: &mut Xoshiro256StarStar,
    depth: usize,
    now: f64,
    mean_wait: f64,
    at_slack: usize,
    q_max: u64,
) -> Vec<QJob> {
    let mut waits: Vec<f64> = (0..depth)
        .map(|_| rng.range_f64(0.0, 2.0 * mean_wait))
        .collect();
    waits.sort_by(|a, b| b.total_cmp(a));
    let mut arrivals: Vec<f64> = waits.iter().map(|w| now - w).collect();
    let first_at_slack = depth - at_slack.min(depth);
    arrivals[first_at_slack..].fill(now + RELEASE_SLACK_S);
    if depth > 0 {
        let rest: f64 = arrivals[1..].iter().map(|a| now - a).sum();
        let head_wait = depth as f64 * mean_wait - rest;
        arrivals[0] = (now - head_wait).min(now + RELEASE_SLACK_S);
    }
    let mut queue: Vec<QJob> = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival_time)| QJob {
            id: JobId(i as u64),
            num_qubits: rng.range_u64(1, q_max),
            depth: 10,
            num_shots: 10_000,
            two_qubit_gates: 100,
            arrival_time,
        })
        .collect();
    if depth > 1 && rng.next_below(2) == 0 {
        for _ in 0..rng.range_u64(1, 3) {
            let i = rng.choose_index(depth);
            let job = queue.remove(i);
            queue.push(job);
        }
    }
    queue
}

/// A fleet of one to five devices whose capacities add up to
/// `total_capacity`, refreshed to `now` with a random device offline.
fn random_fleet(rng: &mut Xoshiro256StarStar, total_capacity: u64, now: f64) -> CloudState {
    let n = rng.range_u64(1, 5).min(total_capacity) as usize;
    let specs: Vec<DeviceSpec> = (0..n)
        .map(|i| DeviceSpec {
            capacity: total_capacity / n as u64 + u64::from(i == 0) * (total_capacity % n as u64),
            error_score: rng.range_f64(0.01, 0.05),
            clops: rng.range_f64(1e5, 3e5),
            qv_layers: 7.0,
        })
        .collect();
    let mut state = CloudState::new(&specs, &SimParams::default());
    let offline = OfflineFlags::new(n);
    if rng.next_below(4) == 0 {
        offline.set_offline(rng.choose_index(n), true);
    }
    state.refresh(now, &offline);
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The early-exit encoder is bitwise equal to the two-pass oracle.
    /// Mean waits range from well under `wait_norm` through within 1e-9
    /// (relative) of it to far over it; fleet capacity sits just above, at
    /// or just below the queued demand; `now` includes the range where
    /// `now + RELEASE_SLACK_S` rounds up to twice the slack; `wait_norm` is
    /// tiny, the default or zero.
    #[test]
    fn early_exit_encoder_matches_two_pass_reference(
        seed in 0u64..1_000_000_000,
        depth_kind in 0usize..3,
        wait_kind in 0usize..5,
        demand_kind in 0usize..4,
        norm_kind in 0usize..4,
        now_kind in 0usize..4,
    ) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let depth = match depth_kind {
            0 => rng.next_below(9),
            1 => rng.next_below(400),
            _ => rng.next_below(20_001),
        } as usize;
        let now = match now_kind {
            0 => 0.0,
            1 => rng.range_f64(0.0, 100.0),
            2 => rng.range_f64(8192.0, 16384.0),
            _ => rng.range_f64(1e5, 1e7),
        };
        let wait_norm = match norm_kind {
            0 => 1e-12,
            1 => 1e-300,
            2 => SchedObsConfig::default().wait_norm,
            _ => 0.0,
        };
        let scale = wait_norm.max(1e-12);
        let mean_wait = scale * match wait_kind {
            0 => rng.range_f64(0.0, 2.0),
            1 => 1.0 + rng.range_f64(-1e-9, 1e-9),
            2 => 1.0 + 1e-6 + rng.range_f64(-1e-7, 1e-7),
            3 => rng.range_f64(10.0, 1000.0),
            _ => 0.0,
        };
        let at_slack = match rng.next_below(3) {
            0 => 0,
            1 => rng.next_below(50) as usize,
            _ => depth / 2,
        };
        let q_max = [1, 8, 250][rng.choose_index(3)];
        let queue = random_queue(&mut rng, depth, now, mean_wait, at_slack, q_max);
        let demand: u64 = queue.iter().map(|j| j.num_qubits).sum();
        let total_capacity = match demand_kind {
            0 => demand,
            1 => demand + 1,
            2 => demand.saturating_sub(1),
            _ => rng.range_u64(demand / 2, 2 * demand),
        }
        .max(1);
        let state = random_fleet(&mut rng, total_capacity, now);
        let cfg = SchedObsConfig {
            wait_norm,
            ..SchedObsConfig::default()
        };
        let mut got = vec![f32::NAN; cfg.obs_dim()];
        let mut want = vec![f32::NAN; cfg.obs_dim()];
        encode_sched_observation_into(&mut got, &queue, &state, &cfg);
        reference_encode(&mut want, &queue, &state, &cfg);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "depth {} now {:e} wait_norm {:e} mean_wait {:e} capacity {} demand {}",
            depth,
            now,
            wait_norm,
            mean_wait,
            total_capacity,
            demand
        );
    }
}
