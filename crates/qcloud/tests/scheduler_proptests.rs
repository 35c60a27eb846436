//! Property-based invariants for the queue-aware scheduler loop:
//!
//! * **No double-reservation / qubit conservation** — random
//!   reserve/release interleavings through [`CloudState`] never
//!   over-commit a device, and every run of the full simulation returns
//!   each fleet to full capacity (the sim itself asserts conservation at
//!   teardown; these tests drive it across random workloads/disciplines).
//! * **Backfill head protection** — under a work-conserving policy, every
//!   blocked head dispatches no later than the shadow-time guarantee the
//!   EASY discipline computed for it, on random workloads.
//! * **Conservative no-delay** — the generalisation: under a
//!   work-conserving policy, *every* queued job starts no later than every
//!   start reservation the conservative discipline ever issued for it —
//!   including runs with a random maintenance window, exercising the
//!   availability-aware reservation timeline.
//! * **EASY degeneration** — with at most one waiting job there is nothing
//!   to protect: conservative backfilling reproduces EASY's record stream
//!   bit for bit, for every seed policy.
//! * **Discipline differential** — on maintenance-free workloads with no
//!   backfill opportunity (uniform qubit demand), FIFO, EASY and
//!   conservative produce identical record streams across every seed
//!   policy.
//! * **FIFO adapter parity** — the adapter produces bit-identical
//!   [`JobRecord`] streams to the seed-mechanics snapshot oracle
//!   (`tests/common`) on random workloads, for every policy (the
//!   pinned-golden complement lives in `tests/seed_parity.rs`).
//! * **Static-order cache ≡ fresh sort** — speed, fidelity and hybrid
//!   (greedy and strict) sort their device order once per fleet; one
//!   broker reused across random views plans every job exactly as a
//!   broker built fresh for that call, whether the view changed only its
//!   dynamic columns or its ids, `clops` or `error_score`.
//! * **Pruned-scan differential** — EASY, which skips planning a candidate
//!   whose [`PlacementBound`] already misses the shadow, decides exactly as
//!   the full scan that plans every candidate (`tests/common/full_scan.rs`)
//!   on every consult and produces the same record stream, bit for bit,
//!   for every stateless placement, under offline devices, maintenance
//!   windows, fault scripts, both release policies, fleets whose
//!   `qv_layers` and `clops` are not co-ordered and queues deeper than the
//!   candidate window.
//! * **Placement-bound lemma** — on random views (120-device fleets
//!   included) the bound never exceeds the slowest part's execution time
//!   of any plan that passes `AllocationPlan::validate_parts`, and `speed`
//!   attains it when every device has the same `qv_layers`.

mod common;
#[path = "common/full_scan.rs"]
mod full_scan;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use common::SnapshotAdapter;
use full_scan::FullScanBackfill;
use proptest::prelude::*;
use qcs_calibration::{ibm_fleet, DeviceProfile};
use qcs_desim::Xoshiro256StarStar;
use qcs_qcloud::broker::{AllocationPlan, Broker, CloudView, DeviceView};
use qcs_qcloud::config::ReleasePolicy;
use qcs_qcloud::jobgen::{batch_at_zero, poisson_arrivals};
use qcs_qcloud::maintenance::OfflineFlags;
use qcs_qcloud::policies::{by_name, scheduler_by_name};
use qcs_qcloud::records::JobRecord;
use qcs_qcloud::sched::{
    BackfillScheduler, CloudState, ConservativeBackfillScheduler, DeviceSpec, GuaranteeLog,
    PlacementBound, ReservationLog, Scheduler, SchedulingDecision,
};
use qcs_qcloud::{
    DeviceId, FaultScript, JobDistribution, JobId, MaintenanceWindow, QCloudSimEnv, QJob,
    RetryPolicy, SimParams,
};

const ALL_POLICIES: [&str; 8] = [
    "speed",
    "fidelity",
    "fair",
    "roundrobin",
    "random",
    "minfrag",
    "hybrid",
    "hybrid-strict",
];

fn job(id: u64, q: u64) -> QJob {
    QJob {
        id: JobId(id),
        num_qubits: q,
        depth: 10,
        num_shots: 50_000,
        two_qubit_gates: 400,
        arrival_time: 0.0,
    }
}

/// The policies whose device order reads only static view columns.
const STATIC_ORDER_POLICIES: [&str; 4] = ["speed", "fidelity", "hybrid", "hybrid-strict"];

/// Draws static columns from small sets, so ties in the sort keys are
/// common.
fn random_error_score(rng: &mut Xoshiro256StarStar) -> f64 {
    [0.01, 0.02, 0.02, 0.05, 0.3][rng.choose_index(5)]
}

fn random_clops(rng: &mut Xoshiro256StarStar) -> f64 {
    [30_000.0, 200_000.0, 220_000.0, 220_000.0][rng.choose_index(4)]
}

/// A fleet of 2–6 devices with shuffled ids and random static columns.
fn random_fleet(rng: &mut Xoshiro256StarStar) -> CloudView {
    let n = rng.range_u64(2, 6) as u32;
    let mut ids: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut ids);
    CloudView {
        devices: ids
            .into_iter()
            .map(|id| DeviceView {
                id: DeviceId(id),
                free: 0,
                capacity: rng.range_u64(27, 127),
                busy_fraction: 1.0,
                mean_utilization: 0.0,
                error_score: random_error_score(rng),
                clops: random_clops(rng),
                qv_layers: 7.0,
            })
            .collect(),
    }
}

/// Redraws the columns a refresh rewrites: free qubits, busy fraction and
/// mean utilisation.
fn redraw_dynamic(view: &mut CloudView, rng: &mut Xoshiro256StarStar) {
    for d in &mut view.devices {
        d.free = rng.range_u64(0, d.capacity);
        d.busy_fraction = 1.0 - d.free as f64 / d.capacity as f64;
        d.mean_utilization = rng.next_f64();
    }
}

/// The placements that read no state of their own across `select` calls
/// (`random` and `roundrobin` advance an RNG or a cursor per consult).
const STATELESS_POLICIES: [&str; 6] = [
    "speed",
    "fidelity",
    "fair",
    "minfrag",
    "hybrid",
    "hybrid-strict",
];

/// Counts a broker's consults and records which jobs they were for.
struct Asked {
    inner: Box<dyn Broker>,
    jobs: Arc<Mutex<Vec<u64>>>,
}

impl Asked {
    fn new(inner: Box<dyn Broker>) -> (Self, Arc<Mutex<Vec<u64>>>) {
        let jobs: Arc<Mutex<Vec<u64>>> = Default::default();
        (
            Asked {
                inner,
                jobs: jobs.clone(),
            },
            jobs,
        )
    }
}

impl Broker for Asked {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        self.jobs.lock().unwrap().push(job.id.0);
        self.inner.select(job, view)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The production EASY scheduler and the full-scan oracle consulted on the
/// same queue and state. The production decision is applied; the first
/// consult on which the two differ is kept.
struct Lockstep {
    pruned: BackfillScheduler,
    full: FullScanBackfill,
    consults: u64,
    first_mismatch: Arc<Mutex<Option<String>>>,
}

impl Scheduler for Lockstep {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        self.consults += 1;
        let pruned = self.pruned.decide(queue, state);
        let full = self.full.decide(queue, state);
        if pruned != full {
            self.first_mismatch.lock().unwrap().get_or_insert_with(|| {
                format!(
                    "consult {} at t = {} over {} queued jobs: pruned {:?}, full scan {:?}",
                    self.consults,
                    state.now(),
                    queue.len(),
                    pruned,
                    full
                )
            });
        }
        pruned
    }

    fn name(&self) -> &str {
        self.pruned.name()
    }
}

/// Each record printed in full. `Debug` prints every `f64` in its
/// shortest round-trip form, so two records print alike exactly when
/// every field has the same bits (no record holds a NaN).
fn printed(records: &[JobRecord]) -> Vec<String> {
    records.iter().map(|r| format!("{r:?}")).collect()
}

/// `ibm_fleet(seed)` with each device's quantum volume and CLOPS redrawn
/// independently, so `qv_layers` and `clops` are not co-ordered.
fn mixed_fleet(seed: u64) -> Vec<DeviceProfile> {
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x6D69_7865_6400);
    let mut fleet = ibm_fleet(seed);
    for d in &mut fleet {
        d.spec.quantum_volume = [32, 64, 128, 512][rng.choose_index(4)];
        d.spec.clops = [29_000.0, 30_000.0, 150_000.0, 220_000.0][rng.choose_index(4)];
    }
    fleet
}

/// A valid partition of `q` qubits over `view`'s free qubits (which must
/// hold it): random shares on shuffled devices, topped up in the same
/// order.
fn random_plan(view: &CloudView, q: u64, rng: &mut Xoshiro256StarStar) -> Vec<(DeviceId, u64)> {
    let mut order: Vec<usize> = (0..view.devices.len()).collect();
    rng.shuffle(&mut order);
    let mut take = vec![0u64; view.devices.len()];
    let mut remaining = q;
    for &i in &order {
        let t = rng.range_u64(0, remaining.min(view.devices[i].free));
        take[i] = t;
        remaining -= t;
    }
    for &i in &order {
        let t = remaining.min(view.devices[i].free - take[i]);
        take[i] += t;
        remaining -= t;
    }
    order
        .into_iter()
        .filter(|&i| take[i] > 0)
        .map(|i| (view.devices[i].id, take[i]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CloudState never over-commits: random sequences of feasible
    /// reservations and releases keep every device within capacity, keep
    /// the lease table in lock-step with the levels, and end balanced.
    #[test]
    fn cloud_state_conserves_qubits(
        caps in proptest::collection::vec(32u64..=127, 2..6),
        ops in proptest::collection::vec((0u64..64, 1u64..200), 1..60),
    ) {
        let specs: Vec<DeviceSpec> = caps
            .iter()
            .map(|&c| DeviceSpec { capacity: c, error_score: 0.01, clops: 2e5, qv_layers: 7.0 })
            .collect();
        let mut st = CloudState::new(&specs, &SimParams::default());
        let mut outstanding: HashMap<u64, Vec<(DeviceId, u64)>> = HashMap::new();
        let mut now = 0.0f64;
        let mut next_id = 0u64;

        for (sel, q) in ops {
            now += 1.0;
            // Alternate: try to reserve a job of `q` qubits greedily; when
            // it does not fit (or sel is odd and something is in flight),
            // release the oldest job instead.
            let release_instead = sel % 2 == 1 && !outstanding.is_empty();
            let frees: Vec<u64> = st.view().devices.iter().map(|d| d.free).collect();
            let total: u64 = frees.iter().sum();
            if !release_instead && total >= q {
                let mut remaining = q;
                let mut parts = Vec::new();
                for (i, &f) in frees.iter().enumerate() {
                    let take = remaining.min(f);
                    if take > 0 {
                        parts.push((DeviceId(i as u32), take));
                        remaining -= take;
                    }
                }
                prop_assert_eq!(remaining, 0);
                let j = job(next_id, q);
                st.reserve(&j, &parts, now);
                outstanding.insert(next_id, parts);
                next_id += 1;
            } else if let Some((&id, _)) = outstanding.iter().next() {
                let parts = outstanding.remove(&id).unwrap();
                for (d, a) in parts {
                    st.release(JobId(id), d, a, now);
                }
            }
            // Invariants after every op.
            for (i, d) in st.view().devices.iter().enumerate() {
                prop_assert!(d.free <= caps[i], "device {} over capacity", i);
            }
            let leased: u64 = st.leases().iter().map(|l| l.qubits).sum();
            let free_total: u64 = st.view().devices.iter().map(|d| d.free).sum();
            let cap_total: u64 = caps.iter().sum();
            prop_assert_eq!(leased + free_total, cap_total, "leases out of sync");
        }
        // Drain and check final balance.
        now += 1.0;
        for (id, parts) in outstanding {
            for (d, a) in parts {
                st.release(JobId(id), d, a, now);
            }
        }
        st.assert_all_released();
    }

    /// Full simulations under every discipline finish every job and hand
    /// all qubits back (the environment asserts conservation at teardown).
    #[test]
    fn every_discipline_conserves_qubits_end_to_end(
        seed in 1u64..500,
        n in 10usize..40,
        rate in 0.001f64..0.02,
        at_job_end in 0u8..2,
    ) {
        let dist = JobDistribution { qubits: (40, 250), ..JobDistribution::default() };
        let jobs = poisson_arrivals(n, rate, &dist, seed);
        let params = SimParams {
            release: if at_job_end == 1 { ReleasePolicy::AtJobEnd } else { ReleasePolicy::PerDevice },
            ..SimParams::default()
        };
        for spec in ["speed", "backfill+speed", "priority:sjf+speed", "priority:aging+fair", "backfill+minfrag", "conservative+speed", "conservative+fair"] {
            let sched = scheduler_by_name(spec, seed, 1).unwrap();
            let res = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed), sched, jobs.clone(), params.clone(), seed,
            ).run();
            prop_assert_eq!(res.summary.jobs_unfinished, 0, "{} starved jobs", spec);
            prop_assert_eq!(res.telemetry.dispatched as usize, n, "{}", spec);
        }
    }

    /// EASY head protection: with a work-conserving policy, every job that
    /// was ever a blocked head starts no later than the shadow-time
    /// guarantee issued while it was blocked.
    #[test]
    fn backfill_never_delays_the_protected_head(
        seed in 1u64..500,
        n in 15usize..50,
        rate in 0.002f64..0.03,
    ) {
        let dist = JobDistribution { qubits: (20, 250), ..JobDistribution::default() };
        let jobs = poisson_arrivals(n, rate, &dist, seed);
        let log: GuaranteeLog = Default::default();
        let sched = BackfillScheduler::new(by_name("speed", seed).unwrap())
            .with_guarantee_log(log.clone());
        let res = QCloudSimEnv::with_scheduler(
            ibm_fleet(seed), Box::new(sched), jobs, SimParams::default(), seed,
        ).run();
        prop_assert_eq!(res.summary.jobs_unfinished, 0);

        let starts: HashMap<u64, f64> =
            res.records.iter().map(|r| (r.job_id.0, r.start)).collect();
        let guarantees = log.lock().unwrap();
        prop_assert!(!guarantees.is_empty() || res.telemetry.waits_backfill_hold == 0);
        for g in guarantees.iter() {
            if !g.shadow.is_finite() {
                continue; // no reservation bound the head
            }
            let start = starts[&g.head.0];
            prop_assert!(
                start <= g.shadow + 1e-6,
                "head {:?} started at {} past its {} guarantee (issued at {})",
                g.head, start, g.shadow, g.decided_at
            );
        }
    }

    /// Conservative no-delay: under a work-conserving policy, every job
    /// starts no later than *every* start reservation ever issued for it —
    /// the generalisation of EASY's head-only protection to the whole
    /// queue. Runs with an optional random maintenance window, so the
    /// availability-aware (window-dodging) reservations are exercised too.
    ///
    /// This is the *fault-free* form of the invariant. Unplanned crashes
    /// can void standing promises (capacity vanishes from the projection);
    /// the amended form — promises with no failure event between decision
    /// and start still hold — lives in `tests/chaos_proptests`.
    #[test]
    fn conservative_never_delays_any_reserved_start(
        seed in 1u64..500,
        n in 15usize..50,
        rate in 0.002f64..0.03,
        policy_idx in 0usize..3,
        window_sel in 0u8..4,
    ) {
        let dist = JobDistribution { qubits: (20, 250), ..JobDistribution::default() };
        let jobs = poisson_arrivals(n, rate, &dist, seed);
        let policy = ["speed", "fair", "minfrag"][policy_idx];
        let log: ReservationLog = Default::default();
        let sched = ConservativeBackfillScheduler::new(by_name(policy, seed).unwrap())
            .with_reservation_log(log.clone());
        let mut env = QCloudSimEnv::with_scheduler(
            ibm_fleet(seed), Box::new(sched), jobs, SimParams::default(), seed,
        );
        if window_sel > 0 {
            // A window over one of the smaller devices mid-trace (never the
            // premium pair: quality-strict placement is not under test and
            // fleet-spanning jobs must stay satisfiable eventually).
            env.schedule_maintenance(MaintenanceWindow {
                device: 2 + (window_sel as usize - 1) % 3,
                start: 10.0 + seed as f64,
                duration: 2_000.0 + 500.0 * window_sel as f64,
            });
        }
        let res = env.run();
        prop_assert_eq!(res.summary.jobs_unfinished, 0, "{} starved jobs", policy);

        let starts: HashMap<u64, f64> =
            res.records.iter().map(|r| (r.job_id.0, r.start)).collect();
        let reservations = log.lock().unwrap();
        // (A lightly-loaded trace can admit every job on arrival and issue
        // no promise at all — the log may legitimately be empty.)
        for r in reservations.iter() {
            if !r.reserved_start.is_finite() {
                continue; // unsatisfiable in every projected state: no promise
            }
            let start = starts[&r.job.0];
            prop_assert!(
                start <= r.reserved_start + 1e-6,
                "job {:?} started at {} past its {} promise (issued at {}, policy {})",
                r.job, start, r.reserved_start, r.decided_at, policy
            );
        }
    }

    /// EASY degeneration: when at most one job is ever waiting there is
    /// nothing to protect and nothing to jump — conservative backfilling
    /// reproduces EASY's record stream bit for bit, for every seed policy
    /// (including the stateful `random`/`roundrobin` brokers, whose consult
    /// sequences must stay in lock-step).
    #[test]
    fn conservative_degenerates_to_easy_on_sparse_queues(
        seed in 1u64..500,
        n in 3usize..12,
    ) {
        let dist = JobDistribution { qubits: (20, 250), ..JobDistribution::default() };
        let mut jobs = poisson_arrivals(n, 0.01, &dist, seed);
        // Stretch arrivals so far apart that every job finishes (service is
        // bounded by ~3e3 s fleet-wide) before the next arrives: the queue
        // never holds more than one waiting job.
        for (i, j) in jobs.iter_mut().enumerate() {
            j.arrival_time = i as f64 * 50_000.0;
        }
        for policy in ALL_POLICIES {
            let easy = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(BackfillScheduler::new(by_name(policy, seed).unwrap())),
                jobs.clone(),
                SimParams::default(),
                seed,
            ).run();
            let cons = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(ConservativeBackfillScheduler::new(by_name(policy, seed).unwrap())),
                jobs.clone(),
                SimParams::default(),
                seed,
            ).run();
            prop_assert_eq!(easy.summary.jobs_unfinished, 0, "{}", policy);
            prop_assert_eq!(
                &easy.records, &cons.records,
                "{}@{}: conservative must degenerate to EASY", policy, seed
            );
        }
    }

    /// Discipline differential: with uniform qubit demand no queued job can
    /// ever be placed when the job ahead of it cannot (capacity feasibility
    /// is demand-monotone), so no backfill opportunity exists — FIFO, EASY
    /// and conservative must then produce identical record streams, across
    /// all eight seed policies.
    #[test]
    fn disciplines_agree_when_no_backfill_opportunity(
        seed in 1u64..500,
        n in 8usize..30,
        rate in 0.001f64..0.02,
        qubits in 100u64..=250,
    ) {
        let dist = JobDistribution {
            qubits: (qubits, qubits),
            ..JobDistribution::default()
        };
        let jobs = poisson_arrivals(n, rate, &dist, seed);
        for policy in ALL_POLICIES {
            let fifo = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                scheduler_by_name(policy, seed, 1).unwrap(),
                jobs.clone(),
                SimParams::default(),
                seed,
            ).run();
            let easy = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(BackfillScheduler::new(by_name(policy, seed).unwrap())),
                jobs.clone(),
                SimParams::default(),
                seed,
            ).run();
            let cons = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(ConservativeBackfillScheduler::new(by_name(policy, seed).unwrap())),
                jobs.clone(),
                SimParams::default(),
                seed,
            ).run();
            // Work-conserving spill policies structurally cannot jump here;
            // quality-strict ones may legitimately find a hole (a candidate
            // the policy likes better at the same demand) — the streams
            // must agree exactly when no jump happened anywhere.
            if !matches!(policy, "fidelity" | "hybrid" | "hybrid-strict") {
                prop_assert_eq!(easy.telemetry.out_of_order, 0, "{}@{}", policy, seed);
                prop_assert_eq!(cons.telemetry.out_of_order, 0, "{}@{}", policy, seed);
            }
            if easy.telemetry.out_of_order == 0 && cons.telemetry.out_of_order == 0 {
                prop_assert_eq!(&fifo.records, &easy.records, "fifo vs easy {}@{}", policy, seed);
                prop_assert_eq!(&fifo.records, &cons.records, "fifo vs cons {}@{}", policy, seed);
            }
        }
    }

    /// Jain's fairness index stays within its analytic bounds `[1/n, 1]`
    /// on any positive sample.
    #[test]
    fn jain_fairness_index_bounded(
        values in proptest::collection::vec(0.001f64..1e6, 1..64),
    ) {
        let j = qcs_qcloud::jain_fairness(&values);
        let n = values.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-12, "index {} below 1/n for n = {}", j, n);
        prop_assert!(j <= 1.0 + 1e-12, "index {} above 1", j);
    }

    /// One broker instance per static-order policy, reused across a random
    /// walk of views, plans every job as a broker constructed for that one
    /// call: a step redraws only the dynamic columns, or changes one
    /// device's `clops` or `error_score`, or replaces the fleet (size,
    /// shuffled ids, static columns).
    #[test]
    fn static_order_cache_equals_a_fresh_sort(seed in 0u64..100_000, steps in 1usize..40) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut reused: Vec<Box<dyn Broker>> = STATIC_ORDER_POLICIES
            .iter()
            .map(|p| by_name(p, seed).unwrap())
            .collect();
        let mut view = random_fleet(&mut rng);
        for step in 0..steps {
            match rng.next_below(4) {
                0 | 1 => {}
                2 => {
                    let i = rng.choose_index(view.devices.len());
                    if rng.next_below(2) == 0 {
                        view.devices[i].clops = random_clops(&mut rng);
                    } else {
                        view.devices[i].error_score = random_error_score(&mut rng);
                    }
                }
                _ => view = random_fleet(&mut rng),
            }
            redraw_dynamic(&mut view, &mut rng);
            let capacity: u64 = view.devices.iter().map(|d| d.capacity).sum();
            for k in 0..3 {
                let j = job(k, rng.range_u64(1, capacity));
                for (p, broker) in STATIC_ORDER_POLICIES.iter().zip(&mut reused) {
                    let fresh = by_name(p, seed).unwrap().select(&j, &view);
                    prop_assert_eq!(
                        broker.select(&j, &view), fresh,
                        "{} at step {} (seed {})", p, step, seed
                    );
                }
            }
        }
    }

    /// The FIFO adapter and the seed-mechanics snapshot oracle produce
    /// bit-identical record streams on random workloads for every policy.
    #[test]
    fn fifo_adapter_matches_snapshot_oracle(
        seed in 1u64..1000,
        n in 8usize..30,
        rate in 0.001f64..0.02,
        window in 1usize..6,
    ) {
        let jobs = poisson_arrivals(n, rate, &JobDistribution::default(), seed);
        let params = SimParams { backfill_depth: window - 1, ..SimParams::default() };
        for pol in ["speed", "fidelity", "fair", "roundrobin", "random", "minfrag"] {
            let a = QCloudSimEnv::new(
                ibm_fleet(seed),
                by_name(pol, seed).unwrap(),
                jobs.clone(),
                params.clone(),
                seed,
            ).run();
            let b = QCloudSimEnv::with_scheduler(
                ibm_fleet(seed),
                Box::new(SnapshotAdapter::new(by_name(pol, seed).unwrap(), window)),
                jobs.clone(),
                params.clone(),
                seed,
            ).run();
            prop_assert_eq!(&a.records, &b.records, "{}@{} diverged", pol, seed);
        }
    }

    /// Pruned-scan differential: EASY decides as the full scan on every
    /// consult, and both runs write the same records bit for bit, for every
    /// stateless placement — with crashes, a maintenance window, execution
    /// failures, both release policies, fleets whose `qv_layers` and
    /// `clops` are not co-ordered, and queues deeper than the 64-candidate
    /// window. The pruned scan never consults its broker more often.
    #[test]
    fn pruned_scan_matches_the_full_scan(
        seed in 1u64..100_000,
        n in 66usize..130,
        arrivals in 0u8..3,
        mixed in 0u8..3,
        at_job_end in 0u8..2,
        window_sel in 0u8..3,
        crash_sel in 0u8..3,
    ) {
        let dist = JobDistribution { qubits: (10, 300), ..JobDistribution::default() };
        let jobs = match arrivals {
            0 => batch_at_zero(n, &dist, seed),
            1 => poisson_arrivals(n, 0.05, &dist, seed),
            _ => poisson_arrivals(n, 0.005, &dist, seed),
        };
        let fleet = if mixed > 0 { mixed_fleet(seed) } else { ibm_fleet(seed) };
        let params = SimParams {
            release: if at_job_end == 1 { ReleasePolicy::AtJobEnd } else { ReleasePolicy::PerDevice },
            ..SimParams::default()
        };
        let dev = (seed % 5) as usize;
        let mut script = FaultScript::new(seed).with_exec_failures(0.03);
        if crash_sel >= 1 {
            script = script.with_crash(dev, 100.0 + (seed % 900) as f64, 1_500.0);
        }
        if crash_sel >= 2 {
            script = script.with_crash((dev + 2) % 5, 2_000.0, 800.0);
        }
        let retry = RetryPolicy { max_attempts: 6, ..RetryPolicy::default() };
        let run = |sched: Box<dyn Scheduler>| {
            let mut env = QCloudSimEnv::with_scheduler(
                fleet.clone(), sched, jobs.clone(), params.clone(), seed,
            );
            if window_sel > 0 {
                env.schedule_maintenance(MaintenanceWindow {
                    device: (dev + window_sel as usize) % 5,
                    start: 50.0 * window_sel as f64,
                    duration: 1_000.0 * window_sel as f64,
                });
            }
            env.install_faults(&script, retry);
            env.run()
        };
        for policy in STATELESS_POLICIES {
            let (pruned_broker, pruned_asked) = Asked::new(by_name(policy, seed).unwrap());
            let first_mismatch: Arc<Mutex<Option<String>>> = Default::default();
            let lockstep = run(Box::new(Lockstep {
                pruned: BackfillScheduler::new(Box::new(pruned_broker)),
                full: FullScanBackfill::new(by_name(policy, seed).unwrap()),
                consults: 0,
                first_mismatch: first_mismatch.clone(),
            }));
            let (full_broker, full_asked) = Asked::new(by_name(policy, seed).unwrap());
            let full = run(Box::new(FullScanBackfill::new(Box::new(full_broker))));
            let mismatch = first_mismatch.lock().unwrap().take();
            prop_assert!(mismatch.is_none(), "{}@{}: {}", policy, seed, mismatch.unwrap_or_default());
            prop_assert_eq!(
                printed(&lockstep.records), printed(&full.records),
                "{}@{}: record streams differ", policy, seed
            );
            let (pruned_n, full_n) = (pruned_asked.lock().unwrap().len(), full_asked.lock().unwrap().len());
            prop_assert!(pruned_n <= full_n, "{}@{}: {} consults against {}", policy, seed, pruned_n, full_n);
        }
    }

    /// Placement-bound lemma: on random views, 120-device fleets included,
    /// no plan that passes `validate_parts` — neither the eight
    /// placements' plans nor random partitions — has a slowest part faster
    /// than the bound, and a job the free qubits cannot hold has no bound.
    /// When every device has the same `qv_layers`, `speed`'s plan attains
    /// it: there the bound admits exactly the candidates that backfill.
    #[test]
    fn placement_bound_never_exceeds_a_valid_plans_slowest_part(
        seed in 0u64..100_000,
        wide in 0u8..3,
        uniform_qv in 0u8..2,
    ) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let n = if wide == 0 { 120 } else { rng.range_u64(2, 8) as usize };
        let specs: Vec<DeviceSpec> = (0..n)
            .map(|_| DeviceSpec {
                capacity: rng.range_u64(5, 127),
                error_score: random_error_score(&mut rng),
                clops: random_clops(&mut rng),
                qv_layers: if uniform_qv == 1 {
                    7.0
                } else {
                    [5.0, 6.0, 7.0, 9.0][rng.choose_index(4)]
                },
            })
            .collect();
        let st = CloudState::new(&specs, &SimParams::default());
        let mut view = st.view().clone();
        redraw_dynamic(&mut view, &mut rng);
        let free = view.total_free();
        let mut bound = PlacementBound::new();
        bound.build(&view);
        prop_assert!(bound.exec_seconds(&st, &job(0, free + 1)).is_none());
        prop_assume!(free > 0);
        let mut brokers: Vec<Box<dyn Broker>> =
            ALL_POLICIES.iter().map(|p| by_name(p, seed).unwrap()).collect();
        for k in 1..=8 {
            let j = QJob { num_shots: rng.range_u64(1_000, 100_000), ..job(k, rng.range_u64(1, free)) };
            let b = bound.exec_seconds(&st, &j).expect("the free qubits hold the job");
            let slowest = |parts: &[(DeviceId, u64)]| {
                parts.iter().map(|&(d, _)| st.exec_seconds(&j, d)).fold(0.0f64, f64::max)
            };
            let mut plans = Vec::new();
            for (p, broker) in ALL_POLICIES.iter().zip(&mut brokers) {
                if let AllocationPlan::Dispatch(parts) = broker.select(&j, &view) {
                    if *p == "speed" && uniform_qv == 1 {
                        prop_assert_eq!(slowest(&parts).to_bits(), b.to_bits(), "speed@{}", seed);
                    }
                    plans.push(parts.to_vec());
                }
            }
            for _ in 0..4 {
                plans.push(random_plan(&view, j.num_qubits, &mut rng));
            }
            for parts in &plans {
                prop_assert!(AllocationPlan::validate_parts(parts, &j, &view).is_ok());
                prop_assert!(
                    b <= slowest(parts),
                    "bound {} above the slowest part {} of {:?} (seed {})",
                    b, slowest(parts), parts, seed
                );
            }
        }
    }
}

/// EASY consults its broker for exactly the head and the candidates the
/// bound admits; the full scan also plans the one it rules out, and both
/// decide the same.
#[test]
fn easy_consults_the_head_and_the_admitted_candidates() {
    let specs: Vec<DeviceSpec> = [220_000.0, 220_000.0, 30_000.0]
        .iter()
        .map(|&clops| DeviceSpec {
            capacity: 127,
            error_score: 0.01,
            clops,
            qv_layers: 7.0,
        })
        .collect();
    let mut st = CloudState::new(&specs, &SimParams::default());
    let sized = |id: u64, q: u64, num_shots: u64| QJob {
        num_shots,
        ..job(id, q)
    };
    // A lease on device 0 returns at ≈ 318 s: the head's shadow.
    st.reserve(&sized(0, 127, 100_000), &[(DeviceId(0), 127)], 0.0);
    st.refresh(0.0, &OfflineFlags::new(3));
    let queue = [
        // The head: 300 qubits against 254 free.
        sized(1, 300, 50_000),
        // ≈ 32 s on device 1: admitted, backfills.
        sized(2, 100, 10_000),
        // Device 1 has 27 left, so some part runs ≥ 4,667 s on device 2:
        // ruled out.
        sized(3, 100, 200_000),
        // Fits device 1's 27 for ≈ 32 s: admitted, backfills.
        sized(4, 20, 10_000),
        // More than the 134 free qubits: never considered.
        sized(5, 400, 1_000),
        // 7 qubits on device 1 and 93 on device 2, ≈ 23 s: admitted,
        // backfills.
        sized(6, 100, 1_000),
    ];
    let (broker, asked) = Asked::new(by_name("speed", 1).unwrap());
    let pruned = BackfillScheduler::new(Box::new(broker)).decide(&queue, &st);
    assert_eq!(*asked.lock().unwrap(), vec![1, 2, 4, 6]);
    let (broker, asked) = Asked::new(by_name("speed", 1).unwrap());
    let full = FullScanBackfill::new(Box::new(broker)).decide(&queue, &st);
    assert_eq!(*asked.lock().unwrap(), vec![1, 2, 3, 4, 6]);
    assert_eq!(pruned, full);
    let jumped: Vec<usize> = pruned.dispatches.iter().map(|d| d.queue_index).collect();
    assert_eq!(jumped, vec![1, 2, 3]);
}
