//! Property-based tests for the DES kernel — determinism, clock
//! monotonicity, wake latency, kill semantics and termination under
//! randomized timeout/suspend/wake/kill workloads — plus statistics
//! invariants.

use proptest::prelude::*;
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, Simulation, Step};

/// One entry of a run's event log, in execution order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// Process `who` resumed at `t` (workers `0..`, parkers offset by
    /// [`PARKER_BASE`]).
    Resume { who: usize, t: f64 },
    /// A worker woke parker `parker` at `t`.
    Wake { parker: usize, t: f64 },
    /// A worker killed worker `victim` at `t` (the kill took effect).
    Kill { victim: usize, t: f64 },
}

const PARKER_BASE: usize = 1 << 20;

/// The simulation's world, read and written by every process of one run:
/// the log, the handles, and the count of workers still alive (the last one
/// out releases the parkers).
struct World {
    log: Vec<Entry>,
    workers: Vec<ProcessId>,
    parkers: Vec<ProcessId>,
    live_workers: usize,
    closing: bool,
}

/// Marks one worker gone; the last one out closes the run and wakes every
/// parker (in index order) so each can finish.
fn worker_gone(cx: &mut Ctx<'_, World>) {
    let w = &mut *cx.world;
    w.live_workers -= 1;
    if w.live_workers == 0 {
        w.closing = true;
        for &p in &w.parkers {
            cx.kernel.wake(p);
        }
    }
}

/// Sleeps through `holds`; after each sleep wakes its parker, and at the
/// resume named by `kill` kills another worker.
struct Worker {
    id: usize,
    holds: Vec<f64>,
    next: usize,
    parker: usize,
    kill: Option<(usize, usize)>,
}

impl Coroutine<World> for Worker {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let now = cx.now();
        let w = &mut *cx.world;
        w.log.push(Entry::Resume {
            who: self.id,
            t: now,
        });
        if self.next > 0 {
            w.log.push(Entry::Wake {
                parker: self.parker,
                t: now,
            });
            cx.kernel.wake(w.parkers[self.parker]);
        }
        if let Some((step, victim)) = self.kill {
            if step == self.next && cx.kernel.kill(w.workers[victim]) {
                w.log.push(Entry::Kill { victim, t: now });
                worker_gone(cx);
            }
        }
        if self.next == self.holds.len() {
            worker_gone(cx);
            return Step::Done;
        }
        self.next += 1;
        Step::Wait(Effect::Timeout(self.holds[self.next - 1]))
    }
}

/// Parks until woken; finishes on the first resume after the run closes.
struct Parker {
    id: usize,
}

impl Coroutine<World> for Parker {
    fn resume(&mut self, cx: &mut Ctx<'_, World>) -> Step {
        let t = cx.now();
        cx.world.log.push(Entry::Resume {
            who: PARKER_BASE + self.id,
            t,
        });
        if cx.world.closing {
            Step::Done
        } else {
            Step::Wait(Effect::Suspend)
        }
    }
}

#[derive(Debug, Clone)]
struct WorkerSpec {
    delay: f64,
    holds: Vec<f64>,
    parker: usize,
    /// `(step, victim)`: at its `step`-th resume, kill worker `victim`.
    kill: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct Workload {
    parkers: usize,
    workers: Vec<WorkerSpec>,
}

fn workload() -> impl Strategy<Value = Workload> {
    let worker = (
        // Coarse grids make same-instant ties common.
        (0u32..8).prop_map(|d| d as f64 * 0.5),
        proptest::collection::vec((0u32..20).prop_map(|h| h as f64 * 0.5), 0..5),
        0usize..3,
        (0u8..2, 0usize..5, 0usize..12),
    )
        .prop_map(|(delay, holds, parker, (kills, step, victim))| WorkerSpec {
            delay,
            kill: (kills == 1).then_some((step.min(holds.len()), victim)),
            holds,
            parker,
        });
    (1usize..4, proptest::collection::vec(worker, 1..12)).prop_map(|(parkers, mut workers)| {
        let n = workers.len();
        for (i, w) in workers.iter_mut().enumerate() {
            w.parker %= parkers;
            // Victims index the drawn workers; no self-kills (a worker's
            // own end is its `Done`).
            w.kill = w
                .kill
                .map(|(step, victim)| (step, victim % n))
                .filter(|&(_, victim)| victim != i);
        }
        Workload { parkers, workers }
    })
}

struct Outcome {
    log: Vec<Entry>,
    now: f64,
    events: u64,
    live: usize,
}

fn run_workload(wl: &Workload) -> Outcome {
    let mut sim = Simulation::new(World {
        log: Vec::new(),
        workers: Vec::new(),
        parkers: Vec::new(),
        live_workers: wl.workers.len(),
        closing: false,
    });
    let parkers: Vec<ProcessId> = (0..wl.parkers)
        .map(|id| sim.spawn(Box::new(Parker { id })))
        .collect();
    let workers: Vec<ProcessId> = wl
        .workers
        .iter()
        .enumerate()
        .map(|(id, s)| {
            sim.spawn_after(
                s.delay,
                Box::new(Worker {
                    id,
                    holds: s.holds.clone(),
                    next: 0,
                    parker: s.parker,
                    kill: s.kill,
                }),
            )
        })
        .collect();
    let w = sim.world_mut();
    w.parkers = parkers;
    w.workers = workers;
    sim.run();
    let (now, events, live) = (sim.now(), sim.events_processed(), sim.live_processes());
    Outcome {
        log: sim.into_world().log,
        now,
        events,
        live,
    }
}

fn time_of(e: &Entry) -> f64 {
    match *e {
        Entry::Resume { t, .. } | Entry::Wake { t, .. } | Entry::Kill { t, .. } => t,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical workloads produce bit-identical logs, clocks and event
    /// counts.
    #[test]
    fn deterministic_replay(wl in workload()) {
        let a = run_workload(&wl);
        let b = run_workload(&wl);
        let bits = |o: &Outcome| -> Vec<(u8, usize, u64)> {
            o.log.iter().map(|e| match *e {
                Entry::Resume { who, t } => (0, who, t.to_bits()),
                Entry::Wake { parker, t } => (1, parker, t.to_bits()),
                Entry::Kill { victim, t } => (2, victim, t.to_bits()),
            }).collect()
        };
        prop_assert_eq!(bits(&a), bits(&b));
        prop_assert_eq!(a.now.to_bits(), b.now.to_bits());
        prop_assert_eq!(a.events, b.events);
    }

    /// Simulation time never regresses, and the final clock bounds every
    /// event.
    #[test]
    fn time_monotone(wl in workload()) {
        let o = run_workload(&wl);
        for pair in o.log.windows(2) {
            prop_assert!(time_of(&pair[0]) <= time_of(&pair[1]), "clock regressed: {:?}", pair);
        }
        for e in &o.log {
            prop_assert!(time_of(e) >= 0.0 && time_of(e) <= o.now);
        }
    }

    /// Every process finishes or is killed: each worker either resumed for
    /// its final step or was killed, each parker finished, and nothing is
    /// left live.
    #[test]
    fn every_process_finishes_or_is_killed(wl in workload()) {
        let o = run_workload(&wl);
        prop_assert_eq!(o.live, 0);
        for (i, spec) in wl.workers.iter().enumerate() {
            let resumes = o.log.iter()
                .filter(|e| matches!(e, Entry::Resume { who, .. } if *who == i))
                .count();
            let killed = o.log.iter().any(|e| matches!(e, Entry::Kill { victim, .. } if *victim == i));
            prop_assert!(
                killed || resumes == spec.holds.len() + 1,
                "worker {} resumed {} times of {} and was not killed", i, resumes, spec.holds.len() + 1
            );
        }
    }

    /// A killed process never resumes: no log entry of a victim follows
    /// its kill.
    #[test]
    fn killed_process_never_resumes(wl in workload()) {
        let o = run_workload(&wl);
        for (k, e) in o.log.iter().enumerate() {
            if let Entry::Kill { victim, .. } = *e {
                prop_assert!(
                    !o.log[k + 1..].iter().any(|f| matches!(f, Entry::Resume { who, .. } if *who == victim)),
                    "worker {} resumed after its kill", victim
                );
            }
        }
    }

    /// The stale heap entry a kill leaves behind does not advance the
    /// clock: the run ends at its last real resume, never at a killed
    /// sleeper's abandoned wake-up time.
    #[test]
    fn stale_entries_do_not_advance_clock(wl in workload()) {
        let o = run_workload(&wl);
        let last = o.log.iter()
            .filter(|e| matches!(e, Entry::Resume { .. }))
            .map(time_of)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(o.now, last);
    }

    /// A wake is never delayed: every parker a worker wakes resumes at the
    /// wake instant.
    #[test]
    fn wake_resumes_parker_at_the_wake_instant(wl in workload()) {
        let o = run_workload(&wl);
        for (k, e) in o.log.iter().enumerate() {
            if let Entry::Wake { parker, t } = *e {
                prop_assert!(
                    o.log[k + 1..].iter().any(|f| *f == Entry::Resume { who: PARKER_BASE + parker, t }),
                    "parker {} woken at {} did not resume then", parker, t
                );
            }
        }
    }

    /// Same-instant events fire in the order they were scheduled: workers
    /// spawned together run, and wake from identical sleeps, in spawn
    /// order.
    #[test]
    fn same_instant_events_fire_in_schedule_order(n in 2usize..12, delay in 0u32..4, hold in 0u32..4) {
        let wl = Workload {
            parkers: 1,
            workers: (0..n)
                .map(|_| WorkerSpec {
                    delay: delay as f64,
                    holds: vec![hold as f64],
                    parker: 0,
                    kill: None,
                })
                .collect(),
        };
        let o = run_workload(&wl);
        let workers: Vec<usize> = o.log.iter()
            .filter_map(|e| match *e {
                Entry::Resume { who, .. } if who < PARKER_BASE => Some(who),
                _ => None,
            })
            .collect();
        let expected: Vec<usize> = (0..n).chain(0..n).collect();
        prop_assert_eq!(workers, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn welford_merge_associative(xs in proptest::collection::vec(-1e3f64..1e3, 1..200), split in 0usize..200) {
        let split = split.min(xs.len());
        let mut left = qcs_desim::Welford::new();
        let mut right = qcs_desim::Welford::new();
        let mut whole = qcs_desim::Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < split { left.push(x) } else { right.push(x) }
            whole.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-4);
    }

    /// Histogram never loses observations.
    #[test]
    fn histogram_conserves_count(xs in proptest::collection::vec(-2.0f64..3.0, 0..500)) {
        let mut h = qcs_desim::Histogram::new(0.0, 1.0, 17);
        for &x in &xs { h.push(x); }
        let binned: u64 = h.bins().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
    }
}
