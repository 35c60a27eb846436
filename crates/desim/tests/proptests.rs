//! Property-based tests for the DES kernel — determinism, clock
//! monotonicity, wake latency, kill semantics, termination and the
//! `(due time, scheduling order)` event order under randomized
//! timeout/suspend/wake/kill workloads — plus statistics invariants.

use proptest::prelude::*;
use qcs_desim::{Coroutine, Ctx, Effect, Kernel, ProcessId, Simulation, Step};

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

/// One act of an [`Actor`]'s script. On each resume an actor runs its
/// next acts in order until one yields.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Yields a timeout of this many seconds.
    Sleep(f64),
    /// Parks until woken.
    Park,
    /// Spawns an actor on script `script` (modulo the scripts) that first
    /// runs `delay` seconds from now.
    Spawn { script: usize, delay: f64 },
    /// Wakes actor `target` (modulo the actors spawned so far).
    Wake(usize),
    /// Kills actor `target` (modulo the actors spawned so far); an actor
    /// never kills itself.
    Kill(usize),
}

/// Spawns stop here, so every run ends.
const MAX_ACTORS: usize = 48;

/// The world of an event-order run. Every act that schedules an event — a
/// spawn, a timeout, a wake that took effect — takes the next ticket, and
/// the actor it schedules remembers the event's due time and ticket until
/// it resumes or is killed.
struct OrderWorld {
    scripts: Vec<Vec<Act>>,
    actors: Vec<ProcessId>,
    /// Each actor's pending resume: `(due time, ticket)`.
    pending: Vec<Option<(f64, u64)>>,
    next_ticket: u64,
    /// Every resume as `(due time, ticket, clock)`, in the order the
    /// kernel ran them.
    resumes: Vec<(f64, u64, f64)>,
}

impl OrderWorld {
    fn ticket(&mut self) -> u64 {
        self.next_ticket += 1;
        self.next_ticket
    }

    /// Spawns an actor on `script` through `kernel`, `delay` from now —
    /// from inside a resume or from outside the kernel between steps.
    fn spawn(&mut self, kernel: &mut Kernel<OrderWorld>, script: usize, delay: f64) {
        if self.actors.len() == MAX_ACTORS {
            return;
        }
        let id = self.actors.len();
        let script = script % self.scripts.len();
        let due = kernel.now() + delay;
        let pid = kernel.spawn_after(delay, Box::new(Actor { id, script, pc: 0 }));
        self.actors.push(pid);
        let ticket = self.ticket();
        self.pending.push(Some((due, ticket)));
    }
}

/// Runs its script, logging each resume against the event that caused it.
struct Actor {
    id: usize,
    script: usize,
    pc: usize,
}

impl Coroutine<OrderWorld> for Actor {
    fn resume(&mut self, cx: &mut Ctx<'_, OrderWorld>) -> Step {
        let now = cx.now();
        let w = &mut *cx.world;
        let (due, ticket) = w.pending[self.id]
            .take()
            .expect("an actor resumed with no event pending");
        w.resumes.push((due, ticket, now));
        while let Some(&act) = w.scripts[self.script].get(self.pc) {
            self.pc += 1;
            match act {
                Act::Sleep(dt) => {
                    let ticket = w.ticket();
                    w.pending[self.id] = Some((now + dt, ticket));
                    return Step::Wait(Effect::Timeout(dt));
                }
                Act::Park => return Step::Wait(Effect::Suspend),
                Act::Spawn { script, delay } => w.spawn(cx.kernel, script, delay),
                Act::Wake(target) => {
                    let target = target % w.actors.len();
                    if cx.kernel.wake(w.actors[target]) {
                        let ticket = w.ticket();
                        w.pending[target] = Some((now, ticket));
                    }
                }
                Act::Kill(target) => {
                    let target = target % w.actors.len();
                    if target != self.id && cx.kernel.kill(w.actors[target]) {
                        w.pending[target] = None;
                    }
                }
            }
        }
        Step::Done
    }
}

/// A random event-order workload: the actors' scripts, the actors spawned
/// before the run (`(script, delay)`), and spawns made from outside the
/// kernel (`(after so many steps, script, delay)`, in step order).
#[derive(Debug, Clone)]
struct OrderScript {
    scripts: Vec<Vec<Act>>,
    roots: Vec<(usize, f64)>,
    outside: Vec<(usize, usize, f64)>,
}

/// Most delays are zero (due the instant they are scheduled); the rest
/// land on a coarse grid of shared instants.
fn delay() -> impl Strategy<Value = f64> {
    (0u32..8).prop_map(|d| if d < 4 { 0.0 } else { (d - 3) as f64 * 0.5 })
}

fn act() -> impl Strategy<Value = Act> {
    (0u8..10, delay(), 0usize..16).prop_map(|(kind, delay, k)| match kind {
        0..=2 => Act::Sleep(delay),
        3 => Act::Park,
        4 | 5 => Act::Spawn { script: k, delay },
        6 | 7 => Act::Wake(k),
        _ => Act::Kill(k),
    })
}

fn order_script() -> impl Strategy<Value = OrderScript> {
    (
        proptest::collection::vec(proptest::collection::vec(act(), 0..8), 1..6),
        proptest::collection::vec((0usize..6, delay()), 1..4),
        proptest::collection::vec((0usize..40, 0usize..6, delay()), 0..6),
    )
        .prop_map(|(scripts, roots, mut outside)| {
            outside.sort_by_key(|&(at, ..)| at);
            OrderScript {
                scripts,
                roots,
                outside,
            }
        })
}

/// Runs an order script to the end: the roots first, then one kernel step
/// at a time, with each outside spawn made through [`Simulation::split`]
/// once its step count is reached (or the kernel drained before it).
fn run_order(script: &OrderScript) -> OrderWorld {
    let mut sim = Simulation::new(OrderWorld {
        scripts: script.scripts.clone(),
        actors: Vec::new(),
        pending: Vec::new(),
        next_ticket: 0,
        resumes: Vec::new(),
    });
    for &(s, delay) in &script.roots {
        let (kernel, world) = sim.split();
        world.spawn(kernel, s, delay);
    }
    let mut outside = script.outside.iter().peekable();
    let mut steps = 0usize;
    loop {
        while let Some(&(_, s, delay)) = outside.next_if(|&&(at, ..)| at <= steps) {
            let (kernel, world) = sim.split();
            world.spawn(kernel, s, delay);
        }
        if sim.step() {
            steps += 1;
        } else if let Some(&&(at, ..)) = outside.peek() {
            steps = at;
        } else {
            break;
        }
    }
    sim.into_world()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Resumes come out sorted by (due time, ticket): the kernel runs the
    /// earliest event first and same-instant events in the order they
    /// were scheduled, whether due later (the heap) or due the instant
    /// they were scheduled (the FIFO), from inside a resume or from
    /// outside between steps. Each resume runs at its due time, and every
    /// event scheduled is either resumed or cancelled by a kill.
    #[test]
    fn resumes_follow_due_time_then_scheduling_order(script in order_script()) {
        let w = run_order(&script);
        for &(due, ticket, clock) in &w.resumes {
            prop_assert_eq!(due, clock, "ticket {} resumed off its due time", ticket);
        }
        for pair in w.resumes.windows(2) {
            let (a, b) = ((pair[0].0, pair[0].1), (pair[1].0, pair[1].1));
            prop_assert!(
                a.0 < b.0 || (a.0 == b.0 && a.1 < b.1),
                "resume {:?} ran before {:?}", a, b
            );
        }
        prop_assert!(
            w.pending.iter().all(Option::is_none),
            "an event was neither resumed nor cancelled: {:?}", w.pending
        );
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
