//! The simulation kernel: slab-allocated processes and events over one
//! event heap.
//!
//! The kernel knows two effects — [`Effect::Timeout`] and
//! [`Effect::Suspend`] — and three process-control calls: spawn, wake and
//! kill. Everything a model simulates (queues, capacity ledgers, records)
//! lives outside it, in state the coroutines share.
//!
//! # Slab/handle model
//!
//! The kernel stores processes and scheduled resume events in `Vec`-backed
//! slabs with free lists, so a long run (100k+ jobs) reuses a small pool of
//! slots instead of growing without bound. A [`ProcessId`] is an
//! `(index, generation)` pair, and so is every heap entry's event handle:
//!
//! * the **index** names the slot in the slab;
//! * the **generation** is bumped every time the slot is freed, so a handle
//!   from a previous occupant never resolves to the new one.
//!
//! A stale [`ProcessId`] (its process finished, was killed, or its slot was
//! reused) degrades safely everywhere: [`Simulation::wake`] and
//! [`Simulation::kill`] return `false`, [`Simulation::is_done`] returns
//! `true`. This is what makes `kill` safe in the presence of slot reuse — a
//! registry holding a pid of an already-finished process cannot
//! accidentally kill its successor.
//!
//! The event heap is a `BinaryHeap` of plain `(time, seq, event)` entries.
//! Killing a sleeping process just frees its event slot; the heap entry
//! stays behind and is recognised as stale by its generation when popped,
//! and discarded without advancing the clock. Each process has at most one
//! pending resume event (`pending_ev`), so cancellation is O(1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::process::{Coroutine, Ctx, Effect, ProcessId, Step};
use crate::rng::Xoshiro256StarStar;
use crate::time::SimTime;

/// One slot of the event slab: which process the event resumes, plus the
/// slot's current generation (bumped on free, so stale heap entries never
/// match).
#[derive(Debug, Clone, Copy)]
struct EventSlot {
    gen: u32,
    pid: ProcessId,
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Has a resume event in the heap (or is being resumed right now).
    Scheduled,
    /// Parked on [`Effect::Suspend`] until woken.
    Suspended,
    /// Finished; the slot is on the free list awaiting reuse.
    Done,
}

struct ProcSlot {
    co: Option<Box<dyn Coroutine>>,
    state: ProcState,
    /// Slot generation: bumped when the process finishes or is killed and
    /// the slot returns to the free list. Handles carry the generation they
    /// were issued under; a mismatch marks the handle stale.
    gen: u32,
    /// The slab slot of this process's pending resume event, if any. Kept
    /// in lock-step with `state == Scheduled`; a kill frees the event here,
    /// which is what invalidates the heap entry.
    pending_ev: Option<u32>,
}

/// A heap entry naming a slab event. Ordered by `(time, seq)` so
/// simultaneous events fire in insertion order (deterministic). The event
/// slot's generation detects cancellation: a mismatch means the event was
/// freed (kill) and the entry is skipped.
#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    ev: u32,
    gen: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic process-interaction discrete-event simulation.
///
/// See the [crate docs](crate) and the [module docs](self) for the
/// programming and slab/handle model.
pub struct Simulation {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    procs: Vec<ProcSlot>,
    /// Free-listed process slots (retired, generation already bumped).
    proc_free: Vec<u32>,
    /// Event slab; entries are reused across the run.
    events: Vec<EventSlot>,
    event_free: Vec<u32>,
    rng: Xoshiro256StarStar,
    events_processed: u64,
    live_processes: usize,
}

impl Simulation {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::with_capacity(1024),
            procs: Vec::with_capacity(256),
            proc_free: Vec::new(),
            events: Vec::with_capacity(1024),
            event_free: Vec::new(),
            rng: Xoshiro256StarStar::new(seed),
            events_processed: 0,
            live_processes: 0,
        }
    }

    /// Current simulation time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now.seconds()
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of processes that have been spawned and not yet finished.
    #[inline]
    pub fn live_processes(&self) -> usize {
        self.live_processes
    }

    /// Size of the process slab (high-water mark of concurrently live
    /// processes, not the total ever spawned — retired slots are reused).
    #[inline]
    pub fn process_slots(&self) -> usize {
        self.procs.len()
    }

    /// The kernel RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Slab plumbing
    // ------------------------------------------------------------------

    /// The slot behind a handle, if the handle is still current.
    #[inline]
    fn live(&self, pid: ProcessId) -> Option<&ProcSlot> {
        self.procs
            .get(pid.index())
            .filter(|s| s.gen == pid.generation())
    }

    /// Allocates a process slot (reusing a retired one when available).
    fn alloc_proc(&mut self, co: Box<dyn Coroutine>) -> ProcessId {
        if let Some(idx) = self.proc_free.pop() {
            let slot = &mut self.procs[idx as usize];
            debug_assert!(slot.co.is_none() && slot.pending_ev.is_none());
            slot.co = Some(co);
            slot.state = ProcState::Scheduled;
            ProcessId::new(idx, slot.gen)
        } else {
            let idx = self.procs.len() as u32;
            self.procs.push(ProcSlot {
                co: Some(co),
                state: ProcState::Scheduled,
                gen: 0,
                pending_ev: None,
            });
            ProcessId::new(idx, 0)
        }
    }

    /// Frees an event slot: bumps its generation (staling any heap entry
    /// that names the old one) and returns it to the free list.
    fn free_event(&mut self, ev: u32) {
        let slot = &mut self.events[ev as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.event_free.push(ev);
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process, scheduled to run at the current time (after any
    /// events already queued for this instant).
    pub fn spawn(&mut self, co: Box<dyn Coroutine>) -> ProcessId {
        self.spawn_after(0.0, co)
    }

    /// Spawns a process that first runs `delay` seconds from now. The slot
    /// may be one reused from a finished process; the returned handle
    /// carries the slot's new generation.
    pub fn spawn_after(&mut self, delay: f64, co: Box<dyn Coroutine>) -> ProcessId {
        let pid = self.alloc_proc(co);
        self.live_processes += 1;
        let t = self.now.after(delay);
        self.push_event(t, pid);
        pid
    }

    /// Wakes a process parked on [`Effect::Suspend`]. Returns `true` if the
    /// process was suspended and is now scheduled. Stale handles (the
    /// process finished, or its slot was reused) are a safe no-op.
    pub fn wake(&mut self, pid: ProcessId) -> bool {
        let Some(slot) = self.live(pid) else {
            return false;
        };
        if slot.state == ProcState::Suspended {
            self.procs[pid.index()].state = ProcState::Scheduled;
            let t = self.now;
            self.push_event(t, pid);
            true
        } else {
            false
        }
    }

    /// Whether the given process has finished. Stale handles answer `true`:
    /// the incarnation the handle names is gone even if its slot now hosts
    /// a different process.
    pub fn is_done(&self, pid: ProcessId) -> bool {
        match self.live(pid) {
            Some(slot) => slot.state == ProcState::Done,
            None => true,
        }
    }

    /// Terminates a process immediately, whether it is sleeping, parked or
    /// running. The body is dropped (releasing any shared state it held),
    /// any pending resume event is freed, and the slot returns to the pool
    /// for reuse — the handle goes stale. Whatever the process had claimed
    /// in shared state is **not** given back — the killer owns that
    /// cleanup, exactly as with an OS-level `kill -9`.
    ///
    /// Returns `false` (no-op) if the process had already finished or the
    /// handle is stale — slot reuse can never redirect a kill at the
    /// slot's next occupant.
    pub fn kill(&mut self, pid: ProcessId) -> bool {
        let Some(slot) = self.live(pid) else {
            return false;
        };
        if slot.state == ProcState::Done {
            return false;
        }
        self.retire(pid);
        true
    }

    /// Retires a live process: frees its pending event, drops its body,
    /// bumps the slot generation (staling every outstanding handle) and
    /// returns the slot to the free list.
    fn retire(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if let Some(ev) = self.procs[idx].pending_ev.take() {
            self.free_event(ev);
        }
        let slot = &mut self.procs[idx];
        slot.state = ProcState::Done;
        slot.co = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.proc_free.push(idx as u32);
        self.live_processes -= 1;
    }

    /// Schedules a resume event for `pid`. A process has at most one
    /// resume event in flight: only a process with none (just spawned,
    /// woken, or yielding a timeout from its own resume) gets here.
    fn push_event(&mut self, time: SimTime, pid: ProcessId) {
        let idx = pid.index();
        debug_assert!(self.procs[idx].pending_ev.is_none());
        let ev = if let Some(e) = self.event_free.pop() {
            self.events[e as usize].pid = pid;
            e
        } else {
            self.events.push(EventSlot { gen: 0, pid });
            (self.events.len() - 1) as u32
        };
        let gen = self.events[ev as usize].gen;
        self.procs[idx].pending_ev = Some(ev);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry { time, seq, ev, gen }));
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Processes a single event. Returns `false` when the heap is empty.
    /// Stale entries (their event slot was freed by a kill) are discarded
    /// without advancing the clock; the call still returns `true`.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(entry)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "event heap not monotone");
        let slot = self.events[entry.ev as usize];
        if slot.gen != entry.gen {
            // The process this event would have resumed was killed.
            return true;
        }
        let pid = slot.pid;
        self.free_event(entry.ev);
        let pslot = &mut self.procs[pid.index()];
        debug_assert_eq!(pslot.gen, pid.generation(), "live event on a retired slot");
        debug_assert_eq!(pslot.pending_ev, Some(entry.ev));
        debug_assert_eq!(pslot.state, ProcState::Scheduled);
        pslot.pending_ev = None;
        self.now = entry.time;
        self.events_processed += 1;
        self.run_process(pid);
        true
    }

    /// Runs until no events remain. Returns the final simulation time.
    pub fn run(&mut self) -> f64 {
        while self.step() {}
        self.now()
    }

    /// Conservative epoch barrier: processes every event with time ≤
    /// `t_end` (inclusive), then pins the clock to **exactly** `t_end` —
    /// even when the heap drained first, and never backwards.
    ///
    /// This is the pause/resume primitive for running several kernels in
    /// bounded sim-time windows on separate OS threads: after each shard
    /// kernel returns from `run_epoch(t)` a coordinator may inspect shared
    /// state and [`wake`](Self::wake)/[`spawn`](Self::spawn) at the common
    /// instant `t`, and every kernel stamps those injected events with the
    /// same clock value regardless of where its own event stream ran dry.
    pub fn run_epoch(&mut self, t_end: f64) -> f64 {
        let end = SimTime::new(t_end);
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > end {
                break;
            }
            self.step();
        }
        if self.now < end {
            self.now = end;
        }
        self.now()
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    fn run_process(&mut self, pid: ProcessId) {
        let idx = pid.index();
        let mut co = self.procs[idx]
            .co
            .take()
            .expect("process body missing (kernel bug)");
        let step = co.resume(&mut Ctx { sim: self, pid });
        // The body may have killed itself during resume — its slot was
        // retired (and possibly reused by a spawn). Only this incarnation
        // may write the body back.
        if self.procs[idx].gen != pid.generation() {
            return;
        }
        self.procs[idx].co = Some(co);
        match step {
            Step::Done => self.retire(pid),
            Step::Wait(Effect::Timeout(dt)) => {
                let t = self.now.after(dt);
                self.push_event(t, pid);
            }
            Step::Wait(Effect::Suspend) => {
                self.procs[idx].state = ProcState::Suspended;
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .field("live_processes", &self.live_processes)
            .field("process_slots", &self.procs.len())
            .field("heap_len", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    /// A process that repeats `Timeout(dt)` n times.
    struct Ticker {
        dt: f64,
        n: u32,
        fired: Arc<AtomicU32>,
    }
    impl Coroutine for Ticker {
        fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
            if self.n == 0 {
                return Step::Done;
            }
            self.n -= 1;
            self.fired.fetch_add(1, Ordering::Relaxed);
            Step::Wait(Effect::Timeout(self.dt))
        }
    }

    fn ticker(dt: f64, n: u32, fired: &Arc<AtomicU32>) -> Box<Ticker> {
        Box::new(Ticker {
            dt,
            n,
            fired: fired.clone(),
        })
    }

    #[test]
    fn timeouts_advance_clock() {
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(1);
        sim.spawn(ticker(2.0, 5, &fired));
        let end = sim.run();
        assert_eq!(end, 10.0);
        assert_eq!(fired.load(Ordering::Relaxed), 5);
        assert_eq!(sim.live_processes(), 0);
    }

    struct Sleeper;
    impl Coroutine for Sleeper {
        fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
            Step::Wait(Effect::Suspend)
        }
    }

    #[test]
    fn suspend_then_wake() {
        let mut sim = Simulation::new(8);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run();
        assert!(!sim.is_done(pid));
        assert!(sim.wake(pid));
        sim.run();
        // Sleeper suspends forever each resume; wake it once more and it
        // suspends again — state machine remains consistent.
        assert!(!sim.is_done(pid));
        assert!(sim.wake(pid));
        assert!(!sim.wake(pid)); // already scheduled, wake is a no-op
    }

    #[test]
    fn kill_terminates_in_every_wait_state() {
        // Sleeping (Scheduled with a pending timeout event).
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(21);
        let pid = sim.spawn(ticker(5.0, 10, &fired));
        sim.run_epoch(7.0); // fired at t=0 and t=5
        assert!(sim.kill(pid));
        assert!(sim.is_done(pid));
        assert!(!sim.kill(pid)); // already done: no-op
        sim.run();
        // The pending t=10 event is stale: no further fires, and popping it
        // does not move the clock.
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        assert_eq!(sim.live_processes(), 0);
        assert_eq!(sim.now(), 7.0);

        // Suspended.
        let mut sim = Simulation::new(22);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run();
        assert!(sim.kill(pid));
        assert!(!sim.wake(pid)); // retired slot cannot be woken
        assert_eq!(sim.live_processes(), 0);

        // Scheduled but not yet started (spawned with a delay).
        let mut sim = Simulation::new(23);
        let pid = sim.spawn_after(3.0, ticker(1.0, 4, &fired));
        assert!(sim.kill(pid));
        sim.run();
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        assert_eq!(sim.now(), 0.0);
    }

    #[test]
    fn slots_are_reused_and_stale_handles_stay_safe() {
        // Spawn-finish-spawn: the second process reuses the first's slot
        // under a bumped generation; the first handle must stay inert.
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(25);
        let a = sim.spawn(ticker(1.0, 1, &fired));
        sim.run();
        assert!(sim.is_done(a));
        let b = sim.spawn(Box::new(Sleeper));
        // Same slot, different generation: distinct handles.
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        sim.run();
        // Operations through the stale handle must not reach `b`.
        assert!(sim.is_done(a));
        assert!(!sim.wake(a));
        assert!(!sim.kill(a));
        assert!(!sim.is_done(b));
        assert!(sim.wake(b));
        assert_eq!(sim.process_slots(), 1, "one pooled slot serves both");
    }

    #[test]
    fn event_slab_reuses_slots() {
        // A long ticker run schedules thousands of events but only ever has
        // one in flight — the slab must stay at a single slot.
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(26);
        sim.spawn(ticker(1.0, 1000, &fired));
        sim.run();
        assert_eq!(sim.events.len(), 1, "event slots must be pooled");
    }

    #[test]
    fn raw_pid_roundtrip_preserves_generation() {
        let mut sim = Simulation::new(27);
        let a = sim.spawn(Box::new(Sleeper));
        sim.run();
        sim.kill(a);
        let b = sim.spawn(Box::new(Sleeper));
        let restored = ProcessId::from_raw(b.as_raw());
        assert_eq!(restored, b);
        // The stale handle round-trips too, and stays stale.
        let stale = ProcessId::from_raw(a.as_raw());
        assert!(sim.is_done(stale));
        assert!(!sim.wake(stale));
    }

    #[test]
    fn run_epoch_pins_clock_when_heap_drains() {
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(9);
        sim.spawn(ticker(1.0, 3, &fired));
        // The last event fires at t=2; run_epoch pins the clock to the
        // barrier time anyway.
        sim.run_epoch(10.0);
        assert_eq!(sim.now(), 10.0);
        assert_eq!(fired.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_epoch_is_inclusive_and_monotone() {
        let fired = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(9);
        sim.spawn(ticker(1.0, 100, &fired));
        sim.run_epoch(5.0);
        assert_eq!(sim.now(), 5.0);
        // Ticks at t=0..=5 inclusive.
        assert_eq!(fired.load(Ordering::Relaxed), 6);
        // A barrier in the past never moves the clock backwards.
        sim.run_epoch(1.0);
        assert_eq!(sim.now(), 5.0);
        sim.run_epoch(6.0);
        assert_eq!(fired.load(Ordering::Relaxed), 7);
        assert_eq!(sim.now(), 6.0);
    }

    #[test]
    fn run_epoch_injected_events_stamp_at_barrier() {
        // A suspended process woken at a drained-heap barrier resumes at
        // exactly the barrier time — the contract the parallel service
        // coordinator relies on.
        let mut sim = Simulation::new(9);
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run_epoch(7.5);
        assert_eq!(sim.now(), 7.5);
        assert!(sim.wake(pid));
        sim.run();
        // The wake resumed the sleeper at exactly the pinned instant.
        assert_eq!(sim.now(), 7.5);
    }

    /// Parks until woken, logging every resume instant.
    struct Waiter {
        log: Arc<Mutex<Vec<(usize, f64)>>>,
    }
    impl Coroutine for Waiter {
        fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
            self.log.lock().unwrap().push((usize::MAX, cx.now()));
            Step::Wait(Effect::Suspend)
        }
    }

    /// Sleeps `hold`, then wakes `target` and finishes.
    struct Waker {
        id: usize,
        hold: f64,
        target: ProcessId,
        slept: bool,
        log: Arc<Mutex<Vec<(usize, f64)>>>,
    }
    impl Coroutine for Waker {
        fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
            if !self.slept {
                self.slept = true;
                return Step::Wait(Effect::Timeout(self.hold));
            }
            self.log.lock().unwrap().push((self.id, cx.now()));
            cx.wake(self.target);
            Step::Done
        }
    }

    #[test]
    fn deterministic_event_interleaving() {
        // Two identical runs of wakers converging on one parked process
        // (with ties) must produce identical logs.
        let run = || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Simulation::new(42);
            let target = sim.spawn(Box::new(Waiter { log: log.clone() }));
            for i in 0..10usize {
                sim.spawn(Box::new(Waker {
                    id: i,
                    hold: 1.0 + (i % 4) as f64 * 0.25,
                    target,
                    slept: false,
                    log: log.clone(),
                }));
            }
            sim.run();
            assert_eq!(sim.live_processes(), 1, "only the waiter stays parked");
            let v = log.lock().unwrap().clone();
            (v, sim.now(), sim.events_processed())
        };
        let (log, end, events) = run();
        assert_eq!((log.clone(), end, events), run());
        // Same-instant wakers fire in spawn order; the waiter (W) resumes
        // once per distinct wake instant, after the wakers that woke it.
        const W: usize = usize::MAX;
        let expected: Vec<(usize, f64)> = [
            (0.0, &[W][..]),
            (1.0, &[0, 4, 8, W]),
            (1.25, &[1, 5, 9, W]),
            (1.5, &[2, 6, W]),
            (1.75, &[3, 7, W]),
        ]
        .iter()
        .flat_map(|&(t, ids)| ids.iter().map(move |&id| (id, t)))
        .collect();
        assert_eq!(log, expected);
        assert_eq!(end, 1.75);
    }

    #[test]
    fn self_kill_during_resume_is_safe() {
        // A process that kills itself mid-resume: the kernel must not write
        // the stale body back into the (possibly reused) slot.
        struct SelfKiller {
            spawned: Arc<AtomicU32>,
        }
        impl Coroutine for SelfKiller {
            fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
                let me = cx.pid();
                cx.kill(me);
                // Immediately reuse the freed slot.
                cx.spawn(ticker(1.0, 1, &self.spawned));
                Step::Done // ignored: the slot is already retired
            }
        }
        let spawned = Arc::new(AtomicU32::new(0));
        let mut sim = Simulation::new(28);
        sim.spawn(Box::new(SelfKiller {
            spawned: spawned.clone(),
        }));
        sim.run();
        assert_eq!(spawned.load(Ordering::Relaxed), 1);
        assert_eq!(sim.live_processes(), 0);
    }
}
