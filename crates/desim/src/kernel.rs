//! The simulation kernel: slab-allocated processes and events over one
//! event heap, plus the world the processes act on.
//!
//! A [`Simulation`] is a [`Kernel`] and a world `W`. The kernel knows two
//! effects — [`Effect::Timeout`] and [`Effect::Suspend`] — and three
//! process-control calls: spawn, wake and kill. Everything a model
//! simulates (queues, capacity ledgers, records) is the world: the
//! simulation owns it and lends it to each process it resumes, next to the
//! kernel ([`Ctx::world`], [`Ctx::kernel`]). No state is shared between
//! processes behind a lock, and [`Simulation::into_world`] hands the final
//! state back after the run. Between events, [`Simulation::split`] lends
//! the kernel and the world to a caller as the same two borrows.
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
//! reused) degrades safely everywhere: [`Kernel::wake`] and
//! [`Kernel::kill`] return `false`, [`Kernel::is_done`] returns `true`.
//! This is what makes `kill` safe in the presence of slot reuse — a
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
use std::ops::{Deref, DerefMut};

use crate::process::{Coroutine, Ctx, Effect, ProcessId, Step};
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

struct ProcSlot<W> {
    co: Option<Box<dyn Coroutine<W>>>,
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

/// The clock, the event heap and the process slabs of a [`Simulation`]:
/// everything but the world.
///
/// See the [module docs](self) for the slab/handle model.
pub struct Kernel<W> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    procs: Vec<ProcSlot<W>>,
    /// Free-listed process slots (retired, generation already bumped).
    proc_free: Vec<u32>,
    /// Event slab; entries are reused across the run.
    events: Vec<EventSlot>,
    event_free: Vec<u32>,
    events_processed: u64,
    live_processes: usize,
}

/// A deterministic process-interaction discrete-event simulation: a
/// [`Kernel`] driving processes over a world `W` it owns.
///
/// The simulation dereferences to its kernel, so the clock and the
/// process-control calls ([`Kernel::spawn`], [`Kernel::wake`],
/// [`Kernel::kill`]) are called on it directly. See the [crate docs](crate)
/// for the programming model.
pub struct Simulation<W> {
    kernel: Kernel<W>,
    world: W,
}

impl<W> Simulation<W> {
    /// Creates a simulation with no processes over `world`.
    pub fn new(world: W) -> Self {
        Simulation {
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::with_capacity(1024),
                procs: Vec::with_capacity(256),
                proc_free: Vec::new(),
                events: Vec::with_capacity(1024),
                event_free: Vec::new(),
                events_processed: 0,
                live_processes: 0,
            },
            world,
        }
    }

    /// The world the processes act on.
    #[inline]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world, e.g. to set it up before the run.
    #[inline]
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The kernel and the world as two separate borrows, the way a
    /// [`Ctx`] hands them to a running process. A caller outside any event
    /// can run the same code a coroutine runs, between two
    /// [`Simulation::step`]s.
    #[inline]
    pub fn split(&mut self) -> (&mut Kernel<W>, &mut W) {
        (&mut self.kernel, &mut self.world)
    }

    /// Ends the simulation and returns its world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Processes a single event. Returns `false` when the heap is empty.
    /// Stale entries (their event slot was freed by a kill) are discarded
    /// without advancing the clock; the call still returns `true`.
    pub fn step(&mut self) -> bool {
        self.kernel.step(&mut self.world)
    }

    /// Runs until no events remain. Returns the final simulation time.
    pub fn run(&mut self) -> f64 {
        while self.step() {}
        self.now()
    }
}

impl<W> Deref for Simulation<W> {
    type Target = Kernel<W>;

    fn deref(&self) -> &Kernel<W> {
        &self.kernel
    }
}

impl<W> DerefMut for Simulation<W> {
    fn deref_mut(&mut self) -> &mut Kernel<W> {
        &mut self.kernel
    }
}

impl<W> Kernel<W> {
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

    // ------------------------------------------------------------------
    // Slab plumbing
    // ------------------------------------------------------------------

    /// The slot behind a handle, if the handle is still current.
    #[inline]
    fn live(&self, pid: ProcessId) -> Option<&ProcSlot<W>> {
        self.procs
            .get(pid.index())
            .filter(|s| s.gen == pid.generation())
    }

    /// Allocates a process slot (reusing a retired one when available).
    fn alloc_proc(&mut self, co: Box<dyn Coroutine<W>>) -> ProcessId {
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
    pub fn spawn(&mut self, co: Box<dyn Coroutine<W>>) -> ProcessId {
        self.spawn_after(0.0, co)
    }

    /// Spawns a process that first runs `delay` seconds from now. The slot
    /// may be one reused from a finished process; the returned handle
    /// carries the slot's new generation.
    pub fn spawn_after(&mut self, delay: f64, co: Box<dyn Coroutine<W>>) -> ProcessId {
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
    /// running. The body is dropped, any pending resume event is freed, and
    /// the slot returns to the pool for reuse — the handle goes stale.
    /// Whatever the process had claimed in the world is **not** given
    /// back — the killer owns that cleanup, exactly as with an OS-level
    /// `kill -9`.
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

    /// [`Simulation::step`] over the simulation's world.
    fn step(&mut self, world: &mut W) -> bool {
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
        self.run_process(pid, world);
        true
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    fn run_process(&mut self, pid: ProcessId, world: &mut W) {
        let idx = pid.index();
        let mut co = self.procs[idx]
            .co
            .take()
            .expect("process body missing (kernel bug)");
        let step = co.resume(&mut Ctx {
            kernel: self,
            world,
            pid,
        });
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

impl<W> std::fmt::Debug for Kernel<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
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

    /// A process that repeats `Timeout(dt)` n times, counting each fire in
    /// the world.
    struct Ticker {
        dt: f64,
        n: u32,
    }
    impl Coroutine<u32> for Ticker {
        fn resume(&mut self, cx: &mut Ctx<'_, u32>) -> Step {
            if self.n == 0 {
                return Step::Done;
            }
            self.n -= 1;
            *cx.world += 1;
            Step::Wait(Effect::Timeout(self.dt))
        }
    }

    fn ticker(dt: f64, n: u32) -> Box<Ticker> {
        Box::new(Ticker { dt, n })
    }

    #[test]
    fn timeouts_advance_clock() {
        let mut sim = Simulation::new(0u32);
        sim.spawn(ticker(2.0, 5));
        let end = sim.run();
        assert_eq!(end, 10.0);
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.live_processes(), 0);
    }

    struct Sleeper;
    impl<W> Coroutine<W> for Sleeper {
        fn resume(&mut self, _cx: &mut Ctx<'_, W>) -> Step {
            Step::Wait(Effect::Suspend)
        }
    }

    #[test]
    fn suspend_then_wake() {
        let mut sim = Simulation::new(());
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
        let mut sim = Simulation::new(0u32);
        let pid = sim.spawn(ticker(5.0, 10));
        assert!(sim.step() && sim.step()); // fired at t=0 and t=5
        assert!(sim.kill(pid));
        assert!(sim.is_done(pid));
        assert!(!sim.kill(pid)); // already done: no-op
        sim.run();
        // The pending t=10 event is stale: no further fires, and popping it
        // does not move the clock.
        assert_eq!(*sim.world(), 2);
        assert_eq!(sim.live_processes(), 0);
        assert_eq!(sim.now(), 5.0);

        // Suspended.
        let mut sim = Simulation::new(());
        let pid = sim.spawn(Box::new(Sleeper));
        sim.run();
        assert!(sim.kill(pid));
        assert!(!sim.wake(pid)); // retired slot cannot be woken
        assert_eq!(sim.live_processes(), 0);

        // Scheduled but not yet started (spawned with a delay).
        let mut sim = Simulation::new(0u32);
        let pid = sim.spawn_after(3.0, ticker(1.0, 4));
        assert!(sim.kill(pid));
        sim.run();
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.now(), 0.0);
    }

    #[test]
    fn slots_are_reused_and_stale_handles_stay_safe() {
        // Spawn-finish-spawn: the second process reuses the first's slot
        // under a bumped generation; the first handle must stay inert.
        let mut sim = Simulation::new(0u32);
        let a = sim.spawn(ticker(1.0, 1));
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
        let mut sim = Simulation::new(0u32);
        sim.spawn(ticker(1.0, 1000));
        sim.run();
        assert_eq!(*sim.world(), 1000);
        assert_eq!(sim.events.len(), 1, "event slots must be pooled");
    }

    /// Parks until woken, logging every resume instant.
    struct Waiter;
    impl Coroutine<Vec<(usize, f64)>> for Waiter {
        fn resume(&mut self, cx: &mut Ctx<'_, Vec<(usize, f64)>>) -> Step {
            let now = cx.now();
            cx.world.push((usize::MAX, now));
            Step::Wait(Effect::Suspend)
        }
    }

    /// Sleeps `hold`, then wakes `target` and finishes.
    struct Waker {
        id: usize,
        hold: f64,
        target: ProcessId,
        slept: bool,
    }
    impl Coroutine<Vec<(usize, f64)>> for Waker {
        fn resume(&mut self, cx: &mut Ctx<'_, Vec<(usize, f64)>>) -> Step {
            if !self.slept {
                self.slept = true;
                return Step::Wait(Effect::Timeout(self.hold));
            }
            let now = cx.now();
            cx.world.push((self.id, now));
            cx.wake(self.target);
            Step::Done
        }
    }

    #[test]
    fn deterministic_event_interleaving() {
        // Two identical runs of wakers converging on one parked process
        // (with ties) must produce identical logs.
        let run = || {
            let mut sim = Simulation::new(Vec::new());
            let target = sim.spawn(Box::new(Waiter));
            for i in 0..10usize {
                sim.spawn(Box::new(Waker {
                    id: i,
                    hold: 1.0 + (i % 4) as f64 * 0.25,
                    target,
                    slept: false,
                }));
            }
            sim.run();
            assert_eq!(sim.live_processes(), 1, "only the waiter stays parked");
            let (end, events) = (sim.now(), sim.events_processed());
            (sim.into_world(), end, events)
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
    fn processes_see_each_others_world_writes_in_event_order() {
        // A writer appends its step number to the world every 2 s; a reader
        // offset by 1 s records what it finds. Each read must see exactly
        // the writes whose events came before it, and `into_world` must
        // return the state the last event left.
        #[derive(Default)]
        struct Log {
            written: Vec<u32>,
            seen: Vec<usize>,
        }
        struct Writer(u32);
        impl Coroutine<Log> for Writer {
            fn resume(&mut self, cx: &mut Ctx<'_, Log>) -> Step {
                cx.world.written.push(self.0);
                self.0 += 1;
                if self.0 == 4 {
                    Step::Done
                } else {
                    Step::Wait(Effect::Timeout(2.0))
                }
            }
        }
        struct Reader(u32);
        impl Coroutine<Log> for Reader {
            fn resume(&mut self, cx: &mut Ctx<'_, Log>) -> Step {
                let n = cx.world.written.len();
                cx.world.seen.push(n);
                self.0 -= 1;
                if self.0 == 0 {
                    Step::Done
                } else {
                    Step::Wait(Effect::Timeout(2.0))
                }
            }
        }
        let mut sim = Simulation::new(Log::default());
        sim.spawn_after(1.0, Box::new(Reader(4)));
        // Spawned second but due first: the writer's t = 0 event precedes
        // the reader's t = 1 one.
        sim.spawn(Box::new(Writer(0)));
        assert_eq!(sim.run(), 7.0);
        let world = sim.into_world();
        assert_eq!(world.written, vec![0, 1, 2, 3]);
        assert_eq!(world.seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn self_kill_during_resume_is_safe() {
        // A process that kills itself mid-resume: the kernel must not write
        // the stale body back into the (possibly reused) slot.
        struct SelfKiller;
        impl Coroutine<u32> for SelfKiller {
            fn resume(&mut self, cx: &mut Ctx<'_, u32>) -> Step {
                let me = cx.pid();
                cx.kill(me);
                // Immediately reuse the freed slot.
                cx.spawn(ticker(1.0, 1));
                Step::Done // ignored: the slot is already retired
            }
        }
        let mut sim = Simulation::new(0u32);
        sim.spawn(Box::new(SelfKiller));
        sim.run();
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.live_processes(), 0);
    }

    #[test]
    fn split_lends_kernel_and_world_between_steps() {
        // A caller outside any event spawns through the kernel while it
        // writes the world, as a coroutine does through its `Ctx`.
        let mut sim = Simulation::new(0u32);
        sim.spawn(ticker(1.0, 2));
        assert!(sim.step());
        let (kernel, world) = sim.split();
        *world += 10;
        kernel.spawn_after(0.5, ticker(1.0, 1));
        assert_eq!(sim.run(), 2.0);
        assert_eq!(*sim.world(), 13);
    }
}
