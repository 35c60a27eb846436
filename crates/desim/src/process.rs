//! Processes: cooperative coroutines driven by the kernel.
//!
//! A process is any type implementing [`Coroutine`]. Each time the kernel
//! resumes it, the process performs some computation and either finishes
//! ([`Step::Done`]) or yields an [`Effect`] describing what it is waiting
//! for. This mirrors SimPy's generator-based processes, expressed as an
//! explicit state machine (Rust has no stable generators, and explicit
//! states are easier to unit-test).
//!
//! A coroutine is generic over the world `W` of the
//! [`Simulation`](crate::Simulation) it runs in: each resume gets a [`Ctx`]
//! holding the kernel and `&mut W` as two separate fields.

use crate::kernel::Kernel;

/// Generation-checked handle to a spawned process within one
/// [`Simulation`](crate::Simulation).
///
/// Process slots are pooled: after a process finishes or is killed, its
/// slot is reused by a later spawn under a bumped generation. A handle
/// therefore names one *incarnation*, not a slot — operations through a
/// handle whose process is gone are safe no-ops (see the
/// [kernel docs](crate::kernel)), even if the slot now hosts someone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

impl ProcessId {
    #[inline]
    pub(crate) fn new(idx: u32, gen: u32) -> Self {
        ProcessId { idx, gen }
    }

    /// The slab slot index (shared between incarnations; use the full
    /// handle, not the index, to identify a process).
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The slot generation this handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// What a process is waiting for.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Resume after the given number of simulated seconds (must be ≥ 0).
    Timeout(f64),
    /// Park until another component calls [`Kernel::wake`].
    Suspend,
}

/// Result of one resumption of a [`Coroutine`].
#[derive(Debug)]
pub enum Step {
    /// The process blocks on the given effect.
    Wait(Effect),
    /// The process has finished and will be dropped.
    Done,
}

/// A cooperative simulation process over a world `W`.
///
/// Implementations are state machines: keep an explicit `state` enum field,
/// advance it in `resume`, and yield the effect the new state waits on.
/// `Send`, so a simulation can run on another thread than the one that
/// built it.
pub trait Coroutine<W>: Send {
    /// Advances the process. Called once at spawn time and then once per
    /// completed effect.
    fn resume(&mut self, cx: &mut Ctx<'_, W>) -> Step;
}

/// What a process gets while it runs: the kernel and the world, as two
/// separate borrows.
///
/// Because they are separate fields, a process can hold a reference into
/// `world` while it spawns, wakes or kills through `kernel`. The shorthand
/// methods borrow the whole context and suit the moments it holds none.
/// Waiting goes through the yielded [`Effect`] instead.
pub struct Ctx<'a, W> {
    /// Clock and process control.
    pub kernel: &'a mut Kernel<W>,
    /// The simulated state, owned by the [`Simulation`](crate::Simulation).
    pub world: &'a mut W,
    pub(crate) pid: ProcessId,
}

impl<W> Ctx<'_, W> {
    /// Current simulation time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.kernel.now()
    }

    /// The id of the running process.
    #[inline]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Spawns a child process, scheduled to start at the current time.
    pub fn spawn(&mut self, co: Box<dyn Coroutine<W>>) -> ProcessId {
        self.kernel.spawn(co)
    }

    /// Spawns a child process that starts after `delay` seconds.
    pub fn spawn_after(&mut self, delay: f64, co: Box<dyn Coroutine<W>>) -> ProcessId {
        self.kernel.spawn_after(delay, co)
    }

    /// Wakes a process parked on [`Effect::Suspend`].
    pub fn wake(&mut self, pid: ProcessId) {
        self.kernel.wake(pid);
    }

    /// Terminates another process immediately (drops its body and cancels
    /// its pending resume; whatever it claimed in the world is the killer's
    /// to clean up). Returns `false` if it had already finished. See
    /// [`Kernel::kill`].
    pub fn kill(&mut self, pid: ProcessId) -> bool {
        self.kernel.kill(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let pid = ProcessId::new(7, 3);
        assert_eq!(pid.index(), 7);
        assert_eq!(pid.generation(), 3);
        // Different generations of the same slot are distinct handles.
        assert_ne!(ProcessId::new(7, 3), ProcessId::new(7, 4));
    }

    #[test]
    fn effect_equality() {
        assert_eq!(Effect::Timeout(1.0), Effect::Timeout(1.0));
        assert_ne!(Effect::Timeout(1.0), Effect::Suspend);
    }
}
