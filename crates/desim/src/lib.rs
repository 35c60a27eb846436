//! # qcs-desim — deterministic discrete-event simulation kernel
//!
//! A process-interaction discrete-event simulation (DES) engine in the style
//! of [SimPy](https://simpy.readthedocs.io), built for the `qcs` quantum cloud
//! simulator (Luo et al., ICPP 2025) but fully general.
//!
//! ## Model
//!
//! * A [`Simulation<W>`] is a [`Kernel`] — a monotone event heap, a FIFO
//!   of the events due at the current instant, and a set of *processes*
//!   (cooperative coroutines implementing [`Coroutine<W>`]) — plus the
//!   world `W` the processes act on: queues, capacity ledgers, records.
//!   The simulation owns the world; [`Simulation::into_world`] hands it
//!   back after the run.
//! * Each resume gets a [`Ctx`] whose two fields borrow the kernel and the
//!   world separately, so a process can hold world state while it spawns,
//!   wakes or kills. Nothing is shared behind a lock, and a world is
//!   reachable only from the thread running its simulation.
//!   [`Simulation::split`] lends the same two borrows to a caller between
//!   events, so code written for a coroutine can also run from outside
//!   one — the way a training environment answers a parked scheduler.
//! * Processes advance by returning [`Step::Wait`] with an [`Effect`]:
//!   [`Effect::Timeout`] (resume after a delay) or [`Effect::Suspend`]
//!   (park until another component calls [`Kernel::wake`]).
//! * Processes can spawn others (now or after a delay), wake parked ones,
//!   and [`Kernel::kill`] any of them mid-wait — the primitive behind
//!   crash injection, where the killer cleans up what the victim held in
//!   the world itself.
//! * Everything is deterministic: events are ordered by `(time, seq)`, so
//!   simultaneous events fire in the order they were scheduled. An event
//!   due the instant it is scheduled (a spawn, a wake, a zero timeout)
//!   skips the heap for the FIFO, which keeps that order by construction
//!   (see [`kernel`]). The kernel draws no randomness; models that need it
//!   seed their own streams, for instance from the bundled
//!   [`rng::Xoshiro256StarStar`] generator.
//!
//! ## Slab allocation and handles
//!
//! Processes and scheduled resume events live in `Vec`-backed slabs with
//! free lists: a finished or killed process returns its slot to a pool
//! that the next spawn reuses, and every heap or FIFO entry names a pooled
//! event slot, so long runs (100k+ jobs) recycle a bounded set of
//! allocations instead of growing without bound.
//!
//! Handles ([`ProcessId`], and the kernel's internal event handles) are
//! `(index, generation)` pairs. Freeing a slot bumps its generation, so a
//! handle from a previous occupant can never resolve to the new one:
//!
//! * [`Kernel::wake`] / [`Kernel::kill`] through a stale handle return
//!   `false` and do nothing — holding a pid of a finished process is
//!   always safe, even after its slot was reused;
//! * [`Kernel::is_done`] answers `true` for a stale handle (that
//!   incarnation is gone).
//!
//! Killing a sleeping process frees its event slot and leaves the heap or
//! FIFO entry behind; the kernel recognises it as stale by its generation
//! when taken and discards it without advancing the clock.
//!
//! ## Quick example
//!
//! ```
//! use qcs_desim::{Simulation, Coroutine, Ctx, Step, Effect};
//!
//! /// Adds each pulse's length to the world: the total pulse time.
//! struct Pulse { remaining: u32 }
//! impl Coroutine<f64> for Pulse {
//!     fn resume(&mut self, cx: &mut Ctx<'_, f64>) -> Step {
//!         if self.remaining == 0 { return Step::Done; }
//!         self.remaining -= 1;
//!         *cx.world += 1.5;
//!         Step::Wait(Effect::Timeout(1.5))
//!     }
//! }
//!
//! let mut sim = Simulation::new(0.0);
//! sim.spawn(Box::new(Pulse { remaining: 4 }));
//! sim.run();
//! assert_eq!(sim.now(), 6.0);
//! assert_eq!(sim.into_world(), 6.0);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod kernel;
pub mod parallel;
pub mod process;
pub mod rng;
pub mod stats;
pub mod time;

pub use kernel::{Kernel, Simulation};
pub use process::{Coroutine, Ctx, Effect, ProcessId, Step};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, LogHistogram, TimeWeighted, Welford};
pub use time::SimTime;
