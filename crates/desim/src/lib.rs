//! # qcs-desim — deterministic discrete-event simulation kernel
//!
//! A process-interaction discrete-event simulation (DES) engine in the style
//! of [SimPy](https://simpy.readthedocs.io), built for the `qcs` quantum cloud
//! simulator (Luo et al., ICPP 2025) but fully general.
//!
//! ## Model
//!
//! * A [`Simulation`] owns a monotone event heap and a set of *processes*
//!   (cooperative coroutines implementing [`Coroutine`]). Nothing else:
//!   the world the processes act on — queues, capacity ledgers, records —
//!   lives outside the kernel, in state the coroutines share.
//! * Processes advance by returning [`Step::Wait`] with an [`Effect`]:
//!   [`Effect::Timeout`] (resume after a delay) or [`Effect::Suspend`]
//!   (park until another component calls [`Simulation::wake`]).
//! * Processes can spawn others (now or after a delay), wake parked ones,
//!   and [`Simulation::kill`] any of them mid-wait — the primitive behind
//!   crash injection, where the killer cleans up the victim's shared
//!   state itself.
//! * Everything is deterministic: events are ordered by `(time, seq)`, so
//!   simultaneous events fire in the order they were scheduled, and all
//!   randomness flows from explicit seeds through the bundled
//!   [`rng::Xoshiro256StarStar`] generator.
//! * [`Simulation::run_epoch`] pauses a run at a barrier instant with the
//!   clock pinned to it, so several kernels can advance in lock-step on
//!   separate threads.
//!
//! ## Slab allocation and handles
//!
//! Processes and scheduled resume events live in `Vec`-backed slabs with
//! free lists: a finished or killed process returns its slot to a pool
//! that the next spawn reuses, and every heap entry names a pooled event
//! slot, so long runs (100k+ jobs) recycle a bounded set of allocations
//! instead of growing without bound.
//!
//! Handles ([`ProcessId`], and the kernel's internal event handles) are
//! `(index, generation)` pairs. Freeing a slot bumps its generation, so a
//! handle from a previous occupant can never resolve to the new one:
//!
//! * [`Simulation::wake`] / [`Simulation::kill`] through a stale handle
//!   return `false` and do nothing — holding a pid of a finished process
//!   is always safe, even after its slot was reused;
//! * [`Simulation::is_done`] answers `true` for a stale handle (that
//!   incarnation is gone);
//! * [`ProcessId::as_raw`] packs `(index, generation)` into a `u64` for
//!   storage in atomics/registries, and [`ProcessId::from_raw`] restores
//!   the full handle — staleness checks survive the round-trip.
//!
//! Killing a sleeping process frees its event slot and leaves the heap
//! entry behind; the kernel recognises it as stale by its generation when
//! popped and discards it without advancing the clock.
//!
//! ## Quick example
//!
//! ```
//! use qcs_desim::{Simulation, Coroutine, Ctx, Step, Effect};
//!
//! struct Pulse { remaining: u32 }
//! impl Coroutine for Pulse {
//!     fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
//!         if self.remaining == 0 { return Step::Done; }
//!         self.remaining -= 1;
//!         Step::Wait(Effect::Timeout(1.5))
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! sim.spawn(Box::new(Pulse { remaining: 4 }));
//! sim.run();
//! assert_eq!(sim.now(), 6.0);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod kernel;
pub mod parallel;
pub mod process;
pub mod rng;
pub mod stats;
pub mod time;

pub use kernel::Simulation;
pub use process::{Coroutine, Ctx, Effect, ProcessId, Step};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{Histogram, TimeWeighted, Welford};
pub use time::SimTime;
