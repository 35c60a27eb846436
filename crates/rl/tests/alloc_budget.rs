//! Heap allocations of PPO's minibatch loop.
//!
//! A counting global allocator tallies the allocations the test thread
//! makes while `Ppo::update` runs. One warm-up pass sizes every scratch
//! buffer: the shard caches and gradient slabs, the Gaussian terms, the
//! Adam moments and the shuffled row order. After it, a pass of
//! `n_epochs × ⌈n / batch_size⌉` minibatches must allocate nothing at all:
//! no forward, loss, backward, reduction, clipping or optimiser step may
//! collect into a fresh `Vec`. The update runs on one worker, which is the
//! calling thread, as `PpoConfig`'s default does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qcs_desim::Xoshiro256StarStar;
use qcs_rl::{Ppo, PpoConfig, RolloutBuffer};

/// The system allocator, counting the allocations of threads that opted
/// in.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its output with the allocations this thread made
/// meanwhile (`realloc` counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A filled rollout of single-step episodes with seeded contents; about a
/// quarter of the observation features are exact zeros, as the scheduler
/// environment's empty queue slots are.
fn rollout(n_steps: usize, n_envs: usize, obs_dim: usize, action_dim: usize) -> RolloutBuffer {
    let mut b = RolloutBuffer::new(n_steps, n_envs, obs_dim, action_dim);
    let mut rng = Xoshiro256StarStar::new(17);
    let mut obs = vec![0.0f32; obs_dim];
    let mut act = vec![0.0f32; action_dim];
    for _ in 0..n_steps * n_envs {
        for v in obs.iter_mut() {
            *v = if rng.next_f64() < 0.25 {
                0.0
            } else {
                rng.range_f64(-1.0, 1.0) as f32
            };
        }
        for v in act.iter_mut() {
            *v = rng.range_f64(-1.5, 1.5) as f32;
        }
        let logp = rng.range_f64(-9.0, -3.0);
        b.push(&obs, &act, rng.range_f64(-1.0, 1.0), true, 0.0, logp);
    }
    b.compute_advantages(&vec![0.0; n_envs], 0.99, 0.95);
    b
}

/// The gym broker's and the queue-deep scheduler's network shapes at the
/// benchmark's rollout sizes, and a rollout whose last minibatch is
/// ragged (100 rows: one whole minibatch of 64, then 36).
#[test]
fn ppo_update_allocates_nothing_per_minibatch_after_warm_up() {
    for (obs_dim, action_dim, n_steps, n_envs) in [
        (16usize, 5usize, 512usize, 4usize),
        (60, 9, 256, 4),
        (60, 9, 50, 2),
    ] {
        let config = PpoConfig {
            n_steps,
            n_epochs: 3,
            seed: 5,
            ..PpoConfig::default()
        };
        let batch = config.batch_size;
        let mut ppo = Ppo::new(obs_dim, action_dim, config);
        let buffer = rollout(n_steps, n_envs, obs_dim, action_dim);
        ppo.update(&buffer);
        let (diag, allocs) = counted(|| ppo.update(&buffer));
        let minibatches = 3 * buffer.len().div_ceil(batch);
        assert!(diag.value_loss.is_finite());
        assert_eq!(
            allocs, 0,
            "{obs_dim}->{action_dim}: {allocs} allocations over {minibatches} minibatches"
        );
    }
}
