//! Criterion micro-benchmarks for the discrete-event kernel: event
//! scheduling throughput, and the suspend/wake hand-off of one parked
//! process woken by many sleepers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qcs_desim::{Coroutine, Ctx, Effect, ProcessId, Simulation, Step};

struct Ticker {
    remaining: u32,
}
impl Coroutine for Ticker {
    fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
        if self.remaining == 0 {
            return Step::Done;
        }
        self.remaining -= 1;
        Step::Wait(Effect::Timeout(1.0))
    }
}

/// Parks until woken; finishes once every waker has finished.
struct Parked {
    wakers_left: Arc<AtomicUsize>,
}
impl Coroutine for Parked {
    fn resume(&mut self, _cx: &mut Ctx<'_>) -> Step {
        if self.wakers_left.load(Ordering::Relaxed) == 0 {
            Step::Done
        } else {
            Step::Wait(Effect::Suspend)
        }
    }
}

/// Sleeps `cycles` times and wakes the parked process after every sleep —
/// the executor → scheduler hand-off the cloud simulator runs on.
struct Waker {
    target: ProcessId,
    hold: f64,
    cycles: u32,
    slept: u32,
    wakers_left: Arc<AtomicUsize>,
}
impl Coroutine for Waker {
    fn resume(&mut self, cx: &mut Ctx<'_>) -> Step {
        if self.slept > 0 {
            if self.slept == self.cycles {
                self.wakers_left.fetch_sub(1, Ordering::Relaxed);
            }
            cx.wake(self.target);
        }
        if self.slept == self.cycles {
            return Step::Done;
        }
        self.slept += 1;
        Step::Wait(Effect::Timeout(self.hold))
    }
}

fn bench_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/events");
    for n_procs in [10usize, 100, 1000] {
        let events_per_run = (n_procs * 100) as u64;
        group.throughput(Throughput::Elements(events_per_run));
        group.bench_with_input(
            BenchmarkId::from_parameter(n_procs),
            &n_procs,
            |b, &n_procs| {
                b.iter(|| {
                    let mut sim = Simulation::new(1);
                    for _ in 0..n_procs {
                        sim.spawn(Box::new(Ticker { remaining: 100 }));
                    }
                    sim.run();
                    sim.events_processed()
                });
            },
        );
    }
    group.finish();
}

fn bench_suspend_wake(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/suspend_wake");
    for n_wakers in [8usize, 64, 256] {
        group.throughput(Throughput::Elements((n_wakers * 50) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(n_wakers),
            &n_wakers,
            |b, &n_wakers| {
                b.iter(|| {
                    let mut sim = Simulation::new(2);
                    let wakers_left = Arc::new(AtomicUsize::new(n_wakers));
                    let target = sim.spawn(Box::new(Parked {
                        wakers_left: wakers_left.clone(),
                    }));
                    for i in 0..n_wakers {
                        sim.spawn(Box::new(Waker {
                            target,
                            hold: 1.0 + (i % 7) as f64 * 0.25,
                            cycles: 50,
                            slept: 0,
                            wakers_left: wakers_left.clone(),
                        }));
                    }
                    sim.run();
                    assert_eq!(sim.live_processes(), 0);
                    sim.events_processed()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_throughput, bench_suspend_wake);
criterion_main!(benches);
