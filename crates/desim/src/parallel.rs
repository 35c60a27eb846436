//! Parallel execution of independent simulations.
//!
//! Discrete-event simulations are inherently sequential *inside* one run,
//! but independent runs (such as one simulation per strategy) are
//! embarrassingly parallel *across* runs. [`par_map`] spreads them over
//! scoped threads (no `unsafe`, no global pool, data-race freedom
//! guaranteed by `std::thread::scope`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, running on up to `threads` OS threads, and
/// returns the results in input order.
///
/// Work is distributed dynamically via an atomic cursor, so uneven item
/// costs (e.g. different strategy runtimes) balance automatically.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Items move into per-index slots; results come back into slots too.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("input slot taken twice");
                let out = f(item);
                *outputs[i].lock().unwrap() = Some(out);
            });
        }
    });

    outputs
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = par_map(xs.clone(), 8, |x| x * x);
        let expected: Vec<u64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(ys, expected);
    }

    #[test]
    fn par_map_empty() {
        let ys: Vec<u64> = par_map(Vec::<u64>::new(), 4, |x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn par_map_single_thread_path() {
        let ys = par_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(ys, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_more_threads_than_items() {
        let ys = par_map(vec![5], 64, |x| x * 2);
        assert_eq!(ys, vec![10]);
    }

    #[test]
    fn par_map_uneven_workloads_balance() {
        // Just a smoke test that very uneven costs still complete.
        let xs: Vec<u64> = (0..64).collect();
        let ys = par_map(xs, 4, |x| {
            let spin = if x % 7 == 0 { 10_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(ys.len(), 64);
    }
}
