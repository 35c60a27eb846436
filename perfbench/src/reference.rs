//! A fixed reference workload that measures the host's speed at a moment,
//! with code the simulator does not share.
//!
//! The measuring host's speed moves by tens of percent in spells of tens
//! of seconds. A round of the reference runs just before every untraced
//! pass, so over a run it sees the same spells as the passes; dividing the
//! pass timings by the run's reference time cancels most of the host's
//! drift, and a change to the simulator still moves them in full.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Ordered-map operations in one round, per thread.
const OPS: u64 = 500_000;
/// Most entries the map holds: a few MiB, past the private caches, so the
/// round feels cache and memory contention as the simulator does.
const MAX_ENTRIES: usize = 65_536;

/// Host seconds of one round on `threads` threads at once (each thread
/// runs the same churn), so a multi-threaded workload is compared with a
/// reference that loads the host the same way.
pub fn round_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for i in 1..threads {
            s.spawn(move || churn(i as u64));
        }
        churn(0);
    });
    t.elapsed().as_secs_f64()
}

/// Inserts, range lookups and evictions on a bounded ordered map, keyed
/// by a fixed pseudo-random sequence.
fn churn(stream: u64) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ stream;
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 262_144;
        map.insert(k, i);
        if let Some((_, v)) = map.range(k / 2..).next() {
            acc = acc.wrapping_add(*v);
        }
        if map.len() > MAX_ENTRIES {
            map.pop_first();
        }
    }
    black_box(acc);
}
