//! Process-level meters: a counting global allocator and the peak
//! resident set size from `/proc/self/status`.
//!
//! Counting is off by default so untraced runs pay one relaxed load per
//! allocation; traced runs switch it on around the calls they measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus allocation and freed-byte counters.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics that publish no data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc();
        on_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far (`realloc` counts as one).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes owned by `value`, measured as the bytes its drop frees.
/// Exact when no other thread allocates meanwhile.
pub fn drop_measuring<T>(value: T) -> u64 {
    set_counting(true);
    let before = FREED_BYTES.load(Ordering::Relaxed);
    drop(value);
    let bytes = FREED_BYTES.load(Ordering::Relaxed) - before;
    set_counting(false);
    bytes
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// when `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
