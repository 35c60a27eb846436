//! Tracing from outside the program: span records for the coarse calls the
//! benchmark makes (`run`, `learn`, set-up), and call-counting wrappers
//! around the hot public trait methods (`Scheduler::decide`,
//! `Broker::select`, `Env::step`/`step_into`), whose per-call timings are
//! folded into per-layer totals and log-bucket histograms.
//!
//! Nothing here reaches inside the simulator: every timer brackets a call
//! into a public function.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qcs_qcloud::broker::{AllocationPlan, CloudView};
use qcs_qcloud::sched::{CloudState, SchedulingDecision};
use qcs_qcloud::{Broker, QJob, Scheduler};
use qcs_rl::env::{Env, StepInfo, StepResult};

/// Sub-buckets per power of two in [`LogHist`] (relative error ≤ 1/8).
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

/// A log-bucket histogram of nanosecond durations: exact below 16 ns,
/// then eight buckets per power of two.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let sub = (ns >> (msb - SUB_BITS)) & (SUB - 1);
        ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`, in nanoseconds.
    fn midpoint(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let low = (SUB + i % SUB) << shift;
        low as f64 + (1u64 << shift) as f64 / 2.0
    }

    fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
    }

    fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `p`-quantile (`0 < p ≤ 1`) in microseconds; 0 when empty.
    pub fn quantile_us(&self, p: f64) -> f64 {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i) / 1e3;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Calls into one layer boundary: count, total host time, histogram.
#[derive(Clone, Default)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the calls.
    pub total_ns: u64,
    /// Per-call durations.
    pub hist: LogHist,
}

impl CallStats {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    /// Adds another set of calls.
    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
    }

    /// Host seconds inside the calls.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// Where wrappers deliver their counts when they are dropped. Each wrapper
/// counts locally on the thread that owns it, so parallel shards never
/// contend on the sink while running.
pub type Sink = Arc<Mutex<CallStats>>;

/// A fresh, empty sink.
pub fn sink() -> Sink {
    Arc::new(Mutex::new(CallStats::default()))
}

/// Takes the counts out of a sink whose wrappers have all been dropped.
pub fn drain(sink: &Sink) -> CallStats {
    std::mem::take(&mut *sink.lock().expect("a wrapper panicked while flushing"))
}

fn flush(local: &CallStats, sink: &Sink) {
    // Never panic in `Drop`: a poisoned sink only loses these counts.
    if let Ok(mut s) = sink.lock() {
        s.merge(local);
    }
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Times every `Scheduler::decide` call of the wrapped discipline.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    local: CallStats,
    sink: Sink,
}

impl TimedScheduler {
    /// Wraps `inner`; counts reach `sink` when the wrapper is dropped.
    pub fn new(inner: Box<dyn Scheduler>, sink: Sink) -> Self {
        TimedScheduler {
            inner,
            local: CallStats::default(),
            sink,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn decide(&mut self, queue: &[QJob], state: &CloudState) -> SchedulingDecision {
        let t0 = Instant::now();
        let d = self.inner.decide(queue, state);
        self.local.record(elapsed_ns(t0));
        d
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        flush(&self.local, &self.sink);
    }
}

/// Times every `Broker::select` call of the wrapped placement policy.
pub struct TimedBroker {
    inner: Box<dyn Broker>,
    local: CallStats,
    sink: Sink,
}

impl TimedBroker {
    /// Wraps `inner`; counts reach `sink` when the wrapper is dropped.
    pub fn new(inner: Box<dyn Broker>, sink: Sink) -> Self {
        TimedBroker {
            inner,
            local: CallStats::default(),
            sink,
        }
    }
}

impl Broker for TimedBroker {
    fn select(&mut self, job: &QJob, view: &CloudView) -> AllocationPlan {
        let t0 = Instant::now();
        let plan = self.inner.select(job, view);
        self.local.record(elapsed_ns(t0));
        plan
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TimedBroker {
    fn drop(&mut self) {
        flush(&self.local, &self.sink);
    }
}

/// Times every step of the wrapped environment, together with the resets
/// that auto-reset issues after each finished episode; the call count is
/// the number of steps.
pub struct TimedEnv<E: Env> {
    inner: E,
    local: CallStats,
    reset_ns: u64,
    sink: Sink,
}

impl<E: Env> TimedEnv<E> {
    /// Wraps `inner`; counts reach `sink` when the wrapper is dropped.
    pub fn new(inner: E, sink: Sink) -> Self {
        TimedEnv {
            inner,
            local: CallStats::default(),
            reset_ns: 0,
            sink,
        }
    }
}

impl<E: Env> Env for TimedEnv<E> {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn action_dim(&self) -> usize {
        self.inner.action_dim()
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        let t0 = Instant::now();
        let obs = self.inner.reset(seed);
        self.reset_ns += elapsed_ns(t0);
        obs
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        let t0 = Instant::now();
        let r = self.inner.step(action);
        self.local.record(elapsed_ns(t0));
        r
    }

    fn reset_into(&mut self, seed: u64, obs_out: &mut [f32]) {
        let t0 = Instant::now();
        self.inner.reset_into(seed, obs_out);
        self.reset_ns += elapsed_ns(t0);
    }

    fn step_into(&mut self, action: &[f32], obs_out: &mut [f32]) -> StepInfo {
        let t0 = Instant::now();
        let info = self.inner.step_into(action, obs_out);
        self.local.record(elapsed_ns(t0));
        info
    }
}

impl<E: Env> Drop for TimedEnv<E> {
    fn drop(&mut self) {
        self.local.total_ns += self.reset_ns;
        flush(&self.local, &self.sink);
    }
}

/// One recorded span: a coarse call the benchmark made.
pub struct Span {
    /// Layer-qualified name, e.g. `simenv.run`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Offset from the recorder's origin, in nanoseconds.
    pub start_ns: u64,
    /// End offset, in nanoseconds.
    pub end_ns: u64,
}

/// Per-call timings folded into one entry of the trace file.
pub struct Folded {
    /// Layer-qualified boundary name, e.g. `sched.decide`.
    pub name: &'static str,
    /// The span inside which the calls happened.
    pub parent: usize,
    /// The folded calls.
    pub stats: CallStats,
}

/// In-memory span recorder. A disabled recorder ignores everything, so
/// untraced passes share the traced code path at no cost.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    folded: Vec<Folded>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            folded: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let off = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: off(start),
            end_ns: off(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Attaches folded per-call timings to span `parent`.
    pub fn fold(&mut self, name: &'static str, parent: usize, stats: &CallStats) {
        if self.enabled && stats.calls > 0 {
            self.folded.push(Folded {
                name,
                parent,
                stats: stats.clone(),
            });
        }
    }

    /// Renders every span and folded entry as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\n  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n], \"folded\": [");
        for (i, f) in self.folded.iter().enumerate() {
            out.push_str(&format!(
                "{}\n  {{\"name\": \"{}\", \"parent\": {}, \"calls\": {}, \"total_ns\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                if i == 0 { "" } else { "," },
                f.name,
                f.parent,
                f.stats.calls,
                f.stats.total_ns,
                f.stats.hist.quantile_us(0.5),
                f.stats.hist.quantile_us(0.99)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_bracket_their_values() {
        let mut last = 0;
        for ns in 0..100_000u64 {
            let i = LogHist::index(ns);
            assert!(i == last || i == last + 1, "gap at {ns}");
            last = i;
            let mid = LogHist::midpoint(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 8.0 + 0.5,
                "{ns} -> {mid}"
            );
        }
        assert!(LogHist::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut h = LogHist::default();
        for ns in 1..=100u64 {
            h.record(ns * 1000);
        }
        let p50 = h.quantile_us(0.5);
        let p99 = h.quantile_us(0.99);
        assert!((p50 - 50.0).abs() <= 50.0 / 8.0, "{p50}");
        assert!((p99 - 99.0).abs() <= 99.0 / 8.0, "{p99}");
    }
}
