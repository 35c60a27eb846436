//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service_sharded|rl_train> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. Each pass rebuilds the workload's inputs from
//! the seed, times the public calls into the simulator from outside, and
//! checks the outputs; a round of a fixed reference workload before each
//! pass tracks the host's speed. Passes repeat until `--seconds` have
//! elapsed; the run's timings are then scaled to the reference host speed
//! and reported. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced passes,
//! prints the per-layer
//! metrics (including the tracing overhead) and writes the spans to
//! `perfbench/out/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod fingerprint;
mod meter;
mod reference;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Spans;
use workloads::{Pass, Workload};

#[global_allocator]
static ALLOCATOR: meter::CountingAllocator = meter::CountingAllocator;

/// Fewest passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Most passes a run makes.
const MAX_PASSES: usize = 1_000;
/// Host seconds of one reference round at the reference speed: the timed
/// end-to-end figures are scaled to a host on which a round takes this.
const REFERENCE_ROUND_S: f64 = 0.1;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_s", "s"),
    ("sim_mean_turnaround_s", "s"),
    ("mean_fidelity", "fraction"),
    ("comm_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("simenv.run_s", "s"),
    ("simenv.self_s", "s"),
    ("simenv.ns_per_event", "ns"),
    ("desim.events", "count"),
    ("desim.events_per_job", "count"),
    ("alloc.per_job", "count"),
    ("records.bytes_per_job", "bytes"),
    ("sched.decide_calls", "count"),
    ("sched.decide_s", "s"),
    ("sched.discipline_self_s", "s"),
    ("sched.decide_p50_us", "us"),
    ("sched.decide_p99_us", "us"),
    ("policies.select_calls", "count"),
    ("policies.select_s", "s"),
    ("service.run_s", "s"),
    ("service.kernel_wall_s", "s"),
    ("service.shard_busy_sum_s", "s"),
    ("service.shard_busy_max_s", "s"),
    ("service.idle_s", "s"),
    ("service.teardown_merge_s", "s"),
    ("service.merge_s", "s"),
    ("service.events_per_job", "count"),
    ("service.decide_p50_us", "us"),
    ("service.decide_p99_us", "us"),
    ("service.goodput", "fraction"),
    ("service.rejected_frac", "fraction"),
    ("admission.accepted", "count"),
    ("admission.throttle_events", "count"),
    ("admission.rejected", "count"),
    ("faults.retries", "count"),
    ("faults.wasted_qubit_s", "qubit_s"),
    ("gym.step_calls", "count"),
    ("gym.step_s", "s"),
    ("rlsched.step_calls", "count"),
    ("rlsched.step_s", "s"),
    ("rl.learn_gym_s", "s"),
    ("rl.learn_sched_s", "s"),
    ("rl.self_s", "s"),
    ("rl.train_steps_per_s", "1/s"),
    ("rl.train_reward", "reward"),
    ("setup.trace_s", "s"),
    ("setup.build_s", "s"),
    ("sim.mean_wait_s", "s"),
    ("sim.mean_slowdown", "ratio"),
    ("trace.overhead_frac", "fraction"),
    ("host.cores", "count"),
    ("host.reference_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <service_sharded|rl_train> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::from_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    run_one(w, &args);
    ExitCode::SUCCESS
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    /// Host seconds of the reference round run before each untraced pass.
    reference: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// A run-level check failed: every job of the run counts as failed.
    run_failed: bool,
}

impl Measured {
    fn attempt(&mut self, w: Workload, seed: u64, traced: bool, spans: &mut Spans) {
        let result = catch_unwind(AssertUnwindSafe(|| w.pass(seed, traced, spans)));
        meter::set_counting(false);
        match result {
            Ok(p) => {
                self.attempted += p.submitted;
                self.failed += p.failed.min(p.submitted);
                self.failures.extend(p.failures.iter().cloned());
                if traced {
                    self.traced.push(p);
                } else {
                    self.untraced.push(p);
                }
            }
            Err(e) => {
                self.attempted += w.jobs_per_pass();
                self.failed += w.jobs_per_pass();
                self.failures.push(format!(
                    "{}: pass panicked: {}",
                    w.name(),
                    panic_message(&*e)
                ));
            }
        }
    }

    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Fingerprints and simulated outcomes must agree across every pass,
    /// traced or not.
    fn check_repeatable(&mut self) {
        let Some((fp, sim)) = self.passes().next().map(|p| (p.fingerprint, p.sim)) else {
            self.run_failed = true;
            self.failures.push("no pass completed".into());
            return;
        };
        let mut problems = Vec::new();
        for p in self.passes().skip(1) {
            if p.fingerprint != fp {
                problems.push(format!(
                    "record fingerprint {:016x} differs from the first pass's {fp:016x}",
                    p.fingerprint
                ));
            }
            if !p.sim.same_as(&sim) {
                problems.push(format!(
                    "simulated outcome {:?} differs from the first pass's {sim:?}",
                    p.sim
                ));
            }
        }
        if !problems.is_empty() {
            self.run_failed = true;
            self.failures.extend(problems);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && !self.run_failed && self.failed == 0
    }

    fn failed_jobs(&self) -> u64 {
        if self.run_failed {
            self.attempted
        } else {
            self.failed
        }
    }
}

fn measure(w: Workload, args: &Args) -> (Measured, Spans) {
    let mut m = Measured::default();
    match catch_unwind(|| w.precheck(args.seed)) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            m.run_failed = true;
            m.failures.push(e);
        }
        Err(e) => {
            m.run_failed = true;
            m.failures.push(format!(
                "{}: precheck panicked: {}",
                w.name(),
                panic_message(&*e)
            ));
        }
    }
    let mut quiet = Spans::new(false);
    let mut spans = Spans::new(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for n in 1..=MAX_PASSES {
        m.reference.push(reference::round_s(w.threads()));
        m.attempt(w, args.seed, false, &mut quiet);
        if args.trace {
            m.attempt(w, args.seed, true, &mut spans);
        }
        if n >= MIN_PASSES && start.elapsed() >= budget {
            break;
        }
    }
    m.check_repeatable();
    (m, spans)
}

/// Median of the values (0 when empty).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the values (NaN when empty).
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// First and third quartile, interpolated like Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(mut v: Vec<f64>) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(w: Workload, args: &Args) {
    let (mut m, spans) = measure(w, args);
    let p = &m.untraced;
    let spread = |name: &str, unit: &str, v: Vec<f64>| {
        let (q1, q3) = quartiles(v.clone());
        let (lo, hi) = (min(&v), max(&v));
        println!(
            "  {name:<22} per pass: median {:.6} {unit} (q1 {q1:.6}, q3 {q3:.6}, min {lo:.6}, max {hi:.6}, {} passes)",
            median(v),
            p.len()
        );
    };
    println!(
        "perfbench {} seed {} | {} untraced + {} traced passes | host_cores {}",
        w.name(),
        args.seed,
        m.untraced.len(),
        m.traced.len(),
        host_cores()
    );
    spread("jobs_per_s", "1/s", of(p, |p| p.terminal as f64 / p.run_s));
    spread("pass_s", "s", of(p, |p| p.pass_s));
    spread("setup_s", "s", of(p, |p| p.setup_s));
    if w == Workload::RlTrain {
        spread("train_steps_per_s", "1/s", of(p, |p| p.throughput));
    }
    let listed: Vec<String> = p.iter().map(|p| format!("{:.4}", p.pass_s)).collect();
    println!("  pass_s of each pass: {}", listed.join(" "));
    let listed: Vec<String> = m.reference.iter().map(|r| format!("{r:.4}")).collect();
    println!("  reference_s before each pass: {}", listed.join(" "));
    let sim = m.passes().next().map(|p| p.sim).unwrap_or_default();
    let rss = meter::peak_rss_mb().unwrap_or(0.0);
    // Every pass repeats the same deterministic work, so the spread
    // between passes is host interference, which comes in slow and fast
    // spells of tens of seconds. Totals over the whole run weigh each spell
    // by its length; set-up, a few milliseconds, takes the median. The
    // reference rounds saw the same spells: `slow` is how much slower than
    // the reference speed the host ran, and the timings are scaled by it.
    let slow = mean(&m.reference) / REFERENCE_ROUND_S;
    let total = |f: fn(&Pass) -> f64| p.iter().map(f).sum::<f64>();
    let raw = [
        total(|p| p.terminal as f64) / total(|p| p.run_s),
        total(|p| p.pass_s) / p.len() as f64,
        median(of(p, |p| p.setup_s)),
    ];
    println!(
        "  over the run, as measured: jobs_per_s {:.6} 1/s, pass_s {:.6} s (mean), setup_s {:.6} s (median)",
        raw[0], raw[1], raw[2]
    );
    println!(
        "  reference round: mean {:.6} s, host {slow:.4}x slower than the reference speed",
        mean(&m.reference)
    );
    let mut e2e = vec![
        raw[0] * slow,
        raw[1] / slow,
        raw[2] / slow,
        rss,
        sim.makespan_s,
        sim.mean_turnaround_s,
        sim.mean_fidelity,
        sim.comm_s,
    ];
    println!(
        "  at the reference speed: jobs_per_s {:.6} 1/s, pass_s {:.6} s, setup_s {:.6} s",
        e2e[0], e2e[1], e2e[2]
    );
    for (name, v, unit) in [
        ("peak_rss_mb", rss, "MiB"),
        ("sim_makespan_s", sim.makespan_s, "s"),
        ("sim_mean_turnaround_s", sim.mean_turnaround_s, "s"),
        ("sim_mean_wait_s", sim.mean_wait_s, "s"),
        ("sim_mean_slowdown", sim.mean_slowdown, "ratio"),
        ("mean_fidelity", sim.mean_fidelity, "fraction"),
        ("comm_s", sim.comm_s, "s"),
        ("goodput", sim.goodput, "fraction"),
        ("rejected_frac", sim.rejected_frac, "fraction"),
        ("train_reward", sim.train_reward, "reward"),
    ] {
        println!("  {name:<22} {v:>14.6} {unit}");
    }
    if let Some(first) = m.passes().next() {
        println!("  record fingerprint {:016x}", first.fingerprint);
    }
    if !args.trace {
        for ((name, _), v) in END_TO_END.iter().zip(&mut e2e) {
            if !v.is_finite() {
                m.failures.push(format!("{name} is not finite"));
                *v = 0.0;
            }
        }
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(&m, &sim)
            .into_iter()
            .zip(PER_LAYER)
            .map(|(v, &(name, unit))| (name, v, unit))
            .collect()
    } else {
        e2e.into_iter()
            .zip(END_TO_END)
            .map(|(v, &(name, unit))| (name, v, unit))
            .collect()
    };
    if args.trace {
        print_layers(&metrics);
        print_shares(&m.traced);
        write_spans(w, args.seed, &spans);
    }
    let failed = m.failed_jobs();
    println!(
        "  failed_frac {} ({failed} of {} jobs)",
        failed as f64 / m.attempted.max(1) as f64,
        m.attempted
    );
    for f in &m.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{}",
        json_line(m.correct(), m.attempted.max(1), failed, &metrics)
    );
}

fn per_layer(m: &Measured, sim: &workloads::SimOutcome) -> Vec<f64> {
    let t = &m.traced;
    let overhead =
        1.0 - median(of(t, |p| p.throughput)) / median(of(&m.untraced, |p| p.throughput));
    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            "sim.mean_wait_s" => sim.mean_wait_s,
            "sim.mean_slowdown" => sim.mean_slowdown,
            "trace.overhead_frac" => overhead,
            "host.cores" => host_cores() as f64,
            "host.reference_s" => mean(&m.reference),
            _ => median(of(t, |p| p.layers.get(name).copied().unwrap_or(0.0))),
        })
        .map(|v| if v.is_finite() { v } else { 0.0 })
        .collect()
}

fn print_layers(metrics: &[(&str, f64, &str)]) {
    println!("  per-layer (median of traced passes):");
    for (name, v, unit) in metrics {
        println!("    {name:<28} {v:>16.6} {unit}");
    }
}

/// Prints each layer's share of the timed calls and checks that no part
/// exceeds its parent (every self time is non-negative).
fn print_shares(traced: &[Pass]) {
    let Some(first) = traced.first() else { return };
    let leaves: Vec<(&str, f64)> = first
        .leaves
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, median(of(traced, |p| p.leaves[i].1))))
        .collect();
    let total: f64 = leaves.iter().map(|l| l.1).sum();
    let mut sorted = leaves.clone();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares: Vec<String> = sorted
        .iter()
        .map(|(n, v)| format!("{n} {:.1}%", 100.0 * v / total))
        .collect();
    println!("  layer shares of the timed calls: {}", shares.join(", "));
    if let Some((name, _)) = sorted.first() {
        println!("  dominant layer: {name}");
    }
    let negative: Vec<&str> = leaves.iter().filter(|l| l.1 < 0.0).map(|l| l.0).collect();
    if negative.is_empty() {
        println!("  parts add up: every self time is within its parent");
    } else {
        println!("  parts exceed their parent at: {}", negative.join(", "));
    }
}

fn write_spans(w: Workload, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_json(w.name(), seed)));
    match written {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(vec![3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload rl_train --trace 2").is_err());
        assert!(parse("--workload rl_train --seconds 0").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
        let a = parse("--workload rl_train --seed 9 --seconds 2 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
    }
}
