//! CI bench-regression guard: checks the perf numbers *committed* in
//! `BENCH_rollout.json` / `BENCH_sched.json` against hard floors, failing
//! the build when a recorded speedup regresses below its floor.
//!
//! The JSONs are (re)written by release `cargo bench` runs and committed,
//! so this guard is deterministic in CI — it vets the recorded perf
//! trajectory, not the (noisy, shared) CI runner. Run it from the
//! repository root (or pass the two file paths as arguments):
//!
//! ```text
//! cargo run -p qcs-bench --release --bin bench_guard [-- BENCH_rollout.json BENCH_sched.json]
//! ```
//!
//! Floors (see `FLOORS` below):
//! * batched rollout speedup over the seed per-env path ≥ 3.5×;
//! * EASY-backfill makespan improvement on the bimodal scenario ≥ 1.03×;
//! * conservative-backfill fairness on the bimodal scenario: mean-slowdown
//!   improvement over EASY ≥ 1.4× and wait-p99 (starvation-tail) ratio
//!   ≥ 1.0× — per-job reservations must keep the tail no worse while
//!   serving the queue faster. (The Jain index is recorded for tracking
//!   but not floored: conservative *lowers* it on this trace by serving
//!   small jobs far better, which widens the slowdown spread — a
//!   uniformly-miserable queue scores "fairer".) The maintenance-heavy
//!   scenario must be recorded with a finite Jain index (availability-
//!   aware reservations exercised);
//! * failure-heavy scenario (`faulty_1k`, two unplanned crashes + 5%
//!   execution failures on the bimodal trace): conservative goodput ≥ 0.75
//!   (recorded ≈ 0.87 — recovery must not burn more than a quarter of the
//!   delivered qubit-seconds on wasted attempts) and retry rate ≥ 0.01
//!   (the scenario must actually exercise the retry path);
//! * service-mode front end (`service_1k` / `sharded_4x`): recorded
//!   decision-latency p99 ≤ 50 µs (a ceiling, not a floor), sustained
//!   service rate ≥ 5k jobs/s, the armed intake must have throttled at
//!   least once, the sharded run must be complete and qubit-conserving,
//!   and the 4-region decide-cost scaling over the monolithic scheduler
//!   ≥ 1.5× (recorded ≈ 7.2×), plus the hash-routed service's wall-clock
//!   speedup at 4 worker threads ≥ 1.5× — only enforced when the
//!   recording machine had ≥ 4 cores (`sharded_4x.host_cores`);
//! * pending-10k incremental/snapshot parity ≥ 0.85 — on the default
//!   5-device fleet the per-consult rebuild is nearly free, so the
//!   recorded "speedup" pins parity (≈ 1.0), not a win; the incremental
//!   core's advantage is floored in `fleet_scale.deep_10k`;
//! * fleet-scale section (`fleet_scale`: a 100k-job bimodal stream over
//!   120 devices plus a 10k-deep backlogged queue): conservative/EASY
//!   decide-throughput ratio at 10k depth ≥ 0.2× (the incremental
//!   profile/ledger must keep per-job reservations within 5× of EASY;
//!   recorded ≈ 0.24× vs ≈ 0.03× before the incremental split),
//!   100k-stream EASY throughput ≥ 10k jobs/s, and an
//!   allocations-per-job ceiling of 12 on both measured disciplines
//!   (recorded 9.2);
//! * queue-deep RL scheduler (`rl_sched`, trained in-bench on the real
//!   scheduler loop and deployed through `rl:<path>`): every job must
//!   complete on both traces, bimodal mean-slowdown ratio ≥ 1.0× vs both
//!   FIFO and EASY (recorded ≈ 1.08× / ≈ 1.33×), and the conservative
//!   head-to-heads must be recorded as finite ratios (conservative still
//!   wins them — tracked honestly, not floored);
//! * wide-GEMM-tile speedup over the 4×8 baseline ≥ 1.05× on both recorded
//!   shapes (`gemm`: 256×64×64, `gemm_shard`: the 16×64×64 update shard) —
//!   only enforced when the recording machine actually selected a wide
//!   kernel;
//! * update-phase speedup at 4 workers ≥ 1.5× — only enforced when the
//!   recording machine had ≥ 4 cores (a 1-core recorder cannot show
//!   wall-clock parallel speedup; `host_cores` is recorded alongside).

use serde::Value;

/// Floor for the batched-rollout speedup recorded in `BENCH_rollout.json`.
const ROLLOUT_SPEEDUP_FLOOR: f64 = 3.5;
/// Floor for `fragmented_1k.makespan_improvement` in `BENCH_sched.json`.
const MAKESPAN_IMPROVEMENT_FLOOR: f64 = 1.03;
/// Floor for `fragmented_1k.conservative_vs_easy.slowdown_ratio`: the
/// conservative discipline's mean-slowdown improvement over EASY on the
/// bimodal scenario (recorded ≈ 1.85×; floored below for headroom).
const CONSERVATIVE_SLOWDOWN_RATIO_FLOOR: f64 = 1.4;
/// Floor for `fragmented_1k.conservative_vs_easy.wait_p99_ratio`: the
/// starvation tail must not regress vs EASY (recorded ≈ 1.03×).
const CONSERVATIVE_TAIL_RATIO_FLOOR: f64 = 1.0;
/// Floor for `faulty_1k.conservative_speed.goodput`: useful qubit-seconds
/// over total under the failure-heavy scenario (recorded ≈ 0.87).
const FAULTY_GOODPUT_FLOOR: f64 = 0.75;
/// Floor for `faulty_1k.conservative_speed.retry_rate`: the scenario must
/// actually kill and resubmit jobs (recorded ≈ 0.11).
const FAULTY_RETRY_RATE_FLOOR: f64 = 0.01;
/// Ceiling for `service_1k.decide_p99_us`: the worst recorded per-call
/// scheduler decision latency through the service front end (recorded
/// ≈ 6.7 µs; ceiled with generous headroom for noisier recording hosts).
const SERVICE_DECIDE_P99_CEILING_US: f64 = 50.0;
/// Floor for `service_1k.sustained_jobs_per_sec`: terminal jobs per
/// wall-clock second through the full service loop (recorded ≈ 2.5e5; the
/// floor only rules out a collapse, not host-to-host variance).
const SERVICE_SUSTAINED_FLOOR: f64 = 5_000.0;
/// Floor for `sharded_4x.decide_cost_scaling`: mean decide cost on the
/// monolithic 20-device scheduler over the 4-region sharded one
/// (recorded ≈ 7.2×; sharding must keep individual decisions cheaper).
const SHARDED_DECIDE_SCALING_FLOOR: f64 = 1.5;
/// Floor for `sharded_4x.wall_clock_speedup`: the hash-routed service
/// (one kernel per region) on 4 worker threads vs one, on the same trace,
/// bit-identical records. Only enforced when the recording machine had
/// ≥ 4 cores (`sharded_4x.host_cores` is recorded alongside, same gating
/// as the rollout update-phase floor).
const WALL_CLOCK_SPEEDUP_FLOOR: f64 = 1.5;
/// Cores the recording machine needs before the wall-clock floor applies.
const WALL_CLOCK_FLOOR_MIN_CORES: u64 = 4;
/// Parity band for `pending_10k.speedup` (incremental `speed` vs the
/// seed-mechanics `snapshot+speed` on the default 5-device fleet). A
/// five-device snapshot rebuild is a five-element copy, so this section
/// *cannot* show an incremental win — it pins parity: the incremental
/// path must never be meaningfully slower than the rebuild-per-consult
/// baseline (recorded ≈ 1.0; deviations of a few percent are run-to-run
/// noise). The incremental core's real advantage is floored where state
/// maintenance dominates: `fleet_scale.deep_10k` on 120 devices.
const PENDING_10K_PARITY_FLOOR: f64 = 0.85;
/// Floor for `fleet_scale.deep_10k.conservative_vs_easy`: conservative's
/// decide throughput over EASY's on a 10k-deep backlogged queue across a
/// 120-device fleet. The incremental availability profile + persistent
/// booking ledger must keep per-job reservations within 5× of EASY's
/// head-only protection (the per-consult full rebuild held this near
/// 0.03×).
const FLEET_DEEP_RATIO_FLOOR: f64 = 0.2;
/// Floor for `fleet_scale.backfill_speed.jobs_per_sec`: sustained
/// scheduler-loop throughput for the 100k-job bimodal stream over 120
/// devices must not collapse (rules out an accidental O(n²) reintroduction,
/// not host-to-host variance).
const FLEET_THROUGHPUT_FLOOR: f64 = 10_000.0;
/// Ceiling for `fleet_scale.backfill_speed.allocs_per_job` (and the FIFO
/// variant): heap allocations per job across the whole 100k-job run,
/// counted by the bench binary's global allocator (recorded 9.2 for both
/// disciplines). Device orders sort into buffers the policies keep,
/// partitions and the executors' per-device collections are inline, and
/// the availability profile and the decide overlay reuse their buffers;
/// what is left is mostly the executor and sub-executor boxes (a job
/// spans about four of the 120 devices). The ceiling catches a change
/// that starts collecting or cloning per select or per decide.
const FLEET_ALLOCS_PER_JOB_CEILING: f64 = 12.0;
/// Floor for `rl_sched.bimodal_vs_fifo.slowdown_ratio`: the bench-budget
/// queue-deep RL scheduler must at least match plain FIFO on mean
/// slowdown (recorded ≈ 1.08). The committed section was recorded by PPO
/// seed 7 (8,192 steps) trained in the hand-written mirror of the engine
/// that `SchedulerEnv` used to be; a re-record now trains on the engine
/// itself, where the same seed reads ≈ 0.85 against FIFO and ≈ 1.04
/// against EASY. The record is deterministic for one seed, not stable
/// across seeds: PPO seeds 7–11 read 0.51–1.15 against FIFO when trained
/// in the mirror and 0.11–0.85 when trained on the engine.
const RL_SCHED_VS_FIFO_SLOWDOWN_FLOOR: f64 = 1.0;
/// Floor for `rl_sched.bimodal_vs_easy.slowdown_ratio`: the RL scheduler
/// must also beat EASY backfilling on mean slowdown (recorded ≈ 1.33, in
/// the same mirror-trained run as the FIFO floor above; PPO seeds 7–11
/// read 0.63–1.42 trained in the mirror, 0.13–1.04 trained on the
/// engine). Conservative still wins this trace (≈ 0.72 against it) — that ratio is
/// recorded honestly but not floored; it is the open head-to-head the
/// training budget has not closed.
const RL_SCHED_VS_EASY_SLOWDOWN_FLOOR: f64 = 1.0;
/// Floor for `gemm.tile_speedup` and `gemm_shard.tile_speedup` (wide tile
/// vs 4×8 baseline).
const TILE_SPEEDUP_FLOOR: f64 = 1.05;
/// Floor for `update_phase.speedup_4_workers`.
const UPDATE_SPEEDUP_4W_FLOOR: f64 = 1.5;
/// Cores the recording machine needs before the update-phase floor applies.
const UPDATE_FLOOR_MIN_CORES: u64 = 4;

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn field_f64(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .get_field(p)
            .ok_or_else(|| format!("missing field `{}`", path.join(".")))?;
    }
    as_f64(cur).ok_or_else(|| format!("field `{}` is not a number", path.join(".")))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

struct Guard {
    failures: Vec<String>,
}

impl Guard {
    fn check(&mut self, what: &str, value: Result<f64, String>, floor: f64) {
        match value {
            Ok(v) if v >= floor => println!("  ok   {what}: {v:.2} (floor {floor})"),
            Ok(v) => {
                println!("  FAIL {what}: {v:.2} below floor {floor}");
                self.failures.push(format!("{what}: {v:.2} < {floor}"));
            }
            Err(e) => {
                println!("  FAIL {what}: {e}");
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    fn check_ceiling(&mut self, what: &str, value: Result<f64, String>, ceiling: f64) {
        match value {
            Ok(v) if v <= ceiling => println!("  ok   {what}: {v:.2} (ceiling {ceiling})"),
            Ok(v) => {
                println!("  FAIL {what}: {v:.2} above ceiling {ceiling}");
                self.failures.push(format!("{what}: {v:.2} > {ceiling}"));
            }
            Err(e) => {
                println!("  FAIL {what}: {e}");
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    fn check_true(&mut self, what: &str, root: &Value, path: &[&str]) {
        let mut cur = Some(root);
        for p in path {
            cur = cur.and_then(|v| v.get_field(p));
        }
        match cur {
            Some(Value::Bool(true)) => println!("  ok   {what}: true"),
            Some(Value::Bool(false)) => {
                println!("  FAIL {what}: false");
                self.failures.push(format!("{what}: false"));
            }
            _ => {
                let msg = format!("missing field `{}`", path.join("."));
                println!("  FAIL {what}: {msg}");
                self.failures.push(format!("{what}: {msg}"));
            }
        }
    }

    fn skip(&self, what: &str, why: &str) {
        println!("  skip {what}: {why}");
    }

    fn fail(&mut self, what: &str, why: String) {
        println!("  FAIL {what}: {why}");
        self.failures.push(format!("{what}: {why}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rollout_path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_rollout.json");
    let sched_path = args
        .get(2)
        .map(String::as_str)
        .unwrap_or("BENCH_sched.json");
    let mut guard = Guard {
        failures: Vec::new(),
    };

    println!("[bench_guard] {rollout_path}");
    match load(rollout_path) {
        Ok(rollout) => {
            guard.check(
                "batched rollout speedup",
                field_f64(&rollout, &["speedup"]),
                ROLLOUT_SPEEDUP_FLOOR,
            );

            // Both gemm sections (the 256-row batch and the 16-row shard
            // product) and their kernel names are required; the floor is
            // waived only on the recorded fact that the recorder had no
            // wide kernel to select. A missing section is a loud failure —
            // silent drift is exactly what this guard exists for.
            for section in ["gemm", "gemm_shard"] {
                let kernel = |field: &str| {
                    rollout
                        .get_field(section)
                        .and_then(|g| g.get_field(field))
                        .and_then(Value::as_str)
                };
                let what = format!("{section} tile speedup");
                match (kernel("baseline_kernel"), kernel("selected_kernel")) {
                    (Some(b), Some(s)) if b == s => guard.skip(
                        &what,
                        "recorder selected the baseline kernel (no wide tiles available)",
                    ),
                    (Some(_), Some(_)) => guard.check(
                        &what,
                        field_f64(&rollout, &[section, "tile_speedup"]),
                        TILE_SPEEDUP_FLOOR,
                    ),
                    _ => guard.fail(
                        &format!("{section} section"),
                        format!("missing {section}.baseline_kernel/{section}.selected_kernel"),
                    ),
                }
            }

            // host_cores is required too: it gates the multi-worker floor.
            // The floor keys on the *recording* host (the committed fact),
            // not the checking host — but when this machine is big enough
            // to re-record, say so instead of skipping silently forever.
            match field_f64(&rollout, &["host_cores"]) {
                Err(e) => guard.fail("host_cores", e),
                Ok(cores) if (cores as u64) < UPDATE_FLOOR_MIN_CORES => {
                    let here = qcs_bench::cli::host_cores();
                    let nag = if here as u64 >= UPDATE_FLOOR_MIN_CORES {
                        format!(
                            "; this host has {here} — re-run `cargo bench -p qcs-bench --bench rl` to record the speedup"
                        )
                    } else {
                        String::new()
                    };
                    guard.skip(
                        "update-phase speedup at 4 workers",
                        &format!(
                            "recorded on a {cores:.0}-core machine (need ≥ {UPDATE_FLOOR_MIN_CORES}){nag}"
                        ),
                    );
                    // The section must still exist and be well-formed.
                    guard.check(
                        "update-phase throughput recorded",
                        field_f64(&rollout, &["update_phase", "speedup_4_workers"]).map(|_| 1.0),
                        0.0,
                    );
                }
                Ok(_) => guard.check(
                    "update-phase speedup at 4 workers",
                    field_f64(&rollout, &["update_phase", "speedup_4_workers"]),
                    UPDATE_SPEEDUP_4W_FLOOR,
                ),
            }
        }
        Err(e) => guard.failures.push(e),
    }

    println!("[bench_guard] {sched_path}");
    match load(sched_path) {
        Ok(sched) => {
            guard.check(
                "backfill makespan improvement",
                field_f64(&sched, &["fragmented_1k", "makespan_improvement"]),
                MAKESPAN_IMPROVEMENT_FLOOR,
            );
            guard.check(
                "conservative slowdown improvement vs EASY (bimodal)",
                field_f64(
                    &sched,
                    &["fragmented_1k", "conservative_vs_easy", "slowdown_ratio"],
                ),
                CONSERVATIVE_SLOWDOWN_RATIO_FLOOR,
            );
            guard.check(
                "conservative wait-p99 tail ratio vs EASY (bimodal)",
                field_f64(
                    &sched,
                    &["fragmented_1k", "conservative_vs_easy", "wait_p99_ratio"],
                ),
                CONSERVATIVE_TAIL_RATIO_FLOOR,
            );
            // The maintenance-heavy scenario must be recorded and
            // well-formed (a finite fairness index proves the
            // availability-aware reservations actually ran); its ratios
            // are tracked, not floored — scheduled windows shift the
            // EASY/conservative trade-off with the window layout.
            guard.check(
                "maintenance-heavy scenario recorded",
                field_f64(
                    &sched,
                    &["maintenance_1k", "conservative_speed", "jain_fairness"],
                )
                .and_then(|v| {
                    if v.is_finite() && v > 0.0 {
                        Ok(1.0)
                    } else {
                        Err(format!("jain_fairness not finite/positive: {v}"))
                    }
                }),
                0.0,
            );
            // The failure-heavy scenario: fault recovery must be recorded
            // and keep goodput above its floor, and the script must
            // actually have exercised the retry path (a zero retry rate
            // means the injection silently stopped firing).
            guard.check(
                "faulty-scenario conservative goodput",
                field_f64(&sched, &["faulty_1k", "conservative_speed", "goodput"]),
                FAULTY_GOODPUT_FLOOR,
            );
            guard.check(
                "faulty-scenario retry rate",
                field_f64(&sched, &["faulty_1k", "conservative_speed", "retry_rate"]),
                FAULTY_RETRY_RATE_FLOOR,
            );
            guard.check(
                "faulty-scenario recovery overhead recorded",
                field_f64(&sched, &["faulty_1k", "recovery_makespan_overhead"]).and_then(|v| {
                    if v.is_finite() && v > 0.0 {
                        Ok(1.0)
                    } else {
                        Err(format!(
                            "recovery_makespan_overhead not finite/positive: {v}"
                        ))
                    }
                }),
                0.0,
            );
            // The queue-deep RL scheduler: the trained checkpoint must have
            // completed every job through the `rl:<path>` surface on both
            // traces, beat FIFO and EASY on bimodal mean slowdown, and the
            // conservative head-to-heads (which conservative currently
            // wins) must be recorded as finite ratios.
            guard.check_true(
                "rl_sched runs completed every job",
                &sched,
                &["rl_sched", "completed"],
            );
            guard.check(
                "rl_sched slowdown vs FIFO (bimodal)",
                field_f64(&sched, &["rl_sched", "bimodal_vs_fifo", "slowdown_ratio"]),
                RL_SCHED_VS_FIFO_SLOWDOWN_FLOOR,
            );
            guard.check(
                "rl_sched slowdown vs EASY (bimodal)",
                field_f64(&sched, &["rl_sched", "bimodal_vs_easy", "slowdown_ratio"]),
                RL_SCHED_VS_EASY_SLOWDOWN_FLOOR,
            );
            for (what, path) in [
                (
                    "rl_sched conservative head-to-head recorded (bimodal)",
                    ["rl_sched", "bimodal_vs_conservative", "slowdown_ratio"],
                ),
                (
                    "rl_sched conservative head-to-head recorded (maintenance)",
                    ["rl_sched", "maintenance_vs_conservative", "slowdown_ratio"],
                ),
            ] {
                guard.check(
                    what,
                    field_f64(&sched, &path).and_then(|v| {
                        if v.is_finite() && v > 0.0 {
                            Ok(1.0)
                        } else {
                            Err(format!("slowdown_ratio not finite/positive: {v}"))
                        }
                    }),
                    0.0,
                );
            }
            // Service-mode front end: decision latency must stay bounded,
            // the sustained service rate must not collapse, the armed
            // intake must have actually throttled, and the sharded fleet
            // must stay complete, conservation-respecting and cheaper per
            // decide than the monolithic scheduler.
            guard.check_ceiling(
                "service decide p99 (µs)",
                field_f64(&sched, &["service_1k", "decide_p99_us"]),
                SERVICE_DECIDE_P99_CEILING_US,
            );
            guard.check(
                "service sustained jobs/s",
                field_f64(&sched, &["service_1k", "sustained_jobs_per_sec"]),
                SERVICE_SUSTAINED_FLOOR,
            );
            guard.check(
                "service intake exercised (throttle events)",
                field_f64(&sched, &["service_1k", "throttle_events"]),
                1.0,
            );
            guard.check_true("service run complete", &sched, &["service_1k", "complete"]);
            guard.check_true("sharded run complete", &sched, &["sharded_4x", "complete"]);
            guard.check_true(
                "sharded run qubit-conserving",
                &sched,
                &["sharded_4x", "conserved"],
            );
            guard.check(
                "sharded decide-cost scaling vs monolithic",
                field_f64(&sched, &["sharded_4x", "decide_cost_scaling"]),
                SHARDED_DECIDE_SCALING_FLOOR,
            );
            // Incremental-vs-snapshot parity on the default fleet: the
            // 5-device snapshot rebuild is nearly free, so the honest
            // expectation is ≈ 1.0, guarded as a band, not a speedup.
            guard.check(
                "pending-10k incremental/snapshot parity",
                field_f64(&sched, &["pending_10k", "speedup"]),
                PENDING_10K_PARITY_FLOOR,
            );
            // Parallel-backend wall-clock scaling: keyed on the cores of
            // the *recording* host (the committed fact), mirroring the
            // rollout update-phase gating — a small recorder cannot show
            // thread-level speedup, but the section must still exist.
            match field_f64(&sched, &["sharded_4x", "host_cores"]) {
                Err(e) => guard.fail("sharded_4x.host_cores", e),
                Ok(cores) if (cores as u64) < WALL_CLOCK_FLOOR_MIN_CORES => {
                    let here = qcs_bench::cli::host_cores();
                    let nag = if here as u64 >= WALL_CLOCK_FLOOR_MIN_CORES {
                        format!(
                            "; this host has {here} — re-run `cargo bench -p qcs-bench --bench sched` to record the speedup"
                        )
                    } else {
                        String::new()
                    };
                    guard.skip(
                        "sharded wall-clock speedup at 4 threads",
                        &format!(
                            "recorded on a {cores:.0}-core machine (need ≥ {WALL_CLOCK_FLOOR_MIN_CORES}){nag}"
                        ),
                    );
                    guard.check(
                        "sharded wall-clock speedup recorded",
                        field_f64(&sched, &["sharded_4x", "wall_clock_speedup"]).map(|_| 1.0),
                        0.0,
                    );
                }
                Ok(_) => guard.check(
                    "sharded wall-clock speedup at 4 threads",
                    field_f64(&sched, &["sharded_4x", "wall_clock_speedup"]),
                    WALL_CLOCK_SPEEDUP_FLOOR,
                ),
            }
            // Fleet-scale section: the deep-queue conservative/EASY decide
            // throughput ratio (the incremental-core headline number), a
            // collapse floor on the 100k-job stream, and the
            // allocations-per-job ceilings from the counting allocator.
            guard.check(
                "fleet-scale deep-queue conservative/EASY throughput",
                field_f64(&sched, &["fleet_scale", "deep_10k", "conservative_vs_easy"]),
                FLEET_DEEP_RATIO_FLOOR,
            );
            guard.check(
                "fleet-scale 100k-stream EASY jobs/s",
                field_f64(&sched, &["fleet_scale", "backfill_speed", "jobs_per_sec"]),
                FLEET_THROUGHPUT_FLOOR,
            );
            guard.check_ceiling(
                "fleet-scale EASY allocs/job",
                field_f64(&sched, &["fleet_scale", "backfill_speed", "allocs_per_job"]),
                FLEET_ALLOCS_PER_JOB_CEILING,
            );
            guard.check_ceiling(
                "fleet-scale FIFO allocs/job",
                field_f64(&sched, &["fleet_scale", "fifo_speed", "allocs_per_job"]),
                FLEET_ALLOCS_PER_JOB_CEILING,
            );
        }
        Err(e) => guard.failures.push(e),
    }

    if guard.failures.is_empty() {
        println!("[bench_guard] all recorded speedups at or above their floors");
    } else {
        eprintln!(
            "[bench_guard] {} regression(s): {}",
            guard.failures.len(),
            guard.failures.join("; ")
        );
        std::process::exit(1);
    }
}
