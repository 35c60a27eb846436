//! Minimal CLI parsing shared by the bench bins and the repository
//! examples (one copy instead of one per binary).

use std::fmt;
use std::str::FromStr;

/// Parses `--name value` from `std::env::args`. An absent flag takes
/// `default`. A flag whose value is missing or does not parse is a usage
/// error: the process prints the flag, the value and the parse error, and
/// exits with status 2 instead of running on the default.
pub fn arg<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: fmt::Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// [`arg`] over an explicit argument list: `Ok(default)` when `name` is
/// absent, the parsed value after it when present, and `Err` naming the
/// flag, the value and the parse error when the value is missing or does
/// not parse.
fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let Some(value) = args.get(i + 1) else {
        return Err(format!("{name} needs a value"));
    };
    value
        .parse()
        .map_err(|e| format!("{name} {value:?} does not parse: {e}"))
}

/// Whether a bare `--name` flag is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses `--update-workers N` (default `1` = single-threaded) and
/// resolves `0` to one worker per available core. Training results are
/// bit-identical at any worker count (see `qcs_rl::update`); the knob
/// only changes wall-clock time.
pub fn update_workers_arg() -> usize {
    match arg("--update-workers", 1usize) {
        0 => qcs_desim::parallel::default_threads(),
        n => n,
    }
}

/// Cores available to this process, via
/// [`std::thread::available_parallelism`]; `1` when detection fails.
/// The bench recorders stamp this next to multi-worker speedups so
/// `bench_guard` can honestly skip floors a small recording host cannot
/// meet (and nag when the checking host could re-record them).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_falls_back_to_default() {
        assert_eq!(arg("--definitely-not-passed", 7u64), 7);
        assert!(!flag("--definitely-not-passed"));
        assert_eq!(
            parse_arg(&args(&["bin", "--seed", "3"]), "--jobs", 7u64),
            Ok(7)
        );
    }

    #[test]
    fn present_value_parses() {
        let a = args(&["bin", "--jobs", "20", "--routing", "hash"]);
        assert_eq!(parse_arg(&a, "--jobs", 1000usize), Ok(20));
        assert_eq!(
            parse_arg(&a, "--routing", qcs_qcloud::RoutingPolicy::LeastLoaded),
            Ok(qcs_qcloud::RoutingPolicy::Hash)
        );
    }

    #[test]
    fn unparseable_value_is_an_error_naming_flag_and_value() {
        let err = parse_arg(&args(&["bin", "--jobs", "2e2"]), "--jobs", 1000usize)
            .expect_err("2e2 is not a usize");
        assert!(err.contains("--jobs") && err.contains("2e2"), "{err}");
        let err = parse_arg(
            &args(&["bin", "--spec", "backfill+spede"]),
            "--spec",
            qcs_qcloud::policies::SchedSpec::fifo(qcs_qcloud::policies::Placement::Speed),
        )
        .expect_err("spede is not a placement");
        assert!(err.contains("--spec") && err.contains("spede"), "{err}");
        assert!(err.contains("expected one of"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_arg(&args(&["bin", "--threads"]), "--threads", 1usize)
            .expect_err("no value after the flag");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn host_cores_detects_at_least_one() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn update_workers_defaults_single_threaded() {
        assert_eq!(update_workers_arg(), 1);
    }
}
