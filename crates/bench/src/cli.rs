//! Minimal CLI parsing shared by the bench bins and the repository
//! examples (one copy instead of one per binary).
//!
//! [`arg`] and [`flag`] record every name they are asked for, and a
//! program calls [`reject_unread`] once it has read its flags: a flag it
//! never asked for (a typo, or `--help` where there is none) then stops
//! it with status 2 instead of running on the defaults.

use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

use qcs_qcloud::{FaultScript, RetryPolicy};

/// Every flag name asked for so far, in first-asked order, with whether
/// it takes a value ([`arg`]) or stands alone ([`flag`]).
static ASKED: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());

/// Records that this program reads `name`.
fn ask(name: &str, takes_value: bool) {
    let mut asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
    if !asked.iter().any(|(n, _)| n == name) {
        asked.push((name.to_string(), takes_value));
    }
}

/// Parses `--name value` from `std::env::args`. An absent flag takes
/// `default`. A flag whose value is missing or does not parse is a usage
/// error: the process prints the flag, the value and the parse error, and
/// exits with status 2 instead of running on the default.
pub fn arg<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: fmt::Display,
{
    ask(name, true);
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| usage_error(&e))
}

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
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

/// Parses `--faults SPEC` (the [`FaultScript::parse`] grammar) into the
/// fault script and retry policy every run of the program arms. `None`
/// when the flag is absent or empty. A spec that does not parse is a usage
/// error, as in [`arg`]: the process prints the flag, the value and the
/// parse error, and exits with status 2.
pub fn faults_arg() -> Option<(FaultScript, RetryPolicy)> {
    ask("--faults", true);
    let args: Vec<String> = std::env::args().collect();
    parse_faults(&args).unwrap_or_else(|e| usage_error(&e))
}

/// [`faults_arg`] over an explicit argument list.
fn parse_faults(args: &[String]) -> Result<Option<(FaultScript, RetryPolicy)>, String> {
    let spec: String = parse_arg(args, "--faults", String::new())?;
    if spec.is_empty() {
        return Ok(None);
    }
    FaultScript::parse(&spec)
        .map(Some)
        .map_err(|e| format!("--faults {spec:?} does not parse: {e}"))
}

/// Whether a bare `--name` flag is present.
pub fn flag(name: &str) -> bool {
    ask(name, false);
    std::env::args().any(|a| a == name)
}

/// Exits with status 2 if the command line holds a flag that no [`arg`] or
/// [`flag`] call has asked for, naming it and listing the flags this run
/// reads. Call it once every flag has been read and before any work, so a
/// misspelt flag, or `--help` in a program without one, never runs a
/// default simulation or overwrites its results.
pub fn reject_unread() {
    let args: Vec<String> = std::env::args().collect();
    let asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
    let Some(flag) = unread(args.get(1..).unwrap_or_default(), &asked) else {
        return;
    };
    let program = args
        .first()
        .and_then(|p| std::path::Path::new(p).file_name())
        .map_or("this program".into(), |f| f.to_string_lossy());
    let reads: Vec<String> = asked
        .iter()
        .map(|(name, takes_value)| {
            if *takes_value {
                format!("{name} <value>")
            } else {
                name.clone()
            }
        })
        .collect();
    eprintln!("error: {program} does not read {flag}");
    if reads.is_empty() {
        eprintln!("{program} takes no flags");
    } else {
        eprintln!("{program} reads: {}", reads.join(", "));
    }
    std::process::exit(2)
}

/// The first argument that looks like a flag (starts with `-`) and is
/// neither an asked name nor the value after one that takes a value.
/// Positional words (such as `ablation`'s sweep name) pass.
fn unread<'a>(args: &'a [String], asked: &[(String, bool)]) -> Option<&'a str> {
    let mut i = 0;
    while i < args.len() {
        match asked.iter().find(|(name, _)| *name == args[i]) {
            Some(&(_, takes_value)) => i += 1 + usize::from(takes_value),
            None if args[i].starts_with('-') => return Some(&args[i]),
            None => i += 1,
        }
    }
    None
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
    fn faults_parse_to_a_script_or_an_error_naming_the_clause() {
        assert_eq!(parse_faults(&args(&["bin", "--jobs", "5"])), Ok(None));
        assert_eq!(parse_faults(&args(&["bin", "--faults", ""])), Ok(None));
        let (script, retry) =
            parse_faults(&args(&["bin", "--faults", "pfail:0.2;seed:3;retries:4"]))
                .expect("valid spec")
                .expect("flag present");
        assert_eq!(script.exec_fail_prob, 0.2);
        assert_eq!(script.seed, 3);
        assert_eq!(retry.max_attempts, 4);
        for (spec, clause) in [("bogus", "'bogus'"), ("pfail:0.1;avoid", "'avoid'")] {
            let err = parse_faults(&args(&["bin", "--faults", spec])).expect_err(spec);
            assert!(err.contains("--faults") && err.contains(spec), "{err}");
            assert!(err.contains(clause), "{err}");
        }
        assert!(parse_faults(&args(&["bin", "--faults"])).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_arg(&args(&["bin", "--threads"]), "--threads", 1usize)
            .expect_err("no value after the flag");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn unread_flags_are_found_and_values_are_skipped() {
        let asked = vec![
            ("--jobs".to_string(), true),
            ("--rate".to_string(), true),
            ("--open".to_string(), false),
        ];
        let read = args(&["--jobs", "5", "--rate", "-0.5", "--open", "phi"]);
        assert_eq!(unread(&read, &asked), None);
        assert_eq!(unread(&args(&["--help"]), &asked), Some("--help"));
        assert_eq!(unread(&args(&["--jbos", "5"]), &asked), Some("--jbos"));
        assert_eq!(unread(&args(&["--open", "-h"]), &asked), Some("-h"));
        // A bare flag does not swallow the word after it.
        assert_eq!(
            unread(&args(&["--open", "--jobs", "1", "--x"]), &asked),
            Some("--x")
        );
    }

    #[test]
    fn asked_names_are_recorded_once() {
        arg("--recorded-value", 1u8);
        arg("--recorded-value", 2u8);
        flag("--recorded-flag");
        let asked = ASKED.lock().unwrap_or_else(|e| e.into_inner());
        let count = |name: &str| asked.iter().filter(|(n, _)| n == name).count();
        assert_eq!(count("--recorded-value"), 1);
        assert!(asked.contains(&("--recorded-value".to_string(), true)));
        assert!(asked.contains(&("--recorded-flag".to_string(), false)));
    }

    #[test]
    fn host_cores_detects_at_least_one() {
        assert!(host_cores() >= 1);
    }
}
