//! Typed scheduler specifications — the parsed form of the CLI's
//! `[discipline+]placement` strings.
//!
//! # Grammar
//!
//! This is the single place the spec grammar is defined; every CLI help
//! listing and every parser goes through the registry below.
//!
//! ```text
//! spec        := [ discipline "+" ] placement
//! discipline  := "fifo" | "backfill" | "conservative"
//!              | "priority" [ ":" ("sjf" | "edf" | "aging") ]
//! placement   := "speed" | "fidelity" | "fair" | "roundrobin" | "random"
//!              | "minfrag" | "hybrid" | "hybrid-strict" | "rl:" path
//! ```
//!
//! A bare placement means `fifo+<placement>` (the seed's head-of-line
//! semantics); `priority` alone is an alias for `priority:sjf`. The split
//! is on the **first** `+`, and a spec starting with `rl:` is recognised
//! as a bare placement *before* splitting — so an `rl:` checkpoint path
//! may contain `+` and `:` freely in both the bare and composed forms.
//!
//! [`SchedSpec`] is the typed value: a [`Discipline`] plus a
//! [`Placement`]. `FromStr` parses the grammar with errors that name the
//! offending token and list the accepted ones; `Display` renders the
//! canonical string (aliases normalised: `priority` → `priority:sjf`, a
//! bare placement stays bare), and the two round-trip:
//! `spec.to_string().parse() == Ok(spec)` for every well-formed spec.
//! The stringly surface ([`super::by_name`], [`super::scheduler_by_name`])
//! is a thin wrapper over this parser, so it accepts exactly the
//! registry's tokens.

use std::fmt;
use std::str::FromStr;

/// One registered spec component: the token the parser accepts and a
/// one-line summary for CLI help text.
#[derive(Debug, Clone, Copy)]
pub struct SpecComponent {
    /// The literal token (`rl:<path>` stands for the checkpoint form).
    pub token: &'static str,
    /// One-line description for `--help` output.
    pub summary: &'static str,
}

/// Every placement policy the grammar accepts, in help-listing order —
/// **the** registry: [`super::names`], the parser and the round-trip
/// smoke test all derive from this table.
pub const PLACEMENTS: &[SpecComponent] = &[
    SpecComponent {
        token: "speed",
        summary: "fastest (highest-CLOPS) devices first, spill on contention",
    },
    SpecComponent {
        token: "fidelity",
        summary: "lowest-error devices, waits for them (quality-strict)",
    },
    SpecComponent {
        token: "fair",
        summary: "least-utilised devices first, spill on contention",
    },
    SpecComponent {
        token: "roundrobin",
        summary: "rotating start device (baseline)",
    },
    SpecComponent {
        token: "random",
        summary: "seeded random device order (baseline)",
    },
    SpecComponent {
        token: "minfrag",
        summary: "minimal-fragmentation packing",
    },
    SpecComponent {
        token: "hybrid",
        summary: "blended speed/fidelity score (alpha = 0.5), work-conserving",
    },
    SpecComponent {
        token: "hybrid-strict",
        summary: "blended score, quality-strict admission",
    },
    SpecComponent {
        token: "rl:<path>",
        summary: "trained PPO policy from an ActorCritic JSON checkpoint",
    },
];

/// Every scheduling discipline the grammar accepts, in help-listing order
/// (part of the same registry as [`PLACEMENTS`]).
pub const DISCIPLINES: &[SpecComponent] = &[
    SpecComponent {
        token: "fifo",
        summary: "head-of-line FIFO over the scan window (seed semantics; default)",
    },
    SpecComponent {
        token: "backfill",
        summary: "EASY backfilling: shadow-time reservation for the blocked head",
    },
    SpecComponent {
        token: "conservative",
        summary: "conservative backfilling: a start reservation for every queued job",
    },
    SpecComponent {
        token: "priority",
        summary: "alias for priority:sjf",
    },
    SpecComponent {
        token: "priority:sjf",
        summary: "shortest-job-first ranked queue",
    },
    SpecComponent {
        token: "priority:edf",
        summary: "earliest-deadline-first ranked queue",
    },
    SpecComponent {
        token: "priority:aging",
        summary: "qubit-demand ranking with waiting-time aging",
    },
];

/// A placement policy (the paper's §5 strategies plus baselines), parsed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Fastest (highest-CLOPS) devices first.
    Speed,
    /// Lowest-error devices, quality-strict.
    Fidelity,
    /// Least-utilised devices first.
    Fair,
    /// Rotating start device.
    RoundRobin,
    /// Seeded random device order.
    Random,
    /// Minimal-fragmentation packing.
    MinFrag,
    /// Blended speed/fidelity score, work-conserving.
    Hybrid,
    /// Blended score, quality-strict admission.
    HybridStrict,
    /// Trained PPO policy loaded from the checkpoint at `path`.
    Rl {
        /// Filesystem path of the ActorCritic JSON checkpoint.
        path: String,
    },
}

/// The ranking rule of a `priority` discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityRule {
    /// Shortest job first.
    Sjf,
    /// Earliest deadline first.
    Edf,
    /// Qubit demand with waiting-time aging.
    Aging,
}

/// A queue discipline, parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Discipline {
    /// Head-of-line FIFO (the default for a bare placement).
    Fifo,
    /// EASY backfilling.
    Backfill,
    /// Conservative backfilling.
    Conservative,
    /// Ranked-queue discipline with the given rule.
    Priority(PriorityRule),
}

/// A fully parsed scheduler specification: discipline + placement.
///
/// See the [module docs](self) for the grammar. Construct directly, or
/// parse from the CLI string form:
///
/// ```
/// use qcs_qcloud::policies::{Discipline, Placement, SchedSpec};
///
/// let spec: SchedSpec = "conservative+fair".parse().unwrap();
/// assert_eq!(spec.discipline, Discipline::Conservative);
/// assert_eq!(spec.placement, Placement::Fair);
/// assert_eq!(spec.to_string(), "conservative+fair");
///
/// let err = "warp+speed".parse::<SchedSpec>().unwrap_err();
/// assert!(err.to_string().contains("warp"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedSpec {
    /// The queue discipline.
    pub discipline: Discipline,
    /// The placement policy the discipline consults.
    pub placement: Placement,
}

impl SchedSpec {
    /// The seed default for a bare placement token: `fifo+<placement>`.
    pub fn fifo(placement: Placement) -> Self {
        SchedSpec {
            discipline: Discipline::Fifo,
            placement,
        }
    }
}

/// A spec string failed to parse: names the offending token and what was
/// expected in its place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecParseError {
    /// The discipline component (before `+`) is not registered.
    UnknownDiscipline(String),
    /// The placement component is not registered.
    UnknownPlacement(String),
}

fn tokens(reg: &'static [SpecComponent]) -> String {
    let toks: Vec<&str> = reg.iter().map(|c| c.token).collect();
    toks.join(", ")
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecParseError::UnknownDiscipline(t) => write!(
                f,
                "unknown scheduling discipline `{t}` (expected one of: {})",
                tokens(DISCIPLINES)
            ),
            SpecParseError::UnknownPlacement(t) => write!(
                f,
                "unknown placement policy `{t}` (expected one of: {})",
                tokens(PLACEMENTS)
            ),
        }
    }
}

impl std::error::Error for SpecParseError {}

impl FromStr for Placement {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("rl:") {
            return Ok(Placement::Rl {
                path: path.to_string(),
            });
        }
        match s {
            "speed" => Ok(Placement::Speed),
            "fidelity" => Ok(Placement::Fidelity),
            "fair" => Ok(Placement::Fair),
            "roundrobin" => Ok(Placement::RoundRobin),
            "random" => Ok(Placement::Random),
            "minfrag" => Ok(Placement::MinFrag),
            "hybrid" => Ok(Placement::Hybrid),
            "hybrid-strict" => Ok(Placement::HybridStrict),
            _ => Err(SpecParseError::UnknownPlacement(s.to_string())),
        }
    }
}

impl FromStr for Discipline {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(Discipline::Fifo),
            "backfill" => Ok(Discipline::Backfill),
            "conservative" => Ok(Discipline::Conservative),
            "priority" | "priority:sjf" => Ok(Discipline::Priority(PriorityRule::Sjf)),
            "priority:edf" => Ok(Discipline::Priority(PriorityRule::Edf)),
            "priority:aging" => Ok(Discipline::Priority(PriorityRule::Aging)),
            _ => Err(SpecParseError::UnknownDiscipline(s.to_string())),
        }
    }
}

impl FromStr for SchedSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // A bare `rl:` spec is all payload: the checkpoint path may itself
        // contain `+` (or anything else), so it must never be split as
        // `discipline+placement`.
        if s.starts_with("rl:") {
            return Ok(SchedSpec::fifo(s.parse()?));
        }
        // Split on the FIRST `+` (the seed behaviour): everything after it
        // is the placement, so `backfill+rl:ckpt+v2.json` keeps its path.
        match s.split_once('+') {
            Some((d, p)) => Ok(SchedSpec {
                discipline: d.parse()?,
                placement: p.parse()?,
            }),
            None => Ok(SchedSpec::fifo(s.parse()?)),
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Speed => f.write_str("speed"),
            Placement::Fidelity => f.write_str("fidelity"),
            Placement::Fair => f.write_str("fair"),
            Placement::RoundRobin => f.write_str("roundrobin"),
            Placement::Random => f.write_str("random"),
            Placement::MinFrag => f.write_str("minfrag"),
            Placement::Hybrid => f.write_str("hybrid"),
            Placement::HybridStrict => f.write_str("hybrid-strict"),
            Placement::Rl { path } => write!(f, "rl:{path}"),
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Discipline::Fifo => f.write_str("fifo"),
            Discipline::Backfill => f.write_str("backfill"),
            Discipline::Conservative => f.write_str("conservative"),
            Discipline::Priority(PriorityRule::Sjf) => f.write_str("priority:sjf"),
            Discipline::Priority(PriorityRule::Edf) => f.write_str("priority:edf"),
            Discipline::Priority(PriorityRule::Aging) => f.write_str("priority:aging"),
        }
    }
}

impl fmt::Display for SchedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Canonical form: a FIFO spec renders as the bare placement (the
        // seed CLI form), everything else as `discipline+placement`.
        match self.discipline {
            Discipline::Fifo => write!(f, "{}", self.placement),
            _ => write!(f, "{}+{}", self.discipline, self.placement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_placement_as_fifo() {
        let s: SchedSpec = "speed".parse().unwrap();
        assert_eq!(s.discipline, Discipline::Fifo);
        assert_eq!(s.placement, Placement::Speed);
        assert_eq!(s.to_string(), "speed");
    }

    #[test]
    fn parses_composed_specs() {
        let s: SchedSpec = "conservative+hybrid-strict".parse().unwrap();
        assert_eq!(s.discipline, Discipline::Conservative);
        assert_eq!(s.placement, Placement::HybridStrict);
        let s: SchedSpec = "priority+speed".parse().unwrap();
        assert_eq!(s.discipline, Discipline::Priority(PriorityRule::Sjf));
        // The alias normalises in the canonical rendering…
        assert_eq!(s.to_string(), "priority:sjf+speed");
        // …and the canonical rendering parses back to the same value.
        assert_eq!(s.to_string().parse::<SchedSpec>().unwrap(), s);
    }

    #[test]
    fn rl_paths_survive_the_first_plus_split() {
        let s: SchedSpec = "backfill+rl:ckpt+v2.json".parse().unwrap();
        assert_eq!(s.discipline, Discipline::Backfill);
        assert_eq!(
            s.placement,
            Placement::Rl {
                path: "ckpt+v2.json".into()
            }
        );
        assert_eq!(s.to_string(), "backfill+rl:ckpt+v2.json");
    }

    #[test]
    fn bare_rl_paths_with_plus_or_colon_round_trip() {
        // A bare `rl:` spec is all payload — the path may contain `+` or
        // `:` and must never be split at the discipline boundary.
        for path in [
            "/tmp/a+b.ckpt",
            "ckpt+v2.json",
            "C:/models/pi+vf.json",
            "runs/2024:07:01/policy.json",
        ] {
            let raw = format!("rl:{path}");
            let s: SchedSpec = raw
                .parse()
                .unwrap_or_else(|e| panic!("`{raw}` must parse: {e}"));
            assert_eq!(s.discipline, Discipline::Fifo, "{raw}");
            assert_eq!(s.placement, Placement::Rl { path: path.into() }, "{raw}");
            // Display re-emits the exact input.
            assert_eq!(s.to_string(), raw);
            assert_eq!(raw.parse::<SchedSpec>().unwrap(), s, "{raw} round trip");
        }
    }

    #[test]
    fn composed_rl_paths_with_plus_and_colon_round_trip() {
        for (raw, disc, path) in [
            (
                "conservative+rl:/tmp/a+b.ckpt",
                Discipline::Conservative,
                "/tmp/a+b.ckpt",
            ),
            (
                "backfill+rl:runs/07:30/w+b.json",
                Discipline::Backfill,
                "runs/07:30/w+b.json",
            ),
            (
                "priority:edf+rl:/x/y+z:0.json",
                Discipline::Priority(PriorityRule::Edf),
                "/x/y+z:0.json",
            ),
        ] {
            let s: SchedSpec = raw
                .parse()
                .unwrap_or_else(|e| panic!("`{raw}` must parse: {e}"));
            assert_eq!(s.discipline, disc, "{raw}");
            assert_eq!(s.placement, Placement::Rl { path: path.into() }, "{raw}");
            assert_eq!(s.to_string(), raw, "Display must re-emit the input");
            assert_eq!(raw.parse::<SchedSpec>().unwrap(), s, "{raw} round trip");
        }
    }

    #[test]
    fn errors_name_the_offending_token() {
        let e = "warp+speed".parse::<SchedSpec>().unwrap_err();
        assert_eq!(e, SpecParseError::UnknownDiscipline("warp".into()));
        assert!(e.to_string().contains("`warp`"), "{e}");
        assert!(e.to_string().contains("conservative"), "{e}");

        let e = "backfill+warp".parse::<SchedSpec>().unwrap_err();
        assert_eq!(e, SpecParseError::UnknownPlacement("warp".into()));
        assert!(e.to_string().contains("`warp`"), "{e}");
        assert!(e.to_string().contains("hybrid-strict"), "{e}");

        let e = "nope".parse::<SchedSpec>().unwrap_err();
        assert_eq!(e, SpecParseError::UnknownPlacement("nope".into()));
    }

    #[test]
    fn every_registered_component_parses_and_round_trips() {
        for d in DISCIPLINES {
            for p in PLACEMENTS {
                let ptok = if p.token == "rl:<path>" {
                    "rl:some/checkpoint.json"
                } else {
                    p.token
                };
                let spec = format!("{}+{}", d.token, ptok);
                let parsed: SchedSpec = spec
                    .parse()
                    .unwrap_or_else(|e| panic!("registered spec `{spec}` must parse: {e}"));
                // Canonical render parses back to the identical value.
                let rendered = parsed.to_string();
                let reparsed: SchedSpec = rendered
                    .parse()
                    .unwrap_or_else(|e| panic!("canonical `{rendered}` must re-parse: {e}"));
                assert_eq!(reparsed, parsed, "{spec} → {rendered}");
            }
        }
        for p in PLACEMENTS {
            if p.token == "rl:<path>" {
                continue;
            }
            let parsed: SchedSpec = p.token.parse().unwrap();
            assert_eq!(parsed.discipline, Discipline::Fifo);
            assert_eq!(parsed.to_string(), p.token);
        }
    }
}
