//! Composable fault plans: the one representation of an injected fault.
//!
//! A [`FaultPlan`] is plain data: an ordered list of [`FaultEntry`]
//! values naming the fault injectors a run arms — unit panics, fuel
//! exhaustion, estimator budgets, unit timeouts, checkpoint corruption,
//! a crash mid-write and placement corruption. The plan itself injects
//! nothing. Each entry point applies the terms it can and rejects the
//! rest ([`FaultPlan::accept_only`]): the one-shot CLI commands take
//! `panic` and `halt`, `serve` takes `halt` and its job files `panic`,
//! and `chaos` takes every term. Keeping the type here (the crate that
//! owns supervision) lets `core` and the CLI share one grammar.
//!
//! The textual grammar is `+`-separated entries, each `kind:args` or,
//! for `misplace`, a bare `kind`:
//!
//! ```text
//! panic:f0x2 + fuel:500 + estimator:64 + timeout:30000
//!   + truncate:125 + bitflip:40.3 + halt:2 + misplace
//! ```
//!
//! `none` (or the empty string) is the empty plan. Parsing (`str::parse`)
//! rejects malformed plans with a column-carrying [`FaultPlanError`],
//! and `Display` renders the exact grammar back, so plans round-trip
//! through chaos repro files.

use std::fmt;

/// One armed fault injector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultEntry {
    /// The named compilation unit's partitioning task panics on its
    /// first `times` attempts (`u32::MAX` = always). A unit named `#k`
    /// is function `k` modulo the function count, so plans stay valid
    /// across shrunk programs.
    UnitPanic {
        /// Unit (function) name or `#k` index reference.
        unit: String,
        /// Number of attempts that panic.
        times: u32,
    },
    /// GDP runs under a refinement fuel budget of `budget` passes-worth
    /// of gain updates; exhaustion downgrades the method ladder.
    Fuel {
        /// Fuel budget (0 exhausts immediately).
        budget: u64,
    },
    /// RHOP's schedule estimator may be consulted at most `calls` times
    /// per unit; exceeding the budget is a recoverable pipeline error.
    EstimatorBudget {
        /// Maximum estimator invocations per unit.
        calls: u64,
    },
    /// Each unit's partitioning attempt is killed by a watchdog after
    /// `ms` milliseconds.
    Timeout {
        /// Watchdog budget in milliseconds.
        ms: u64,
    },
    /// The checkpoint file is truncated to `permille`/1000 of its byte
    /// length before resume.
    CheckpointTruncate {
        /// Kept length in permille of the original (0..=1000).
        permille: u32,
    },
    /// One byte of the checkpoint, at `permille`/1000 of its length,
    /// gets bit `bit` flipped before resume.
    CheckpointBitflip {
        /// Byte position in permille of the file length (0..=1000).
        permille: u32,
        /// Bit index within the byte (0..=7).
        bit: u8,
    },
    /// The process commits `after` records (checkpoint units, serve
    /// results), then writes the torn half of the next one and aborts —
    /// the on-disk state `kill -9` mid-write leaves.
    Halt {
        /// Records committed before the crash.
        after: u64,
    },
    /// Every successful placement is corrupted before the oracle judges
    /// it, the way a buggy partitioner would (chaos only).
    Misplace,
}

impl FaultEntry {
    /// The entry's kind: the grammar keyword before the `:`.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEntry::UnitPanic { .. } => "panic",
            FaultEntry::Fuel { .. } => "fuel",
            FaultEntry::EstimatorBudget { .. } => "estimator",
            FaultEntry::Timeout { .. } => "timeout",
            FaultEntry::CheckpointTruncate { .. } => "truncate",
            FaultEntry::CheckpointBitflip { .. } => "bitflip",
            FaultEntry::Halt { .. } => "halt",
            FaultEntry::Misplace => "misplace",
        }
    }
}

impl fmt::Display for FaultEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())?;
        match self {
            FaultEntry::UnitPanic { unit, times: u32::MAX } => write!(f, ":{unit}"),
            FaultEntry::UnitPanic { unit, times } => write!(f, ":{unit}x{times}"),
            FaultEntry::Fuel { budget } => write!(f, ":{budget}"),
            FaultEntry::EstimatorBudget { calls } => write!(f, ":{calls}"),
            FaultEntry::Timeout { ms } => write!(f, ":{ms}"),
            FaultEntry::CheckpointTruncate { permille } => write!(f, ":{permille}"),
            FaultEntry::CheckpointBitflip { permille, bit } => write!(f, ":{permille}.{bit}"),
            FaultEntry::Halt { after } => write!(f, ":{after}"),
            FaultEntry::Misplace => Ok(()),
        }
    }
}

/// A malformed fault plan: the 1-based column of the offending token
/// and what is wrong with it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlanError {
    /// 1-based column within the plan string.
    pub column: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan column {}: {}", self.column, self.message)
    }
}

impl std::error::Error for FaultPlanError {}

/// An ordered composition of fault injectors.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// The armed injectors, in plan order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first `halt:<n>` term's commit count, if armed.
    pub fn halt(&self) -> Option<u64> {
        self.entries.iter().find_map(|e| match e {
            FaultEntry::Halt { after } => Some(*after),
            _ => None,
        })
    }

    /// Checks that every entry is of a kind in `accepted`; the error
    /// names the first entry that is not.
    pub fn accept_only(&self, accepted: &[&str]) -> Result<(), String> {
        match self.entries.iter().find(|e| !accepted.contains(&e.kind())) {
            None => Ok(()),
            Some(e) => Err(format!("`{e}` does not apply here (takes {})", accepted.join(", "))),
        }
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = FaultPlanError;

    /// Parses the `+`-separated grammar (see the module docs); `none`
    /// and the empty string parse to the empty plan.
    fn from_str(s: &str) -> Result<FaultPlan, FaultPlanError> {
        let trimmed = s.trim();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(FaultPlan::none());
        }
        let mut entries = Vec::new();
        let mut offset = 0usize;
        for piece in s.split('+') {
            let lead = piece.len() - piece.trim_start().len();
            let column = offset + lead + 1;
            let text = piece.trim();
            offset += piece.len() + 1;
            if text.is_empty() {
                return Err(FaultPlanError { column, message: "empty fault entry".to_string() });
            }
            entries.push(parse_entry(text, column)?);
        }
        Ok(FaultPlan { entries })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("none");
        }
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

fn err(column: usize, message: impl Into<String>) -> FaultPlanError {
    FaultPlanError { column, message: message.into() }
}

fn parse_entry(text: &str, column: usize) -> Result<FaultEntry, FaultPlanError> {
    if text == "misplace" {
        return Ok(FaultEntry::Misplace);
    }
    let (kind, args) = text
        .split_once(':')
        .ok_or_else(|| err(column, format!("expected `kind:args`, got `{text}`")))?;
    let args_col = column + kind.len() + 1;
    match kind {
        "panic" => {
            if args.is_empty() {
                return Err(err(args_col, "panic needs a unit name"));
            }
            // `<unit>x<times>`: the times suffix is the part after the
            // *last* `x` iff it parses as an integer (unit names may
            // contain `x`).
            if let Some((unit, digits)) = args.rsplit_once('x') {
                if let Ok(times) = digits.parse::<u32>() {
                    if unit.is_empty() {
                        return Err(err(args_col, "panic needs a unit name"));
                    }
                    return Ok(FaultEntry::UnitPanic { unit: unit.to_string(), times });
                }
            }
            Ok(FaultEntry::UnitPanic { unit: args.to_string(), times: u32::MAX })
        }
        "fuel" => Ok(FaultEntry::Fuel { budget: int(args, args_col, "fuel budget")? }),
        "estimator" => {
            Ok(FaultEntry::EstimatorBudget { calls: int(args, args_col, "estimator budget")? })
        }
        "timeout" => {
            let ms = int(args, args_col, "timeout")?;
            if ms == 0 {
                return Err(err(args_col, "timeout must be at least 1 ms"));
            }
            Ok(FaultEntry::Timeout { ms })
        }
        "truncate" => {
            let permille = int(args, args_col, "truncate point")? as u32;
            if permille > 1000 {
                return Err(err(args_col, format!("truncate point {permille} exceeds 1000‰")));
            }
            Ok(FaultEntry::CheckpointTruncate { permille })
        }
        "bitflip" => {
            let (pos, bit) = args
                .split_once('.')
                .ok_or_else(|| err(args_col, "bitflip needs `<permille>.<bit>`"))?;
            let permille = int(pos, args_col, "bitflip position")? as u32;
            if permille > 1000 {
                return Err(err(args_col, format!("bitflip position {permille} exceeds 1000‰")));
            }
            let bit_col = args_col + pos.len() + 1;
            let bit = int(bit, bit_col, "bit index")?;
            if bit > 7 {
                return Err(err(bit_col, format!("bit index {bit} exceeds 7")));
            }
            Ok(FaultEntry::CheckpointBitflip { permille, bit: bit as u8 })
        }
        "halt" => Ok(FaultEntry::Halt { after: int(args, args_col, "commit count")? }),
        "misplace" => Err(err(args_col, "misplace takes no argument")),
        other => Err(err(
            column,
            format!(
                "unknown fault kind `{other}` (panic, fuel, estimator, timeout, truncate, \
                 bitflip, halt, misplace)"
            ),
        )),
    }
}

fn int(s: &str, column: usize, what: &str) -> Result<u64, FaultPlanError> {
    s.parse::<u64>().map_err(|_| err(column, format!("bad {what} `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_parse_to_the_empty_plan() {
        assert_eq!("".parse::<FaultPlan>(), Ok(FaultPlan::none()));
        assert_eq!("none".parse::<FaultPlan>(), Ok(FaultPlan::none()));
        assert_eq!(FaultPlan::none().to_string(), "none");
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn full_grammar_roundtrips() {
        let text =
            "panic:f0x2+fuel:500+estimator:64+timeout:30000+truncate:125+bitflip:40.3+halt:2+misplace";
        let plan = text.parse::<FaultPlan>().expect("parse");
        assert_eq!(plan.entries.len(), 8);
        assert_eq!(plan.to_string(), text);
        assert_eq!(plan.to_string().parse(), Ok(plan));
    }

    #[test]
    fn panic_without_count_means_always() {
        let plan = "panic:main".parse::<FaultPlan>().expect("parse");
        assert_eq!(
            plan.entries[0],
            FaultEntry::UnitPanic { unit: "main".to_string(), times: u32::MAX }
        );
        assert_eq!(plan.to_string(), "panic:main");
        // Unit names containing `x` survive when no integer suffix follows.
        let plan = "panic:fxy".parse::<FaultPlan>().expect("parse");
        assert_eq!(
            plan.entries[0],
            FaultEntry::UnitPanic { unit: "fxy".to_string(), times: u32::MAX }
        );
    }

    #[test]
    fn whitespace_around_entries_is_tolerated() {
        let plan = " fuel:9 + timeout:50 ".parse::<FaultPlan>().expect("parse");
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.to_string(), "fuel:9+timeout:50");
    }

    #[test]
    fn halt_and_misplace_terms_roundtrip() {
        let plan: FaultPlan = "halt:0 + misplace".parse().expect("parse");
        assert_eq!(plan.entries, [FaultEntry::Halt { after: 0 }, FaultEntry::Misplace]);
        assert_eq!(plan.to_string(), "halt:0+misplace");
        assert_eq!(plan.to_string().parse::<FaultPlan>(), Ok(plan.clone()));
        assert_eq!(plan.halt(), Some(0));
        assert_eq!("fuel:1+halt:3+halt:4".parse::<FaultPlan>().expect("parse").halt(), Some(3));
        assert_eq!(FaultPlan::none().halt(), None);
        let kinds: Vec<_> = plan.entries.iter().map(FaultEntry::kind).collect();
        assert_eq!(kinds, ["halt", "misplace"]);

        let e = "misplace:1".parse::<FaultPlan>().expect_err("argument");
        assert_eq!(e.column, 10);
        assert!(e.message.contains("no argument"), "{e}");
        let e = "halt:-1".parse::<FaultPlan>().expect_err("negative");
        assert_eq!(e.column, 6);
        let e = "halt".parse::<FaultPlan>().expect_err("no count");
        assert!(e.message.contains("kind:args"), "{e}");
        let e = "crash:1".parse::<FaultPlan>().expect_err("unknown kind");
        assert!(e.message.contains("halt, misplace"), "{e}");
    }

    #[test]
    fn accept_only_names_the_first_foreign_term() {
        let plan = "panic:main+fuel:3+misplace".parse::<FaultPlan>().expect("parse");
        assert_eq!(plan.accept_only(&["panic", "fuel", "misplace"]), Ok(()));
        let e = plan.accept_only(&["panic", "halt"]).expect_err("fuel is foreign");
        assert!(e.contains("`fuel:3`") && e.contains("panic, halt"), "{e}");
        assert_eq!(FaultPlan::none().accept_only(&[]), Ok(()));
    }

    #[test]
    fn errors_carry_the_offending_column() {
        let e = "fuel:9+warp:1".parse::<FaultPlan>().expect_err("unknown kind");
        assert_eq!(e.column, 8);
        assert!(e.to_string().contains("column 8"), "{e}");
        assert!(e.message.contains("warp"));

        let e = "fuel:x".parse::<FaultPlan>().expect_err("bad int");
        assert_eq!(e.column, 6);

        let e = "bitflip:40".parse::<FaultPlan>().expect_err("missing bit");
        assert!(e.message.contains("bitflip"));

        let e = "bitflip:40.9".parse::<FaultPlan>().expect_err("bit too big");
        assert_eq!(e.column, 12);

        let e = "truncate:2000".parse::<FaultPlan>().expect_err("permille range");
        assert!(e.message.contains("1000"));

        let e = "fuel:1++fuel:2".parse::<FaultPlan>().expect_err("empty entry");
        assert!(e.message.contains("empty"));

        let e = "timeout:0".parse::<FaultPlan>().expect_err("zero timeout");
        assert!(e.message.contains("at least 1"));

        let e = "panic:".parse::<FaultPlan>().expect_err("no unit");
        assert!(e.message.contains("unit name"));
    }
}
