//! # mcpart-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper (see DESIGN.md for
//! the experiment index):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `cargo run -p mcpart-bench --bin table1` | Table 1 (method matrix) |
//! | `cargo run -p mcpart-bench --bin fig2` | Figure 2 (naïve placement cost) |
//! | `cargo run -p mcpart-bench --bin fig7_8 -- --latency {1,5,10}` | Figures 7, 8a, 8b |
//! | `cargo run -p mcpart-bench --bin fig9` | Figure 9 (exhaustive search) |
//! | `cargo run -p mcpart-bench --bin fig10` | Figure 10 (move traffic) |
//! | `cargo run -p mcpart-bench --bin compile_time` | §4.5 (compile time) |
//! | `cargo run -p mcpart-bench --bin ablation_merge` | §3.3.1 merging ablation |
//! | `cargo run -p mcpart-bench --bin ablation_balance` | §4.3 balance sweep |
//! | `cargo run -p mcpart-bench --bin ablation_clusters` | cluster scaling |
//!
//! Use `--release` for the full benchmark set; debug builds are fine
//! for spot checks on a few benchmarks (`-- --benchmarks a,b,c`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod args;
pub mod diff;
pub mod experiments;
pub mod report;

use args::{ArgError, Flags};
use mcpart_workloads::Workload;

/// The flags of the figure, table, ablation and extension binaries.
pub const SELECTION_FLAGS: &[&str] = &["--benchmarks", "--latency", "--json"];

/// The experiment binaries' command line: one parse for all of them,
/// each binary naming the flags it accepts. Anything else — an unknown
/// flag, a flag of another binary, a malformed value or an unknown
/// benchmark name — is an error.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--benchmarks a,b,c` (default: every bundled workload; none for a
    /// binary that does not take `--benchmarks`).
    pub workloads: Vec<Workload>,
    /// `--latency N`.
    pub latency: Option<u32>,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// `--quick`: a smoke run (one repetition).
    pub quick: bool,
    /// `--metrics`: fold observability counters into the report.
    pub metrics: bool,
    /// `--jobs N` (default 0 = all cores).
    pub jobs: usize,
    /// `--out PATH`: the report path.
    pub out: Option<String>,
    /// `--reps N` (positive); `--quick` sets 1.
    pub reps: Option<usize>,
}

impl BenchArgs {
    /// Parses `args`, accepting only the flags listed in `accepted`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<BenchArgs, ArgError> {
        let mut a = BenchArgs {
            workloads: Vec::new(),
            latency: None,
            json: false,
            quick: false,
            metrics: false,
            jobs: 0,
            out: None,
            reps: None,
        };
        let mut names: Option<String> = None;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                _ if !accepted.contains(&flag) => return Err(Flags::unknown(flag)),
                "--benchmarks" => names = Some(flags.value(flag, "a comma-separated list")?),
                "--latency" => a.latency = Some(flags.value(flag, "a number")?),
                "--json" => a.json = true,
                "--quick" => {
                    a.quick = true;
                    a.reps = Some(1);
                }
                "--metrics" => a.metrics = true,
                "--jobs" => a.jobs = flags.value(flag, "a number")?,
                "--out" => a.out = Some(flags.value(flag, "a path")?),
                "--reps" => a.reps = Some(flags.positive(flag, "a positive count")?),
                other => return Err(Flags::unknown(other)),
            }
        }
        a.workloads = match names {
            None if accepted.contains(&"--benchmarks") => mcpart_workloads::all(),
            None => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|n| {
                    mcpart_workloads::by_name(n)
                        .ok_or_else(|| ArgError(format!("unknown benchmark `{n}`")))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(a)
    }

    /// Parses the process's arguments; on error prints it with the
    /// accepted flags and exits 2.
    pub fn from_env(accepted: &[&str]) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::parse(&args, accepted).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: accepted flags: [{}]", accepted.join(" "));
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = BenchArgs::parse(
            &args(&["--benchmarks", "rawcaudio,fft", "--latency", "10", "--json"]),
            SELECTION_FLAGS,
        )
        .expect("parses");
        assert_eq!(a.workloads.len(), 2);
        assert_eq!(a.latency, Some(10));
        assert!(a.json);
    }

    #[test]
    fn no_args_selects_all() {
        let a = BenchArgs::parse(&[], SELECTION_FLAGS).expect("parses");
        assert!(a.workloads.len() >= 15);
        assert_eq!(a.latency, None);
        assert!(!a.json);
    }

    #[test]
    fn typos_and_foreign_flags_are_errors() {
        for bad in [
            &["--benchmarks", "rawcaudoi"][..],
            &["--benchmarks", "rawcaudio,"],
            &["--benchmarks"],
            &["--latency", "fast"],
            &["--latency"],
            &["--bogus"],
            &["--quick"],
            &["rawcaudio"],
        ] {
            assert!(BenchArgs::parse(&args(bad), SELECTION_FLAGS).is_err(), "accepted {bad:?}");
        }
        let partition = ["--quick", "--reps", "--out", "--jobs", "--metrics"];
        for bad in [&["--reps", "many"][..], &["--reps", "0"], &["--jobs", "x"], &["--json"]] {
            assert!(BenchArgs::parse(&args(bad), &partition).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn quick_sets_one_rep_unless_reps_follows() {
        let flags = ["--quick", "--reps", "--out"];
        let a = BenchArgs::parse(&args(&["--reps", "5", "--quick"]), &flags).expect("parses");
        assert_eq!((a.quick, a.reps), (true, Some(1)));
        let a = BenchArgs::parse(&args(&["--quick", "--reps", "5", "--out", "x.json"]), &flags)
            .expect("parses");
        assert_eq!((a.reps, a.out.as_deref()), (Some(5), Some("x.json")));
    }
}
