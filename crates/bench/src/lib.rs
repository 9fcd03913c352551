//! # mcpart-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper (see DESIGN.md for
//! the experiment index). Each binary accepts only the flags it reads:
//!
//! | Target | Paper artifact | Flags |
//! |---|---|---|
//! | `table1` | Table 1 (method matrix) | none |
//! | `fig2` | Figure 2 (naïve placement cost) | `--benchmarks`, `--json` |
//! | `fig7_8` | Figures 7, 8a, 8b | `--benchmarks`, `--latency {1,5,10}`, `--json` |
//! | `fig9` | Figure 9 (exhaustive search) | none |
//! | `fig10` | Figure 10 (move traffic) | `--benchmarks`, `--json` |
//! | `compile_time` | §4.5 (compile time) | `--benchmarks` |
//! | `ablation_*` | §3.3.1 merging, §4.3 balance, cluster scaling, ... | `--benchmarks` |
//! | `ext_*` | extensions beyond the paper (caches, SWP, ...) | `--benchmarks` |
//!
//! Run one with `cargo run --release -p mcpart-bench --bin <target> --
//! [flags]`; debug builds are fine for spot checks on a few benchmarks
//! (`--benchmarks a,b,c`). Compile time at scale, per stage, is
//! measured by `perfbench` (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod report;

use args::{ArgError, Flags};
use mcpart_workloads::Workload;

/// The experiment binaries' command line: one parse for all of them,
/// each binary naming the flags it reads. Anything else — an unknown
/// flag, a flag the binary ignores, a malformed value or an unknown
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
}

impl BenchArgs {
    /// Parses `args`, accepting only the flags listed in `accepted`.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<BenchArgs, ArgError> {
        let mut a = BenchArgs { workloads: Vec::new(), latency: None, json: false };
        let mut names: Option<String> = None;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            match flag {
                _ if !accepted.contains(&flag) => return Err(Flags::unknown(flag)),
                "--benchmarks" => names = Some(flags.value(flag, "a comma-separated list")?),
                "--latency" => a.latency = Some(flags.value(flag, "a number")?),
                "--json" => a.json = true,
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

    /// `fig7_8`'s flags, the widest set any binary reads.
    const FIG7_8: &[&str] = &["--benchmarks", "--latency", "--json"];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = BenchArgs::parse(
            &args(&["--benchmarks", "rawcaudio,fft", "--latency", "10", "--json"]),
            FIG7_8,
        )
        .expect("parses");
        assert_eq!(a.workloads.len(), 2);
        assert_eq!(a.latency, Some(10));
        assert!(a.json);
    }

    #[test]
    fn no_args_selects_all() {
        let a = BenchArgs::parse(&[], FIG7_8).expect("parses");
        assert!(a.workloads.len() >= 15);
        assert_eq!(a.latency, None);
        assert!(!a.json);
        let a = BenchArgs::parse(&[], &[]).expect("parses");
        assert!(a.workloads.is_empty());
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
            assert!(BenchArgs::parse(&args(bad), FIG7_8).is_err(), "accepted {bad:?}");
        }
        // A binary rejects the flags it does not read.
        let fig2 = ["--benchmarks", "--json"];
        assert!(BenchArgs::parse(&args(&["--json"]), &fig2).is_ok());
        assert!(BenchArgs::parse(&args(&["--latency", "10"]), &fig2).is_err());
        for bad in [&["--latency", "10"][..], &["--json"], &["--reps", "1"]] {
            assert!(BenchArgs::parse(&args(bad), &["--benchmarks"]).is_err(), "accepted {bad:?}");
        }
        assert!(BenchArgs::parse(&args(&["--benchmarks", "fir"]), &[]).is_err());
    }
}
