//! # mcpart-bench — the experiment harness
//!
//! One driver, `figures`, regenerates every committed result of the
//! paper reproduction (see DESIGN.md for the experiment index and
//! EXPERIMENTS.md for measured-vs-paper numbers):
//!
//! ```text
//! figures [NAME...] [--benchmarks a,b,c] [--out DIR]
//! ```
//!
//! Each NAME is a `results/` file stem, a row of [`figures::FIGURES`],
//! and a function of the same name in [`figures`] that fills a
//! [`figures::Table`] of numbers (Figure 9 returns its scatter points):
//!
//! | Name | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 (method matrix) |
//! | `fig2` | Figure 2 (naïve placement cost) |
//! | `fig7`, `fig8a`, `fig8b` | Figures 7, 8a, 8b (1/5/10-cycle moves) |
//! | `fig9` | Figure 9 (exhaustive search) |
//! | `fig10` | Figure 10 (move traffic) |
//! | `compile_time` | §4.5 (partitioning work) |
//! | `ablation_*` | §3.3.1 merging, §4.3 balance, cluster scaling, ... |
//! | `ext_*` | extensions beyond the paper (caches, SWP, ...) |
//!
//! No NAME selects every row. `--benchmarks` replaces the default
//! workloads of every selected row that takes workloads (`table1` takes
//! none; `fig9` always runs its own two programs). The bundled programs
//! are built and profiled once per invocation and shared by every row.
//! Output goes to stdout, or with `--out DIR` to `DIR/<name>.txt` per
//! row, so `figures --out results` regenerates `results/`. Run it with
//! `cargo run --release -p mcpart-bench --bin figures -- [args]`.
//! Compile time at scale, per stage, is measured by `perfbench`
//! (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod args;
pub mod figures;

use args::{ArgError, Flags};
use figures::{Figure, Takes, FIGURES};
use mcpart_workloads::{TargetError, Workload};
use std::path::PathBuf;

/// The `figures` command line. Anything else — an unknown name or
/// flag, a malformed value, an unknown benchmark, or `--benchmarks`
/// when no selected row takes workloads — is an error.
#[derive(Debug)]
pub struct FigureArgs {
    /// The selected rows, in command-line order (default: every row).
    pub figures: Vec<&'static Figure>,
    /// `--benchmarks a,b,c`: replaces each selected row's defaults; each
    /// name is resolved by [`mcpart_workloads::resolve`]. Consecutive
    /// `key=value` fragments form one synthetic spec, so
    /// `fir,ops=3000,seed=3` names two programs.
    pub workloads: Option<Vec<Workload>>,
    /// `--out DIR`: write `DIR/<name>.txt` per row instead of stdout.
    pub out: Option<PathBuf>,
}

impl FigureArgs {
    /// Parses the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<FigureArgs, ArgError> {
        let (mut figures, mut names, mut out) = (Vec::new(), None, None);
        let mut flags = Flags::new(args);
        while let Some(arg) = flags.next_flag() {
            match arg {
                "--benchmarks" => {
                    names = Some(flags.value::<String>(arg, "a comma-separated list")?)
                }
                "--out" => out = Some(flags.value(arg, "a directory")?),
                _ if arg.starts_with('-') => return Err(Flags::unknown(arg)),
                name => {
                    let figure = FIGURES
                        .iter()
                        .find(|f| f.name == name)
                        .ok_or_else(|| ArgError(format!("unknown figure `{name}`")))?;
                    if figures.iter().any(|f: &&Figure| f.name == name) {
                        return Err(ArgError(format!("figure `{name}` named twice")));
                    }
                    figures.push(figure);
                }
            }
        }
        if figures.is_empty() {
            figures = FIGURES.iter().collect();
        }
        let workloads = match names {
            None => None,
            Some(_)
                if figures.iter().all(|f| matches!(f.takes, Takes::Nothing | Takes::Fixed(_))) =>
            {
                return Err(ArgError("--benchmarks: no selected figure takes workloads".into()))
            }
            Some(list) => Some(
                split_targets(&list)
                    .iter()
                    .map(|n| {
                        mcpart_workloads::resolve(n).map_err(|e| match e {
                            TargetError::Unknown(_) => ArgError(format!("unknown benchmark `{n}`")),
                            e => ArgError(e.to_string()),
                        })
                    })
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok(FigureArgs { figures, workloads, out })
    }
}

/// Splits a `--benchmarks` list into targets: a `key=value` fragment
/// right after another one continues its synthetic spec; every other
/// fragment is a target of its own.
fn split_targets(list: &str) -> Vec<String> {
    let mut targets: Vec<String> = Vec::new();
    for part in list.split(',') {
        match targets.last_mut() {
            Some(spec) if part.contains('=') && spec.contains('=') => {
                spec.push(',');
                spec.push_str(part);
            }
            _ => targets.push(part.to_string()),
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<FigureArgs, ArgError> {
        FigureArgs::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn names(a: &FigureArgs) -> Vec<&str> {
        a.figures.iter().map(|f| f.name).collect()
    }

    #[test]
    fn arg_parsing() {
        let a = parse(&["fig8b", "--benchmarks", "rawcaudio,fft", "table1", "--out", "dir"])
            .expect("parses");
        assert_eq!(names(&a), ["fig8b", "table1"]);
        assert_eq!(a.workloads.as_ref().map(Vec::len), Some(2));
        assert_eq!(a.out, Some(PathBuf::from("dir")));
    }

    #[test]
    fn a_synthetic_spec_keeps_its_commas() {
        assert_eq!(split_targets("ops=3000,seed=3"), ["ops=3000,seed=3"]);
        assert_eq!(
            split_targets("fir,ops=3000,seed=3,rawcaudio"),
            ["fir", "ops=3000,seed=3", "rawcaudio"]
        );
        let a = parse(&["fig8a", "--benchmarks", "ops=3000,seed=3"]).expect("parses");
        let workloads = a.workloads.expect("workloads");
        assert_eq!(workloads.len(), 1);
        let spec = mcpart_workloads::resolve("ops=3000,seed=3").expect("spec resolves");
        assert_eq!(workloads[0].name, spec.name);
        let a = parse(&["fig8a", "--benchmarks", "fir,ops=3000,seed=3,rawcaudio"]).expect("parses");
        let names: Vec<String> =
            a.workloads.expect("workloads").iter().map(|w| w.name.clone()).collect();
        assert_eq!(names, ["fir".to_string(), spec.name, "rawcaudio".to_string()]);
    }

    #[test]
    fn no_args_selects_all() {
        let a = parse(&[]).expect("parses");
        assert_eq!(a.figures.len(), FIGURES.len());
        assert!(a.workloads.is_none());
        assert!(a.out.is_none());
        // Every row is a distinct `results/` stem.
        let mut stems = names(&a);
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), 19);
        // `--benchmarks` alone applies to every row that takes workloads.
        let a = parse(&["--benchmarks", "fir"]).expect("parses");
        assert_eq!(a.figures.len(), FIGURES.len());
    }

    #[test]
    fn typos_and_foreign_flags_are_errors() {
        for bad in [
            &["--benchmarks", "rawcaudoi"][..],
            &["--benchmarks", "rawcaudio,"],
            &["--benchmarks"],
            &["--out"],
            &["--latency", "10"],
            &["--json"],
            &["--bogus"],
            &["--quick"],
            &["rawcaudio"],
            &["fig7_8"],
            &["table1", "--benchmarks", "fir"],
            &["fig9", "table1", "--benchmarks", "fir"],
            &["table1", "table1"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse(&["fig9", "fig2", "--benchmarks", "fir"]).is_ok());
    }
}
