//! # mcpart-workloads — synthetic Mediabench / DSP-kernel workloads
//!
//! Deterministic IR generators modeled on the benchmarks of the paper's
//! evaluation (Mediabench applications plus DSP kernels). Each workload
//! is a runnable program — its [`mcpart_ir::Profile`] is gathered by
//! actually executing it in the functional simulator — with the data
//! object mix (lookup tables, state scalars, heap buffers) and access
//! structure that make data partitioning matter.
//!
//! [`BENCHMARKS`] lists the bundled programs, one row each; [`by_name`]
//! builds and profiles only the row asked for, [`all`] every row.
//! [`resolve`] reads any target string the CLI accepts: a synthetic
//! preset or spec ([`SynthSpec`]), a bundled name, or a text-IR file.
//!
//! ```
//! let w = mcpart_workloads::by_name("rawcaudio").expect("known benchmark");
//! assert!(w.num_objects() >= 5);
//! let s = mcpart_workloads::resolve("synth_10k").expect("preset");
//! assert_eq!(s.suite, mcpart_workloads::Suite::Synthetic);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod adpcm;
mod epic;
mod g721;
mod gen;
mod gsm;
mod jpeg;
mod kernels;
mod kernels2;
mod mpeg2;
mod pegwit;
#[cfg(test)]
mod tests_structure;

pub use gen::{
    clamp_const, counted_loop, init_table4, load_elem4, load_ptr4, store_elem4, store_ptr4, Loop,
    Suite, SynthSpec, SynthSpecError, Workload, WorkloadError,
};

use mcpart_ir::Program;
use std::fmt;

/// One bundled benchmark: a row of [`BENCHMARKS`].
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    /// Benchmark name (mirrors the paper's; equals the program's name).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Builds the program, not yet verified or profiled.
    generate: fn() -> Program,
}

impl Bench {
    /// Verifies the row's program and profiles it by running it.
    fn build(&self) -> Result<Workload, WorkloadError> {
        Workload::try_from_program(self.name, self.suite, (self.generate)())
    }

    /// [`Bench::build`] for callers without an error path: the bundled
    /// generators are tested, so a failure is a bug in this crate.
    fn build_trusted(&self) -> Workload {
        self.build().unwrap_or_else(|e| panic!("bundled {e}"))
    }
}

/// Every bundled benchmark, Mediabench first, then the DSP kernels.
pub const BENCHMARKS: &[Bench] = &[
    Bench { name: "cjpeg", suite: Suite::Mediabench, generate: jpeg::cjpeg },
    Bench { name: "djpeg", suite: Suite::Mediabench, generate: jpeg::djpeg },
    Bench { name: "epic", suite: Suite::Mediabench, generate: epic::epic },
    Bench { name: "unepic", suite: Suite::Mediabench, generate: epic::unepic },
    Bench { name: "g721encode", suite: Suite::Mediabench, generate: g721::g721encode },
    Bench { name: "g721decode", suite: Suite::Mediabench, generate: g721::g721decode },
    Bench { name: "gsmencode", suite: Suite::Mediabench, generate: gsm::gsmencode },
    Bench { name: "gsmdecode", suite: Suite::Mediabench, generate: gsm::gsmdecode },
    Bench { name: "mpeg2dec", suite: Suite::Mediabench, generate: mpeg2::mpeg2dec },
    Bench { name: "mpeg2enc", suite: Suite::Mediabench, generate: mpeg2::mpeg2enc },
    Bench { name: "pegwit", suite: Suite::Mediabench, generate: pegwit::pegwit },
    Bench { name: "rawcaudio", suite: Suite::Mediabench, generate: adpcm::rawcaudio },
    Bench { name: "rawdaudio", suite: Suite::Mediabench, generate: adpcm::rawdaudio },
    Bench { name: "fir", suite: Suite::Dsp, generate: kernels::fir },
    Bench { name: "fft", suite: Suite::Dsp, generate: kernels::fft },
    Bench { name: "fsed", suite: Suite::Dsp, generate: kernels::fsed },
    Bench { name: "sobel", suite: Suite::Dsp, generate: kernels::sobel },
    Bench { name: "latnrm", suite: Suite::Dsp, generate: kernels::latnrm },
    Bench { name: "matmul", suite: Suite::Dsp, generate: kernels::matmul },
    Bench { name: "viterbi", suite: Suite::Dsp, generate: kernels2::viterbi },
    Bench { name: "autcor", suite: Suite::Dsp, generate: kernels2::autcor },
    Bench { name: "histogram", suite: Suite::Dsp, generate: kernels2::histogram },
];

/// Builds and profiles every bundled benchmark, in [`BENCHMARKS`] order.
pub fn all() -> Vec<Workload> {
    BENCHMARKS.iter().map(Bench::build_trusted).collect()
}

/// Builds and profiles the one bundled benchmark called `name`, or
/// returns `None` when no row of [`BENCHMARKS`] has that name. Synthetic
/// specs and text-IR files go through [`resolve`].
pub fn by_name(name: &str) -> Option<Workload> {
    BENCHMARKS.iter().find(|b| b.name == name).map(Bench::build_trusted)
}

/// Why [`resolve`] could not turn a target string into a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetError {
    /// A synthetic preset or `key=value,...` spec the parser rejects.
    /// The one usage error: the input itself is malformed.
    Spec {
        /// The target string.
        target: String,
        /// The parser's column diagnostic.
        error: SynthSpecError,
    },
    /// A synthetic or bundled program fails verification or its
    /// profiling run (a generator bug).
    Build {
        /// The target string.
        target: String,
        /// What construction found wrong.
        error: WorkloadError,
    },
    /// A text-IR file cannot be read, parsed, verified or executed; the
    /// message names the file.
    File(String),
    /// The target is no spec, no bundled name and no existing path.
    Unknown(String),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Spec { target, error } => write!(f, "`{target}`: {error}"),
            TargetError::Build { target, error } => write!(f, "`{target}`: {error}"),
            TargetError::File(message) => f.write_str(message),
            TargetError::Unknown(target) => write!(
                f,
                "`{target}` is neither a known benchmark nor a readable file (try `mcpart list`)"
            ),
        }
    }
}

impl std::error::Error for TargetError {}

/// Decides what a target string names, in this order, and builds it:
///
/// 1. a synthetic preset (`synth_10k`, `synth_100k`, `synth_1m`) or
///    `key=value,...` spec ([`SynthSpec::parse`]) — a string that starts
///    with `synth_` or contains `=` is always read as one, so a malformed
///    spec keeps its column diagnostic;
/// 2. a bundled benchmark name ([`BENCHMARKS`]);
/// 3. the path of a text-IR (`.mcir`) file, which is parsed, verified and
///    profiled by running it.
///
/// # Errors
///
/// Returns [`TargetError`] naming which of the three failed, or
/// [`TargetError::Unknown`] when the string is none of them.
pub fn resolve(target: &str) -> Result<Workload, TargetError> {
    let build_err = |error| TargetError::Build { target: target.to_string(), error };
    if target.starts_with("synth_") || target.contains('=') {
        let spec = SynthSpec::parse(target)
            .map_err(|error| TargetError::Spec { target: target.to_string(), error })?;
        return spec.try_generate(target).map_err(build_err);
    }
    if let Some(bench) = BENCHMARKS.iter().find(|b| b.name == target) {
        return bench.build().map_err(build_err);
    }
    if !std::path::Path::new(target).exists() {
        return Err(TargetError::Unknown(target.to_string()));
    }
    let text = std::fs::read_to_string(target)
        .map_err(|e| TargetError::File(format!("cannot read {target}: {e}")))?;
    let program =
        mcpart_ir::parse_program(&text).map_err(|e| TargetError::File(format!("{target}: {e}")))?;
    Workload::try_from_program(program.name.clone(), Suite::File, program).map_err(|e| {
        TargetError::File(match e {
            WorkloadError::Verification { detail, .. } => format!("{target}: {detail}"),
            WorkloadError::Execution { detail, .. } => {
                format!("{target}: execution failed: {detail}")
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::program_to_string;

    #[test]
    fn by_name_builds_each_row_exactly_as_all_does() {
        let everything = all();
        assert_eq!(everything.len(), BENCHMARKS.len());
        for (row, w) in BENCHMARKS.iter().zip(&everything) {
            assert_eq!(row.name, w.program.name, "row name is the program's name");
            let one = by_name(row.name).expect("every row resolves");
            assert_eq!(one.name, w.name);
            assert_eq!(one.suite, w.suite);
            assert_eq!(
                program_to_string(&one.program),
                program_to_string(&w.program),
                "{}",
                w.name
            );
            assert_eq!(one.profile, w.profile, "{}", w.name);
        }
        let unique: std::collections::HashSet<_> = BENCHMARKS.iter().map(|b| b.name).collect();
        assert_eq!(unique.len(), BENCHMARKS.len(), "duplicate names");
        assert!(by_name("nonexistent").is_none());
        assert!(by_name("synth_10k").is_none(), "presets go through resolve");
    }

    #[test]
    fn resolve_reads_a_preset() {
        let w = resolve("synth_10k").expect("preset");
        assert_eq!(w.suite, Suite::Synthetic);
        assert_eq!(w.name, "synth_10k");
        // Sized to the target within a generous tolerance.
        let ops = w.num_ops();
        assert!((8_000..14_000).contains(&ops), "ops = {ops}");
    }

    #[test]
    fn resolve_reads_a_spec_and_keeps_its_diagnostic() {
        let w = resolve("ops=3000,trips=8,seed=3").expect("spec");
        assert_eq!(w.suite, Suite::Synthetic);
        let e = resolve("trips=0").expect_err("rejected");
        assert!(matches!(e, TargetError::Spec { .. }), "{e:?}");
        assert!(e.to_string().starts_with("`trips=0`: "), "{e}");
        assert!(e.to_string().contains("spec column"), "{e}");
        assert!(matches!(resolve("synth_bogus"), Err(TargetError::Spec { .. })));
    }

    #[test]
    fn resolve_reads_a_bundled_name() {
        let w = resolve("fir").expect("bundled");
        let b = by_name("fir").expect("bundled");
        assert_eq!((w.name, w.suite), (b.name, b.suite));
        assert_eq!(w.program, b.program);
        assert_eq!(w.profile, b.profile);
        let e = resolve("no-such-benchmark").expect_err("unknown");
        assert_eq!(e, TargetError::Unknown("no-such-benchmark".into()));
        assert!(e.to_string().contains("neither a known benchmark"), "{e}");
    }

    #[test]
    fn resolve_reads_a_text_ir_file() {
        let dir = std::env::temp_dir().join(format!("mcpart-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bundled = by_name("rawcaudio").unwrap();
        let path = dir.join("rawcaudio.mcir");
        std::fs::write(&path, program_to_string(&bundled.program)).unwrap();
        let w = resolve(path.to_str().unwrap()).expect("file");
        assert_eq!(w.suite, Suite::File);
        assert_eq!(w.name, "rawcaudio");
        assert_eq!(program_to_string(&w.program), program_to_string(&bundled.program));
        assert_eq!(w.profile, bundled.profile);
        let bad = dir.join("bad.mcir");
        std::fs::write(&bad, "not ir").unwrap();
        let e = resolve(bad.to_str().unwrap()).expect_err("parse error");
        assert!(matches!(&e, TargetError::File(m) if m.starts_with(bad.to_str().unwrap())), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
