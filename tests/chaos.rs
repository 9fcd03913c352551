//! Acceptance tests for `mcpart chaos`: the seeded soak harness with
//! its independent placement oracle. Each test drives the real binary
//! (or the library property surface) and asserts on the contract the
//! harness advertises: bit-identical determinism, jobs-invariance,
//! zero oracle violations on clean code, and a closed loop from an
//! injected bug to a shrunk repro that replays from the corpus.

use mcpart::core::{check_result, run_pipeline, Method, PipelineConfig};
use mcpart::machine::SweepMatrix;
use mcpart::par::fault::FaultEntry;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn mcpart_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A fresh private scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpart_chaos_test_{test}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Acceptance: the soak is a pure function of its seed — two runs of
/// the same command produce byte-identical stdout, including every
/// per-scenario verdict folded into the summary line.
#[test]
fn same_seed_soaks_are_byte_identical() {
    let (a, stderr, code) = mcpart_cli(&["chaos", "40", "--seed", "5", "--metrics"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (b, _, code) = mcpart_cli(&["chaos", "40", "--seed", "5", "--metrics"]);
    assert_eq!(code, Some(0));
    assert_eq!(a, b, "same seed must reproduce the soak byte-for-byte");
    assert!(a.contains("chaos: 40 scenario(s)"), "{a}");
    assert!(a.contains("0 failure(s)"), "clean code must pass the oracle: {a}");
}

/// Acceptance: the worker count used for the jobs-invariance re-run
/// never changes what the soak reports.
#[test]
fn soak_output_is_invariant_across_jobs_counts() {
    let (j1, stderr, code) = mcpart_cli(&["chaos", "30", "--seed", "9", "--jobs", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (j4, _, code) = mcpart_cli(&["chaos", "30", "--seed", "9", "--jobs", "4"]);
    assert_eq!(code, Some(0));
    assert_eq!(j1, j4, "--jobs must never change results");
}

/// Acceptance: a longer seeded soak over the built-in sweep matrix
/// (clusters 1..8, degenerate FU mixes, all topologies and memory
/// models, composed fault plans) finds zero oracle violations.
#[test]
fn seeded_soak_finds_zero_oracle_violations() {
    let (stdout, stderr, code) = mcpart_cli(&["chaos", "60", "--seed", "20260807"]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("chaos: 60 scenario(s)"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "oracle violation on clean code: {stdout}");
}

/// Acceptance: an injected oracle-violating bug (the `misplace` fault
/// term) is caught, shrunk, written to the corpus with the term in its
/// plan, and the repro file alone replays to the same failure — while
/// the same repro with the term stripped replays clean.
#[test]
fn injected_bug_is_caught_shrunk_and_replays_from_the_corpus() {
    let corpus = scratch("corpus");
    let corpus_str = corpus.to_str().expect("utf8 path");
    let (stdout, _, code) =
        mcpart_cli(&["chaos", "2", "--seed", "3", "--fault", "misplace", "--corpus", corpus_str]);
    assert_eq!(code, Some(1), "injected bugs must fail the soak: {stdout}");
    assert!(stdout.contains("failure 0: oracle-failure"), "{stdout}");
    assert!(stdout.contains("shrink step(s)"), "{stdout}");
    assert!(stdout.contains("repro written:"), "{stdout}");

    let mut repros: Vec<PathBuf> =
        fs::read_dir(&corpus).expect("corpus dir").map(|e| e.expect("entry").path()).collect();
    repros.sort();
    assert!(!repros.is_empty(), "no repro files in the corpus");
    let repro = repros[0].to_str().expect("utf8 path");

    // The repro records the injected term, so replaying the file alone
    // reproduces the oracle failure.
    let text = fs::read_to_string(repro).expect("repro reads");
    let (stdout, _, code) = mcpart_cli(&["chaos", "--replay", repro]);
    assert_eq!(code, Some(1), "repro must reproduce: {stdout}\n{text}");
    assert!(stdout.contains("oracle-failure"), "{stdout}");
    // Without the term, the same scenario passes: the bug, not the
    // scenario, was at fault.
    let mut scenario = mcpart::core::JobSpec::parse_repro(&text).expect("repro parses");
    let before = scenario.faults.entries.len();
    scenario.faults.entries.retain(|e| *e != FaultEntry::Misplace);
    assert_eq!(scenario.faults.entries.len(), before - 1, "no misplace term in:\n{text}");
    let stripped = corpus.join("stripped.txt");
    fs::write(&stripped, scenario.repro()).expect("write stripped repro");
    let stripped = stripped.to_str().expect("utf8 path");
    let (stdout, stderr, code) = mcpart_cli(&["chaos", "--replay", stripped]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains(": pass"), "{stdout}");
    let _ = fs::remove_dir_all(&corpus);
}

/// The `chaos/*` counters reach a trace and satisfy
/// `trace-check --require`.
#[test]
fn chaos_counters_survive_trace_check_require() {
    let dir = scratch("trace");
    let trace = dir.join("chaos-trace.json");
    let trace_str = trace.to_str().expect("utf8 path");
    let (_, stderr, code) = mcpart_cli(&["chaos", "10", "--seed", "2", "--trace-out", trace_str]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let (stdout, stderr, code) = mcpart_cli(&[
        "trace-check",
        trace_str,
        "--require",
        "chaos/scenarios=10,chaos/failures=0,chaos/shrink_steps,chaos/oracle_checks",
    ]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// A malformed sweep-matrix file is a configuration error: exit 2 with
/// a diagnostic carrying the line and column.
#[test]
fn malformed_sweep_file_exits_2_with_line_and_column() {
    let dir = scratch("bad_sweep");
    let path = dir.join("bad.sweep");
    fs::write(&path, "clusters = [2, 4]\nlatency = [1, oops]\n").expect("write sweep");
    let (_, stderr, code) =
        mcpart_cli(&["chaos", "5", "--sweep", path.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(2), "malformed sweep must exit 2: {stderr}");
    assert!(stderr.contains("sweep line 2, column"), "no line/column diagnostic: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// A valid user sweep file replaces the built-in matrix and the soak
/// still runs clean over it.
#[test]
fn custom_sweep_file_drives_the_soak() {
    let dir = scratch("custom_sweep");
    let path = dir.join("tiny.sweep");
    fs::write(
        &path,
        "# a deliberately small matrix\n\
         clusters = [1, 3]\n\
         latency = [2]\n\
         topology = [\"ring\", \"mesh\"]\n\
         memory = [\"partitioned\", \"coherent:4\"]\n",
    )
    .expect("write sweep");
    let (stdout, stderr, code) =
        mcpart_cli(&["chaos", "20", "--seed", "13", "--sweep", path.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// Property (satellite): across sweep machines, combined fault plans,
/// and worker counts 1 and 4, the degradation ladder always terminates
/// in either a placement the independent oracle accepts or a typed
/// error — never a panic, never an unsound downgrade chain.
#[test]
fn ladder_terminates_valid_or_typed_under_combined_faults_at_both_jobs_counts() {
    let sweep = SweepMatrix::parse(
        "clusters = [1, 2, 8]\n\
         latency = [5]\n\
         topology = [\"bus\", \"mesh\"]\n\
         mix = [\"2/1/1/1\", \"1/0/1/1\"]\n\
         memory = [\"partitioned\", \"unified\"]\n",
    )
    .expect("sweep parses");
    let w = mcpart::workloads::by_name("fir").expect("known benchmark");
    let exec = mcpart::sim::ExecConfig::default();
    // Fault plans that push the ladder through every rung: no faults,
    // GDP fuel exhaustion, estimator starvation, and both at once with
    // an injected partitioner panic.
    let plans: [(&str, Option<u64>, Option<u64>, bool); 4] = [
        ("clean", None, None, false),
        ("fuel", Some(0), None, false),
        ("estimator", None, Some(1), false),
        ("everything", Some(0), Some(1), true),
    ];
    for point in sweep.expand() {
        let machine = point.machine();
        for (label, fuel, estimator, panic) in plans {
            for jobs in [1usize, 4] {
                let mut cfg = PipelineConfig::new(Method::Gdp).with_jobs(jobs);
                cfg.gdp.fuel = fuel;
                cfg.rhop.max_estimator_calls = estimator;
                if panic {
                    cfg.rhop.faults = "panic:mainx1".parse().expect("plan");
                }
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_pipeline(&w.program, &w.profile, &machine, &cfg)
                }));
                let ctx = format!("{point} plan={label} jobs={jobs}");
                match caught {
                    Err(_) => panic!("{ctx}: pipeline panicked"),
                    Ok(Err(e)) => {
                        assert!(!e.to_string().is_empty(), "{ctx}: untyped error");
                    }
                    Ok(Ok(result)) => {
                        let report = check_result(&w.program, &w.profile, &machine, &result, exec);
                        assert!(
                            report.passed(),
                            "{ctx}: oracle rejected the ladder's placement:\n{report}"
                        );
                    }
                }
            }
        }
    }
}

/// The serve spool and the chaos corpus compose: a repro written by one
/// soak replays identically on a machine loaded from the same sweep
/// grammar the corpus scenario names.
#[test]
fn repro_files_roundtrip_through_parse_and_display() {
    let corpus = scratch("roundtrip");
    let corpus_str = corpus.to_str().expect("utf8 path");
    let (_, _, code) = mcpart_cli(&[
        "chaos",
        "1",
        "--seed",
        "3",
        "--fault",
        "misplace",
        "--no-shrink",
        "--corpus",
        corpus_str,
    ]);
    assert_eq!(code, Some(1));
    let repro = fs::read_dir(&corpus)
        .expect("corpus dir")
        .next()
        .expect("one repro")
        .expect("entry")
        .path();
    let text = fs::read_to_string(&repro).expect("repro reads");
    let scenario = mcpart::core::JobSpec::parse_repro(&text).expect("repro grammar parses");
    let reparsed = mcpart::core::JobSpec::parse_repro(&scenario.repro()).expect("repro reparses");
    assert_eq!(scenario, reparsed, "scenario grammar must roundtrip");
    assert!(Path::new(&repro).exists());
    let _ = fs::remove_dir_all(&corpus);
}
