//! End-to-end tests of the `mcpart` command-line binary.

use mcpart::obs::{Event, EventKind};
use std::process::Command;

fn mcpart(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`mcpart`] but returns the raw exit code, for tests that
/// distinguish usage errors (2) from runtime failures (1).
fn mcpart_code(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart")).args(args).output().expect("binary runs");
    (String::from_utf8_lossy(&out.stderr).into_owned(), out.status.code())
}

#[test]
fn list_shows_all_benchmarks() {
    let (stdout, _, ok) = mcpart(&["list"]);
    assert!(ok);
    assert!(stdout.contains("rawcaudio"));
    assert!(stdout.contains("viterbi"));
    assert_eq!(stdout.lines().count(), 23, "{stdout}"); // header + 22
}

#[test]
fn run_reports_cycles() {
    let (stdout, _, ok) = mcpart(&["run", "fir", "--method", "gdp", "--latency", "5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("cycles:"));
    assert!(stdout.contains("GDP"));
    assert!(stdout.contains("bytes per cluster"));
}

#[test]
fn compare_lists_all_methods() {
    let (stdout, _, ok) = mcpart(&["compare", "latnrm", "--latency", "1"]);
    assert!(ok, "{stdout}");
    for m in ["GDP", "Profile Max", "Naive", "Unified"] {
        assert!(stdout.contains(m), "missing {m} in {stdout}");
    }
}

#[test]
fn dump_exec_roundtrip_through_a_file() {
    let (text, _, ok) = mcpart(&["dump", "histogram"]);
    assert!(ok);
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("histogram.mcir");
    std::fs::write(&path, &text).unwrap();
    let (stdout, stderr, ok) = mcpart(&["exec", path.to_str().unwrap(), "--method", "naive"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("cycles:"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn schedule_prints_a_timeline() {
    let (stdout, _, ok) = mcpart(&["schedule", "matmul", "--method", "unified"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("hottest block"));
    assert!(stdout.contains("cycle |"));
    assert!(stdout.contains("length:"));
}

#[test]
fn partition_lists_object_homes() {
    let (stdout, _, ok) = mcpart(&["partition", "rawdaudio"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("stepsizeTable"));
    assert!(stdout.contains("bytes per cluster"));
}

#[test]
fn trace_out_writes_a_valid_chrome_trace() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fir_trace.json");
    let path_str = path.to_str().unwrap();
    let (stdout, stderr, ok) = mcpart(&["run", "fir", "--trace-out", path_str, "--metrics"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("observability summary"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let events = mcpart::obs::decode_chrome_trace(&text).expect("trace parses").events;
    assert!(events.iter().any(|e| e.kind == EventKind::Span), "trace has no spans");
    for label in ["gdp/cut", "rhop/estimator_calls", "sim/cycles"] {
        let counter = |e: &Event| e.label() == label && matches!(e.kind, EventKind::Counter(_));
        assert!(events.iter().any(counter), "trace missing counter {label}");
    }

    // The bundled validator agrees, and enforces required counters.
    let (stdout, _, ok) = mcpart(&["trace-check", path_str, "--require", "gdp/cut,sim/cycles"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ok ("), "{stdout}");
    let (stderr, code) = mcpart_code(&["trace-check", path_str, "--require", "no/such"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("missing required counter"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_check_rejects_malformed_traces() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bogus_trace.json");
    std::fs::write(&path, "{\"traceEvents\":[{\"ph\":\"X\"}]}").unwrap();
    let (stderr, code) = mcpart_code(&["trace-check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid trace"), "{stderr}");
    std::fs::remove_file(&path).ok();
    let (stderr, code) = mcpart_code(&["trace-check"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
}

/// Unknown top-level keys are forward-compatibility territory:
/// trace-check warns on stderr but still exits 0. The supervision
/// counters (`supervise/retries`, `supervise/quarantined`) are emitted
/// on every metrics run, so they are part of the `--require`
/// vocabulary.
#[test]
fn trace_check_warns_on_unknown_top_level_keys_and_requires_supervision_counters() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("future_trace.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = mcpart(&["run", "fir", "--trace-out", path_str]);
    assert!(ok, "stderr: {stderr}");
    // A newer producer added a top-level section this build does not
    // know about.
    let text = std::fs::read_to_string(&path).expect("trace written");
    let future = text.replacen('{', "{\"futureExtension\":{\"v\":2},", 1);
    std::fs::write(&path, future).unwrap();
    let (stdout, stderr, ok) = mcpart(&["trace-check", path_str]);
    assert!(ok, "unknown keys must not fail validation: {stderr}");
    assert!(stdout.contains("ok ("), "{stdout}");
    assert!(
        stderr.contains("warning") && stderr.contains("futureExtension"),
        "no warning for the unknown key: {stderr}"
    );
    let (_, stderr, ok) =
        mcpart(&["trace-check", path_str, "--require", "supervise/retries,supervise/quarantined"]);
    assert!(ok, "supervision counters missing from the trace: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, stderr, ok) = mcpart(&["run", "not-a-benchmark"]);
    assert!(!ok);
    assert!(stderr.contains("neither a known benchmark"), "{stderr}");
    let (_, stderr, ok) = mcpart(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn usage_errors_exit_2_with_usage_on_stderr() {
    for args in [
        &["run", "fir", "--method", "quantum"][..],
        &["run", "fir", "--latency", "fast"],
        &["run", "fir", "--clusters", "0"],
        &["compare", "fir", "--gdp-fuel", "lots"],
        &["frobnicate"],
        &[],
    ] {
        let (stderr, code) = mcpart_code(args);
        assert_eq!(code, Some(2), "args {args:?}\nstderr: {stderr}");
        assert!(stderr.contains("usage:"), "args {args:?}\nstderr: {stderr}");
    }
}

#[test]
fn runtime_failures_exit_1_without_usage_spam() {
    for args in [
        &["run", "not-a-benchmark"][..],
        &["exec", "/nonexistent/program.mcir"],
        &["dump", "also-not-a-benchmark"],
    ] {
        let (stderr, code) = mcpart_code(args);
        assert_eq!(code, Some(1), "args {args:?}\nstderr: {stderr}");
        assert!(stderr.starts_with("error:"), "args {args:?}\nstderr: {stderr}");
        assert!(!stderr.contains("usage:"), "args {args:?}\nstderr: {stderr}");
    }
}

#[test]
fn success_exits_0() {
    let (stderr, code) = mcpart_code(&["list"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn trace_check_value_assertions_and_forbid() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("value_trace.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = mcpart(&["run", "fir", "--trace-out", path_str]);
    assert!(ok, "stderr: {stderr}");

    // A clean run: the supervision counters end at zero, and neither
    // ever carried a nonzero sample.
    let (stdout, stderr, ok) = mcpart(&[
        "trace-check",
        path_str,
        "--require",
        "supervise/retries=0,supervise/quarantined=0",
        "--forbid",
        "supervise/retries,supervise/quarantined",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");

    // A wrong expected value fails with both values in the message.
    let (stderr, code) = mcpart_code(&["trace-check", path_str, "--require", "sim/cycles=1"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("expected 1"), "{stderr}");

    // Forbidding a counter that did fire fails.
    let (stderr, code) = mcpart_code(&["trace-check", path_str, "--forbid", "sim/cycles"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("forbidden counter"), "{stderr}");

    // A non-integer value is a usage error, not a runtime one.
    let (stderr, code) = mcpart_code(&["trace-check", path_str, "--require", "sim/cycles=fast"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn stats_renders_percentiles_from_a_trace() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stats_trace.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = mcpart(&["run", "fir", "--trace-out", path_str]);
    assert!(ok, "stderr: {stderr}");

    let (stdout, stderr, ok) = mcpart(&["stats", path_str]);
    assert!(ok, "stderr: {stderr}");
    for needle in ["p50", "p90", "p99", "pipeline/", "rhop/estimator_calls", "gdp/cut"] {
        assert!(stdout.contains(needle), "stats output missing {needle}:\n{stdout}");
    }

    // --pinned prints only the deterministic work histograms as JSON.
    let (pinned, stderr, ok) = mcpart(&["stats", path_str, "--pinned"]);
    assert!(ok, "stderr: {stderr}");
    assert!(pinned.contains("\"gdp/cut\""), "{pinned}");
    assert!(!pinned.contains("p50"), "--pinned must print JSON, not the table: {pinned}");
    std::fs::remove_file(&path).ok();

    // Missing path is a usage error; unreadable path a runtime one.
    let (_, code) = mcpart_code(&["stats"]);
    assert_eq!(code, Some(2));
    let (_, code) = mcpart_code(&["stats", "/nonexistent/trace.json"]);
    assert_eq!(code, Some(1));
}

/// A trace with an unknown top-level key decodes with a warning, and
/// `stats` prints the same warning line `trace-check` does, both still
/// succeeding.
#[test]
fn stats_and_trace_check_warn_alike_on_unknown_keys() {
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("future_trace.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = mcpart(&["run", "fir", "--trace-out", path_str]);
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let text = text.replacen('{', "{\"futureExtension\": 1, ", 1);
    std::fs::write(&path, text).unwrap();
    let warnings = |stderr: &str| -> Vec<String> {
        stderr.lines().filter(|l| l.starts_with("warning:")).map(str::to_string).collect()
    };
    let (_, check_stderr, ok) = mcpart(&["trace-check", path_str]);
    assert!(ok, "stderr: {check_stderr}");
    let (_, stats_stderr, ok) = mcpart(&["stats", path_str]);
    assert!(ok, "stderr: {stats_stderr}");
    let expected = warnings(&check_stderr);
    assert_eq!(expected.len(), 1, "{check_stderr}");
    assert!(expected[0].contains("futureExtension"), "{check_stderr}");
    assert_eq!(warnings(&stats_stderr), expected);
    std::fs::remove_file(&path).ok();
}

/// Fresh vs crash-and-resume must agree on the pinned histograms: a
/// resumed run replays recorded pinned events, so the derived metrics
/// are byte-identical to an uninterrupted run's.
#[test]
fn stats_pinned_payload_is_identical_fresh_vs_resume() {
    let dir = std::env::temp_dir().join("mcpart_cli_stats_resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.jsonl");
    let fresh = dir.join("fresh.json");
    let resumed = dir.join("resumed.json");

    let (_, stderr, ok) = mcpart(&["compare", "fir", "--trace-out", fresh.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");

    // Die mid-append after two of the four units, then resume. The
    // obs sink must be on (--metrics) so the surviving checkpoint
    // records carry their pinned events for replay.
    let (_, code) = mcpart_code(&[
        "compare",
        "fir",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--metrics",
        "--fault",
        "halt:1",
    ]);
    assert_ne!(code, Some(0), "--fault halt must abort");
    let (_, stderr, ok) = mcpart(&[
        "compare",
        "fir",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--resume",
        "--trace-out",
        resumed.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");

    let (a, stderr, ok) = mcpart(&["stats", fresh.to_str().unwrap(), "--pinned"]);
    assert!(ok, "stderr: {stderr}");
    let (b, stderr, ok) = mcpart(&["stats", resumed.to_str().unwrap(), "--pinned"]);
    assert!(ok, "stderr: {stderr}");
    assert!(!a.trim().is_empty());
    assert_eq!(a, b, "pinned histograms differ between fresh and resumed runs");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--fault halt:<n>` means one thing on every surface: commit n
/// records, then tear the next one and die. Here n = 1 for a
/// checkpointed `compare`, a `serve` spool and chaos's in-memory check.
#[test]
fn halt_commits_the_same_record_count_everywhere() {
    let dir = std::env::temp_dir().join(format!("mcpart_cli_halt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let ck = dir.join("ck.jsonl");
    let (_, code) =
        mcpart_code(&["compare", "fir", "--checkpoint", ck.to_str().unwrap(), "--fault", "halt:1"]);
    assert_ne!(code, Some(0), "the halted compare must die");
    let loaded = mcpart::core::load_checkpoint_any(ck.to_str().unwrap()).expect("crash artifact");
    assert_eq!(loaded.records.len(), 1, "compare committed {} records", loaded.records.len());
    assert!(loaded.dropped_partial_tail, "compare left no torn record");

    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    for p in ["fir", "latnrm", "rawcaudio"] {
        let job = format!("{{\"mcpart_job\":1,\"program\":\"{p}\"}}");
        std::fs::write(spool.join(format!("{p}.job")), job).unwrap();
    }
    let (_, code) =
        mcpart_code(&["serve", spool.to_str().unwrap(), "--drain", "--fault", "halt:1"]);
    assert_ne!(code, Some(0), "the halted serve must die");
    let out: Vec<String> = std::fs::read_dir(spool.join("out"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let committed = out.iter().filter(|n| n.ends_with(".json")).count();
    assert_eq!(committed, 1, "serve committed {committed} results: {out:?}");
    assert_eq!(out.len(), 2, "serve left no torn result: {out:?}");

    let scenario = mcpart::core::JobSpec::parse_repro("target = fir\nfaults = halt:1\n").unwrap();
    let cfg = mcpart::core::ChaosConfig::new(1, 0);
    let result = mcpart::core::run_scenario(&scenario, &cfg).expect("scenario runs");
    assert_eq!(result.verdict, mcpart::core::ScenarioVerdict::Pass, "{}", result.detail);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exec_runtime_failure_reports_execution_error() {
    // A structurally valid program that divides by zero: the CLI must
    // report the execution failure with exit 1, not unwind.
    let text = "\
program crashy
entry fn0
func main() {
bb0 (entry):
  op0: v0 = iconst 1
  op1: v1 = iconst 0
  op2: v2 = div v0, v1
  -> return v2
}
";
    let dir = std::env::temp_dir().join("mcpart_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crashy.mcir");
    std::fs::write(&path, text).unwrap();
    let (stderr, code) = mcpart_code(&["exec", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.contains("execution failed"), "{stderr}");
    assert!(stderr.contains("division by zero"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

/// How one command line of the flag-surface table must end.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Exit {
    /// Exit 0.
    Ok,
    /// Exit 1: the inputs or the pipeline failed.
    Runtime,
    /// Exit 2 with the usage text on stderr: the command line is malformed.
    Usage,
    /// Exit 2 without the usage text: a file named on the command line is
    /// unusable.
    Config,
}

/// Pins every subcommand's flag surface: each accepted flag with a valid
/// value, each value flag with its value missing or malformed, unknown
/// flags and flags that belong to another subcommand. `{dir}` expands to
/// a fresh directory per row; `{trace}`, `{base}`, `{sweep}` and
/// `{repro}` name shared fixtures.
#[test]
fn flag_surface_of_every_subcommand() {
    use Exit::*;
    let root = std::env::temp_dir().join(format!("mcpart_cli_flags_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let fixture = |name: &str| root.join(name).to_str().unwrap().to_string();
    let (trace, base) = (fixture("trace.json"), fixture("base.ck"));
    let (_, stderr, ok) = mcpart(&["run", "fir", "--trace-out", &trace, "--checkpoint", &base]);
    assert!(ok, "fixture run failed: {stderr}");
    let sweep = fixture("sweep.txt");
    std::fs::write(&sweep, "clusters = [2]\nmemory = [\"unified\"]\n").unwrap();
    let repro = fixture("fir.repro");
    std::fs::write(
        &repro,
        "target = fir\nmachine = clusters=2\nmethod = gdp\nfaults = none\nseed = 1\n",
    )
    .unwrap();

    let rows: &[(&str, Exit)] = &[
        // run: every run option, then missing, malformed and foreign flags.
        ("run fir --latency 1", Ok),
        ("run fir --clusters 4", Ok),
        ("run fir --method naive", Ok),
        ("run fir --method PM", Ok),
        ("run fir --memory unified", Ok),
        ("run fir --memory coherent:3", Ok),
        ("run fir --gdp-fuel 0", Ok),
        ("run fir --jobs 2", Ok),
        ("run fir --trace-out {dir}/t.json", Ok),
        ("run fir --metrics", Ok),
        ("run fir --retries 0", Ok),
        ("run fir --checkpoint {dir}/ck", Ok),
        ("run fir --checkpoint {dir}/ck --resume", Ok),
        ("run fir --unit-timeout 60000", Ok),
        ("run fir --allow-quarantine", Ok),
        ("run fir --fault panic:nosuchx1", Ok),
        ("run fir --fault panic:main --allow-quarantine", Ok),
        ("run fir --fault panic:main", Runtime),
        ("run fir --fault panic:#0", Runtime),
        ("run fir --checkpoint {dir}/ck --fault halt:3", Ok),
        // A checkpoint cannot record a run under an injected panic.
        ("run fir --checkpoint {dir}/ck --fault panic:mainx1+halt:1", Usage),
        ("run fir --latency", Usage),
        ("run fir --clusters", Usage),
        ("run fir --method", Usage),
        ("run fir --memory", Usage),
        ("run fir --gdp-fuel", Usage),
        ("run fir --jobs", Usage),
        ("run fir --trace-out", Usage),
        ("run fir --retries", Usage),
        ("run fir --checkpoint", Usage),
        ("run fir --unit-timeout", Usage),
        ("run fir --fault", Usage),
        ("run fir --latency fast", Usage),
        ("run fir --latency -1", Usage),
        ("run fir --clusters 0", Usage),
        ("run fir --clusters 65536", Usage),
        ("run fir --method quantum", Usage),
        ("run fir --memory ram", Usage),
        ("run fir --memory coherent:x", Usage),
        ("run fir --gdp-fuel lots", Usage),
        ("run fir --jobs many", Usage),
        ("run fir --retries x", Usage),
        ("run fir --unit-timeout 0", Usage),
        ("run fir --fault halt:0", Usage),
        ("run fir --fault fuel:3", Usage),
        ("run fir --fault misplace", Usage),
        ("run fir --fault panic:", Usage),
        ("run fir --fault warp:1", Usage),
        ("run fir --resume", Usage),
        ("run fir --bogus", Usage),
        ("run fir --drain", Usage),
        ("run fir --baseline {base}", Usage),
        ("run fir --seed 1", Usage),
        ("run fir --out x", Usage),
        ("run fir --pinned", Usage),
        ("run fir --batch 2", Usage),
        ("run fir --threshold 5", Usage),
        ("run fir --require gdp/cut", Usage),
        ("run", Usage),
        // exec, compare, schedule and partition share run's options.
        ("exec fir --method naive", Ok),
        ("exec fir --latency", Usage),
        ("exec fir --bogus", Usage),
        ("exec", Usage),
        ("compare fir --clusters 4", Ok),
        ("compare fir --checkpoint {dir}/ck", Ok),
        ("compare fir --checkpoint {dir}/ck --fault halt:9", Ok),
        ("compare fir --fault halt:1", Usage),
        ("compare fir --gdp-fuel", Usage),
        ("compare fir --memory", Usage),
        ("compare fir --drain", Usage),
        ("compare", Usage),
        ("schedule fir --method unified", Ok),
        ("schedule fir --fault panic:main --allow-quarantine", Ok),
        ("schedule fir --fault panic:main", Runtime),
        ("schedule fir --checkpoint {dir}/ck", Usage),
        ("schedule fir --checkpoint {dir}/ck --resume", Usage),
        ("schedule fir --checkpoint {dir}/ck --fault halt:1", Usage),
        ("schedule fir --jobs", Usage),
        ("schedule fir --bogus", Usage),
        ("schedule", Usage),
        ("partition fir --jobs 1 --metrics", Ok),
        ("partition fir --clusters 4 --latency 1 --memory unified", Ok),
        ("partition fir --retries 5", Usage),
        ("partition fir --method naive", Usage),
        ("partition fir --gdp-fuel 0", Usage),
        ("partition fir --fault panic:main", Usage),
        ("partition fir --checkpoint {dir}/p.ck", Usage),
        ("partition fir --allow-quarantine", Usage),
        ("partition fir --method", Usage),
        ("partition fir --seed 1", Usage),
        ("partition", Usage),
        // repartition: run's options plus --baseline.
        ("repartition fir --baseline {base}", Ok),
        ("repartition fir --jobs 2 --baseline {base} --metrics", Ok),
        ("repartition fir --baseline {base} --latency 1", Config),
        ("repartition fir --baseline {base} --fault panic:nosuch", Ok),
        ("repartition fir", Usage),
        ("repartition fir --baseline", Usage),
        ("repartition fir --baseline {base} --method naive", Usage),
        ("repartition fir --baseline {base} --bogus", Usage),
        ("repartition fir --baseline {base} --drain", Usage),
        ("repartition", Usage),
        // gen
        ("gen ops=2000", Ok),
        ("gen ops=2000 --out {dir}/g.mcir", Ok),
        ("gen ops=2000 --out", Usage),
        ("gen ops=2000 --bogus", Usage),
        ("gen ops=2000 --metrics", Usage),
        ("gen ops=x", Usage),
        ("gen", Usage),
        // serve, always on an empty spool with --drain.
        ("serve {dir} --drain", Ok),
        ("serve {dir} --drain --jobs 1", Ok),
        ("serve {dir} --drain --batch 2", Ok),
        ("serve {dir} --drain --queue 3", Ok),
        ("serve {dir} --drain --poll-ms 5", Ok),
        ("serve {dir} --drain --retries 1", Ok),
        ("serve {dir} --drain --unit-timeout 100", Ok),
        ("serve {dir} --drain --fault halt:0", Ok),
        ("serve {dir} --drain --telemetry-every 0", Ok),
        ("serve {dir} --drain --max-requeues 1", Ok),
        ("serve {dir} --drain --trace-out {dir}/t.json", Ok),
        ("serve {dir} --drain --metrics", Ok),
        ("serve {dir} --drain --jobs", Usage),
        ("serve {dir} --drain --jobs x", Usage),
        ("serve {dir} --drain --batch 0", Usage),
        ("serve {dir} --drain --queue 0", Usage),
        ("serve {dir} --drain --poll-ms x", Usage),
        ("serve {dir} --drain --retries x", Usage),
        ("serve {dir} --drain --unit-timeout 0", Usage),
        ("serve {dir} --drain --fault halt:x", Usage),
        ("serve {dir} --drain --fault panic:main", Usage),
        ("serve {dir} --drain --telemetry-every x", Usage),
        ("serve {dir} --drain --max-requeues x", Usage),
        ("serve {dir} --drain --trace-out", Usage),
        ("serve {dir} --drain --bogus", Usage),
        ("serve {dir} --drain --method gdp", Usage),
        ("serve {dir} --drain --checkpoint x", Usage),
        ("serve {dir} --drain --resume", Usage),
        ("serve {dir} --drain --allow-quarantine", Usage),
        ("serve", Usage),
        // chaos
        ("chaos 1", Ok),
        ("chaos 1 --seed 7", Ok),
        ("chaos --seed 7 1", Ok),
        ("chaos 1 --shrink", Ok),
        ("chaos 1 --no-shrink", Ok),
        ("chaos 1 --corpus {dir}/c", Ok),
        ("chaos 1 --sweep {sweep}", Ok),
        ("chaos 1 --jobs 1", Ok),
        ("chaos 1 --trace-out {dir}/t.json", Ok),
        ("chaos 1 --metrics", Ok),
        ("chaos --replay {repro}", Ok),
        ("chaos --replay {repro} --metrics", Ok),
        ("chaos 1 --fault misplace --no-shrink", Runtime),
        ("chaos 1 --fault fuel:3+halt:1", Ok),
        ("chaos --replay {repro} --fault misplace", Usage),
        ("chaos", Usage),
        ("chaos many", Usage),
        ("chaos 1 2", Usage),
        ("chaos -1", Usage),
        ("chaos 1 --seed", Usage),
        ("chaos 1 --seed x", Usage),
        ("chaos 1 --jobs x", Usage),
        ("chaos 1 --corpus", Usage),
        ("chaos 1 --sweep", Usage),
        ("chaos 1 --replay", Usage),
        ("chaos 1 --trace-out", Usage),
        ("chaos 1 --retries 2", Usage),
        ("chaos 1 --unit-timeout 5", Usage),
        ("chaos 1 --fault", Usage),
        ("chaos 1 --fault warp:1", Usage),
        ("chaos 1 --bogus", Usage),
        // trace-check
        ("trace-check {trace}", Ok),
        ("trace-check {trace} --require gdp/cut", Ok),
        ("trace-check {trace} --require sim/cycles=1", Runtime),
        ("trace-check {trace} --forbid supervise/quarantined", Ok),
        ("trace-check {trace} --require", Usage),
        ("trace-check {trace} --forbid", Usage),
        ("trace-check {trace} --require gdp/cut=x", Usage),
        ("trace-check {trace} --bogus", Usage),
        ("trace-check {trace} --metrics", Usage),
        ("trace-check", Usage),
        // stats
        ("stats {trace}", Ok),
        ("stats {trace} --pinned", Ok),
        ("stats {trace} --bogus", Usage),
        ("stats {trace} --metrics", Usage),
        ("stats", Usage),
        // checkpoint-diff, dump and list take no flags.
        ("checkpoint-diff {base} {base}", Ok),
        ("checkpoint-diff {base}", Usage),
        ("dump fir", Ok),
        ("dump", Usage),
        ("list", Ok),
    ];

    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(line, want)) = rows.get(i) else { break };
                let dir = root.join(format!("row{i}"));
                std::fs::create_dir_all(&dir).unwrap();
                let line = line
                    .replace("{dir}", dir.to_str().unwrap())
                    .replace("{trace}", &trace)
                    .replace("{base}", &base)
                    .replace("{sweep}", &sweep)
                    .replace("{repro}", &repro);
                let args: Vec<&str> = line.split_whitespace().collect();
                let (stderr, code) = mcpart_code(&args);
                let got = match code {
                    Some(0) => Ok,
                    Some(1) => Runtime,
                    Some(2) if stderr.contains("usage:") => Usage,
                    Some(2) => Config,
                    _ => {
                        failures.lock().unwrap().push(format!("`{line}`: exit {code:?}"));
                        continue;
                    }
                };
                if got != want {
                    failures
                        .lock()
                        .unwrap()
                        .push(format!("`{line}`: {got:?}, expected {want:?}\n{stderr}"));
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{} row(s) changed:\n{}", failures.len(), failures.join("\n"));
    // The refusal comes before any file is created.
    let refused = rows.iter().position(|(line, _)| line.contains("--fault panic:mainx1+halt:1"));
    let ck = root.join(format!("row{}", refused.expect("row present"))).join("ck");
    assert!(!ck.exists(), "refused run wrote {}", ck.display());
    std::fs::remove_dir_all(&root).ok();
}
