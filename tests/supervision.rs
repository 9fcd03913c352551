//! Acceptance tests for the crash-only supervision layer: panic
//! isolation with quarantine-and-retry, the degradation ladder under
//! injected method faults, and checkpoint/resume byte-identity after a
//! simulated (and a real) mid-run kill — at every `--jobs` count.

use mcpart::core::{run_pipeline, Method, PipelineConfig};
use mcpart::machine::Machine;
use std::io::Read;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcpart"))
}

fn mcpart_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = bin().args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mcpart_supervision");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Acceptance: an injected panic in one function still yields a
/// completed run with that unit quarantined — exit 0 with
/// `--allow-quarantine`, exit 1 without it.
#[test]
fn injected_panic_quarantines_with_the_documented_exit_codes() {
    let (_, stderr, code) = mcpart_cli(&["run", "rawcaudio", "--fault", "panic:main"]);
    assert_eq!(code, Some(1), "quarantine without --allow-quarantine is a failure\n{stderr}");
    assert!(stderr.contains("quarantined `main`"), "no quarantine warning in `{stderr}`");
    assert!(stderr.contains("injected fault"), "no panic payload in `{stderr}`");

    let (stdout, stderr, code) = mcpart_cli(&[
        "run",
        "rawcaudio",
        "--fault",
        "panic:main",
        "--allow-quarantine",
        "--metrics",
    ]);
    assert_eq!(code, Some(0), "--allow-quarantine must exit 0\n{stderr}");
    assert!(stdout.contains("quarantine report: 1 unit(s)"), "no report in:\n{stdout}");
    assert!(stdout.contains("main (3 attempts)"), "attempt count missing in:\n{stdout}");
    // The run still completed: the quarantined function keeps the
    // cluster-0 fallback placement, so the report has real cycle counts.
    assert!(stdout.contains("cycles"), "run did not complete:\n{stdout}");
}

/// A panic that clears on retry must converge to the exact result of a
/// clean run: retry decisions are pure functions of (unit, attempt), so
/// the recovered placement, move insertion, and cycle counts are the
/// ones the clean run computes — only the retry counter records that
/// anything happened.
#[test]
fn retry_then_succeed_matches_a_clean_run() {
    let w = mcpart::workloads::by_name("rawcaudio").expect("known benchmark");
    let machine = Machine::paper_2cluster(5);
    let clean = run_pipeline(&w.program, &w.profile, &machine, &PipelineConfig::new(Method::Gdp))
        .expect("clean pipeline");
    let mut cfg = PipelineConfig::new(Method::Gdp);
    cfg.rhop.faults = "panic:mainx1".parse().expect("plan");
    let retried = run_pipeline(&w.program, &w.profile, &machine, &cfg).expect("retry recovers");
    assert_eq!(retried.rhop_stats.retries, 1, "exactly one retry was injected");
    assert!(retried.quarantine().is_empty(), "a clearing panic must not quarantine");
    assert!(retried.downgrades.is_empty(), "a unit retry must not engage the method ladder");
    assert_eq!(clean.placement, retried.placement, "retry changed the placement");
    assert_eq!(clean.cycles(), retried.cycles());
    assert_eq!(clean.report.dynamic_moves, retried.report.dynamic_moves);

    // Same through the CLI: one retryable panic, exit 0, no quarantine.
    let (_, stderr, code) = mcpart_cli(&["run", "rawcaudio", "--fault", "panic:mainx1"]);
    assert_eq!(code, Some(0), "retry did not recover: {stderr}");
    assert!(!stderr.contains("quarantined"), "one retryable panic must not quarantine: {stderr}");
}

/// Acceptance: a run killed mid-flight resumes via `--resume` to
/// byte-identical stdout (placements, downgrade records, metrics) and a
/// structurally identical checkpoint — at `--jobs 1` and `--jobs 4`.
/// The kill is simulated deterministically by truncating the finished
/// checkpoint to a prefix plus a half-written trailing record, which is
/// exactly the on-disk state SIGKILL leaves behind.
#[test]
fn truncated_checkpoint_resumes_byte_identical_at_every_jobs_count() {
    let clean = tmp("ck_resume_clean.json");
    std::fs::remove_file(&clean).ok();
    let (clean_out, stderr, code) =
        mcpart_cli(&["compare", "rawcaudio", "--checkpoint", clean.to_str().unwrap()]);
    assert_eq!(code, Some(0), "clean compare failed: {stderr}");
    let full = std::fs::read_to_string(&clean).expect("checkpoint written");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 3, "expected header + records, got:\n{full}");

    for jobs in ["1", "4"] {
        for keep in 1..lines.len() {
            let killed = tmp(&format!("ck_resume_killed_{jobs}_{keep}.json"));
            // Prefix of complete records plus an unterminated partial
            // line: the crash artifact `--resume` must tolerate.
            let mut partial = lines[..keep].join("\n");
            partial.push('\n');
            partial.push_str(&lines[keep][..lines[keep].len() / 2]);
            std::fs::write(&killed, partial).expect("write truncated checkpoint");

            let (stdout, stderr, code) = mcpart_cli(&[
                "compare",
                "rawcaudio",
                "--checkpoint",
                killed.to_str().unwrap(),
                "--resume",
                "--jobs",
                jobs,
            ]);
            assert_eq!(code, Some(0), "resume failed (jobs={jobs}, keep={keep}): {stderr}");
            assert!(
                stderr.contains("partial trailing record"),
                "crash artifact not reported (jobs={jobs}, keep={keep}): {stderr}"
            );
            assert_eq!(stdout, clean_out, "resumed stdout diverged (jobs={jobs}, keep={keep})");
            let (stdout, stderr, code) =
                mcpart_cli(&["checkpoint-diff", clean.to_str().unwrap(), killed.to_str().unwrap()]);
            assert_eq!(code, Some(0), "jobs={jobs}, keep={keep}: {stderr}");
            assert!(stdout.contains("checkpoints match"), "{stdout}");
            std::fs::remove_file(&killed).ok();
        }
    }
}

/// The same contract under a real SIGKILL: start a run, kill the
/// process hard, resume whatever checkpoint prefix survived. Timing
/// decides how many units the first process finished (possibly all of
/// them); either way the resumed run must complete and match the clean
/// checkpoint.
#[cfg(unix)]
#[test]
fn sigkilled_run_resumes_to_the_clean_result() {
    let clean = tmp("ck_sigkill_clean.json");
    let killed = tmp("ck_sigkill.json");
    for p in [&clean, &killed] {
        std::fs::remove_file(p).ok();
    }
    let (_, stderr, code) =
        mcpart_cli(&["compare", "rawcaudio", "--checkpoint", clean.to_str().unwrap()]);
    assert_eq!(code, Some(0), "clean compare failed: {stderr}");

    let mut child = bin()
        .args(["compare", "rawcaudio", "--checkpoint", killed.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    // Let it make some progress, then kill without any chance to clean
    // up. SIGKILL (via Child::kill) is uncatchable, so whatever is on
    // disk is an honest crash artifact.
    std::thread::sleep(std::time::Duration::from_millis(30));
    child.kill().ok();
    let status = child.wait().expect("wait");
    if status.success() {
        // The run won the race; its checkpoint is already complete.
        // Truncate it so the resume below still has work to do.
        let full = std::fs::read_to_string(&killed).expect("checkpoint");
        let lines: Vec<&str> = full.lines().collect();
        std::fs::write(&killed, lines[..2.min(lines.len())].join("\n") + "\n").expect("truncate");
    } else if let Some(mut err) = child.stderr.take() {
        let mut s = String::new();
        err.read_to_string(&mut s).ok();
        assert!(!s.contains("panicked"), "killed process panicked first: {s}");
    }

    let (_, stderr, code) =
        mcpart_cli(&["compare", "rawcaudio", "--checkpoint", killed.to_str().unwrap(), "--resume"]);
    assert_eq!(code, Some(0), "resume after SIGKILL failed: {stderr}");
    let (stdout, stderr, code) =
        mcpart_cli(&["checkpoint-diff", clean.to_str().unwrap(), killed.to_str().unwrap()]);
    assert_eq!(code, Some(0), "resumed checkpoint diverged: {stderr}");
    assert!(stdout.contains("checkpoints match"), "{stdout}");
}

/// `--resume` without `--checkpoint` is a usage error (exit 2).
#[test]
fn resume_requires_a_checkpoint_path() {
    let (_, stderr, code) = mcpart_cli(&["compare", "rawcaudio", "--resume"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--checkpoint"), "unhelpful diagnostic: {stderr}");
}

/// A checkpoint recorded under one configuration refuses to resume a
/// run with different options: the header pins workload, seed, and
/// machine configuration, and a mismatch is a config error (exit 2),
/// not silent wrong answers.
#[test]
fn resume_rejects_a_mismatched_header() {
    let ck = tmp("ck_mismatch.json");
    std::fs::remove_file(&ck).ok();
    let (_, stderr, code) =
        mcpart_cli(&["compare", "rawcaudio", "--checkpoint", ck.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    for extra in [["--latency", "9"], ["--clusters", "4"], ["--memory", "unified"]] {
        let mut args =
            vec!["compare", "rawcaudio", "--checkpoint", ck.to_str().unwrap(), "--resume"];
        args.extend_from_slice(&extra);
        let (_, stderr, code) = mcpart_cli(&args);
        assert_eq!(code, Some(2), "{extra:?} must be a config error: {stderr}");
        assert!(stderr.contains("mismatch"), "{extra:?}: {stderr}");
    }
    // And a different workload trips the program/hash check.
    let (_, stderr, code) =
        mcpart_cli(&["compare", "fir", "--checkpoint", ck.to_str().unwrap(), "--resume"]);
    assert_eq!(code, Some(2), "workload mismatch must be a config error: {stderr}");
    assert!(stderr.contains("mismatch"), "{stderr}");
}

/// Satellite: a unit whose GDP attempt panics twice walks the full
/// degradation ladder — requested GDP, final method Naive, with two
/// downgrade records whose reasons carry the panic payloads.
#[test]
fn ladder_under_retry_lands_on_naive_with_two_downgrades() {
    let w = mcpart::workloads::by_name("rawcaudio").expect("known benchmark");
    let machine = Machine::paper_2cluster(5);
    let mut cfg = PipelineConfig::new(Method::Gdp);
    cfg.fault_methods = vec![Method::Gdp, Method::ProfileMax];
    let run = run_pipeline(&w.program, &w.profile, &machine, &cfg).expect("ladder recovers");
    assert_eq!(run.requested_method, Method::Gdp);
    assert_eq!(run.method, Method::Naive);
    assert_eq!(run.downgrades.len(), 2, "{:?}", run.downgrades);
    assert_eq!(run.downgrades[0].from, Method::Gdp);
    assert_eq!(run.downgrades[0].to, Method::ProfileMax);
    assert_eq!(run.downgrades[1].from, Method::ProfileMax);
    assert_eq!(run.downgrades[1].to, Method::Naive);
    for d in &run.downgrades {
        assert!(d.reason.contains("injected fault"), "reason lost the payload: {}", d.reason);
        assert!(d.reason.contains("panic"), "reason does not name the panic: {}", d.reason);
    }
    assert!(run.cycles() > 0);
}

/// The retry budget is respected: with `retries = 0` the ladder is
/// disabled and the panic surfaces as a typed worker-panic error.
#[test]
fn zero_retries_turns_the_panic_into_a_typed_error() {
    let w = mcpart::workloads::by_name("rawcaudio").expect("known benchmark");
    let machine = Machine::paper_2cluster(5);
    let mut cfg = PipelineConfig::new(Method::Gdp).with_retries(0);
    cfg.fault_methods = vec![Method::Gdp];
    let e = run_pipeline(&w.program, &w.profile, &machine, &cfg)
        .expect_err("no retries means no ladder");
    assert_eq!(e.stage, mcpart::core::Stage::Supervision, "{e}");
    assert!(e.to_string().contains("injected fault"), "{e}");
}
