//! Acceptance tests for `mcpart serve`: the resilient partition
//! service. Each test drives the real binary over a private spool
//! directory and asserts on the on-disk artifacts, because the
//! service's contract *is* its file-system protocol.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh private spool directory for one test.
fn spool(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpart_serve_test_{test}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create spool");
    dir
}

/// Drops a job file into the spool.
fn submit(dir: &Path, name: &str, body: &str) {
    fs::write(dir.join(format!("{name}.job")), body).expect("write job");
}

fn job(program: &str) -> String {
    format!("{{\"mcpart_job\":1,\"program\":\"{program}\"}}")
}

/// Runs `mcpart serve <dir> <args...>` to completion.
fn serve(dir: &Path, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .arg("serve")
        .arg(dir)
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn result_of(dir: &Path, name: &str) -> String {
    fs::read_to_string(dir.join("out").join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("missing result for {name}: {e}"))
}

fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    v.sort();
    v
}

/// Acceptance (a): resubmitting an identical job is a verified cache
/// hit with byte-identical output.
#[test]
fn resubmission_is_a_verified_cache_hit_with_byte_identical_output() {
    let dir = spool("cache_hit");
    submit(&dir, "fir", &job("fir"));
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("job fir: ok (computed)"), "{stdout}");
    let first = result_of(&dir, "fir");
    assert_eq!(cache_entries(&dir).len(), 1, "one artifact cached");

    submit(&dir, "fir", &job("fir"));
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("job fir: ok (cache hit)"), "{stdout}");
    assert!(stdout.contains("cache_hits=1"), "{stdout}");
    let second = result_of(&dir, "fir");
    assert_eq!(first, second, "cache hit must rewrite byte-identical output");
}

/// Acceptance (b): a corrupted cache entry is detected, evicted, and
/// recomputed — never served. The full corruption corpus (truncation
/// sweep, bit flips, headerless files) lives in `tests/pipeline_fuzz.rs`.
#[test]
fn corrupted_cache_entry_is_evicted_and_recomputed() {
    let dir = spool("cache_evict");
    submit(&dir, "fir", &job("fir"));
    let (_, _, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0));
    let baseline = result_of(&dir, "fir");
    let entry = cache_entries(&dir).pop().expect("entry exists");
    let pristine = fs::read(&entry).expect("read entry");

    // Flip one bit in the middle of the record line.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(&entry, &bytes).expect("corrupt entry");

    submit(&dir, "fir", &job("fir"));
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("cache entry evicted"), "corruption not detected: {stdout}");
    assert!(stdout.contains("cache_evictions=1"), "{stdout}");
    assert!(!stdout.contains("cache hit"), "served a corrupt entry: {stdout}");
    assert_eq!(result_of(&dir, "fir"), baseline, "recompute must be byte-identical");

    // The healed entry verifies again (entries carry one non-pinned
    // wall-clock field, so byte-equality with the original is not
    // expected): the next submission is a verified hit.
    let healed = fs::read(cache_entries(&dir).pop().expect("rewritten")).expect("read");
    assert_ne!(healed, bytes, "corrupt bytes were left in place");
    submit(&dir, "fir", &job("fir"));
    let (stdout, _, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("cache hit"), "{stdout}");
}

/// Acceptance (c): a crash mid-batch (the `--fault halt:1` hook aborts
/// the process with one output half-written and claimed jobs still in
/// `work/` — the state kill -9 leaves) followed by a restart drains
/// all spooled jobs with outputs byte-identical to an uninterrupted
/// run.
#[test]
fn crash_mid_batch_then_restart_drains_byte_identical_outputs() {
    let programs = ["fir", "latnrm", "rawcaudio"];

    let clean = spool("crash_clean");
    for p in &programs {
        submit(&clean, p, &job(p));
    }
    let (_, stderr, code) = serve(&clean, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");

    let crashed = spool("crash_killed");
    for p in &programs {
        submit(&crashed, p, &job(p));
    }
    let (stdout, _, code) = serve(&crashed, &["--drain", "--fault", "halt:1"]);
    assert_ne!(code, Some(0), "the halted run must die: {stdout}");
    // The crash left tolerated artifacts only: claimed jobs and a
    // half-written output.
    let work: Vec<_> = fs::read_dir(crashed.join("work")).expect("work dir").collect();
    assert!(!work.is_empty(), "no in-flight jobs left behind — halt landed too late");

    let (stdout, stderr, code) = serve(&crashed, &["--drain"]);
    assert_eq!(code, Some(0), "restart failed: {stderr}");
    assert!(stdout.contains("recovery: requeued"), "{stdout}");
    assert!(stdout.contains("cache hit"), "interrupted job should re-land as a hit: {stdout}");
    for p in &programs {
        assert_eq!(
            result_of(&crashed, p),
            result_of(&clean, p),
            "{p}: post-crash output differs from the uninterrupted run"
        );
    }
    // No stray temporary artifacts survive recovery.
    for sub in ["out", "cache"] {
        for e in fs::read_dir(crashed.join(sub)).expect("dir") {
            let p = e.expect("entry").path();
            assert_ne!(p.extension().and_then(|e| e.to_str()), Some("tmp"), "stray {p:?}");
        }
    }
}

/// Acceptance (d): a poison job exits the queue via quarantine (job
/// file moved to `failed/` with a diagnostic) while subsequent jobs
/// still complete.
#[test]
fn poison_job_quarantines_while_the_queue_continues() {
    let dir = spool("poison");
    submit(&dir, "a_poison", r#"{"mcpart_job":1,"program":"fir","fault":"panic:main"}"#);
    submit(&dir, "b_good", &job("latnrm"));
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "a poison job must not take the service down: {stderr}");
    assert!(stdout.contains("job a_poison: quarantined"), "{stdout}");
    assert!(stdout.contains("job b_good: ok"), "queue wedged behind the poison job: {stdout}");
    assert!(stdout.contains("quarantined=1"), "{stdout}");

    assert!(dir.join("failed").join("a_poison.job").exists(), "job not quarantined to failed/");
    let reason =
        fs::read_to_string(dir.join("failed").join("a_poison.reason")).expect("diagnostic");
    assert!(reason.contains("injected fault"), "diagnostic missing the cause: {reason}");
    let result = result_of(&dir, "a_poison");
    assert!(result.contains("\"status\":\"quarantined\",\"exit\":1"), "{result}");
    // The poisoned result is never cached: resubmission recomputes.
    submit(&dir, "a_poison", r#"{"mcpart_job":1,"program":"fir","fault":"panic:main"}"#);
    let (stdout, _, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("cache hit"), "served a quarantined result from cache: {stdout}");
}

/// The cache key does not cover a job's fault plan, so a faulted job
/// bypasses the cache both ways: it publishes no entry or baseline
/// pointer a clean job could hit, and it is never served a clean
/// job's entry. A clean job after a faulted one computes exactly what
/// it computes on a fresh spool.
#[test]
fn faulted_jobs_neither_read_nor_publish_the_cache() {
    let faulted = r#"{"mcpart_job":1,"program":"fir","fault":"panic:mainx1"}"#;
    let cold = spool("fault_cache_cold");
    submit(&cold, "b", &job("fir"));
    assert_eq!(serve(&cold, &["--drain"]).2, Some(0));

    let dir = spool("fault_cache");
    submit(&dir, "a", faulted);
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("job a: ok (computed)"), "{stdout}");
    assert!(result_of(&dir, "a").contains("\"retries\":1"), "{}", result_of(&dir, "a"));
    let published: Vec<_> = fs::read_dir(dir.join("cache")).expect("cache dir").collect();
    assert!(published.is_empty(), "a faulted job published to the cache: {published:?}");

    submit(&dir, "b", &job("fir"));
    let (stdout, _, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("job b: ok (computed)"), "{stdout}");
    assert_eq!(result_of(&dir, "b"), result_of(&cold, "b"), "the faulted job poisoned b");

    // Now a clean entry exists; the faulted job still recomputes.
    submit(&dir, "a", faulted);
    let (stdout, _, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("job a: ok (computed)"), "served a clean entry: {stdout}");
    assert!(result_of(&dir, "a").contains("\"retries\":1"), "{}", result_of(&dir, "a"));
}

/// Acceptance (satellite): a job that takes the process down before it
/// can ever commit (here via the `--fault halt:0` crash hook) is
/// requeued by startup recovery only `--max-requeues` times; the next
/// startup quarantines it to `failed/` as poison, counts it in the
/// summary, and the queue flows on.
#[test]
fn crash_looping_job_is_quarantined_after_the_requeue_budget() {
    let dir = spool("requeue_cap");
    submit(&dir, "p", &job("fir"));
    // Three crash-loops in a row: claim, die mid-commit, restart.
    // The budget of 2 is spent by the second and third startups.
    for round in 0..3 {
        let (stdout, _, code) =
            serve(&dir, &["--drain", "--fault", "halt:0", "--max-requeues", "2"]);
        assert_ne!(code, Some(0), "round {round}: the halted run must die: {stdout}");
    }
    assert!(
        fs::read_to_string(dir.join("p.requeues")).expect("sidecar").trim() == "2",
        "sidecar must carry the requeue tally"
    );
    // The fourth startup refuses to requeue the job again.
    let (stdout, stderr, code) = serve(&dir, &["--drain", "--max-requeues", "2"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("quarantined 1 poison job(s)"), "{stdout}");
    assert!(stdout.contains("poisoned=1"), "{stdout}");
    assert!(dir.join("failed").join("p.job").exists(), "poison job not in failed/");
    let reason = fs::read_to_string(dir.join("failed").join("p.reason")).expect("diagnostic");
    assert!(reason.contains("poisoned: requeued 2 time(s)"), "{reason}");
    assert!(!dir.join("p.requeues").exists(), "sidecar must not outlive the job");

    // A job that survives a crash and then commits sheds its tally:
    // the budget only counts *consecutive* failures to commit.
    submit(&dir, "q", &job("latnrm"));
    let (_, _, code) = serve(&dir, &["--drain", "--fault", "halt:0", "--max-requeues", "2"]);
    assert_ne!(code, Some(0), "the halted run must die");
    let (stdout, _, code) = serve(&dir, &["--drain", "--max-requeues", "2"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("job q: ok"), "{stdout}");
    assert!(!dir.join("q.requeues").exists(), "tally must reset once the job commits");
}

/// Overload sheds deterministically: a bounded admission queue, and
/// everything past the bound gets a typed `overloaded` result file —
/// never a silent drop. Lexicographic order decides who is admitted.
#[test]
fn overload_sheds_deterministically_with_typed_results() {
    let dir = spool("overload");
    for name in ["j1", "j2", "j3"] {
        submit(&dir, name, &job("fir"));
    }
    let (stdout, stderr, code) = serve(&dir, &["--drain", "--queue", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("rejected=2"), "{stdout}");
    // Deterministic: the lexicographically-first job is admitted.
    assert!(result_of(&dir, "j1").contains("\"status\":\"ok\""));
    for shed in ["j2", "j3"] {
        let r = result_of(&dir, shed);
        assert!(r.contains("\"status\":\"overloaded\",\"exit\":1"), "{shed}: {r}");
        assert!(r.contains("admission queue full"), "{shed}: {r}");
    }
}

/// Unparseable job files and unknown programs become typed `invalid`
/// results (exit vocabulary 2) in `failed/`, not service failures.
#[test]
fn invalid_jobs_fail_typed_without_wedging_the_service() {
    let dir = spool("invalid");
    submit(&dir, "bad", "this is not json");
    submit(&dir, "unknown", &job("no-such-benchmark"));
    submit(&dir, "good", &job("fir"));
    let (stdout, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("job good: ok"), "{stdout}");
    for bad in ["bad", "unknown"] {
        let r = result_of(&dir, bad);
        assert!(r.contains("\"status\":\"invalid\",\"exit\":2"), "{bad}: {r}");
        assert!(dir.join("failed").join(format!("{bad}.job")).exists());
    }
}

/// The `serve/*` counters are always present on a serve trace, so
/// they are part of the `trace-check --require` vocabulary.
#[test]
fn serve_counters_survive_trace_check_require() {
    let dir = spool("counters");
    submit(&dir, "fir", &job("fir"));
    let trace = dir.join("trace.json");
    let trace_str = trace.to_str().expect("utf8 path");
    let (stdout, stderr, code) = serve(&dir, &["--drain", "--metrics", "--trace-out", trace_str]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("observability summary"), "{stdout}");
    assert!(stdout.contains("serve/admitted"), "{stdout}");
    let out = Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .args([
            "trace-check",
            trace_str,
            "--require",
            "serve/admitted,serve/rejected,serve/cache_hits,serve/cache_evictions,\
             serve/quarantined",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The flight recorder appends one checksummed snapshot per committed
/// job (default `--telemetry-every 1`) plus a final one, publishes a
/// `latest.json` mirror, and `mcpart stats <spool>` renders percentile
/// tables and summed counters from the directory.
#[test]
fn flight_recorder_snapshots_render_through_stats() {
    let dir = spool("telemetry");
    for p in ["fir", "latnrm"] {
        submit(&dir, p, &job(p));
    }
    let (_, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");

    let tdir = dir.join("telemetry");
    assert!(tdir.join("telemetry.jsonl").is_file(), "no flight-recorder log");
    assert!(tdir.join("latest.json").is_file(), "no latest.json mirror");
    let log = fs::read_to_string(tdir.join("telemetry.jsonl")).expect("log reads");
    assert!(log.lines().count() >= 2, "expected one snapshot per job:\n{log}");
    for line in log.lines() {
        assert!(line.contains("\"mcpart_telemetry\":1"), "unframed record: {line}");
        assert!(line.contains("\"sum\":\""), "unchecksummed record: {line}");
    }

    // stats accepts the spool root, the telemetry dir, and the log file.
    for target in [dir.clone(), tdir.clone(), tdir.join("telemetry.jsonl")] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcpart"))
            .args(["stats", target.to_str().expect("utf8")])
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "stats {target:?}: {}", String::from_utf8_lossy(&out.stderr));
        for needle in ["telemetry:", "completed", "serve/job", "p99", "gdp/cut"] {
            assert!(stdout.contains(needle), "stats {target:?} missing {needle}:\n{stdout}");
        }
    }

    // --telemetry-every 0 disables the recorder entirely.
    let off = spool("telemetry_off");
    submit(&off, "fir", &job("fir"));
    let (_, _, code) = serve(&off, &["--drain", "--telemetry-every", "0"]);
    assert_eq!(code, Some(0));
    assert!(!off.join("telemetry").exists(), "recorder ran despite --telemetry-every 0");
}

/// Killing the service mid-append must not poison the telemetry log:
/// the corrupt tail is skipped with a warning, the valid prefix still
/// renders, and a restart opens a fresh run whose snapshots land after
/// the damage.
#[test]
fn telemetry_survives_kill_mid_append_and_restart() {
    let dir = spool("telemetry_crash");
    for p in ["fir", "latnrm", "rawcaudio"] {
        submit(&dir, p, &job(p));
    }
    let (_, _, code) = serve(&dir, &["--drain", "--fault", "halt:1"]);
    assert_ne!(code, Some(0), "the halted run must die");

    // Simulate the worst tail: a record cut mid-write.
    let log_path = dir.join("telemetry").join("telemetry.jsonl");
    let mut log = fs::read_to_string(&log_path).expect("log exists after the crash");
    log.push_str("{\"mcpart_telemetry\":1,\"run\":1,\"seq\":9,\"counters\":{\"adm");
    fs::write(&log_path, &log).expect("write torn tail");

    let (_, stderr, code) = serve(&dir, &["--drain"]);
    assert_eq!(code, Some(0), "restart failed: {stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .args(["stats", dir.to_str().expect("utf8")])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stats failed: {stderr}");
    assert!(stderr.contains("skipped 1 corrupt telemetry record"), "{stderr}");
    assert!(stdout.contains("2 run(s)"), "restart must open a new run:\n{stdout}");
    // All three jobs are accounted for across the two runs.
    assert!(stdout.contains("completed"), "{stdout}");
}

/// SIGTERM drains and exits 0 (crash-only shutdown), leaving any
/// unclaimed jobs spooled for the next run.
#[cfg(unix)]
#[test]
fn sigterm_drains_in_flight_work_and_exits_zero() {
    let dir = spool("sigterm");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcpart"))
        .arg("serve")
        .arg(&dir)
        .args(["--poll-ms", "50"])
        .spawn()
        .expect("daemon starts");
    // Let the daemon reach its idle poll, then ask it to stop.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success(), "could not signal the daemon");
    let status = child.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "SIGTERM must drain and exit 0");
}
