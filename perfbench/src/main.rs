//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--jobs J] [--quick]
//! perfbench table [--seed N] [--seconds S] [--jobs J] [--quick]
//! perfbench setup-edit --dir D [--seed N] [--jobs J] [--quick]
//! ```
//!
//! A workload run prints provenance, the stage table when traced, and
//! as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `table` runs every workload untraced and
//! traced in child processes and prints one row per workload plus each
//! stage table. `setup-edit` is the edit workload's set-up, run in a
//! child process so its compile stays out of the measured process.

use mcpart_obs::json::{self, JsonValue};
use mcpart_perfbench::report::{end_to_end, per_layer, result_json};
use mcpart_perfbench::workloads::{self, edit_setup, Settings, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <synth-100k|synth-100k-edit|mediabench> \
[--seed N] [--seconds S] [--trace 0|1] [--jobs J] [--quick]\n       perfbench table [--seed N] \
[--seconds S] [--jobs J] [--quick]";

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    jobs: Option<usize>,
    quick: bool,
    dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".into(),
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        jobs: None,
        quick: false,
        dir: None,
    };
    let mut it = args.iter();
    if let Some(first) = args.first().filter(|s| !s.starts_with("--")) {
        a.command = first.clone();
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--jobs" => {
                let jobs = value()?.parse().ok().filter(|&j: &usize| j >= 1);
                a.jobs = Some(jobs.ok_or("--jobs needs a positive integer")?);
            }
            "--dir" => a.dir = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn settings(a: &Args, workload: Workload) -> Result<Settings, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let mut s = Settings::new(workload, exe);
    if let Some(seed) = a.seed {
        s.seed = seed;
    }
    s.seconds = a.seconds;
    s.trace = a.trace;
    s.jobs = a.jobs.unwrap_or(s.jobs.min(nproc()));
    s.quick = a.quick;
    Ok(s)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over the sources the benchmark builds (`crates/` and
/// `perfbench/`, `.rs` and `.toml` files in path order): identifies the
/// code measured when the checkout carries no git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    for f in &files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}")
}

fn run_workload(a: &Args, workload: Workload) -> Result<(), String> {
    let mut s = settings(a, workload)?;
    s.work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    let outcome = workloads::run(&s);
    let _ = std::fs::remove_dir_all(&s.work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let out = outcome?;
    for p in &out.problems {
        eprintln!("FAILED {p}");
    }
    if let Some(table) = &out.stage_table {
        print!("{table}");
    }
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| {
            let list: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            format!("\"{k}\": {}, \"{k}_s\": [{}]", v.len(), list.join(", "))
        })
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"jobs\": {}, \"nproc\": {}, \
         \"commit\": \"{}\", \"source\": \"{}\", \"profile\": \"{}\", \"trace\": {}, \
         \"quick\": {}, \"failed_frac\": {}, \"samples\": {{{}}}}}}}",
        workload.name(),
        s.seed,
        s.jobs,
        nproc(),
        json::escape(&commit()),
        source_fingerprint(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        s.trace,
        s.quick,
        out.failed as f64 / out.attempted.max(1) as f64,
        samples.join(", ")
    );
    let defs = if s.trace { per_layer() } else { end_to_end() };
    println!("{}", result_json(out.failed == 0, out.attempted, out.failed, defs, &out.values));
    Ok(())
}

/// Runs one workload in a child process and returns its stdout.
fn child_run(a: &Args, workload: Workload, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(jobs) = a.jobs {
        cmd.args(["--jobs", &jobs.to_string()]);
    }
    if let Some(seed) = a.seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} run failed", workload.name()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Every end-to-end metric by name and unit, one row per workload, then
/// each workload's traced stage table.
fn table(a: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut stages = String::new();
    for w in Workload::ALL {
        let untraced = child_run(a, w, false)?;
        let last = untraced.lines().last().unwrap_or_default();
        let result = json::parse(last).map_err(|e| format!("{}: {e}", w.name()))?;
        rows.push((w, result));
        let traced = child_run(a, w, true)?;
        for line in traced.lines().filter(|l| !l.starts_with('{')) {
            stages.push_str(line);
            stages.push('\n');
        }
    }
    print!("{:<16}", "workload");
    for m in end_to_end() {
        print!(" {:>20}", format!("{} ({})", m.name, m.unit));
    }
    println!(" {:>8} {:>16}", "correct", "failed/attempted");
    for (w, r) in &rows {
        print!("{:<16}", w.name());
        for m in end_to_end() {
            let v = r.get("metrics").and_then(|ms| ms.get(&m.name)).and_then(|v| v.get("value"));
            print!(" {:>20.4}", v.and_then(JsonValue::as_num).unwrap_or(f64::NAN));
        }
        let num = |k: &str| r.get(k).and_then(JsonValue::as_num).unwrap_or(f64::NAN);
        let correct = r.get("correct").and_then(JsonValue::as_bool).unwrap_or(false);
        println!(" {correct:>8} {:>16}", format!("{}/{}", num("failed"), num("attempted")));
    }
    println!();
    print!("{stages}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(jobs) = a.jobs.filter(|&j| j > nproc()) {
        eprintln!("refusing --jobs {jobs}: this host has {} core(s)", nproc());
        return ExitCode::from(2);
    }
    let result = match (a.command.as_str(), a.workload) {
        ("run", Some(w)) => run_workload(&a, w),
        ("table", _) => table(&a),
        ("setup-edit", _) => settings(&a, Workload::Synth100kEdit).and_then(|mut s| {
            s.work_dir = a.dir.clone().unwrap_or(s.work_dir);
            edit_setup(&s).map(|gen_s| println!("gen_s {gen_s}"))
        }),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
