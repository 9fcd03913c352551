//! The three workloads: their set-up, the unit of work each one times,
//! and the correctness checks that run after the clock stops.

use crate::report::{layer_metrics, stage_table, Values};
use crate::stages::{compile, same_result};
use crate::trace::{median, peak_rss_mb, Trace};
use mcpart_core::{
    check_result, load_checkpoint_any, method_slug, program_fingerprint, run_pipeline,
    CheckpointHeader, CheckpointWriter, Method, PipelineConfig, PipelineResult, UnitRecord,
};
use mcpart_ir::{function_to_string, parse_program, program_to_string, Profile, Program};
use mcpart_machine::Machine;
use mcpart_rng::{SeedableRng, SliceRandom, SmallRng};
use mcpart_sim::ExecConfig;
use mcpart_workloads::{Suite, SynthSpec};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the `synth_100k` preset, the synthetic workloads' default.
const SYNTH_SEED: u64 = 0x5eed;
/// Baseline checkpoint of the edit workload, inside its work directory.
const BASE_CK: &str = "base.ck";
/// The edited program text.
const EDITED: &str = "edited.mcir";
/// The checkpoint each timed edit-recompile writes.
const NEW_CK: &str = "new.ck";

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full GDP compile of the seeded 10⁵-op synthetic program.
    Synth100k,
    /// `mcpart repartition` of that program after a one-function edit.
    Synth100kEdit,
    /// The paper's 22 programs under all four Table 1 methods.
    Mediabench,
}

impl Workload {
    /// Every workload, in the order tables list them.
    pub const ALL: [Workload; 3] =
        [Workload::Synth100k, Workload::Synth100kEdit, Workload::Mediabench];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Synth100k => "synth-100k",
            Workload::Synth100kEdit => "synth-100k-edit",
            Workload::Mediabench => "mediabench",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the synthetic program's generator seed, or the order
    /// in which the suite's (program, method) pairs enter the pool.
    pub seed: u64,
    /// How long the timed loop runs (at least one unit always runs).
    pub seconds: f64,
    /// Run the traced stage-by-stage form instead of `run_pipeline`.
    pub trace: bool,
    /// Worker threads (never more than the host's cores).
    pub jobs: usize,
    /// Small inputs (a 3000-op program, four suite programs) and one
    /// set-up, for tests and smoke runs.
    pub quick: bool,
    /// Scratch directory for the edit workload's files.
    pub work_dir: PathBuf,
    /// The `perfbench` executable. Each edit set-up runs as
    /// `<exe> setup-edit ...` in a child process, so the set-up compile
    /// stays out of this process's peak memory.
    pub exe: PathBuf,
}

impl Settings {
    /// Default settings for `workload`, run by the `perfbench`
    /// executable at `exe`.
    pub fn new(workload: Workload, exe: PathBuf) -> Settings {
        Settings {
            workload,
            seed: match workload {
                Workload::Mediabench => 1,
                _ => SYNTH_SEED,
            },
            seconds: 10.0,
            trace: false,
            jobs: 2,
            quick: false,
            work_dir: PathBuf::from(".bench_work"),
            exe,
        }
    }

    /// The synthetic generator spec for this seed.
    fn synth_spec(&self) -> String {
        let ops = if self.quick { 3_000 } else { 100_000 };
        format!("ops={ops},seed={}", self.seed)
    }
}

/// Set-up seconds a run spends at least, so that the median of a cheap
/// set-up (the ~15 ms generator) rests on many samples.
const SETUP_SECONDS: f64 = 1.0;

/// Runs `make` at least twice (once in quick mode) and until its calls
/// add up to [`SETUP_SECONDS`]. Returns the last output and every
/// call's wall seconds. Each output is dropped before the next call, so
/// set-up never holds two copies.
fn repeat_setup<T>(
    quick: bool,
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::new();
    loop {
        let clock = Instant::now();
        let out = make()?;
        walls.push(clock.elapsed().as_secs_f64());
        if quick || (walls.len() >= 2 && walls.iter().sum::<f64>() >= SETUP_SECONDS) {
            return Ok((out, walls));
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Compiles attempted (timed and check compiles).
    pub attempted: u64,
    /// Compiles that errored, were downgraded or quarantined, failed
    /// the oracle, or differed from a compile that must equal them.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: Values,
    /// The samples behind the medians (`compile`, `setup`), seconds.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The traced per-layer table (trace runs only).
    pub stage_table: Option<String>,
}

/// Counts compiles and their failures; runs the oracle.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    oracle_s: f64,
}

impl Tally {
    /// Judges one compile. With `oracle`, the result is also checked by
    /// `oracle::check_result`; without it, only errors, downgrades and
    /// quarantines count (the caller compares it to an oracle-checked
    /// twin instead).
    fn judge(
        &mut self,
        what: &str,
        (program, profile, machine): (&Program, &Profile, &Machine),
        result: &Result<PipelineResult, String>,
        oracle: bool,
    ) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(format!("error: {e}")),
            Ok(r) if r.was_downgraded() => Some(format!("downgraded to {}", r.method)),
            Ok(r) if !r.quarantine().is_empty() => {
                Some(format!("{} function(s) quarantined", r.quarantine().len()))
            }
            Ok(r) if oracle => {
                let clock = Instant::now();
                let report = check_result(program, profile, machine, r, ExecConfig::default());
                self.oracle_s += clock.elapsed().as_secs_f64();
                (!report.passed()).then(|| format!("oracle:\n{report}"))
            }
            Ok(_) => None,
        };
        if let Some(p) = problem {
            self.fail(what, p);
        }
    }

    /// Records a failed check of an already counted compile.
    fn fail(&mut self, what: &str, problem: String) {
        self.failed += 1;
        self.problems.push(format!("{what}: {problem}"));
    }

    /// Counts the earlier repetitions of a unit: each must have printed
    /// what the last one, which was judged, printed.
    fn repeats<T: PartialEq>(&mut self, what: &str, prints: &[T]) {
        let Some((last, earlier)) = prints.split_last() else { return };
        for p in earlier {
            self.attempted += 1;
            if p != last {
                self.fail(what, "differs from the last repetition".into());
            }
        }
    }

    fn into_outcome(self, values: Values) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed.min(self.attempted),
            problems: self.problems,
            values,
            ..Outcome::default()
        }
    }
}

/// A compile's observable output, cheap to keep across iterations:
/// cycles, dynamic moves and a hash of the placement.
fn fingerprint(r: &Result<PipelineResult, String>) -> Option<(u64, u64, u64)> {
    let r = r.as_ref().ok()?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for ops in r.placement.op_cluster.values() {
        for c in ops.values() {
            c.index().hash(&mut h);
        }
    }
    for home in r.placement.object_home.values() {
        home.map(|c| c.index()).hash(&mut h);
    }
    Some((r.cycles(), r.dynamic_moves(), h.finish()))
}

/// What the timed loop measured.
struct Timed<T, P> {
    /// Wall seconds of each timed unit (traced ones in a traced run).
    walls: Vec<f64>,
    /// Wall seconds of the untraced twins of a traced run.
    untraced: Vec<f64>,
    /// Each timed unit's wall seconds and trace.
    passes: Vec<(f64, Trace)>,
    /// The print of every unit run, twins included, in order.
    prints: Vec<P>,
    /// The last timed unit's output.
    last: T,
    /// The last untraced twin's output (traced runs only).
    twin: Option<T>,
}

/// Runs `unit` until one more iteration of average length would pass
/// `s.seconds` (always at least once). In a traced run every traced
/// unit is followed by an untraced twin, which gives the tracing
/// overhead and the output the staged form must equal. Only the last
/// outputs are kept; `print` summarises each one for the repeat check.
fn timed_loop<T, P>(
    s: &Settings,
    mut unit: impl FnMut(&mut Trace) -> T,
    print: impl Fn(&T) -> P,
) -> Timed<T, P> {
    let clock = Instant::now();
    let (mut walls, mut untraced, mut passes, mut prints) = (vec![], vec![], vec![], vec![]);
    let (mut last, mut twin) = (None, None);
    loop {
        // Free the previous outputs before the next unit allocates.
        drop((last.take(), twin.take()));
        let mut tr = Trace::new(s.trace);
        let unit_clock = Instant::now();
        let out = unit(&mut tr);
        let wall = unit_clock.elapsed().as_secs_f64();
        prints.push(print(&out));
        last = Some(out);
        walls.push(wall);
        passes.push((wall, tr));
        if s.trace {
            let unit_clock = Instant::now();
            let out = unit(&mut Trace::new(false));
            untraced.push(unit_clock.elapsed().as_secs_f64());
            prints.push(print(&out));
            twin = Some(out);
        }
        let spent = clock.elapsed().as_secs_f64();
        if spent + spent / walls.len() as f64 > s.seconds {
            break;
        }
    }
    let last = last.expect("the loop ran once");
    Timed { walls, untraced, passes, prints, last, twin }
}

/// The machine of `mcpart run`'s defaults: two paper clusters, 5-cycle
/// moves, partitioned memory.
fn default_machine() -> Machine {
    Machine::homogeneous(2, 5)
}

/// Runs one workload: set-up, timed loop, checks, metrics.
///
/// # Errors
///
/// A set-up failure (the run cannot measure anything).
pub fn run(s: &Settings) -> Result<Outcome, String> {
    match s.workload {
        Workload::Synth100k => run_synth(s),
        Workload::Synth100kEdit => run_edit(s),
        Workload::Mediabench => run_mediabench(s),
    }
}

fn gdp_config(jobs: usize) -> PipelineConfig {
    PipelineConfig::new(Method::Gdp).with_jobs(jobs)
}

/// End-to-end values shared by the workloads.
fn end_to_end(
    compile: &[f64],
    setup: &[f64],
    rss: f64,
    cycles: u64,
    moves: u64,
    rel: f64,
) -> Values {
    Values::from([
        ("compile_s", median(compile)),
        ("setup_s", median(setup)),
        ("peak_rss_mb", rss),
        ("cycles", cycles as f64),
        ("dynamic_moves", moves as f64),
        ("gdp_rel_perf", rel),
    ])
}

/// The Unified-memory compile `gdp_rel_perf` divides by GDP's.
fn unified_compile(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    jobs: usize,
) -> Result<PipelineResult, String> {
    let cfg = PipelineConfig::new(Method::Unified).with_jobs(jobs);
    run_pipeline(program, profile, machine, &cfg).map_err(|e| e.to_string())
}

/// Unified cycles over GDP cycles of one program (the Figure 8a ratio).
fn rel_perf(unified: &PipelineResult, gdp: &PipelineResult) -> f64 {
    unified.cycles() as f64 / gdp.cycles().max(1) as f64
}

fn run_synth(s: &Settings) -> Result<Outcome, String> {
    let spec = SynthSpec::parse(&s.synth_spec()).map_err(|e| e.to_string())?;
    let (w, setup) =
        repeat_setup(s.quick, || spec.try_generate("synth_100k").map_err(|e| e.to_string()))?;
    let machine = default_machine();
    let input = (&w.program, &w.profile, &machine);
    let cfg = gdp_config(s.jobs);

    let t = timed_loop(s, |tr| compile(&w.program, &w.profile, &machine, &cfg, tr), fingerprint);
    let rss = peak_rss_mb();
    let mut tally = Tally::default();
    tally.judge("compile", input, &t.last, true);
    tally.repeats("compile", &t.prints);
    let mut values = Values::new();
    if let Some(twin) = &t.twin {
        check_same(&mut tally, "staged vs run_pipeline", &t.last, twin);
        values = layer_metrics(&t.passes, 1.0, median(&t.untraced));
        values.insert("workloads.gen_s", median(&setup));
    } else if let Ok(gdp) = &t.last {
        let unified = unified_compile(&w.program, &w.profile, &machine, s.jobs);
        tally.judge("unified", input, &unified, true);
        let rel = unified.as_ref().map_or(0.0, |u| rel_perf(u, gdp));
        values = end_to_end(&t.walls, &setup, rss, gdp.cycles(), gdp.dynamic_moves(), rel);
    }
    finish(s, tally, values, &t.walls, &setup, &t.passes, 1.0)
}

/// Fails the tally unless both compiles succeeded with equal results.
fn check_same(
    tally: &mut Tally,
    what: &str,
    a: &Result<PipelineResult, String>,
    b: &Result<PipelineResult, String>,
) {
    if let (Ok(a), Ok(b)) = (a, b) {
        if !same_result(a, b) {
            tally.fail(what, "results differ".into());
        }
    }
}

/// Adds the oracle time, sample counts and the stage table.
fn finish(
    s: &Settings,
    tally: Tally,
    mut values: Values,
    walls: &[f64],
    setup: &[f64],
    passes: &[(f64, Trace)],
    workers: f64,
) -> Result<Outcome, String> {
    if s.trace {
        values.insert("oracle.check_s", tally.oracle_s);
    }
    let mut out = tally.into_outcome(values);
    out.samples.insert("compile", walls.to_vec());
    out.samples.insert("setup", setup.to_vec());
    if s.trace {
        out.stage_table = Some(stage_table(s.workload.name(), passes, workers, &out.values));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// synth-100k-edit

/// The checkpoint header `mcpart run`/`repartition` write for `program`
/// under the default options.
fn header_of(program: &Program) -> CheckpointHeader {
    CheckpointHeader {
        program: program.name.clone(),
        program_hash: program_fingerprint(program),
        seed: gdp_config(1).rhop.seed,
        clusters: 2,
        latency: 5,
        memory: "partitioned".to_string(),
        gdp_fuel: None,
    }
}

fn unit_of(program: &Program) -> String {
    format!("{}/{}", program.name, method_slug(Method::Gdp))
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str().ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

/// Writes `result` as `mcpart run --checkpoint` does (record, then
/// manifest). Returns the bytes written, not counting the digits of the
/// record's one wall-clock field (`partition_ms`), so the count repeats.
fn write_checkpoint(
    path: &Path,
    program: &Program,
    result: &PipelineResult,
) -> Result<u64, String> {
    let unit = unit_of(program);
    let record = UnitRecord::from_result(&unit, result, &[]);
    let manifest = result.manifest.clone().map(|mut m| {
        m.unit = unit.clone();
        m
    });
    let mut writer = CheckpointWriter::create(path_str(path)?, &header_of(program))
        .map_err(|e| e.to_string())?;
    writer.append(&record).map_err(|e| e.to_string())?;
    if let Some(m) = &manifest {
        writer.append_manifest(m).map_err(|e| e.to_string())?;
    }
    drop(writer);
    let len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(len - format!("{:.3}", record.partition_ms).len() as u64)
}

/// check.sh's one-function edit: the first `= iconst 511` line becomes
/// `= iconst 510` (a table mask shrinks and stays in bounds). Fails
/// unless exactly one function's text changed.
///
/// # Errors
///
/// No mask constant to edit, or an edit that is not confined to one
/// function.
pub fn apply_edit(text: &str) -> Result<String, String> {
    const FROM: &str = "= iconst 511";
    let at = text
        .match_indices(FROM)
        .map(|(i, _)| i)
        .find(|&i| text[i + FROM.len()..].starts_with('\n'))
        .ok_or("no `= iconst 511` line to edit")?;
    let edited = format!("{}= iconst 510{}", &text[..at], &text[at + FROM.len()..]);
    let before = parse_program(text).map_err(|e| e.to_string())?;
    let after = parse_program(&edited).map_err(|e| e.to_string())?;
    let changed = before
        .functions
        .values()
        .zip(after.functions.values())
        .filter(|(a, b)| function_to_string(a) != function_to_string(b))
        .count();
    if before.functions.len() != after.functions.len() || changed != 1 {
        return Err(format!("the edit changed {changed} functions, not one"));
    }
    Ok(edited)
}

/// The edit workload's set-up: generate the program, round-trip it
/// through text, profile it, compile it, write the baseline checkpoint,
/// then write the edited text. Returns the generator's seconds.
///
/// # Errors
///
/// Any failing step.
pub fn edit_setup(s: &Settings) -> Result<f64, String> {
    let spec = SynthSpec::parse(&s.synth_spec()).map_err(|e| e.to_string())?;
    let clock = Instant::now();
    let generated = spec.try_generate("synth_100k").map_err(|e| e.to_string())?;
    let gen_s = clock.elapsed().as_secs_f64();
    let text = program_to_string(&generated.program);
    drop(generated);
    let program = parse_program(&text).map_err(|e| e.to_string())?;
    mcpart_ir::verify_program(&program).map_err(|e| e.to_string())?;
    let profile =
        mcpart_sim::profile_run(&program, &[], ExecConfig::default()).map_err(|e| e.to_string())?;
    let base = run_pipeline(&program, &profile, &default_machine(), &gdp_config(s.jobs))
        .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&s.work_dir).map_err(|e| e.to_string())?;
    write_checkpoint(&s.work_dir.join(BASE_CK), &program, &base)?;
    let edited = apply_edit(&text)?;
    std::fs::write(s.work_dir.join(EDITED), edited).map_err(|e| e.to_string())?;
    Ok(gen_s)
}

/// Runs [`edit_setup`] in a child process of `s.exe`; returns its
/// generator seconds.
fn edit_setup_child(s: &Settings) -> Result<f64, String> {
    let mut cmd = Command::new(&s.exe);
    cmd.arg("setup-edit")
        .args(["--seed", &s.seed.to_string(), "--jobs", &s.jobs.to_string()])
        .arg("--dir")
        .arg(&s.work_dir);
    if s.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start the set-up: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("gen_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up printed no `gen_s` line: {stdout}"))
}

/// One edit-recompile, as `mcpart repartition` runs it.
struct EditRun {
    /// The edited program as parsed.
    program: Program,
    /// Its simulated profile.
    profile: Profile,
    /// The incremental compile.
    result: Result<PipelineResult, String>,
    /// Bytes of the checkpoint written (see [`write_checkpoint`]).
    checkpoint_bytes: u64,
}

/// The timed unit of the edit workload: read, parse and verify the
/// edited text; profile it; load the baseline checkpoint; run GDP with
/// its manifest; write the new checkpoint.
///
/// # Errors
///
/// A failure before the compile (unreadable files, a bad baseline).
fn edit_once(dir: &Path, jobs: usize, tr: &mut Trace) -> Result<EditRun, String> {
    let program = tr.span("ir.parse", || {
        let text = std::fs::read_to_string(dir.join(EDITED)).map_err(|e| e.to_string())?;
        parse_program(&text).map_err(|e| e.to_string())
    })?;
    tr.span("ir.verify", || mcpart_ir::verify_program(&program)).map_err(|e| e.to_string())?;
    let exec = tr
        .span("sim.profile", || mcpart_sim::run(&program, &[], ExecConfig::default()))
        .map_err(|e| e.to_string())?;
    tr.count("sim.steps", exec.steps as f64);
    let profile = exec.profile;
    let base_path = dir.join(BASE_CK);
    let base = tr.span("checkpoint.load", || {
        load_checkpoint_any(path_str(&base_path)?).map_err(|e| e.to_string())
    })?;
    if !base.header.compatible_baseline(&header_of(&program)) {
        return Err("the baseline checkpoint is incompatible with the edited program".into());
    }
    let manifest =
        base.manifest_for(&unit_of(&program)).cloned().ok_or("baseline has no manifest")?;
    let mut cfg = gdp_config(jobs);
    cfg.baseline = Some(Arc::new(manifest));
    let result = compile(&program, &profile, &default_machine(), &cfg, tr);
    let mut checkpoint_bytes = 0;
    if let Ok(r) = &result {
        checkpoint_bytes =
            tr.span("checkpoint.write", || write_checkpoint(&dir.join(NEW_CK), &program, r))?;
        if let Some(rp) = r.repartition {
            tr.count("repartition.dirty_funcs", rp.dirty_funcs as f64);
            tr.count("repartition.replayed_funcs", rp.replayed_funcs as f64);
        }
    }
    tr.count("checkpoint.bytes", checkpoint_bytes as f64);
    Ok(EditRun { program, profile, result, checkpoint_bytes })
}

fn run_edit(s: &Settings) -> Result<Outcome, String> {
    let mut gen = Vec::new();
    let ((), setup) = repeat_setup(s.quick, || {
        gen.push(edit_setup_child(s)?);
        Ok(())
    })?;
    let machine = default_machine();
    let t = timed_loop(
        s,
        |tr| edit_once(&s.work_dir, s.jobs, tr),
        |r| r.as_ref().ok().map(|r| (fingerprint(&r.result), r.checkpoint_bytes)),
    );
    let rss = peak_rss_mb();
    let mut tally = Tally::default();
    tally.repeats("edit-recompile", &t.prints);
    let run = match t.last {
        Ok(run) => run,
        Err(e) => {
            tally.attempted += 1;
            tally.fail("edit-recompile", e);
            return finish(s, tally, Values::new(), &t.walls, &setup, &t.passes, 1.0);
        }
    };
    let input = (&run.program, &run.profile, &machine);
    tally.judge("edit-recompile", input, &run.result, true);
    match run.result.as_ref().ok().and_then(|r| r.repartition) {
        Some(rp) if rp.dirty_funcs >= 1 => {}
        other => tally.fail("edit-recompile", format!("the edit left no dirty cone: {other:?}")),
    }
    let mut values = Values::new();
    if let Some(twin) = &t.twin {
        if let Ok(twin) = twin {
            check_same(&mut tally, "staged vs run_pipeline", &run.result, &twin.result);
        }
        values = layer_metrics(&t.passes, 1.0, median(&t.untraced));
        values.insert("workloads.gen_s", median(&gen));
    } else if let Ok(gdp) = &run.result {
        let unified = unified_compile(&run.program, &run.profile, &machine, s.jobs);
        tally.judge("unified", input, &unified, true);
        let rel = unified.as_ref().map_or(0.0, |u| rel_perf(u, gdp));
        values = end_to_end(&t.walls, &setup, rss, gdp.cycles(), gdp.dynamic_moves(), rel);
    }
    finish(s, tally, values, &t.walls, &setup, &t.passes, 1.0)
}

// ---------------------------------------------------------------------------
// mediabench

/// The paper's suite: 13 Mediabench and 9 DSP programs (four in quick
/// mode).
fn suite(quick: bool) -> Result<Vec<mcpart_workloads::Workload>, String> {
    let mut all = mcpart_workloads::all();
    if quick {
        all.retain(|w| ["rawcaudio", "fir", "g721encode", "viterbi"].contains(&w.name.as_str()));
        return Ok(all);
    }
    let media = all.iter().filter(|w| w.suite == Suite::Mediabench).count();
    if (media, all.len() - media) != (13, 9) {
        return Err(format!(
            "expected 13 Mediabench + 9 DSP programs, found {media} + {}",
            all.len() - media
        ));
    }
    Ok(all)
}

/// Compiles every (program, method) pair once, fanned over `jobs`
/// workers with one pipeline per worker at a time; the workers' traces
/// fold into `tr`.
fn suite_pass(
    suite: &[mcpart_workloads::Workload],
    pairs: &[(usize, Method)],
    machine: &Machine,
    jobs: usize,
    tr: &mut Trace,
) -> Vec<Result<PipelineResult, String>> {
    let out = mcpart_par::parallel_map(jobs, pairs, |_, &(i, method)| {
        let mut worker = Trace::new(tr.is_on());
        let w = &suite[i];
        let r = compile(&w.program, &w.profile, machine, &PipelineConfig::new(method), &mut worker);
        (r, worker)
    });
    out.into_iter()
        .map(|(r, worker)| {
            tr.merge(worker);
            r
        })
        .collect()
}

fn run_mediabench(s: &Settings) -> Result<Outcome, String> {
    let (programs, setup) = repeat_setup(s.quick, || suite(s.quick))?;
    let mut pairs: Vec<(usize, Method)> =
        (0..programs.len()).flat_map(|i| Method::ALL.map(|m| (i, m))).collect();
    pairs.shuffle(&mut SmallRng::seed_from_u64(s.seed));
    let machine = Machine::paper_2cluster(5);
    let workers = s.jobs.min(pairs.len()) as f64;

    let t = timed_loop(
        s,
        |tr| suite_pass(&programs, &pairs, &machine, s.jobs, tr),
        |rs| rs.iter().map(fingerprint).collect::<Vec<_>>(),
    );
    let rss = peak_rss_mb();
    let mut tally = Tally::default();
    for (k, (&(i, method), r)) in pairs.iter().zip(&t.last).enumerate() {
        let w = &programs[i];
        let what = format!("{}/{method}", w.name);
        tally.judge(&what, (&w.program, &w.profile, &machine), r, true);
        tally.repeats(&what, &t.prints.iter().map(|p| p[k]).collect::<Vec<_>>());
        if let Some(twin) = &t.twin {
            check_same(&mut tally, &format!("staged vs run_pipeline {what}"), r, &twin[k]);
        }
    }
    let values = if s.trace {
        let mut values = layer_metrics(&t.passes, workers, median(&t.untraced));
        values.insert("workloads.gen_s", median(&setup));
        values
    } else {
        let result_of = |i: usize, m: Method| {
            pairs.iter().position(|&p| p == (i, m)).and_then(|k| t.last[k].as_ref().ok())
        };
        let (mut cycles, mut moves, mut log_rel) = (0, 0, 0.0);
        for i in 0..programs.len() {
            if let (Some(gdp), Some(unified)) =
                (result_of(i, Method::Gdp), result_of(i, Method::Unified))
            {
                cycles += gdp.cycles();
                moves += gdp.dynamic_moves();
                log_rel += rel_perf(unified, gdp).ln();
            }
        }
        let rel = (log_rel / programs.len() as f64).exp();
        end_to_end(&t.walls, &setup, rss, cycles, moves, rel)
    };
    finish(s, tally, values, &t.walls, &setup, &t.passes, workers)
}
