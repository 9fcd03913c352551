//! Chaos soak harness: seeded (program, machine, fault-plan) scenarios
//! judged by the independent [`crate::oracle`].
//!
//! One scenario is a run spec ([`JobSpec`]) sampled deterministically
//! from a base seed; it varies three things:
//!
//! * a **program** — a small synthetic [`SynthSpec`] instance or a
//!   Mediabench workload;
//! * a **machine** — one cell of a [`SweepMatrix`] (cluster count,
//!   latency, topology, unit mix, memory model);
//! * a **fault plan** — a [`FaultPlan`] arming the repo's existing
//!   injectors (unit panics, GDP fuel, estimator budgets, watchdog
//!   timeouts, checkpoint corruption, crashes mid-write), plus the
//!   terms of [`ChaosConfig::faults`] (e.g. `misplace`, which corrupts
//!   every placement so the oracle must catch it).
//!
//! The scenario runs the full pipeline under the plan and the oracle
//! judges the outcome: the run must end in a valid placement (all
//! oracle invariants hold) or a *typed* error — never a panic. Each
//! successful run is additionally re-run at a different `--jobs` count
//! and byte-compared, and checkpoint-corruption entries exercise the
//! checkpoint parser's no-panic / crash-recovery contract in memory.
//!
//! Failing scenarios greedily **shrink** (drop fault entries, simplify
//! the machine, halve synthetic-program axes — each candidate
//! re-validated) and the minimized repro is written to a corpus file
//! whose grammar round-trips through [`JobSpec::parse_repro`], so
//! `mcpart chaos --replay <file>` re-runs it exactly. The spec derives
//! the scenario's machine, pipeline configuration and checkpoint header
//! the way it does for a one-shot run or a served job.
//!
//! Everything is a pure function of the scenario, so the whole soak is
//! bit-identical across runs and `--jobs` counts.

use crate::checkpoint::{method_slug, UnitRecord};
use crate::oracle::{check_result, OracleReport};
use crate::pipeline::{run_pipeline, Method, PipelineResult};
use crate::serve::JobSpec;
use mcpart_ir::{ClusterId, Profile, Program};
use mcpart_machine::{Machine, MemoryModel, SweepMatrix, SweepPoint, Topology};
use mcpart_obs::{durable, Obs};
use mcpart_par::fault::{FaultEntry, FaultPlan};
use mcpart_par::supervise::panic_message;
use mcpart_rng::{derive_seed, Rng, SeedableRng, SmallRng};
use mcpart_sim::ExecConfig;
use mcpart_workloads::{Suite, SynthSpec};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Total shrink re-runs allowed per failing scenario.
const SHRINK_BUDGET: u64 = 64;

/// A chaos-harness failure that is *not* a scenario verdict: bad
/// configuration, an unresolvable program target, or corpus I/O.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChaosError {
    /// A repro file failed to parse (1-based line).
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// A scenario's program target resolved to nothing.
    Target {
        /// The target string and why it failed.
        message: String,
    },
    /// A machine configuration failed validation.
    Machine {
        /// The rendered [`mcpart_machine::MachineError`].
        message: String,
    },
    /// Corpus directory or repro file I/O failed.
    Io {
        /// The path involved.
        path: String,
        /// The rendered I/O error.
        message: String,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Parse { line, message } => write!(f, "repro line {line}: {message}"),
            ChaosError::Target { message } => write!(f, "chaos target: {message}"),
            ChaosError::Machine { message } => write!(f, "chaos machine: {message}"),
            ChaosError::Io { path, message } => write!(f, "chaos corpus {path}: {message}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// The repro grammar: five `key = value` lines (`target`, `machine`,
/// `method`, `faults`, `seed`). It carries no `gdp_fuel`: chaos caps
/// GDP with a `fuel:` fault term instead.
impl JobSpec {
    /// Parses the repro-file grammar ([`JobSpec::repro`] plus optional
    /// `#` comments). `target` is mandatory; the other keys default to
    /// the paper machine, GDP, the empty plan and seed 0.
    pub fn parse_repro(text: &str) -> Result<JobSpec, ChaosError> {
        let mut target: Option<String> = None;
        let mut spec = JobSpec { seed: Some(0), ..JobSpec::new("") };
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            // Whole-line comments only: fault plans legitimately
            // contain `#k` unit references, so `#` is not special
            // mid-line.
            let content = raw.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let (key, value) = content.split_once('=').ok_or_else(|| ChaosError::Parse {
                line,
                message: "expected `key = value`".to_string(),
            })?;
            let value = value.trim();
            match key.trim() {
                "target" => target = Some(value.to_string()),
                "machine" => {
                    spec.machine = SweepPoint::parse(value)
                        .map_err(|message| ChaosError::Parse { line, message })?;
                }
                "method" => {
                    spec.method =
                        value.parse().map_err(|message| ChaosError::Parse { line, message })?;
                }
                "faults" => {
                    let plan = value.parse::<FaultPlan>();
                    spec.faults =
                        plan.map_err(|e| ChaosError::Parse { line, message: e.to_string() })?;
                }
                "seed" => {
                    spec.seed = Some(value.parse().map_err(|_| ChaosError::Parse {
                        line,
                        message: format!("bad seed `{value}`"),
                    })?);
                }
                other => {
                    return Err(ChaosError::Parse {
                        line,
                        message: format!(
                            "unknown key `{other}` (target, machine, method, faults, seed)"
                        ),
                    });
                }
            }
        }
        spec.program = target.ok_or(ChaosError::Parse {
            line: text.lines().count().max(1),
            message: "repro file has no `target =` line".to_string(),
        })?;
        Ok(spec)
    }

    /// Renders the spec in the repro grammar [`JobSpec::parse_repro`]
    /// reads.
    pub fn repro(&self) -> String {
        format!(
            "target = {}\nmachine = {}\nmethod = {}\nfaults = {}\nseed = {}\n",
            self.program,
            self.machine,
            method_slug(self.method),
            self.faults,
            self.rhop_seed()
        )
    }
}

/// How one scenario ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioVerdict {
    /// The pipeline produced a placement and every oracle check passed.
    Pass,
    /// The pipeline failed with a typed error after exhausting its
    /// ladder — the contract allows this under injected faults.
    TypedError,
    /// The pipeline produced a result the oracle rejected, a
    /// jobs-invariance re-run diverged, or a corruption sub-check
    /// misbehaved.
    OracleFailure,
    /// Something panicked — never allowed.
    Panicked,
}

impl ScenarioVerdict {
    /// Stable slug for logs and repro-file comments.
    pub fn slug(self) -> &'static str {
        match self {
            ScenarioVerdict::Pass => "pass",
            ScenarioVerdict::TypedError => "typed-error",
            ScenarioVerdict::OracleFailure => "oracle-failure",
            ScenarioVerdict::Panicked => "panic",
        }
    }
}

impl fmt::Display for ScenarioVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One judged scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScenarioResult {
    /// The scenario as run (post-shrink results carry the shrunk one).
    pub scenario: JobSpec,
    /// The verdict.
    pub verdict: ScenarioVerdict,
    /// Oracle checks evaluated (0 on typed errors and panics).
    pub checks_run: usize,
    /// Evidence: the first oracle failure, the typed error, or the
    /// panic payload.
    pub detail: String,
}

impl ScenarioResult {
    /// Whether this scenario violated the chaos contract.
    pub fn failed(&self) -> bool {
        matches!(self.verdict, ScenarioVerdict::OracleFailure | ScenarioVerdict::Panicked)
    }
}

/// Soak driver configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Scenarios to sample.
    pub scenarios: usize,
    /// Base seed; every scenario derives its own stream from it.
    pub seed: u64,
    /// The machine sweep matrix to sample from.
    pub sweep: SweepMatrix,
    /// Shrink failing scenarios before reporting them.
    pub shrink: bool,
    /// Directory receiving minimized repro files (one per failure).
    pub corpus: Option<PathBuf>,
    /// Second worker count for the jobs-invariance re-run (`<= 1`
    /// skips the re-run).
    pub jobs_compare: usize,
    /// Terms appended to every sampled scenario's plan (`--fault`), so
    /// shrinking keeps them and repro files record them; e.g.
    /// `misplace` exercises the failure path end to end.
    pub faults: FaultPlan,
    /// Simulator bounds for the oracle's semantics check.
    pub exec: ExecConfig,
    /// Observability sink for the `chaos/*` counters.
    pub obs: Obs,
}

impl ChaosConfig {
    /// A default soak: `scenarios` samples from the built-in sweep at
    /// `seed`, shrinking on, no corpus, jobs-invariance at 4 workers.
    pub fn new(scenarios: usize, seed: u64) -> ChaosConfig {
        ChaosConfig {
            scenarios,
            seed,
            sweep: SweepMatrix::builtin(),
            shrink: true,
            corpus: None,
            jobs_compare: 4,
            faults: FaultPlan::none(),
            exec: ExecConfig::default(),
            obs: Obs::default(),
        }
    }
}

/// What a whole soak did.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ChaosSummary {
    /// Scenarios run.
    pub scenarios: usize,
    /// Scenarios that passed every oracle check.
    pub passed: usize,
    /// Scenarios ending in an allowed typed error.
    pub typed_errors: usize,
    /// Oracle checks evaluated across all scenarios.
    pub oracle_checks: u64,
    /// Shrink re-runs spent across all failures.
    pub shrink_steps: u64,
    /// The failing scenarios (shrunk when shrinking is on).
    pub failures: Vec<ScenarioResult>,
    /// Repro files written to the corpus.
    pub repro_files: Vec<PathBuf>,
}

impl ChaosSummary {
    /// One-line human summary.
    pub fn line(&self) -> String {
        format!(
            "chaos: {} scenario(s), {} pass, {} typed error(s), {} failure(s), \
             {} oracle check(s), {} shrink step(s)",
            self.scenarios,
            self.passed,
            self.typed_errors,
            self.failures.len(),
            self.oracle_checks,
            self.shrink_steps
        )
    }
}

/// Runs a seeded soak: samples `cfg.scenarios` scenarios, judges each,
/// shrinks and records failures, and emits the `chaos/*` counters.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosSummary, ChaosError> {
    cfg.sweep.validate().map_err(|e| ChaosError::Machine { message: e.to_string() })?;
    let points = cfg.sweep.expand();
    let media = mediabench_names();
    let mut cache: TargetCache = HashMap::new();
    let mut summary = ChaosSummary::default();
    for id in 0..cfg.scenarios {
        let scenario = sample_scenario(cfg, &points, &media, id);
        let mut result = run_scenario_cached(&scenario, cfg, &mut cache)?;
        summary.scenarios += 1;
        summary.oracle_checks += result.checks_run as u64;
        match result.verdict {
            ScenarioVerdict::Pass => summary.passed += 1,
            ScenarioVerdict::TypedError => summary.typed_errors += 1,
            _ => {
                if cfg.shrink {
                    let (shrunk, steps) = shrink(result, cfg, &mut cache)?;
                    summary.shrink_steps += steps;
                    result = shrunk;
                }
                if let Some(dir) = &cfg.corpus {
                    let path = write_repro(dir, cfg.seed, id, &result)?;
                    summary.repro_files.push(path);
                }
                summary.failures.push(result);
            }
        }
    }
    if cfg.obs.is_enabled() {
        cfg.obs.counter("chaos", "scenarios", summary.scenarios as i64);
        cfg.obs.counter("chaos", "failures", summary.failures.len() as i64);
        cfg.obs.counter("chaos", "shrink_steps", summary.shrink_steps as i64);
        cfg.obs.counter("chaos", "oracle_checks", summary.oracle_checks as i64);
    }
    Ok(summary)
}

/// The bundled Mediabench programs a scenario may name.
fn mediabench_names() -> Vec<&'static str> {
    mcpart_workloads::BENCHMARKS
        .iter()
        .filter(|b| b.suite == Suite::Mediabench)
        .map(|b| b.name)
        .collect()
}

/// Runs and judges one scenario (the `--replay` path).
pub fn run_scenario(scenario: &JobSpec, cfg: &ChaosConfig) -> Result<ScenarioResult, ChaosError> {
    let mut cache = HashMap::new();
    run_scenario_cached(scenario, cfg, &mut cache)
}

type TargetCache = HashMap<String, (Program, Profile)>;

fn run_scenario_cached(
    scenario: &JobSpec,
    cfg: &ChaosConfig,
    cache: &mut TargetCache,
) -> Result<ScenarioResult, ChaosError> {
    let (program, profile) = match cache.entry(scenario.program.clone()) {
        Entry::Occupied(hit) => &*hit.into_mut(),
        Entry::Vacant(slot) => {
            let w = mcpart_workloads::resolve(&scenario.program)
                .map_err(|e| ChaosError::Target { message: e.to_string() })?;
            &*slot.insert((w.program, w.profile))
        }
    };
    let machine = scenario.machine().map_err(|e| ChaosError::Machine { message: e.to_string() })?;
    let pcfg = scenario.config().with_jobs(1);
    let run = catch_unwind(AssertUnwindSafe(|| run_pipeline(program, profile, &machine, &pcfg)));
    let verdict = |verdict, checks_run, detail| {
        Ok(ScenarioResult { scenario: scenario.clone(), verdict, checks_run, detail })
    };
    let outcome = match run {
        Err(payload) => {
            return verdict(ScenarioVerdict::Panicked, 0, panic_message(payload.as_ref()));
        }
        Ok(outcome) => outcome,
    };
    let loaded = (program, profile, &machine);
    match outcome {
        Err(e) => {
            // A typed error is allowed — but it must be *stable*: the
            // same scenario at another worker count must fail the same
            // way, or the determinism contract is broken.
            if cfg.jobs_compare > 1 {
                if let Some((v, detail)) =
                    jobs_divergence(scenario, cfg, loaded, Err(e.to_string()))
                {
                    return verdict(v, 0, detail);
                }
            }
            verdict(ScenarioVerdict::TypedError, 0, e.to_string())
        }
        Ok(mut result) => {
            let misplace = scenario.faults.entries.contains(&FaultEntry::Misplace);
            if misplace {
                corrupt_placement(&mut result, machine.num_clusters());
            }
            let report = check_result(program, profile, &machine, &result, cfg.exec);
            let checks_run = report.checks_run();
            if !report.passed() {
                return verdict(ScenarioVerdict::OracleFailure, checks_run, oracle_detail(&report));
            }
            if cfg.jobs_compare > 1 && !misplace {
                let first = Ok(record_bytes(&result));
                if let Some((v, detail)) = jobs_divergence(scenario, cfg, loaded, first) {
                    return verdict(v, checks_run, detail);
                }
            }
            if let Some(detail) = checkpoint_faults(scenario, &result, program) {
                return verdict(ScenarioVerdict::OracleFailure, checks_run, detail);
            }
            verdict(ScenarioVerdict::Pass, checks_run, String::new())
        }
    }
}

fn oracle_detail(report: &OracleReport) -> String {
    report
        .failures()
        .iter()
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Zeroed-clock unit-record rendering: the canonical byte string two
/// runs of the same scenario must agree on.
fn record_bytes(result: &PipelineResult) -> String {
    let mut record = UnitRecord::from_result("chaos", result, &[]);
    record.partition_ms = 0.0;
    record.to_json()
}

/// Re-runs the scenario at `cfg.jobs_compare` workers and compares its
/// outcome — zeroed-clock record bytes or typed error — with the first
/// run's: any difference breaks the determinism contract. Returns the
/// failing verdict and its evidence.
fn jobs_divergence(
    scenario: &JobSpec,
    cfg: &ChaosConfig,
    (program, profile, machine): (&Program, &Profile, &Machine),
    first: Result<String, String>,
) -> Option<(ScenarioVerdict, String)> {
    let jobs = cfg.jobs_compare;
    let pcfg = scenario.config().with_jobs(jobs);
    let second = catch_unwind(AssertUnwindSafe(|| run_pipeline(program, profile, machine, &pcfg)));
    let second = match second {
        Err(payload) => {
            let detail =
                format!("jobs={jobs} re-run panicked: {}", panic_message(payload.as_ref()));
            return Some((ScenarioVerdict::Panicked, detail));
        }
        Ok(second) => second.as_ref().map(record_bytes).map_err(|e| e.to_string()),
    };
    let detail = match (first, second) {
        (a, b) if a == b => return None,
        (Ok(a), Ok(b)) => {
            let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
            format!("jobs=1 and jobs={jobs} records diverge at byte {at}")
        }
        (Ok(_), Err(e)) => format!("jobs=1 produced a placement but jobs={jobs} failed: {e}"),
        (Err(e), Ok(_)) => format!("jobs=1 failed (`{e}`) but jobs={jobs} produced a placement"),
        (Err(e), Err(e2)) => {
            format!("jobs=1 failed (`{e}`) but jobs={jobs} produced a different error (`{e2}`)")
        }
    };
    Some((ScenarioVerdict::OracleFailure, detail))
}

/// In-memory checkpoint corruption sub-checks: the parser must survive
/// truncation and bit flips (typed error or clean parse, never a
/// panic), and must recover the committed prefix after a mid-append
/// kill.
fn checkpoint_faults(
    scenario: &JobSpec,
    result: &PipelineResult,
    program: &Program,
) -> Option<String> {
    let wants = scenario.faults.entries.iter().any(|e| {
        matches!(
            e,
            FaultEntry::CheckpointTruncate { .. }
                | FaultEntry::CheckpointBitflip { .. }
                | FaultEntry::Halt { .. }
        )
    });
    if !wants {
        return None;
    }
    let header = scenario.header(program);
    let line = UnitRecord::from_result("chaos", result, &[]).to_json();
    let text = format!("{}\n{line}\n", header.to_json());
    // Parses `text`; a parser panic becomes the failure `what`.
    let parse = |text: &str, what: String| {
        catch_unwind(AssertUnwindSafe(|| crate::checkpoint::parse_checkpoint(text, None)))
            .map_err(|payload| format!("{what}: {}", panic_message(payload.as_ref())))
    };
    for entry in &scenario.faults.entries {
        match entry {
            FaultEntry::CheckpointTruncate { permille } => {
                let cut =
                    &text[..text.floor_char_boundary(text.len() * (*permille as usize) / 1000)];
                match parse(cut, format!("checkpoint parser panicked on a {permille}‰ truncation"))
                {
                    Err(panicked) => return Some(panicked),
                    Ok(Ok(ck)) if *permille == 1000 && ck.records.len() != 1 => {
                        return Some(format!(
                            "untouched checkpoint recovered {} record(s) instead of 1",
                            ck.records.len()
                        ));
                    }
                    Ok(_) => {}
                }
            }
            FaultEntry::CheckpointBitflip { permille, bit } => {
                let mut bytes = text.clone().into_bytes();
                let pos = (bytes.len() * (*permille as usize) / 1000).min(bytes.len() - 1);
                bytes[pos] ^= 1 << bit;
                // Invalid UTF-8 counts as a cleanly detected corruption.
                if let Ok(flipped) = String::from_utf8(bytes) {
                    let what = format!("checkpoint parser panicked on a bit flip at {permille}‰");
                    if let Err(panicked) = parse(&flipped, what) {
                        return Some(panicked);
                    }
                }
            }
            FaultEntry::Halt { after } => {
                // A crash after `after` commits: the file holds `after`
                // whole record lines plus one the crash cut in half.
                // Recovery must return exactly the committed prefix and
                // flag the dropped tail.
                let killed = format!(
                    "{}\n{}{}",
                    header.to_json(),
                    format!("{line}\n").repeat(*after as usize),
                    durable::torn_prefix(&line)
                );
                match parse(
                    &killed,
                    format!("checkpoint recovery panicked after a kill at {after}"),
                ) {
                    Err(panicked) => return Some(panicked),
                    Ok(Err(e)) => {
                        return Some(format!(
                            "crash recovery rejected a valid prefix (kill after {after}): {e}"
                        ));
                    }
                    Ok(Ok(ck)) if ck.records.len() != *after as usize => {
                        return Some(format!(
                            "crash recovery found {} record(s), expected the {} committed \
                             before the kill",
                            ck.records.len(),
                            after
                        ));
                    }
                    Ok(Ok(ck)) if !ck.dropped_partial_tail => {
                        return Some(
                            "crash recovery did not flag the torn final record".to_string(),
                        );
                    }
                    Ok(Ok(_)) => {}
                }
            }
            _ => {}
        }
    }
    None
}

/// Corrupts a placement the way a buggy partitioner would (the
/// `misplace` term): flip a homed object to another
/// cluster, or — when there is none to flip — park an op on a cluster
/// the machine does not have.
fn corrupt_placement(result: &mut PipelineResult, n: usize) {
    if n > 1 {
        let homed = result.placement.object_home.iter().find_map(|(o, h)| h.map(|c| (o, c)));
        if let Some((obj, c)) = homed {
            result.placement.object_home[obj] = Some(ClusterId::new((c.index() + 1) % n));
            return;
        }
    }
    let fid = result.program.entry;
    if let Some(op) = result.program.functions[fid].ops.keys().next() {
        result.placement.set_cluster(fid, op, ClusterId::new(n));
    }
}

fn sample_scenario(cfg: &ChaosConfig, points: &[SweepPoint], media: &[&str], id: usize) -> JobSpec {
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.seed, id as u64));
    let point = points[rng.gen_range(0..points.len())];
    let method = match rng.gen_range(0u32..8) {
        0..=4 => Method::Gdp,
        5 => Method::ProfileMax,
        6 => Method::Naive,
        _ => Method::Unified,
    };
    let target = if media.is_empty() || rng.gen_bool(0.8) {
        let funcs = rng.gen_range(1usize..4);
        let depth = rng.gen_range(1usize..3).min(funcs);
        let region = rng.gen_range(6usize..28);
        let objects = rng.gen_range(2usize..9);
        let sharing = rng.gen_range(1usize..3);
        let trips = rng.gen_range(1usize..9);
        let pseed = rng.next_u64() & 0xffff;
        format!(
            "funcs={funcs},depth={depth},region={region},objects={objects},\
             sharing={sharing},trips={trips},seed={pseed}"
        )
    } else {
        media[rng.gen_range(0..media.len())].to_string()
    };
    let mut entries = Vec::new();
    if rng.gen_bool(0.35) {
        let times = if rng.gen_bool(0.5) { u32::MAX } else { rng.gen_range(1u32..3) };
        entries.push(FaultEntry::UnitPanic { unit: format!("#{}", rng.gen_range(0u32..4)), times });
    }
    if rng.gen_bool(0.3) {
        entries.push(FaultEntry::Fuel { budget: rng.gen_range(0u64..40) });
    }
    if rng.gen_bool(0.25) {
        entries.push(FaultEntry::EstimatorBudget { calls: rng.gen_range(1u64..64) });
    }
    if rng.gen_bool(0.1) {
        // Generous on purpose: arms the watchdog without ever firing,
        // keeping the soak deterministic on slow machines.
        entries.push(FaultEntry::Timeout { ms: 120_000 });
    }
    if rng.gen_bool(0.25) {
        entries.push(FaultEntry::CheckpointTruncate { permille: rng.gen_range(0u32..1001) });
    }
    if rng.gen_bool(0.2) {
        entries.push(FaultEntry::CheckpointBitflip {
            permille: rng.gen_range(0u32..1001),
            bit: rng.gen_range(0u32..8) as u8,
        });
    }
    if rng.gen_bool(0.15) {
        entries.push(FaultEntry::Halt { after: rng.gen_range(0u32..3).into() });
    }
    entries.extend(cfg.faults.entries.iter().cloned());
    JobSpec {
        method,
        machine: point,
        faults: FaultPlan { entries },
        seed: Some(derive_seed(cfg.seed, 0x1000_0000 ^ id as u64)),
        ..JobSpec::new(target)
    }
}

/// Greedy shrink: repeatedly try simpler variants (drop a fault entry,
/// simplify the machine one axis at a time, halve a synthetic-program
/// axis) and keep any that still fails, until nothing simpler fails or
/// the re-run budget is spent.
fn shrink(
    failing: ScenarioResult,
    cfg: &ChaosConfig,
    cache: &mut TargetCache,
) -> Result<(ScenarioResult, u64), ChaosError> {
    let mut best = failing;
    let mut steps = 0u64;
    'outer: loop {
        for candidate in shrink_candidates(&best.scenario) {
            if steps >= SHRINK_BUDGET {
                break 'outer;
            }
            steps += 1;
            let result = run_scenario_cached(&candidate, cfg, cache)?;
            if result.failed() {
                best = result;
                continue 'outer;
            }
        }
        break;
    }
    Ok((best, steps))
}

fn shrink_candidates(s: &JobSpec) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for i in (0..s.faults.entries.len()).rev() {
        let mut faults = s.faults.clone();
        faults.entries.remove(i);
        out.push(JobSpec { faults, ..s.clone() });
    }
    let (point, paper) = (s.machine, SweepPoint::paper());
    let on = |machine: SweepPoint| JobSpec { machine, ..s.clone() };
    if point.topology != Topology::Bus {
        out.push(on(SweepPoint { topology: Topology::Bus, ..point }));
    }
    if point.latency != 1 {
        out.push(on(SweepPoint { latency: 1, ..point }));
    }
    if point.mix != paper.mix {
        out.push(on(SweepPoint { mix: paper.mix, ..point }));
    }
    if point.memory != MemoryModel::Partitioned {
        out.push(on(SweepPoint { memory: MemoryModel::Partitioned, ..point }));
    }
    if point.clusters > 1 {
        let fewer = if point.clusters > 2 { point.clusters / 2 } else { 1 };
        out.push(on(SweepPoint { clusters: fewer, ..point }));
    }
    if s.program.contains('=') {
        if let Ok(spec) = SynthSpec::parse(&s.program) {
            for field in 0..6 {
                if let Some(smaller) = halve_spec(spec, field) {
                    out.push(JobSpec { program: render_spec(&smaller), ..s.clone() });
                }
            }
        }
    }
    out
}

fn halve_spec(mut spec: SynthSpec, field: usize) -> Option<SynthSpec> {
    match field {
        0 if spec.funcs > 1 => spec.funcs /= 2,
        1 if spec.depth > 1 => spec.depth /= 2,
        2 if spec.region_ops > 4 => spec.region_ops /= 2,
        3 if spec.objects > 1 => spec.objects /= 2,
        4 if spec.sharing > 1 => spec.sharing /= 2,
        5 if spec.trips > 1 => spec.trips /= 2,
        _ => return None,
    }
    Some(spec)
}

fn render_spec(spec: &SynthSpec) -> String {
    format!(
        "funcs={},depth={},region={},objects={},sharing={},trips={},seed={}",
        spec.funcs, spec.depth, spec.region_ops, spec.objects, spec.sharing, spec.trips, spec.seed
    )
}

fn write_repro(
    dir: &std::path::Path,
    seed: u64,
    id: usize,
    result: &ScenarioResult,
) -> Result<PathBuf, ChaosError> {
    let io_err = |path: &std::path::Path, e: std::io::Error| ChaosError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(format!("chaos-seed{seed}-s{id}.repro"));
    let mut body = format!(
        "# mcpart chaos repro — seed {seed}, scenario {id}\n# verdict: {}\n",
        result.verdict.slug()
    );
    for line in result.detail.lines() {
        body.push_str("# ");
        body.push_str(line);
        body.push('\n');
    }
    body.push_str(&result.scenario.repro());
    durable::publish_atomic(&path, body.as_bytes()).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg(scenarios: usize, seed: u64) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(scenarios, seed);
        // A tiny sweep keeps test scenarios fast and all-synthetic
        // sampling avoids loading Mediabench in the unit suite.
        cfg.sweep =
            SweepMatrix::parse("clusters = [1, 2, 4]\nlatency = [1, 5]\n").expect("tiny sweep");
        cfg.jobs_compare = 2;
        cfg
    }

    #[test]
    fn scenario_roundtrips_through_the_repro_grammar() {
        let s = JobSpec {
            method: Method::ProfileMax,
            machine: SweepPoint { clusters: 4, topology: Topology::Ring, ..SweepPoint::paper() },
            faults: "fuel:3+panic:#1x2".parse::<FaultPlan>().expect("plan"),
            seed: Some(99),
            ..JobSpec::new("funcs=2,depth=1,region=9,objects=3,sharing=1,trips=2,seed=7")
        };
        let parsed = JobSpec::parse_repro(&s.repro()).expect("roundtrip");
        assert_eq!(parsed, s);
        // Comments and missing optional keys are tolerated.
        let sparse = JobSpec::parse_repro("# hi\ntarget = rawcaudio\n").expect("sparse");
        assert_eq!(sparse.program, "rawcaudio");
        assert_eq!(sparse.method, Method::Gdp);
        assert_eq!(sparse.machine, SweepPoint::paper());
        assert!(sparse.faults.is_empty());
        assert_eq!(sparse.seed, Some(0), "a repro without a seed runs seed 0");
        // Errors carry the line.
        let e = JobSpec::parse_repro("target = x\nwarp = 1\n").expect_err("unknown key");
        assert!(matches!(e, ChaosError::Parse { line: 2, .. }), "{e}");
        let e = JobSpec::parse_repro("# empty\n").expect_err("no target");
        assert!(e.to_string().contains("target"), "{e}");
    }

    /// Pins what chaos derives from each of the first 200 scenarios of
    /// the CI soak's seed: the repro text, the machine, the pipeline
    /// fields the scenario sets and the header of the checkpoint
    /// corruption sub-checks.
    #[test]
    fn sampled_scenarios_derive_pinned_machines_configs_and_headers() {
        use std::fmt::Write as _;
        let cfg = ChaosConfig::new(200, 20260807);
        let points = cfg.sweep.expand();
        let media = mediabench_names();
        let mut programs: HashMap<String, Program> = HashMap::new();
        let mut digest = durable::Fnv1a::default();
        for id in 0..cfg.scenarios {
            let s = sample_scenario(&cfg, &points, &media, id);
            let program = programs.entry(s.program.clone()).or_insert_with(|| {
                mcpart_workloads::resolve(&s.program).expect("sampled target resolves").program
            });
            let pcfg = s.config().with_jobs(1);
            let header = s.header(program);
            writeln!(
                digest,
                "{}|{:?}|{:?}|{}|{}|{:?}|{:?}|{}",
                s.repro(),
                s.machine().expect("sampled machines validate"),
                pcfg.gdp.fuel,
                pcfg.rhop.seed,
                pcfg.rhop.faults,
                pcfg.rhop.max_estimator_calls,
                pcfg.unit_timeout,
                header.to_json()
            )
            .expect("hashing never fails");
        }
        assert_eq!(
            digest.finish(),
            0xe6b2_095f_b0c4_5821,
            "a sampled run derives a different machine/config/header"
        );
    }

    #[test]
    fn soak_is_deterministic_and_clean() {
        let cfg = quiet_cfg(12, 0xC0FFEE);
        let a = run_chaos(&cfg).expect("soak");
        let b = run_chaos(&cfg).expect("soak again");
        assert_eq!(a, b, "same seed must reproduce the same soak bit-for-bit");
        assert_eq!(a.scenarios, 12);
        assert!(a.failures.is_empty(), "clean build must pass the oracle: {:?}", a.failures);
        assert!(a.oracle_checks > 0);
        assert!(a.passed + a.typed_errors == 12);
    }

    #[test]
    fn counters_reach_the_obs_sink() {
        let mut cfg = quiet_cfg(5, 7);
        cfg.obs = Obs::enabled();
        let summary = run_chaos(&cfg).expect("soak");
        let log = cfg.obs.pinned_log();
        assert!(log.contains(" chaos/scenarios counter=5\n"), "{log}");
        let checks = format!(" chaos/oracle_checks counter={}\n", summary.oracle_checks);
        assert!(log.contains(&checks), "{log}");
        assert!(log.contains(" chaos/failures counter=0\n"), "{log}");
    }

    #[test]
    fn injected_bad_placement_is_caught_shrunk_and_replayable() {
        let dir = std::env::temp_dir().join(format!("mcpart-chaos-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = quiet_cfg(3, 0xBAD);
        cfg.faults = "misplace".parse::<FaultPlan>().expect("plan");
        cfg.corpus = Some(dir.clone());
        let summary = run_chaos(&cfg).expect("soak");
        assert!(!summary.failures.is_empty(), "the oracle must catch corrupted placements");
        assert_eq!(summary.repro_files.len(), summary.failures.len());
        assert!(summary.shrink_steps > 0, "failures must be shrunk");
        // Every repro file replays to the same failure.
        for path in &summary.repro_files {
            let text = std::fs::read_to_string(path).expect("read repro");
            let scenario = JobSpec::parse_repro(&text).expect("parse repro");
            assert!(scenario.faults.entries.contains(&FaultEntry::Misplace), "{text}");
            let replay = run_scenario(&scenario, &cfg).expect("replay");
            assert!(replay.failed(), "replayed repro must still fail: {}", replay.detail);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_heavy_scenarios_never_panic() {
        // Arm every deterministic injector at once on a ladder-friendly
        // method: the run must end in a placement or a typed error.
        let cfg = quiet_cfg(1, 1);
        let scenario = JobSpec {
            faults: "panic:#0+fuel:0+estimator:1+truncate:500+bitflip:500.3"
                .parse::<FaultPlan>()
                .expect("plan"),
            seed: Some(17),
            ..JobSpec::new("funcs=2,depth=1,region=10,objects=3,sharing=1,trips=2,seed=5")
        };
        let result = run_scenario(&scenario, &cfg).expect("run");
        assert_ne!(result.verdict, ScenarioVerdict::Panicked, "{}", result.detail);
    }

    #[test]
    fn shrink_reduces_a_failing_scenario() {
        let cfg = quiet_cfg(1, 2);
        let scenario = JobSpec {
            machine: SweepPoint {
                clusters: 4,
                latency: 10,
                topology: Topology::Mesh,
                ..SweepPoint::paper()
            },
            // A fault that downgrades one rung but leaves the ladder
            // able to finish, so the corrupted placement gets judged.
            faults: "fuel:0+timeout:120000+misplace".parse::<FaultPlan>().expect("plan"),
            seed: Some(5),
            ..JobSpec::new("funcs=3,depth=2,region=20,objects=6,sharing=2,trips=8,seed=3")
        };
        let first = run_scenario(&scenario, &cfg).expect("run");
        assert!(first.failed());
        let mut cache = HashMap::new();
        let (shrunk, steps) = shrink(first, &cfg, &mut cache).expect("shrink");
        assert!(steps > 0);
        assert!(shrunk.failed());
        // The shrunk machine is simpler and the fault plan no larger.
        assert!(shrunk.scenario.machine.clusters <= scenario.machine.clusters);
        assert!(shrunk.scenario.faults.entries.len() <= scenario.faults.entries.len());
        assert!(shrunk.scenario.faults.entries.contains(&FaultEntry::Misplace));
        assert_eq!(shrunk.scenario.machine.topology, Topology::Bus);
    }
}
