//! `mcpart` — command-line driver for the data/computation partitioner.
//!
//! ```text
//! mcpart list                                   # available benchmarks
//! mcpart run rawcaudio --method gdp --latency 5 # one pipeline run
//! mcpart compare rawcaudio --latency 10         # all four methods
//! mcpart dump rawcaudio > rawcaudio.mcir        # textual IR
//! mcpart exec program.mcir --method gdp         # partition a text-IR file
//! mcpart partition rawcaudio                    # object homes chosen by GDP
//! ```
//!
//! Every subcommand parses its flags on the shared cursor
//! ([`mcpart_bench::args::Flags`]); the one-shot commands fill the same
//! run spec ([`JobSpec`]) a `serve` job file does.
//!
//! Exit codes: `0` success, `1` pipeline or input failure (unreadable
//! file, parse error, partitioner failure), `2` usage error (unknown
//! command or malformed flags).

use mcpart::core::{
    load_checkpoint, run_pipeline, run_unit_full, unit_key, CheckpointError, CheckpointWriter,
    Downgrade, JobSpec, Manifest, Method, PipelineConfig, RepartitionStats, ServeConfig,
    UnitRecord,
};
use mcpart::ir::{program_to_string, Profile, Program};
use mcpart::machine::Machine;
use mcpart::obs::metrics::MetricsRegistry;
use mcpart::obs::{EventKind, Obs};
use mcpart::par::fault::FaultPlan;
use mcpart::par::supervise::QuarantinedUnit;
use mcpart::workloads::{SynthSpec, TargetError};
use mcpart_bench::args::{ArgError, Flags};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Duration;

/// Prints a line to stdout, exiting quietly when the consumer has gone
/// away (e.g. `mcpart list | head`): a broken pipe is a normal way for
/// a CLI's output to end, not a panic.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

const USAGE: &str =
    "usage: mcpart <list|gen|run|compare|dump|exec|partition|repartition|schedule|serve|chaos|\
     stats|trace-check|checkpoint-diff> [args]
gen <spec> [--out <path>]  generate a synthetic scale program: <spec> is
         a preset (synth_10k, synth_100k, synth_1m) or key=value,...
         (keys ops,funcs,depth,region,objects,sharing,trips,seed);
         prints size stats, --out writes the .mcir text. Synthetic
         names/specs also work as targets for partition/run/compare.
options of run, exec, compare, schedule and repartition (partition takes
only --clusters/--latency/--memory/--jobs/--trace-out/--metrics; run, serve
and chaos share --jobs/--trace-out/--metrics/--fault, run and serve also
--retries/--unit-timeout; anything else is a usage error):
         --method gdp|profile-max|naive|unified  --latency <cycles>
         --clusters <n>  --memory partitioned|unified|coherent:<penalty>
         --gdp-fuel <n>  (cap GDP refinement; exhaustion triggers the
                          ProfileMax/Naive fallback ladder)
         --jobs <n>      (worker threads for partitioning; 0 = all
                          cores, the default; never changes results)
         --trace-out <path>  (write a Chrome trace_event JSON of the run)
         --metrics           (print the metrics table, the one `stats`
                              prints for the --trace-out file)
         --retries <n>       (panic retry budget per work unit; default 2)
         --checkpoint <path> (append one JSON record per finished unit;
                              not schedule, not with --fault panic:)
         --resume            (with --checkpoint: skip recorded units and
                              replay their results; crash-safe)
         --unit-timeout <ms> (wall-clock ceiling per partition attempt)
         --allow-quarantine  (exit 0 even when units were quarantined)
         --fault <plan>      (testing: panic:<func>[xN] panics in `func`'s
                              first N attempts, default all (not with
                              --checkpoint); halt:<n> (with --checkpoint)
                              commits n units, then dies mid-write)
repartition <target> --baseline <checkpoint> [run options]
         incremental re-partition against a prior GDP run's manifest:
         functions whose content, accessed data groups, and merge
         neighbourhood are unchanged replay the baseline's placement
         byte-identically; only the dirty cone re-runs RHOP. A
         manifest-less baseline degrades to a full run (never an
         error); an incompatible one (different name/seed/clusters/
         latency/memory/fuel) is rejected with exit 2
serve <spool-dir> [--drain] [--batch n] [--queue n] [--poll-ms n]
         [--telemetry-every n] [--max-requeues n] [--fault halt:<n>]
         [--jobs n] [--retries n] [--unit-timeout ms] [--trace-out path]
         [--metrics]
         long-running partition service: submit jobs as
         <spool-dir>/*.job files, read results from <spool-dir>/out/;
         repeat submissions are integrity-verified cache hits; the
         flight recorder appends metric snapshots to
         <spool-dir>/telemetry/ every n committed jobs (0 disables);
         a job requeued by crash recovery more than n times (default 3)
         is quarantined to failed/ as poison instead of requeued
chaos <scenarios> [--seed n] [--shrink|--no-shrink] [--corpus dir]
         [--sweep file] [--jobs n (default 4)] [--metrics]
         [--trace-out path] [--fault plan] | --replay <file>
         deterministic soak: samples (program, machine, fault-plan)
         scenarios from a k-cluster sweep matrix, runs the pipeline
         under injected faults, and judges every outcome with an
         independent placement oracle (well-formedness, recounted
         bytes/cut, move accounting, ladder soundness, semantics,
         jobs-invariance at --jobs workers); --fault appends its terms
         (e.g. misplace, corrupting each placement) to every scenario.
         Failures are shrunk to minimal repros written to --corpus;
         --replay re-runs one repro file exactly; --sweep replaces the
         built-in machine matrix (malformed files exit 2 with line/column)
stats <telemetry-dir|trace.json> [--pinned]  per-stage latency and
         work-distribution tables (count/sum/min/p50/p90/p99/max) from a
         serve telemetry directory or a Chrome trace file (for a trace,
         the table --metrics printed live); --pinned prints only the
         deterministic work histograms as JSON
trace-check <path> [--require cat/name[=v],...] [--forbid cat/name,...]
         decodes a trace file (each event needs name, cat, ph X or C
         and an integer ts; a span an integer dur, a counter its
         value); --require checks a counter exists (and its last
         sample equals v, if given), --forbid fails on any nonzero
         sample (e.g. --forbid supervise/quarantined for clean runs)
checkpoint-diff <a> <b>  compares two checkpoint files, ignoring
         non-pinned fields (wall-clock); manifest deltas are reported
         per function, sorted; exit 1 on any difference";

/// A CLI failure, split by whose fault it is: `Usage` means the command
/// line itself was malformed (exit 2, with usage text), `Config` means
/// the configuration on disk is unusable — a corrupt or mismatched
/// checkpoint (exit 2, diagnostic only), `Runtime` means the inputs or
/// the pipeline failed (exit 1).
enum CliError {
    Usage(String),
    Config(String),
    Runtime(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

/// The flags `run`, `serve` and `chaos` share: the worker count, the
/// supervision knobs (not taken by chaos), the observability outputs
/// and the injected faults.
struct Common {
    jobs: usize,
    retries: u32,
    unit_timeout: Option<Duration>,
    trace_out: Option<String>,
    metrics: bool,
    faults: FaultPlan,
}

impl Common {
    fn new(jobs: usize) -> Self {
        let faults = FaultPlan::none();
        Common { jobs, retries: 2, unit_timeout: None, trace_out: None, metrics: false, faults }
    }

    /// Consumes `flag` and its value if it is a shared flag `command`
    /// accepts; returns whether it was.
    fn take(&mut self, command: &str, flag: &str, flags: &mut Flags) -> Result<bool, ArgError> {
        match flag {
            "--jobs" => self.jobs = flags.value(flag, "a number")?,
            "--trace-out" => self.trace_out = Some(flags.value(flag, "a path")?),
            "--metrics" => self.metrics = true,
            "--retries" if command != "chaos" => self.retries = flags.value(flag, "a number")?,
            "--unit-timeout" if command != "chaos" => {
                let ms = flags.positive(flag, "a positive millisecond count")?;
                self.unit_timeout = Some(Duration::from_millis(ms));
            }
            "--fault" => {
                self.faults = flags.value(flag, "a fault plan")?;
                // Each command takes the terms it can apply; chaos takes all.
                let accepted: &[&str] = match command {
                    "chaos" => return Ok(true),
                    "serve" => &["halt"],
                    "schedule" => &["panic"],
                    _ => &["panic", "halt"],
                };
                self.faults
                    .accept_only(accepted)
                    .map_err(|e| ArgError(format!("{command} {flag}: {e}")))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// One observability sink per invocation: recording only when the
    /// user asked for a trace file or the metrics table.
    fn obs(&self) -> Obs {
        if self.trace_out.is_some() || self.metrics {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// Writes the Chrome trace and/or prints the metrics table, as
    /// requested by `--trace-out` / `--metrics`. The table is the one
    /// `mcpart stats` prints for the trace file.
    fn emit(&self, obs: &Obs) -> Result<(), CliError> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, obs.chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if self.metrics {
            outln!("== observability summary ==");
            outln!("{}", MetricsRegistry::from_events(&obs.events()).render_table());
        }
        Ok(())
    }
}

/// Options of the one-shot commands (`run`, `exec`, `compare`,
/// `schedule`, `partition`, `repartition`): the run spec a job file
/// would carry, plus the shared flags and checkpointing.
struct Options {
    spec: JobSpec,
    common: Common,
    checkpoint: Option<String>,
    resume: bool,
    allow_quarantine: bool,
    /// `repartition --baseline <checkpoint>`.
    baseline: Option<String>,
}

/// The only flags `partition` (GDP's object homes, nothing after) uses.
const PARTITION_FLAGS: [&str; 6] =
    ["--clusters", "--latency", "--memory", "--jobs", "--trace-out", "--metrics"];

fn parse_options(command: &str, target: &str, args: &[String]) -> Result<Options, ArgError> {
    let mut o = Options {
        spec: JobSpec::new(target),
        common: Common::new(0),
        checkpoint: None,
        resume: false,
        allow_quarantine: false,
        baseline: None,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        let spec = &mut o.spec;
        let foreign = || ArgError(format!("{command} does not take {flag}"));
        match flag {
            _ if command == "partition" && !PARTITION_FLAGS.contains(&flag) => {
                return Err(foreign())
            }
            "--checkpoint" | "--resume" if command == "schedule" => return Err(foreign()),
            _ if o.common.take(command, flag, &mut flags)? => {}
            "--latency" => spec.machine.latency = flags.value(flag, "a number")?,
            "--clusters" => {
                spec.machine.clusters = flags.positive(flag, "a positive cluster count")?;
            }
            "--method" => spec.method = flags.value(flag, "gdp|profile-max|naive|unified")?,
            "--memory" => {
                spec.machine.memory =
                    flags.value(flag, "partitioned|unified|coherent:<penalty>")?;
            }
            // The checkpoint header carries the fuel as a JSON number,
            // which is exact only below 2^53 (the job-file bound too).
            "--gdp-fuel" => {
                spec.gdp_fuel =
                    Some(flags.value_if(flag, "a number below 2^53", |&f: &u64| f < 1 << 53)?);
            }
            "--checkpoint" => o.checkpoint = Some(flags.value(flag, "a path")?),
            "--resume" => o.resume = true,
            "--allow-quarantine" => o.allow_quarantine = true,
            "--baseline" if command == "repartition" => {
                o.baseline = Some(flags.value(flag, "a checkpoint path")?);
            }
            other => return Err(Flags::unknown(other)),
        }
    }
    let halt = o.common.faults.halt().is_some();
    for (set, what) in [(o.resume, "--resume"), (halt, "--fault halt:<n>")] {
        if set && o.checkpoint.is_none() {
            return Err(ArgError(format!("{what} requires --checkpoint <path>")));
        }
    }
    // The checkpoint header does not record the fault plan, so records
    // computed under an injected panic would replay as clean ones.
    if o.checkpoint.is_some() && o.common.faults.entries.iter().any(|e| e.kind() == "panic") {
        return Err(ArgError("--checkpoint cannot record a run under --fault panic:...".into()));
    }
    Ok(o)
}

impl Options {
    /// The pipeline configuration of `method` under these options.
    fn config(&self, method: Method) -> PipelineConfig {
        let spec = JobSpec { method, faults: self.common.faults.clone(), ..self.spec.clone() };
        let mut cfg = spec.config().with_jobs(self.common.jobs).with_retries(self.common.retries);
        cfg.unit_timeout = self.common.unit_timeout;
        cfg
    }

    fn machine(&self) -> Result<Machine, CliError> {
        self.spec
            .machine()
            .map_err(|e| CliError::Usage(format!("machine configuration invalid: {e}")))
    }
}

/// Parses a one-shot command's target and options and loads the target.
fn prepare(args: &[String]) -> Result<(Options, Program, Profile), CliError> {
    let command = &args[0];
    let target = args
        .get(1)
        .ok_or_else(|| CliError::usage(format!("{command} needs a benchmark name or file")))?;
    let o = parse_options(command, target, &args[2..])?;
    let (program, profile) = load_target(target)?;
    Ok((o, program, profile))
}

/// Resolves a target ([`mcpart::workloads::resolve`]). A malformed
/// synthetic spec is a usage error (exit 2, with the parser's column
/// diagnostic); everything else that fails is a runtime error.
fn load_target(target: &str) -> Result<(Program, Profile), CliError> {
    match mcpart::workloads::resolve(target) {
        Ok(w) => Ok((w.program, w.profile)),
        Err(e @ TargetError::Spec { .. }) => Err(CliError::Usage(e.to_string())),
        Err(e) => Err(CliError::Runtime(e.to_string())),
    }
}

/// Announces any degradation-ladder activity on stderr so scripted
/// consumers of stdout still see the warning.
fn report_downgrades(downgrades: &[Downgrade]) {
    for d in downgrades {
        eprintln!("warning: downgraded {d}");
    }
}

/// Splits checkpoint failures by exit code: a corrupt or mismatched
/// file is a configuration problem (exit 2, diagnostic only); an I/O
/// failure is a runtime one (exit 1).
fn ck_err(e: CheckpointError) -> CliError {
    match e {
        CheckpointError::Io(_) => CliError::Runtime(e.to_string()),
        _ => CliError::Config(e.to_string()),
    }
}

/// An open checkpoint file: previously completed units (on `--resume`)
/// plus the writer that appends each newly finished one.
struct CheckpointSession {
    writer: CheckpointWriter,
    resumed: Vec<UnitRecord>,
    /// `--fault halt:<n>`: records left to commit before the crash
    /// hook tears the next one ([`CheckpointWriter::crash_mid_append`]).
    halt: Option<u64>,
}

impl CheckpointSession {
    /// Opens the checkpoint named by `--checkpoint`, if any. With
    /// `--resume` and an existing file, the file is validated against
    /// this run's header and its completed units are carried over
    /// (rewriting the file drops any crash artifact from the tail);
    /// otherwise a fresh file is created.
    fn open(o: &Options, program: &Program) -> Result<Option<CheckpointSession>, CliError> {
        let Some(path) = &o.checkpoint else { return Ok(None) };
        let header = o.spec.header(program);
        let (writer, resumed) = if o.resume && std::path::Path::new(path).exists() {
            let ck = load_checkpoint(path, &header).map_err(ck_err)?;
            if ck.dropped_partial_tail {
                eprintln!("note: {path}: discarded a partial trailing record (crash artifact)");
            }
            let writer = CheckpointWriter::resume(path, &header, &ck.records, &ck.manifests)
                .map_err(ck_err)?;
            (writer, ck.records)
        } else {
            (CheckpointWriter::create(path, &header).map_err(ck_err)?, Vec::new())
        };
        Ok(Some(CheckpointSession { writer, resumed, halt: o.common.faults.halt() }))
    }

    /// Appends a finished unit (and its manifest, when the run
    /// produced one), honouring the `halt` crash injection point. The
    /// manifest goes second: a crash between the two lines loses only
    /// the incremental-replay hint, never the result.
    fn append(&mut self, rec: &UnitRecord, manifest: Option<&Manifest>) -> Result<(), CliError> {
        if self.halt == Some(0) {
            self.writer.crash_mid_append(rec);
        }
        self.halt = self.halt.map(|left| left - 1);
        self.writer.append(rec).map_err(ck_err)?;
        if let Some(m) = manifest {
            self.writer.append_manifest(m).map_err(ck_err)?;
        }
        Ok(())
    }

    fn resumed_record(&self, unit: &str) -> Option<UnitRecord> {
        self.resumed.iter().find(|r| r.unit == unit).cloned()
    }
}

/// Runs (or replays) one checkpointable unit. A unit recorded in the
/// resumed checkpoint is replayed — its pinned obs events re-enter the
/// sink, so the final trace is byte-identical to an uninterrupted run —
/// without recomputation; a live unit runs the pipeline and is flushed
/// to the checkpoint before its result is reported.
#[allow(clippy::too_many_arguments)]
fn run_or_resume(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    o: &Options,
    method: Method,
    obs: &Obs,
    session: &mut Option<CheckpointSession>,
    baseline: Option<std::sync::Arc<Manifest>>,
) -> Result<(UnitRecord, Option<RepartitionStats>), CliError> {
    let unit = unit_key(program, method);
    if let Some(s) = session {
        if let Some(rec) = s.resumed_record(&unit) {
            rec.replay_events(obs);
            return Ok((rec, None));
        }
    }
    let mut config = o.config(method).with_obs(obs.clone());
    config.baseline = baseline;
    let run = run_unit_full(program, profile, machine, &config)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(s) = session {
        s.append(&run.record, run.manifest.as_ref())?;
    }
    Ok((run.record, run.repartition))
}

/// Surfaces quarantined function units: one warning per unit on
/// stderr, a report in `--metrics` output, and exit 1 unless
/// `--allow-quarantine` accepts the fallback placement.
fn report_quarantine(o: &Options, quarantined: Vec<&QuarantinedUnit>) -> Result<(), CliError> {
    if quarantined.is_empty() {
        return Ok(());
    }
    for q in &quarantined {
        eprintln!("warning: quarantined `{}` after {} attempts: {}", q.unit, q.attempts, q.reason);
    }
    if o.common.metrics {
        outln!("quarantine report: {} unit(s)", quarantined.len());
        for q in &quarantined {
            outln!("  {} ({} attempts): {}", q.unit, q.attempts, q.reason);
        }
    }
    if o.allow_quarantine {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} unit(s) quarantined (rerun with --allow-quarantine to accept the fallback \
             placement)",
            quarantined.len()
        )))
    }
}

fn report_run(
    program: &Program,
    profile: &Profile,
    o: &Options,
    baseline: Option<std::sync::Arc<Manifest>>,
) -> Result<(), CliError> {
    let machine = o.machine()?;
    let obs = o.common.obs();
    let mut session = CheckpointSession::open(o, program)?;
    let (rec, repartition) =
        run_or_resume(program, profile, &machine, o, o.spec.method, &obs, &mut session, baseline)?;
    report_downgrades(&rec.downgrades);
    outln!("benchmark: {}", program.name);
    outln!(
        "machine:   {} clusters, {}-cycle moves",
        o.spec.machine.clusters,
        o.spec.machine.latency
    );
    if rec.requested != rec.method {
        outln!("method:    {} (downgraded from {})", rec.method, rec.requested);
    } else {
        outln!("method:    {}", rec.method);
    }
    outln!("cycles:    {}", rec.cycles);
    outln!("moves:     {} dynamic intercluster ({} static)", rec.dynamic_moves, rec.moves_inserted);
    if rec.remote > 0 {
        outln!("remote:    {} dynamic remote accesses", rec.remote);
    }
    outln!("data:      {:?} bytes per cluster", rec.data_bytes);
    outln!("ops:       {:?} per cluster", rec.placement().ops_per_cluster(o.spec.machine.clusters));
    outln!("pressure:  {} live registers at the worst block boundary", rec.pressure);
    outln!("partition: {:.1} ms", rec.partition_ms);
    // Dirty-cone counters land after the unit's pinned events, so the
    // incremental trace is the from-scratch trace plus a trailing
    // `repartition/*` block.
    if let Some(rp) = &repartition {
        obs.counter("repartition", "dirty_funcs", rp.dirty_funcs as i64);
        obs.counter("repartition", "replayed_funcs", rp.replayed_funcs as i64);
        obs.counter("repartition", "cone_frac_x1000", rp.cone_frac_x1000() as i64);
        outln!(
            "repartition: {} dirty / {} replayed of {} functions (cone {:.1}%)",
            rp.dirty_funcs,
            rp.replayed_funcs,
            rp.total_funcs,
            rp.cone_frac_x1000() as f64 / 10.0
        );
    }
    o.common.emit(&obs)?;
    report_quarantine(o, rec.quarantine.iter().collect())
}

/// Set by the signal handler; polled by the serve loop, which drains
/// the in-flight batch and exits 0 — crash-only shutdown.
static SERVE_SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn serve_shutdown_handler(_signum: i32) {
    // Only async-signal-safe work here: set the flag, nothing else.
    SERVE_SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a drain-and-exit.
/// `libc::signal` via a minimal FFI declaration: the workspace takes
/// no external dependencies, and storing to a static `AtomicBool` is
/// the one thing a handler may safely do.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C standard library's handler
    // registration; the handler only stores to an atomic.
    unsafe {
        signal(SIGTERM, serve_shutdown_handler as *const () as usize);
        signal(SIGINT, serve_shutdown_handler as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result: Result<(), CliError> = match command {
        "list" => {
            outln!(
                "{:<12} {:>6} {:>8} {:>9} {:>12}",
                "benchmark",
                "ops",
                "objects",
                "bytes",
                "suite"
            );
            for w in mcpart::workloads::all() {
                outln!(
                    "{:<12} {:>6} {:>8} {:>9} {:>12}",
                    w.name,
                    w.num_ops(),
                    w.num_objects(),
                    w.program.total_object_size(),
                    w.suite.to_string()
                );
            }
            Ok(())
        }
        "run" | "exec" => (|| {
            let (o, program, profile) = prepare(&args)?;
            report_run(&program, &profile, &o, None)
        })(),
        "repartition" => (|| {
            let (o, program, profile) = prepare(&args)?;
            let baseline_path = o
                .baseline
                .as_deref()
                .ok_or_else(|| CliError::usage("repartition requires --baseline <checkpoint>"))?;
            if o.spec.method != Method::Gdp {
                return Err(CliError::usage(
                    "repartition only supports --method gdp (the manifest-bearing method)",
                ));
            }
            let header = o.spec.header(&program);
            let ck = mcpart::core::load_checkpoint_any(baseline_path).map_err(ck_err)?;
            if !ck.header.compatible_baseline(&header) {
                return Err(CliError::Config(format!(
                    "{baseline_path}: baseline is incompatible with this run (program name, \
                     seed, clusters, latency, memory, and gdp fuel must all match; only the \
                     program content may differ)"
                )));
            }
            let unit = unit_key(&program, o.spec.method);
            let manifest = ck.manifest_for(&unit).cloned();
            if manifest.is_none() {
                eprintln!("note: {baseline_path}: no manifest for `{unit}`; running from scratch");
            }
            report_run(&program, &profile, &o, manifest.map(std::sync::Arc::new))
        })(),
        "compare" => (|| {
            let (o, program, profile) = prepare(&args)?;
            let machine = o.machine()?;
            let obs = o.common.obs();
            let mut session = CheckpointSession::open(&o, &program)?;
            let mut unified = 0u64;
            let mut rows = Vec::new();
            let mut records = Vec::new();
            for method in Method::ALL {
                let (rec, _) = run_or_resume(
                    &program,
                    &profile,
                    &machine,
                    &o,
                    method,
                    &obs,
                    &mut session,
                    None,
                )?;
                report_downgrades(&rec.downgrades);
                if method == Method::Unified {
                    unified = rec.cycles;
                }
                let label = if rec.requested != rec.method {
                    format!("{}->{}", rec.requested, rec.method)
                } else {
                    method.to_string()
                };
                rows.push((label, rec.cycles, rec.dynamic_moves));
                records.push(rec);
            }
            outln!("{:<14} {:>10} {:>10} {:>10}", "method", "cycles", "moves", "vs unified");
            for (label, cycles, moves) in rows {
                outln!(
                    "{:<14} {:>10} {:>10} {:>9.1}%",
                    label,
                    cycles,
                    moves,
                    unified as f64 / cycles as f64 * 100.0
                );
            }
            o.common.emit(&obs)?;
            report_quarantine(&o, records.iter().flat_map(|r| &r.quarantine).collect())
        })(),
        "dump" => (|| {
            let target =
                args.get(1).ok_or_else(|| CliError::usage("dump needs a benchmark name"))?;
            let (program, _) = load_target(target)?;
            print!("{}", program_to_string(&program));
            Ok(())
        })(),
        "gen" => (|| {
            let spec = args.get(1).ok_or_else(|| {
                CliError::usage("gen needs a spec (synth_10k/synth_100k/synth_1m or key=value,...)")
            })?;
            let mut out: Option<String> = None;
            let mut flags = Flags::new(&args[2..]);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--out" => out = Some(flags.value(flag, "a path")?),
                    other => return Err(Flags::unknown(other).into()),
                }
            }
            let w = SynthSpec::parse(spec)
                .map_err(|e| CliError::Usage(format!("`{spec}`: {e}")))?
                .try_generate(spec)
                .map_err(|e| CliError::Usage(format!("`{spec}`: {e}")))?;
            outln!("name:      {}", w.name);
            outln!("functions: {}", w.program.functions.len());
            outln!("ops:       {}", w.num_ops());
            outln!("objects:   {}", w.num_objects());
            outln!("bytes:     {}", w.program.total_object_size());
            if let Some(path) = &out {
                std::fs::write(path, program_to_string(&w.program))
                    .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
                outln!("wrote:     {path}");
            }
            Ok(())
        })(),
        "schedule" => (|| {
            // Show the timeline of the hottest block under the chosen
            // method.
            let (o, program, profile) = prepare(&args)?;
            let machine = o.machine()?;
            let obs = o.common.obs();
            let config = o.config(o.spec.method).with_obs(obs.clone());
            let run =
                run_pipeline(&program, &profile, &machine, &config).map_err(|e| e.to_string())?;
            report_downgrades(&run.downgrades);
            let mut hottest = None;
            for (fid, f) in run.program.functions.iter() {
                for bid in f.blocks.keys() {
                    let sched = &run.report.schedules[fid][bid];
                    let weight = sched.length as u64 * profile.block_freq(fid, bid);
                    if hottest.as_ref().map(|&(w, _, _)| weight > w).unwrap_or(true) {
                        hottest = Some((weight, fid, bid));
                    }
                }
            }
            let (weight, fid, bid) =
                hottest.ok_or_else(|| CliError::Runtime("program has no blocks".into()))?;
            outln!(
                "hottest block: {}/{bid} ({} weighted cycles) under {}",
                run.program.functions[fid].name,
                weight,
                run.method
            );
            outln!(
                "{}",
                mcpart::sched::schedule_to_string(
                    &run.program,
                    fid,
                    &run.report.schedules[fid][bid],
                    &run.placement,
                    o.spec.machine.clusters,
                )
            );
            o.common.emit(&obs)?;
            report_quarantine(&o, run.quarantine().units.iter().collect())
        })(),
        "partition" => (|| {
            let (o, program, profile) = prepare(&args)?;
            let machine = o.machine()?;
            let program = profile.apply_heap_sizes(&program);
            let pts = mcpart::analysis::PointsTo::compute(&program);
            let access = mcpart::analysis::AccessInfo::compute(&program, &pts, &profile);
            let groups = mcpart::core::ObjectGroups::compute(&program, &access);
            let obs = o.common.obs();
            let gcfg = mcpart::core::GdpConfig {
                jobs: o.common.jobs,
                obs: obs.clone(),
                ..Default::default()
            };
            let dp =
                mcpart::core::gdp_partition(&program, &profile, &access, &groups, &machine, &gcfg)
                    .map_err(|e| e.to_string())?;
            outln!("object homes for {} (cut {}):", program.name, dp.cut);
            for (obj, home) in dp.object_home.iter() {
                if let Some(c) = home {
                    outln!("  {:<28} -> {}", program.objects[obj].name, c);
                }
            }
            outln!(
                "bytes per cluster: {:?}",
                dp.bytes_per_cluster(&program, machine.num_clusters())
            );
            o.common.emit(&obs)
        })(),
        "serve" => (|| {
            let spool =
                args.get(1).ok_or_else(|| CliError::usage("serve needs a spool directory path"))?;
            // Most one-shot flags (checkpointing, per-run method and
            // machine) are carried by the job files instead.
            let mut common = Common::new(0);
            let mut cfg = ServeConfig::default();
            let mut flags = Flags::new(&args[2..]);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    _ if common.take(command, flag, &mut flags)? => {}
                    "--drain" => cfg.drain = true,
                    "--batch" => cfg.batch = flags.positive(flag, "a positive count")?,
                    "--queue" => cfg.queue = flags.positive(flag, "a positive count")?,
                    "--poll-ms" => {
                        cfg.poll = Duration::from_millis(flags.value(flag, "a millisecond count")?);
                    }
                    "--telemetry-every" => {
                        cfg.telemetry_every = flags.value(flag, "a job count (0 disables)")?;
                    }
                    "--max-requeues" => cfg.max_requeues = flags.value(flag, "a count")?,
                    other => return Err(Flags::unknown(other).into()),
                }
            }
            cfg.jobs = common.jobs;
            cfg.retries = common.retries;
            cfg.unit_timeout = common.unit_timeout;
            cfg.faults = common.faults.clone();
            cfg.obs = common.obs();
            install_shutdown_handler();
            mcpart::core::serve(std::path::Path::new(spool), &cfg, &SERVE_SHUTDOWN)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            common.emit(&cfg.obs)
        })(),
        "chaos" => (|| {
            let mut common = Common::new(4);
            let mut cfg = mcpart::core::ChaosConfig::new(0, 0xC4A05);
            let mut scenarios: Option<usize> = None;
            let (mut replay, mut sweep_path): (Option<String>, Option<String>) = (None, None);
            let mut flags = Flags::new(&args[1..]);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    _ if common.take(command, flag, &mut flags)? => {}
                    "--seed" => cfg.seed = flags.value(flag, "a number")?,
                    "--shrink" => cfg.shrink = true,
                    "--no-shrink" => cfg.shrink = false,
                    "--corpus" => cfg.corpus = Some(flags.value(flag, "a directory")?),
                    "--replay" => replay = Some(flags.value(flag, "a repro file")?),
                    "--sweep" => sweep_path = Some(flags.value(flag, "a matrix file")?),
                    other if !other.starts_with('-') && scenarios.is_none() => {
                        scenarios = Some(other.parse().map_err(|_| {
                            CliError::usage(format!("`{other}` is not a scenario count"))
                        })?);
                    }
                    other => return Err(Flags::unknown(other).into()),
                }
            }
            cfg.jobs_compare = common.jobs;
            cfg.faults = common.faults.clone();
            cfg.obs = common.obs();
            if let Some(path) = &sweep_path {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
                cfg.sweep = mcpart::machine::SweepMatrix::parse(&text)
                    .map_err(|e| CliError::Config(format!("{path}: {e}")))?;
                cfg.sweep
                    .validate()
                    .map_err(|e| CliError::Config(format!("{path}: unusable sweep: {e}")))?;
            }
            let chaos_err = |e: mcpart::core::ChaosError| match e {
                mcpart::core::ChaosError::Io { .. } => CliError::Runtime(e.to_string()),
                other => CliError::Config(other.to_string()),
            };
            if let Some(path) = &replay {
                if !cfg.faults.is_empty() {
                    return Err(CliError::usage(
                        "--replay runs the repro file exactly; drop --fault",
                    ));
                }
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("cannot read {path}: {e}")))?;
                let scenario = JobSpec::parse_repro(&text)
                    .map_err(|e| CliError::Config(format!("{path}: {e}")))?;
                let result = mcpart::core::run_scenario(&scenario, &cfg).map_err(chaos_err)?;
                outln!(
                    "replay {path}: {} ({} oracle check(s))",
                    result.verdict.slug(),
                    result.checks_run
                );
                for line in result.detail.lines() {
                    outln!("  {line}");
                }
                common.emit(&cfg.obs)?;
                if result.failed() {
                    return Err(CliError::Runtime(format!(
                        "replayed scenario failed: {}",
                        result.verdict.slug()
                    )));
                }
                return Ok(());
            }
            let n = scenarios.ok_or_else(|| {
                CliError::usage("chaos needs a scenario count (or --replay <file>)")
            })?;
            cfg.scenarios = n;
            let sum = mcpart::core::run_chaos(&cfg).map_err(chaos_err)?;
            for (k, f) in sum.failures.iter().enumerate() {
                outln!("failure {k}: {}", f.verdict.slug());
                for line in f.detail.lines() {
                    outln!("  {line}");
                }
                outln!("  scenario:");
                for line in f.scenario.repro().lines() {
                    outln!("    {line}");
                }
            }
            for p in &sum.repro_files {
                outln!("repro written: {}", p.display());
            }
            outln!("{}", sum.line());
            common.emit(&cfg.obs)?;
            if sum.failures.is_empty() {
                Ok(())
            } else {
                Err(CliError::Runtime(format!(
                    "{} scenario(s) failed the oracle",
                    sum.failures.len()
                )))
            }
        })(),
        "trace-check" => (|| {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::usage("trace-check needs a trace file path"))?;
            // Each `--require` entry is `cat/name` (presence) or
            // `cat/name=v` (the counter's last sample must equal v).
            let mut require: Vec<(String, Option<i64>)> = Vec::new();
            let mut forbid: Vec<String> = Vec::new();
            let mut flags = Flags::new(&args[2..]);
            while let Some(flag) = flags.next_flag() {
                let mut list = || flags.value::<String>(flag, "a comma-separated counter list");
                match flag {
                    "--require" => {
                        for item in list()?.split(',').filter(|s| !s.is_empty()) {
                            match item.split_once('=') {
                                Some((label, want)) => {
                                    let want: i64 = want.parse().map_err(|_| {
                                        CliError::usage(format!(
                                            "--require {label}=<value> needs an integer, got \
                                             `{want}`"
                                        ))
                                    })?;
                                    require.push((label.to_string(), Some(want)));
                                }
                                None => require.push((item.to_string(), None)),
                            }
                        }
                    }
                    "--forbid" => {
                        forbid.extend(
                            list()?.split(',').filter(|s| !s.is_empty()).map(str::to_string),
                        );
                    }
                    other => return Err(Flags::unknown(other).into()),
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = mcpart::obs::decode_chrome_trace(&text)
                .map_err(|e| format!("{path}: invalid trace: {e}"))?;
            for w in &trace.warnings {
                eprintln!("warning: {path}: {w}");
            }
            if trace.events.is_empty() {
                return Err(CliError::Runtime(format!("{path}: trace has no events")));
            }
            let samples = |label: &str| -> Vec<i64> {
                let counters = trace.events.iter().filter_map(|e| match e.kind {
                    EventKind::Counter(v) if e.label() == label => Some(v),
                    _ => None,
                });
                counters.collect()
            };
            for (label, want) in &require {
                let Some(&got) = samples(label).last() else {
                    let missing = format!("{path}: missing required counter `{label}`");
                    return Err(CliError::Runtime(missing));
                };
                if let Some(want) = want.filter(|&w| w != got) {
                    let wrong = format!("{path}: counter `{label}` is {got}, expected {want}");
                    return Err(CliError::Runtime(wrong));
                }
            }
            for label in &forbid {
                if samples(label).iter().any(|&v| v != 0) {
                    return Err(CliError::Runtime(format!(
                        "{path}: forbidden counter `{label}` recorded a nonzero sample"
                    )));
                }
            }
            let spans = trace.events.iter().filter(|e| e.kind == EventKind::Span).count();
            outln!(
                "{path}: ok ({} events: {spans} spans, {} counter samples)",
                trace.events.len(),
                trace.events.len() - spans
            );
            Ok(())
        })(),
        "stats" => (|| {
            let target = args.get(1).ok_or_else(|| {
                CliError::usage("stats needs a telemetry directory or trace file path")
            })?;
            let mut pinned_only = false;
            let mut flags = Flags::new(&args[2..]);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--pinned" => pinned_only = true,
                    other => return Err(Flags::unknown(other).into()),
                }
            }
            let path = std::path::Path::new(target);
            let telemetry = path.is_dir()
                || path.file_name().and_then(|n| n.to_str())
                    == Some(mcpart::obs::recorder::TELEMETRY_LOG);
            let registry = if telemetry {
                let log =
                    mcpart::obs::recorder::read_telemetry_dir(path).map_err(CliError::Runtime)?;
                if log.skipped > 0 {
                    eprintln!(
                        "warning: {target}: skipped {} corrupt telemetry record(s)",
                        log.skipped
                    );
                }
                if log.snapshots.is_empty() {
                    return Err(CliError::Runtime(format!(
                        "{target}: no valid telemetry snapshots"
                    )));
                }
                let (registry, counters) = log.merged();
                if !pinned_only {
                    let runs = log.snapshots.iter().map(|s| s.run).collect::<BTreeSet<_>>();
                    outln!(
                        "telemetry: {} snapshot(s) across {} run(s)",
                        log.snapshots.len(),
                        runs.len()
                    );
                    outln!("counters (summed across runs):");
                    for (name, value) in &counters {
                        outln!("  {name:<24} {value}");
                    }
                }
                registry
            } else {
                let text = std::fs::read_to_string(target)
                    .map_err(|e| format!("cannot read {target}: {e}"))?;
                let trace = mcpart::obs::decode_chrome_trace(&text)
                    .map_err(|e| CliError::Runtime(format!("{target}: {e}")))?;
                for w in &trace.warnings {
                    eprintln!("warning: {target}: {w}");
                }
                MetricsRegistry::from_events(&trace.events)
            };
            if pinned_only {
                outln!("{}", registry.pinned_json());
                return Ok(());
            }
            if registry.is_empty() {
                outln!("no metric samples recorded");
            } else {
                outln!("{}", registry.render_table());
            }
            Ok(())
        })(),
        "checkpoint-diff" => (|| {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return Err(CliError::usage("checkpoint-diff needs two checkpoint paths"));
            };
            let load = |path: &str| -> Result<(Vec<UnitRecord>, Vec<Manifest>), CliError> {
                let ck = mcpart::core::load_checkpoint_any(path).map_err(|e| match e {
                    CheckpointError::Io(m) => CliError::Runtime(m),
                    other => CliError::Config(format!("{path}: {other}")),
                })?;
                Ok((ck.records, ck.manifests))
            };
            // Wall-clock is the one non-pinned record field; everything
            // else (placements, downgrades, quarantine, pinned events)
            // must match exactly.
            let strip = |mut r: UnitRecord| {
                r.partition_ms = 0.0;
                r
            };
            let (a_raw, a_manifests) = load(a)?;
            let (b_raw, b_manifests) = load(b)?;
            let a_records: Vec<UnitRecord> = a_raw.into_iter().map(strip).collect();
            let b_records: Vec<UnitRecord> = b_raw.into_iter().map(strip).collect();
            if a_records.len() != b_records.len() {
                return Err(CliError::Runtime(format!(
                    "checkpoints differ: {a} has {} unit(s), {b} has {}",
                    a_records.len(),
                    b_records.len()
                )));
            }
            for (ra, rb) in a_records.iter().zip(&b_records) {
                if ra != rb {
                    let what = if ra.unit != rb.unit {
                        format!("unit order differs (`{}` vs `{}`)", ra.unit, rb.unit)
                    } else {
                        format!("unit `{}` differs", ra.unit)
                    };
                    return Err(CliError::Runtime(format!("checkpoints differ: {what}")));
                }
            }
            // Manifests compare as a set keyed by unit (append order is
            // a write-path detail), with deltas reported per function
            // in stable positional order. A manifest present on only
            // one side is not a difference: manifests are replay
            // hints, and a crash or an old writer may legitimately
            // drop one without changing any pinned result.
            let index = |ms: Vec<Manifest>| -> std::collections::BTreeMap<String, Manifest> {
                ms.into_iter().map(|m| (m.unit.clone(), m)).collect()
            };
            let (ma, mb) = (index(a_manifests), index(b_manifests));
            let mut deltas: Vec<String> = Vec::new();
            for (unit, x) in &ma {
                let Some(y) = mb.get(unit).filter(|y| *y != x) else { continue };
                let mut lines = Vec::new();
                for i in 0..x.funcs.len().max(y.funcs.len()) {
                    match (x.funcs.get(i), y.funcs.get(i)) {
                        (Some(fa), Some(fb)) if fa != fb => {
                            let what = [
                                (fa.name != fb.name, "name"),
                                (fa.hash != fb.hash, "ir"),
                                (fa.groups != fb.groups, "groups"),
                                (fa.op_cluster != fb.op_cluster, "placement"),
                                (fa.stats != fb.stats || fa.retries != fb.retries, "stats"),
                            ];
                            let what: Vec<_> = what.iter().filter(|w| w.0).map(|w| w.1).collect();
                            lines.push(format!("  #{i} {}: {} changed", fa.name, what.join("+")));
                        }
                        (Some(fa), None) => lines.push(format!("  #{i} {}: only in {a}", fa.name)),
                        (None, Some(fb)) => lines.push(format!("  #{i} {}: only in {b}", fb.name)),
                        _ => {}
                    }
                }
                if x.groups != y.groups {
                    lines.push("  (group content/home table differs)".to_string());
                }
                deltas.push(format!("manifest `{unit}`: {} delta(s)", lines.len()));
                deltas.append(&mut lines);
            }
            if !deltas.is_empty() {
                deltas.iter().for_each(|line| eprintln!("{line}"));
                return Err(CliError::Runtime(
                    "checkpoints differ: manifest deltas (see above)".to_string(),
                ));
            }
            outln!("checkpoints match: {} unit(s)", a_records.len());
            Ok(())
        })(),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Config(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart::machine::MemoryModel;

    fn parse(args: &[&str]) -> Result<Options, ArgError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options("run", "fir", &args)
    }

    #[test]
    fn option_parsing() {
        let o = parse(&["--latency", "10", "--method", "pm", "--memory", "coherent:7"]).unwrap();
        assert_eq!(o.spec.machine.latency, 10);
        assert_eq!(o.spec.method, Method::ProfileMax);
        assert_eq!(o.spec.machine.memory, MemoryModel::CoherentCache { remote_penalty: 7 });
    }

    #[test]
    fn rejects_unknown_option() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn rejects_zero_clusters() {
        assert!(parse(&["--clusters", "0"]).is_err());
    }

    #[test]
    fn rejects_non_numeric_latency() {
        assert!(parse(&["--latency", "fast"]).is_err());
    }

    #[test]
    fn gdp_fuel_option_feeds_the_config() {
        let o = parse(&["--gdp-fuel", "0"]).unwrap();
        assert_eq!(o.spec.gdp_fuel, Some(0));
        assert_eq!(o.config(Method::Gdp).gdp.fuel, Some(0));
        assert!(parse(&["--gdp-fuel", "lots"]).is_err());
        assert!(parse(&["--gdp-fuel", "9007199254740992"]).is_err());
    }

    #[test]
    fn jobs_option_feeds_the_config() {
        let o = parse(&["--jobs", "4"]).unwrap();
        assert_eq!(o.common.jobs, 4);
        assert_eq!(o.config(Method::Gdp).rhop.jobs, 4);
        assert_eq!(o.config(Method::Gdp).gdp.jobs, 4);
        // Default is 0 = auto.
        assert_eq!(parse(&[]).unwrap().common.jobs, 0);
        assert!(parse(&["--jobs", "many"]).is_err());
    }

    #[test]
    fn trace_and_metrics_options() {
        let o = parse(&["--trace-out", "t.json", "--metrics"]).unwrap();
        assert_eq!(o.common.trace_out.as_deref(), Some("t.json"));
        assert!(o.common.metrics);
        assert!(o.common.obs().is_enabled());
        // Either flag alone turns the sink on; neither leaves it off.
        assert!(parse(&["--metrics"]).unwrap().common.obs().is_enabled());
        assert!(!parse(&[]).unwrap().common.obs().is_enabled());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn obs_flows_into_every_stage_config() {
        let o = parse(&["--metrics"]).unwrap();
        let cfg = o.config(Method::Gdp).with_obs(o.common.obs());
        assert!(cfg.obs.is_enabled());
        assert!(cfg.gdp.obs.is_enabled());
        assert!(cfg.rhop.obs.is_enabled());
    }

    #[test]
    fn method_names() {
        assert_eq!("gdp".parse::<Method>(), Ok(Method::Gdp));
        assert_eq!("profile-max".parse::<Method>(), Ok(Method::ProfileMax));
        assert_eq!("PM".parse::<Method>(), Ok(Method::ProfileMax));
        assert!("nonsense".parse::<Method>().is_err());
    }
}
