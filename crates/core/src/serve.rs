//! `mcpart serve` — a crash-only partition service over a spool
//! directory.
//!
//! The engine behind the CLI's `serve` command: it watches a spool
//! directory for job files (program + method + machine config + seed),
//! admits them in deterministic batches under a bounded queue, runs
//! each through the supervised pipeline, and writes one result file per
//! job with the same status vocabulary as one-shot runs. Results are
//! backed by a **content-addressed artifact cache** keyed by everything
//! a result depends on (the [`CheckpointHeader`] fields plus the
//! method), stored in the checkpoint record format with a checksum
//! footer so every hit can be integrity-verified before it is served.
//! A job names its program the way a one-shot target does — bundled
//! name, synthetic spec or `.mcir` path — and [`mcpart_workloads::resolve`]
//! reads it; a target that does not resolve makes the job invalid.
//!
//! ## Crash-only lifecycle
//!
//! A job moves through the spool as files, and every transition is an
//! atomic rename, so any `kill -9` leaves only *tolerated* artifacts:
//!
//! ```text
//! <spool>/name.job      spooled   (submitted, not yet claimed)
//! <spool>/name.requeues startup-requeue tally of a spooled job
//! <spool>/work/name.job claimed   (in flight; requeued on restart)
//! <spool>/out/name.json done
//! <spool>/failed/name.job + name.reason   quarantined / invalid
//! <spool>/cache/<key>.json        artifact cache entry
//! <spool>/cache/name_<key>.ptr    baseline pointer (latest entry per program)
//! <spool>/telemetry/telemetry.jsonl       flight-recorder snapshots
//! ```
//!
//! Every file the service writes is published with
//! [`mcpart_obs::durable::publish_atomic`]. On startup [`serve`]
//! removes stray `*.tmp` files from every directory it publishes into
//! (a crash mid-write) and renames everything in `work/` back into the
//! spool root (a crash mid-batch), so interrupted jobs are simply
//! redone — usually as cache hits. Poison jobs leave the queue through
//! `failed/` with a diagnostic instead of wedging it, and overload sheds
//! deterministically: job names are processed in lexicographic order
//! and everything past the admission bound gets a typed `overloaded`
//! result file, never a silent drop.
//!
//! Result files contain only pinned (deterministic) fields, so a cache
//! hit, a recompute, and a crash-interrupted redo all produce
//! byte-identical bytes on disk.

use crate::checkpoint::{
    method_slug, parse_checkpoint, program_fingerprint, run_unit_full, unit_key, CheckpointHeader,
    Manifest, UnitRecord,
};
use crate::pipeline::{Method, PipelineConfig};
use crate::repartition::RepartitionStats;
use crate::rhop::RhopConfig;
use mcpart_ir::Program;
use mcpart_machine::{Machine, MachineError, SweepPoint};
use mcpart_obs::json::{self, JsonValue, JsonWriter};
use mcpart_obs::metrics::MetricsRegistry;
use mcpart_obs::recorder::FlightRecorder;
use mcpart_obs::{durable, Obs};
use mcpart_par::fault::{FaultEntry, FaultPlan};
use mcpart_par::supervise::catch_unit;
use mcpart_par::{parallel_map, resolve_jobs};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Version tag of the job-file format (`"mcpart_job"` key).
pub const JOB_VERSION: i64 = 1;

/// A service-level failure: the spool directory itself is unusable.
/// Per-job failures never surface here — they become result files and
/// `failed/` entries so one poison job cannot take the service down.
#[derive(Debug)]
pub enum ServeError {
    /// The spool directory could not be prepared, scanned, or written.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration of one [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads per batch (`0` = all cores).
    pub jobs: usize,
    /// Jobs claimed and computed together; commits happen in job-name
    /// order within each batch regardless of worker count.
    pub batch: usize,
    /// Admission bound per spool scan: jobs past this many (in
    /// lexicographic name order) are shed with a typed `overloaded`
    /// result file.
    pub queue: usize,
    /// Spool scan interval when idle (daemon mode).
    pub poll: Duration,
    /// Process everything currently spooled, then exit instead of
    /// polling — one-shot semantics for tests and scripts.
    pub drain: bool,
    /// Panic retry budget of each job's pipeline, per function unit
    /// and per method attempt (`--retries`).
    pub retries: u32,
    /// Wall-clock ceiling per partition attempt (`--unit-timeout`).
    pub unit_timeout: Option<Duration>,
    /// Crash injection for the crash-consistency tests (`--fault`,
    /// `halt` terms only): after committing `halt:<n>`'s n jobs, abort
    /// the process with the next job's output half-written and its
    /// claimed work file still in place — exactly the on-disk state
    /// `kill -9` mid-commit leaves.
    pub faults: FaultPlan,
    /// Flight-recorder cadence: append a telemetry snapshot to
    /// `<spool>/telemetry/` after this many committed jobs (and once
    /// more on exit). `0` disables the recorder entirely.
    pub telemetry_every: u64,
    /// Startup-requeue budget per job (`--max-requeues`). A job found
    /// claimed-but-uncommitted at startup was in flight when the
    /// previous process died; after this many consecutive requeues it
    /// is presumed to be crashing the service itself and recovery
    /// quarantines it to `failed/` instead of requeueing it again.
    pub max_requeues: u32,
    /// Observability sink: receives the `serve/*` counters and a
    /// replay of every job's pinned pipeline events in commit order.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            jobs: 0,
            batch: 8,
            queue: 256,
            poll: Duration::from_millis(200),
            drain: false,
            retries: 2,
            unit_timeout: None,
            faults: FaultPlan::none(),
            telemetry_every: 1,
            max_requeues: 3,
            obs: Obs::disabled(),
        }
    }
}

/// Totals of one [`serve`] run, also surfaced as `serve/*` counters on
/// the configured observability sink.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs admitted past the queue bound (includes failed ones).
    pub admitted: u64,
    /// Jobs shed by admission control with an `overloaded` result.
    pub rejected: u64,
    /// Results served from a verified cache entry.
    pub cache_hits: u64,
    /// Cache entries that failed integrity verification and were
    /// deleted (their jobs were then recomputed).
    pub cache_evictions: u64,
    /// Jobs moved to `failed/` because the pipeline quarantined them.
    pub quarantined: u64,
    /// Jobs moved to `failed/` for any other reason (unparseable job
    /// file, unknown program, pipeline error).
    pub failed: u64,
    /// Jobs that completed with an `ok` result.
    pub completed: u64,
    /// Claimed jobs re-queued by crash recovery at startup.
    pub requeued: u64,
    /// Jobs quarantined by crash recovery because they exhausted the
    /// startup-requeue budget (process-killing poison jobs).
    pub poisoned: u64,
}

impl ServeSummary {
    /// One greppable line, printed by the CLI after every serve run.
    pub fn line(&self) -> String {
        format!(
            "serve summary: admitted={} rejected={} cache_hits={} cache_evictions={} \
             quarantined={} failed={} completed={} requeued={} poisoned={}",
            self.admitted,
            self.rejected,
            self.cache_hits,
            self.cache_evictions,
            self.quarantined,
            self.failed,
            self.completed,
            self.requeued,
            self.poisoned
        )
    }

    /// Records the `serve/*` counters (always all of them, so
    /// `trace-check --require serve/...` holds on every serve trace).
    fn record(&self, obs: &Obs) {
        obs.counter("serve", "admitted", self.admitted as i64);
        obs.counter("serve", "rejected", self.rejected as i64);
        obs.counter("serve", "cache_hits", self.cache_hits as i64);
        obs.counter("serve", "cache_evictions", self.cache_evictions as i64);
        obs.counter("serve", "quarantined", self.quarantined as i64);
        obs.counter("serve", "poisoned", self.poisoned as i64);
    }
}

/// One run's spec: a job file fills it ([`parse_job`]), the one-shot
/// CLI's flags fill it, and chaos samples, shrinks and replays it (the
/// repro grammar, [`JobSpec::parse_repro`]). It owns the machine, the
/// checkpoint header and the pipeline configuration derived from its
/// fields.
///
/// A job file is one JSON object:
///
/// ```json
/// {"mcpart_job":1,"program":"rawcaudio","method":"gdp","clusters":2,
///  "latency":5,"memory":"partitioned","seed":17417,"gdp_fuel":1000}
/// ```
///
/// Only `program` is required; everything else defaults to the
/// one-shot CLI defaults. A `"fault"` key takes a fault plan of
/// `panic` terms (for poison-job tests); a faulted job bypasses the
/// artifact cache. Unknown keys are ignored (forward compatibility),
/// an unknown *value* is an invalid job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// Target string — benchmark name, synthetic spec or `.mcir` path —
    /// resolved by [`mcpart_workloads::resolve`].
    pub program: String,
    /// Partitioning method (default GDP; the ladder may downgrade it).
    pub method: Method,
    /// The machine (default [`SweepPoint::paper`]). Job files and CLI
    /// flags set its cluster count, latency and memory model; chaos
    /// also varies its topology and unit mix.
    pub machine: SweepPoint,
    /// RHOP seed override (default: the method's builtin seed).
    pub seed: Option<u64>,
    /// GDP refinement fuel cap (default unlimited).
    pub gdp_fuel: Option<u64>,
    /// Injected faults (see [`JobSpec::config`] for the terms the
    /// pipeline applies).
    pub faults: FaultPlan,
}

impl JobSpec {
    /// A job for `program` with every other field at the one-shot CLI
    /// default: GDP on the paper machine (two partitioned clusters with
    /// 5-cycle moves).
    pub fn new(program: impl Into<String>) -> Self {
        JobSpec {
            program: program.into(),
            method: Method::Gdp,
            machine: SweepPoint::paper(),
            seed: None,
            gdp_fuel: None,
            faults: FaultPlan::none(),
        }
    }

    /// The (validated) machine the job runs on. The cluster count is
    /// bounded before anything is built: the machine allocates one
    /// cluster per count.
    pub fn machine(&self) -> Result<Machine, MachineError> {
        if self.machine.clusters > mcpart_machine::MAX_CLUSTERS {
            return Err(MachineError::TooManyClusters(self.machine.clusters));
        }
        let machine = self.machine.machine();
        machine.validate()?;
        Ok(machine)
    }

    /// The RHOP seed the run uses: the override, or the builtin seed.
    pub(crate) fn rhop_seed(&self) -> u64 {
        self.seed.unwrap_or(RhopConfig::default().seed)
    }

    /// The checkpoint header of this job's results on `program`:
    /// everything a result depends on except the method.
    pub fn header(&self, program: &Program) -> CheckpointHeader {
        CheckpointHeader {
            program: program.name.clone(),
            program_hash: program_fingerprint(program),
            seed: self.rhop_seed(),
            clusters: self.machine.clusters,
            latency: self.machine.latency,
            memory: self.machine.memory.to_string(),
            gdp_fuel: self.gdp_fuel,
        }
    }

    /// The pipeline configuration of the job's method, GDP fuel, RHOP
    /// seed and injected faults. This is the one place a fault plan
    /// configures the pipeline: RHOP applies the `panic` terms, `fuel`
    /// caps GDP, `estimator` caps RHOP's estimator calls and `timeout`
    /// arms the per-attempt watchdog; the other terms act outside the
    /// pipeline. Worker count, retries, a `--unit-timeout` ceiling and
    /// the observability sink are the runner's to set.
    pub fn config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(self.method);
        cfg.gdp.fuel = self.gdp_fuel;
        cfg.rhop.seed = self.rhop_seed();
        cfg.rhop.faults = self.faults.clone();
        for entry in &self.faults.entries {
            match entry {
                FaultEntry::Fuel { budget } => cfg.gdp.fuel = Some(*budget),
                FaultEntry::EstimatorBudget { calls } => {
                    cfg.rhop.max_estimator_calls = Some(*calls);
                }
                FaultEntry::Timeout { ms } => cfg.unit_timeout = Some(Duration::from_millis(*ms)),
                FaultEntry::UnitPanic { .. }
                | FaultEntry::CheckpointTruncate { .. }
                | FaultEntry::CheckpointBitflip { .. }
                | FaultEntry::Halt { .. }
                | FaultEntry::Misplace => {}
            }
        }
        cfg
    }
}

/// Parses one job file. Errors are diagnostic strings destined for the
/// job's `failed/` entry and `invalid` result file.
pub fn parse_job(text: &str) -> Result<JobSpec, String> {
    let doc = json::parse(text.trim()).map_err(|e| format!("not a JSON job file: {e}"))?;
    let version = doc
        .req("mcpart_job", JsonValue::to_f64)
        .map_err(|_| "not a job file (missing `mcpart_job` version)")?;
    if version != JOB_VERSION as f64 {
        return Err(format!("unsupported job version {version} (expected {JOB_VERSION})"));
    }
    let mut spec = JobSpec::new(doc.req("program", JsonValue::to_str)?);
    spec.method = doc.opt("method", |v| v.to_str()?.parse())?.unwrap_or(spec.method);
    let point = &mut spec.machine;
    let clusters = doc.opt("clusters", JsonValue::to_u64)?.map(usize::try_from).transpose();
    point.clusters = clusters.map_err(|_| "`clusters` is too large")?.unwrap_or(point.clusters);
    if point.clusters == 0 {
        return Err("`clusters` must be at least 1".to_string());
    }
    point.latency = doc.opt("latency", JsonValue::to_u32)?.unwrap_or(point.latency);
    point.memory = doc.opt("memory", |v| v.to_str()?.parse())?.unwrap_or(point.memory);
    spec.seed = doc.opt("seed", JsonValue::to_u64)?;
    spec.gdp_fuel = doc.opt("gdp_fuel", JsonValue::to_u64)?;
    let fault = |v: &JsonValue| v.to_str()?.parse::<FaultPlan>().map_err(|e| e.to_string());
    if let Some(faults) = doc.opt("fault", fault)? {
        faults.accept_only(&["panic"]).map_err(|e| format!("`fault`: {e}"))?;
        spec.faults = faults;
    }
    Ok(spec)
}

/// The content address of a job's artifact: an FNV-1a fingerprint of
/// the checkpoint header (program hash, seed, clusters, latency,
/// memory, GDP fuel) plus the method slug — everything a result
/// depends on, nothing it doesn't.
pub fn cache_key(header: &CheckpointHeader, method: Method) -> String {
    let material = format!("{}|{}", header.to_json(), method_slug(method));
    format!("{:016x}", durable::fnv1a(material.as_bytes()))
}

/// Opening of the checksum footer line terminating every cache entry.
const CACHE_SUM_OPEN: &str = "{\"mcpart_cache_sum\":\"";

/// Renders a cache entry: a one-record checkpoint (header line + unit
/// record line, plus the unit's manifest line when the run produced
/// one) followed by a footer line sealing every preceding byte
/// ([`durable::seal`]). The footer is what makes the cache
/// *self-healing*: any truncation or bit flip — even one that still
/// parses — breaks the checksum and the entry is evicted instead of
/// served.
pub fn render_cache_entry(
    header: &CheckpointHeader,
    record: &UnitRecord,
    manifest: Option<&Manifest>,
) -> String {
    let manifest = manifest.map(|m| m.to_json() + "\n").unwrap_or_default();
    let body = format!("{}\n{}\n{manifest}", header.to_json(), record.to_json());
    format!("{}\n", durable::seal(&body, CACHE_SUM_OPEN))
}

/// Checksum layer of cache-entry verification: the whole entry must be
/// present (footer and final newline) and its checksum must hold, which
/// catches truncation, bit flips, and invalid UTF-8 before any parsing.
/// Returns the covered text.
fn checksum_verified_text(bytes: &[u8]) -> Result<&str, String> {
    let sealed = bytes.strip_suffix(b"\n").ok_or("truncated entry (no trailing newline)")?;
    let covered = durable::unseal(sealed, CACHE_SUM_OPEN)?;
    std::str::from_utf8(covered).map_err(|_| "entry is not UTF-8".to_string())
}

/// Verifies a cache entry end to end: checksum over the raw bytes
/// first, then a full checkpoint parse against the expected header,
/// then the unit key. Returns the verified record or the reason the
/// entry must be evicted.
pub fn verify_cache_entry(
    bytes: &[u8],
    expected: &CheckpointHeader,
    unit: &str,
) -> Result<UnitRecord, String> {
    let text = checksum_verified_text(bytes)?;
    let ck = parse_checkpoint(text, Some(expected)).map_err(|e| format!("unusable entry: {e}"))?;
    match ck.records.as_slice() {
        [record] if record.unit == unit => Ok(record.clone()),
        [record] => Err(format!("entry is for unit `{}`, wanted `{unit}`", record.unit)),
        records => Err(format!("entry holds {} records, wanted 1", records.len())),
    }
}

/// Path of the by-name baseline pointer for a job's compatibility
/// class: the cache key with the program *content* hash zeroed, so
/// every revision of a program under the same configuration (seed,
/// clusters, latency, memory, fuel, method) shares one pointer. The
/// pointer file holds the cache key of the latest published entry in
/// that class; a cache miss follows it to find a baseline manifest.
/// `.ptr`, not `.json`, so cache-entry listings never mistake it for
/// an artifact.
fn baseline_pointer_path(cache: &Path, header: &CheckpointHeader, method: Method) -> PathBuf {
    let mut class = header.clone();
    class.program_hash = 0;
    cache.join(format!("name_{}.ptr", cache_key(&class, method)))
}

/// Follows the baseline pointer on a cache miss and loads the prior
/// entry's manifest for an incremental run. Every failure — no
/// pointer, vanished entry, checksum damage, incompatible
/// configuration, no manifest — degrades to `None` (a cold run),
/// never an error: the pointer is an optimization hint, not a source
/// of truth.
fn load_baseline_manifest(
    cache: &Path,
    header: &CheckpointHeader,
    method: Method,
    unit: &str,
) -> Option<Manifest> {
    let key = fs::read_to_string(baseline_pointer_path(cache, header, method)).ok()?;
    let key = key.trim();
    if key.is_empty() || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let bytes = fs::read(cache.join(format!("{key}.json"))).ok()?;
    let text = checksum_verified_text(&bytes).ok()?;
    let ck = parse_checkpoint(text, None).ok()?;
    if !ck.header.compatible_baseline(header) {
        return None;
    }
    ck.manifest_for(unit).cloned()
}

/// Terminal status of one job, mirroring the one-shot exit codes:
/// `0` ok, `1` runtime failure (including quarantine and shed load),
/// `2` unusable job file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobStatus {
    Ok,
    Quarantined,
    Failed,
    Invalid,
    Overloaded,
}

impl JobStatus {
    fn slug(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Failed => "failed",
            JobStatus::Invalid => "invalid",
            JobStatus::Overloaded => "overloaded",
        }
    }

    fn exit(self) -> i64 {
        match self {
            JobStatus::Ok => 0,
            JobStatus::Quarantined | JobStatus::Failed | JobStatus::Overloaded => 1,
            JobStatus::Invalid => 2,
        }
    }
}

/// How a job's result was obtained.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CacheNote {
    Hit,
    Miss,
    Evicted(String),
}

/// Everything the sequential commit phase needs about one computed
/// job. Workers produce these in parallel; all file-system effects
/// except cache eviction happen at commit time, in job-name order.
struct JobOutcome {
    file_name: String,
    stem: String,
    status: JobStatus,
    reason: String,
    record: Option<UnitRecord>,
    cache: CacheNote,
    /// Cache entry to publish on a fresh successful compute.
    entry: Option<(PathBuf, CheckpointHeader)>,
    /// Baseline pointer to refresh alongside the entry: (pointer
    /// path, cache key of the published entry).
    pointer: Option<(PathBuf, String)>,
    /// The run's manifest, published inside the cache entry so a
    /// later revision of the same program can run incrementally.
    manifest: Option<Manifest>,
    /// Dirty-cone stats when this compute degraded a miss to an
    /// incremental run against a prior entry's manifest.
    repartition: Option<RepartitionStats>,
}

impl JobOutcome {
    /// An outcome with no record and nothing to publish.
    fn bare(file_name: &str, status: JobStatus, reason: String, cache: CacheNote) -> Self {
        JobOutcome {
            file_name: file_name.to_string(),
            stem: file_name.strip_suffix(".job").unwrap_or(file_name).to_string(),
            status,
            reason,
            record: None,
            cache,
            entry: None,
            pointer: None,
            manifest: None,
            repartition: None,
        }
    }
}

/// Renders a job's result file: one JSON line of pinned fields only
/// (no wall-clock, no cache provenance), so a cache hit, a fresh
/// compute, and a post-crash redo write byte-identical files.
fn render_result(
    stem: &str,
    status: JobStatus,
    reason: &str,
    record: Option<&UnitRecord>,
) -> String {
    let mut w = JsonWriter::new();
    w.open_obj()
        .field("mcpart_result", &1u64)
        .field("job", stem)
        .field("status", status.slug())
        .field("exit", &status.exit());
    if let Some(r) = record {
        let quarantine: Vec<&str> = r.quarantine.iter().map(|q| q.unit.as_str()).collect();
        w.field("unit", &r.unit)
            .field("requested", method_slug(r.requested))
            .field("method", method_slug(r.method))
            .field("downgrades", &r.downgrades.len())
            .field("cycles", &r.cycles)
            .field("dynamic_moves", &r.dynamic_moves)
            .field("remote", &r.remote)
            .field("moves_inserted", &r.moves_inserted)
            .field("retries", &r.retries)
            .field("pressure", &r.pressure)
            .field("quarantine", &quarantine)
            .field("data_bytes", &r.data_bytes);
    }
    if !reason.is_empty() {
        w.field("reason", reason);
    }
    w.close_obj();
    w.finish() + "\n"
}

/// The spool's subdirectories. All paths live under one root so a
/// single rename moves a job between lifecycle states.
struct SpoolDirs {
    root: PathBuf,
    work: PathBuf,
    out: PathBuf,
    failed: PathBuf,
    cache: PathBuf,
    /// Created by the flight recorder on first use.
    telemetry: PathBuf,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> ServeError {
    ServeError::Io(format!("cannot {what} {}: {e}", path.display()))
}

impl SpoolDirs {
    fn prepare(root: &Path) -> Result<SpoolDirs, ServeError> {
        let dirs = SpoolDirs {
            root: root.to_path_buf(),
            work: root.join("work"),
            out: root.join("out"),
            failed: root.join("failed"),
            cache: root.join("cache"),
            telemetry: root.join("telemetry"),
        };
        for d in [&dirs.root, &dirs.work, &dirs.out, &dirs.failed, &dirs.cache] {
            fs::create_dir_all(d).map_err(|e| io_err("create", d, e))?;
        }
        Ok(dirs)
    }

    /// Crash recovery: removes half-written `*.tmp` artifacts from every
    /// directory the service publishes into and requeues
    /// claimed-but-uncommitted jobs. Each requeue is tallied
    /// in a `<stem>.requeues` sidecar next to the spooled job (the
    /// `.requeues` extension keeps it invisible to admission); a job
    /// that exceeds `max_requeues` consecutive requeues has taken the
    /// process down that many times mid-flight and is quarantined to
    /// `failed/` with a diagnostic instead. Returns (requeued jobs,
    /// poisoned jobs, removed tmp files).
    fn recover(&self, max_requeues: u32) -> Result<(u64, u64, u64), ServeError> {
        let mut tmps = 0;
        for dir in [&self.root, &self.out, &self.cache, &self.failed, &self.telemetry] {
            if !dir.exists() {
                continue;
            }
            // In the root only the sidecars' staging files are ours; a
            // client may be staging a job there.
            let target = if dir == &self.root { ".requeues" } else { "" };
            for entry in fs::read_dir(dir).map_err(|e| io_err("read", dir, e))? {
                let entry = entry.map_err(|e| io_err("read", dir, e))?;
                let name = entry.file_name();
                let staged = name.to_str().and_then(|n| n.strip_suffix(durable::TMP_SUFFIX));
                if staged.is_some_and(|n| n.ends_with(target)) {
                    let path = entry.path();
                    fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
                    tmps += 1;
                }
            }
        }
        let mut requeued = 0;
        let mut poisoned = 0;
        for name in list_jobs(&self.work)? {
            let from = self.work.join(&name);
            let stem = name.strip_suffix(".job").unwrap_or(&name);
            let sidecar = self.sidecar(stem);
            // A torn or missing sidecar reads as zero: the budget
            // resets rather than quarantining a healthy job early.
            let count = fs::read_to_string(&sidecar)
                .ok()
                .and_then(|s| s.trim().parse::<u32>().ok())
                .unwrap_or(0)
                .saturating_add(1);
            if count > max_requeues {
                let dest = self.failed.join(&name);
                fs::rename(&from, &dest).map_err(|e| io_err("quarantine", &from, e))?;
                publish(
                    &self.failed.join(format!("{stem}.reason")),
                    &format!(
                        "poisoned: requeued {max_requeues} time(s) by crash recovery \
                         without ever committing; presumed to crash the service\n"
                    ),
                )?;
                let _ = fs::remove_file(&sidecar);
                poisoned += 1;
                continue;
            }
            publish(&sidecar, &format!("{count}\n"))?;
            let to = self.root.join(&name);
            fs::rename(&from, &to).map_err(|e| io_err("requeue", &from, e))?;
            requeued += 1;
        }
        Ok((requeued, poisoned, tmps))
    }

    /// The startup-requeue tally for one job stem.
    fn sidecar(&self, stem: &str) -> PathBuf {
        self.root.join(format!("{stem}.requeues"))
    }
}

/// Job files (`*.job`) directly inside `dir`, in lexicographic order —
/// the deterministic admission order.
fn list_jobs(dir: &Path) -> Result<Vec<String>, ServeError> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err("read", dir, e))? {
        let entry = entry.map_err(|e| io_err("read", dir, e))?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        if let Some(name) = entry.file_name().to_str() {
            if name.ends_with(".job") {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names)
}

/// [`durable::publish_atomic`] with the service's error type.
fn publish(path: &Path, text: &str) -> Result<(), ServeError> {
    durable::publish_atomic(path, text.as_bytes()).map_err(|e| io_err("publish", path, e))
}

/// One progress line on stdout. Write errors are swallowed: losing a
/// log line to a closed pipe must not take the service down.
fn progress(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Computes one claimed job (the parallel phase — no spool mutation
/// except cache eviction, which is keyed and idempotent).
fn process_job(dirs: &SpoolDirs, cfg: &ServeConfig, file_name: &str) -> JobOutcome {
    let invalid =
        |reason: String| JobOutcome::bare(file_name, JobStatus::Invalid, reason, CacheNote::Miss);
    let path = dirs.work.join(file_name);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return invalid(format!("cannot read job file: {e}")),
    };
    let spec = match parse_job(&text) {
        Ok(s) => s,
        Err(e) => return invalid(e),
    };
    let (program, profile) = match mcpart_workloads::resolve(&spec.program) {
        Ok(w) => (w.program, w.profile),
        Err(e) => return invalid(e.to_string()),
    };
    let machine = match spec.machine() {
        Ok(m) => m,
        Err(e) => return invalid(format!("machine configuration invalid: {e}")),
    };
    let header = spec.header(&program);
    let unit = unit_key(&program, spec.method);
    let entry_path = dirs.cache.join(format!("{}.json", cache_key(&header, spec.method)));
    // The cache key does not cover the fault plan, so a faulted job
    // neither reads nor publishes entries or baseline pointers.
    let cached = spec.faults.is_empty();

    let mut cache = CacheNote::Miss;
    if let Some(bytes) = fs::read(&entry_path).ok().filter(|_| cached) {
        match verify_cache_entry(&bytes, &header, &unit) {
            Ok(record) => {
                let hit = JobOutcome::bare(file_name, JobStatus::Ok, String::new(), CacheNote::Hit);
                return JobOutcome { record: Some(record), ..hit };
            }
            Err(why) => {
                // Never serve a suspect entry: evict and recompute.
                let _ = fs::remove_file(&entry_path);
                cache = CacheNote::Evicted(why);
            }
        }
    }

    let mut pcfg = spec.config().with_jobs(1).with_retries(cfg.retries).with_obs(Obs::enabled());
    pcfg.unit_timeout = cfg.unit_timeout;
    // A miss on a program we have partitioned before (under this exact
    // configuration) degrades to an incremental run: replay the clean
    // functions from the prior entry's manifest, recompute the dirty
    // cone. Byte-identity to a cold run is RHOP's purity contract.
    if cached {
        pcfg.baseline = load_baseline_manifest(&dirs.cache, &header, spec.method, &unit)
            .map(std::sync::Arc::new);
    }

    // The pipeline isolates panics per method attempt and per function;
    // a panic that escapes it anyway is a bug, and it quarantines only
    // this job.
    match catch_unit(|| run_unit_full(&program, &profile, &machine, &pcfg)) {
        Ok(Ok(run)) => {
            let record = run.record;
            let (status, reason) = if record.quarantine.is_empty() {
                (JobStatus::Ok, String::new())
            } else {
                let units: Vec<String> = record
                    .quarantine
                    .iter()
                    .map(|q| format!("{} ({} attempts): {}", q.unit, q.attempts, q.reason))
                    .collect();
                (JobStatus::Quarantined, units.join("; "))
            };
            let (entry, pointer) = if status == JobStatus::Ok && cached {
                let pointer_path = baseline_pointer_path(&dirs.cache, &header, spec.method);
                let key = cache_key(&header, spec.method);
                (Some((entry_path, header)), Some((pointer_path, key)))
            } else {
                (None, None)
            };
            JobOutcome {
                record: Some(record),
                entry,
                pointer,
                manifest: run.manifest,
                repartition: run.repartition,
                ..JobOutcome::bare(file_name, status, reason, cache)
            }
        }
        Ok(Err(e)) => JobOutcome::bare(file_name, JobStatus::Failed, e.to_string(), cache),
        Err(payload) => {
            let reason = format!("{unit} panicked: {payload}");
            JobOutcome::bare(file_name, JobStatus::Quarantined, reason, cache)
        }
    }
}

/// Commits one outcome: result file, cache entry, work-file
/// disposition, counters — all in job-name order, so the on-disk
/// effects of a batch are independent of the worker count.
fn commit(
    dirs: &SpoolDirs,
    cfg: &ServeConfig,
    outcome: &JobOutcome,
    sum: &mut ServeSummary,
) -> Result<(), ServeError> {
    let out_path = dirs.out.join(format!("{}.json", outcome.stem));
    let text =
        render_result(&outcome.stem, outcome.status, &outcome.reason, outcome.record.as_ref());

    // Publish the cache entry before the result: a crash between the
    // two costs one recompute-turned-cache-hit, never a result whose
    // artifact vanished.
    if let (Some((entry_path, header)), Some(record)) = (&outcome.entry, &outcome.record) {
        publish(entry_path, &render_cache_entry(header, record, outcome.manifest.as_ref()))?;
        // Refresh the by-name pointer after the entry it names exists;
        // a crash between the two leaves the old pointer, which at
        // worst costs one cold run.
        if let Some((pointer_path, key)) = &outcome.pointer {
            publish(pointer_path, &format!("{key}\n"))?;
        }
    }

    let committed = sum.completed + sum.quarantined + sum.failed;
    if cfg.faults.halt() == Some(committed) {
        // Crash injection: die with this job's output half-written
        // and its work file still claimed — the exact state kill -9
        // leaves — so the restart path is exercised deterministically.
        let tmp = durable::tmp_path(&out_path);
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        durable::crash_torn(&mut file, &text);
    }

    publish(&out_path, &text)?;
    if let Some(record) = &outcome.record {
        record.replay_events(&cfg.obs);
    }
    // Dirty-cone counters ride after the replayed pipeline events so
    // an incremental trace is the from-scratch trace plus a trailing
    // `repartition/*` block — never interleaved with pinned events.
    if let Some(rp) = &outcome.repartition {
        cfg.obs.counter("repartition", "dirty_funcs", rp.dirty_funcs as i64);
        cfg.obs.counter("repartition", "replayed_funcs", rp.replayed_funcs as i64);
        cfg.obs.counter("repartition", "cone_frac_x1000", rp.cone_frac_x1000() as i64);
    }

    // The job reached a committed disposition, so it is no longer a
    // requeue suspect: forget its startup-requeue tally.
    let _ = fs::remove_file(dirs.sidecar(&outcome.stem));
    let work_path = dirs.work.join(&outcome.file_name);
    match outcome.status {
        JobStatus::Ok => {
            fs::remove_file(&work_path).map_err(|e| io_err("retire", &work_path, e))?;
            sum.completed += 1;
        }
        JobStatus::Quarantined | JobStatus::Failed | JobStatus::Invalid => {
            let dest = dirs.failed.join(&outcome.file_name);
            fs::rename(&work_path, &dest).map_err(|e| io_err("quarantine", &work_path, e))?;
            let reason_path = dirs.failed.join(format!("{}.reason", outcome.stem));
            publish(&reason_path, &format!("{}: {}\n", outcome.status.slug(), outcome.reason))?;
            if outcome.status == JobStatus::Quarantined {
                sum.quarantined += 1;
            } else {
                sum.failed += 1;
            }
        }
        JobStatus::Overloaded => unreachable!("overload is shed before claiming"),
    }
    match (&outcome.cache, outcome.status) {
        (CacheNote::Hit, _) => {
            sum.cache_hits += 1;
            progress(&format!("job {}: {} (cache hit)", outcome.stem, outcome.status.slug()));
        }
        (CacheNote::Evicted(why), _) => {
            sum.cache_evictions += 1;
            progress(&format!(
                "job {}: {} (cache entry evicted: {}; recomputed)",
                outcome.stem,
                outcome.status.slug(),
                why
            ));
        }
        (CacheNote::Miss, JobStatus::Ok) => match &outcome.repartition {
            Some(rp) => progress(&format!(
                "job {}: ok (computed incrementally: {}/{} replayed)",
                outcome.stem, rp.replayed_funcs, rp.total_funcs
            )),
            None => progress(&format!("job {}: ok (computed)", outcome.stem)),
        },
        (CacheNote::Miss, _) => {
            progress(&format!(
                "job {}: {}: {}",
                outcome.stem,
                outcome.status.slug(),
                outcome.reason
            ));
        }
    }
    Ok(())
}

/// Folds one committed job into the run's metrics registry: the job's
/// partition time feeds a wall histogram, and its record's pinned
/// pipeline events go through the registry's one event rule (which is
/// how per-job GDP cut, RHOP estimator effort, and stall/transfer
/// cycle distributions reach the flight recorder).
fn observe_outcome(registry: &mut MetricsRegistry, outcome: &JobOutcome) {
    let Some(record) = &outcome.record else { return };
    registry.observe_wall("serve/job", (record.partition_ms.max(0.0) * 1000.0) as u64);
    if let Some(rp) = &outcome.repartition {
        registry.observe("repartition/replayed_funcs", rp.replayed_funcs as i64);
        registry.observe("repartition/cone_frac_x1000", rp.cone_frac_x1000() as i64);
    }
    for e in &record.events {
        registry.observe_pinned(&format!("{}/{}", e.cat, e.name), e.counter, &e.args);
    }
}

/// Appends one cumulative snapshot (scalar totals + histograms) to the
/// flight recorder.
fn flush_telemetry(
    recorder: &mut FlightRecorder,
    sum: &ServeSummary,
    registry: &MetricsRegistry,
) -> Result<(), ServeError> {
    let counters = [
        ("admitted", sum.admitted as i64),
        ("rejected", sum.rejected as i64),
        ("cache_hits", sum.cache_hits as i64),
        ("cache_evictions", sum.cache_evictions as i64),
        ("quarantined", sum.quarantined as i64),
        ("failed", sum.failed as i64),
        ("completed", sum.completed as i64),
        ("requeued", sum.requeued as i64),
        ("poisoned", sum.poisoned as i64),
    ];
    recorder
        .record(&counters, registry)
        .map_err(|e| ServeError::Io(format!("telemetry append failed: {e}")))
}

/// Runs the partition service over `spool` until it is told to stop:
/// in drain mode, when the spool is empty; in daemon mode, when
/// `shutdown` becomes true (the CLI's SIGTERM handler sets it), after
/// which the in-flight batch is drained and the function returns
/// normally — crash-only shutdown has no other cleanup to do.
pub fn serve(
    spool: &Path,
    cfg: &ServeConfig,
    shutdown: &AtomicBool,
) -> Result<ServeSummary, ServeError> {
    let dirs = SpoolDirs::prepare(spool)?;
    let (requeued, poisoned, tmps) = dirs.recover(cfg.max_requeues)?;
    if requeued > 0 || poisoned > 0 || tmps > 0 {
        progress(&format!(
            "recovery: requeued {requeued} interrupted job(s), quarantined {poisoned} \
             poison job(s), removed {tmps} partial artifact(s)"
        ));
    }
    let mut sum = ServeSummary { requeued, poisoned, ..ServeSummary::default() };
    let workers = resolve_jobs(cfg.jobs);
    let mut recorder = if cfg.telemetry_every > 0 {
        let dir = &dirs.telemetry;
        Some(FlightRecorder::open(dir).map_err(|e| io_err("open telemetry", dir, e))?)
    } else {
        None
    };
    let mut registry = MetricsRegistry::new();
    let mut since_flush = 0u64;
    'scan: loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let pending = list_jobs(&dirs.root)?;
        if pending.is_empty() {
            if cfg.drain {
                break;
            }
            let step = Duration::from_millis(25).min(cfg.poll.max(Duration::from_millis(1)));
            let mut slept = Duration::ZERO;
            while slept < cfg.poll && !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(step);
                slept += step;
            }
            continue;
        }
        // Deterministic admission: lexicographic order, bounded queue.
        let bound = pending.len().min(cfg.queue.max(1));
        let (admitted, shed) = pending.split_at(bound);
        for name in shed {
            let stem = name.strip_suffix(".job").unwrap_or(name);
            let reason = format!("admission queue full (bound {})", cfg.queue.max(1));
            let text = render_result(stem, JobStatus::Overloaded, &reason, None);
            publish(&dirs.out.join(format!("{stem}.json")), &text)?;
            let job_path = dirs.root.join(name);
            fs::remove_file(&job_path).map_err(|e| io_err("shed", &job_path, e))?;
            let _ = fs::remove_file(dirs.sidecar(stem));
            sum.rejected += 1;
            progress(&format!("job {stem}: overloaded (shed)"));
        }
        sum.admitted += admitted.len() as u64;
        registry.observe("serve/queue_depth", pending.len() as i64);
        for chunk in admitted.chunks(cfg.batch.max(1)) {
            if shutdown.load(Ordering::SeqCst) {
                // Unclaimed jobs stay spooled for the next run.
                sum.admitted -= chunk.len() as u64;
                break 'scan;
            }
            let batch_start = Instant::now();
            for name in chunk {
                let from = dirs.root.join(name);
                let to = dirs.work.join(name);
                fs::rename(&from, &to).map_err(|e| io_err("claim", &from, e))?;
            }
            let outcomes = parallel_map(workers, chunk, |_, name| process_job(&dirs, cfg, name));
            for outcome in &outcomes {
                commit(&dirs, cfg, outcome, &mut sum)?;
                observe_outcome(&mut registry, outcome);
                since_flush += 1;
                if let Some(rec) = recorder.as_mut() {
                    if since_flush >= cfg.telemetry_every {
                        flush_telemetry(rec, &sum, &registry)?;
                        since_flush = 0;
                    }
                }
            }
            registry.observe("serve/batch_jobs", chunk.len() as i64);
            registry.observe_wall("serve/batch", batch_start.elapsed().as_micros() as u64);
        }
        // A shutdown between chunks also lands here with admitted
        // jobs subtracted; recount what is left for the next pass.
    }
    if let Some(rec) = recorder.as_mut() {
        // Exit snapshot: the batch histograms recorded since the last
        // per-job flush, and a final cumulative record for this run
        // even if it committed nothing.
        flush_telemetry(rec, &sum, &registry)?;
    }
    sum.record(&cfg.obs);
    progress(&sum.line());
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth, Profile};
    use mcpart_machine::MemoryModel;

    fn demo() -> (Program, Profile) {
        let mut program = Program::new("demo");
        let table = program.add_object(DataObject::global("table", 64));
        let mut b = FunctionBuilder::entry(&mut program);
        let base = b.addrof(table);
        let v = b.load(MemWidth::B4, base);
        let w = b.add(v, v);
        b.store(MemWidth::B4, base, w);
        b.ret(None);
        let profile = Profile::uniform(&program, 100);
        (program, profile)
    }

    fn demo_header(program: &Program) -> CheckpointHeader {
        CheckpointHeader {
            program: program.name.clone(),
            program_hash: program_fingerprint(program),
            seed: PipelineConfig::new(Method::Gdp).rhop.seed,
            clusters: 2,
            latency: 5,
            memory: "partitioned".to_string(),
            gdp_fuel: None,
        }
    }

    fn demo_record(program: &Program, profile: &Profile) -> UnitRecord {
        let machine = Machine::homogeneous(2, 5);
        let cfg = PipelineConfig::new(Method::Gdp);
        run_unit_full(program, profile, &machine, &cfg).expect("demo pipeline runs").record
    }

    #[test]
    fn job_parsing_defaults_and_errors() {
        let spec = parse_job(r#"{"mcpart_job":1,"program":"fir"}"#).expect("minimal job");
        assert_eq!(spec.program, "fir");
        assert_eq!(spec.method, Method::Gdp);
        assert_eq!(spec.machine, SweepPoint::paper());
        assert!(spec.seed.is_none());

        let spec = parse_job(
            r#"{"mcpart_job":1,"program":"fir","method":"naive","clusters":4,
                "latency":9,"memory":"coherent:3","seed":7,"gdp_fuel":100,
                "fault":"panic:mainx2"}"#,
        )
        .expect("full job");
        assert_eq!(spec.method, Method::Naive);
        assert_eq!(spec.machine.clusters, 4);
        assert_eq!(spec.machine.latency, 9);
        assert_eq!(spec.machine.memory, MemoryModel::CoherentCache { remote_penalty: 3 });
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.faults.to_string(), "panic:mainx2");
        assert_eq!(spec.config().rhop.faults, spec.faults);

        for bad in [
            "not json",
            "{}",
            r#"{"mcpart_job":2,"program":"fir"}"#,
            r#"{"mcpart_job":1}"#,
            r#"{"mcpart_job":1,"program":"fir","method":"quantum"}"#,
            r#"{"mcpart_job":1,"program":"fir","clusters":0}"#,
            r#"{"mcpart_job":1,"program":"fir","memory":"ram"}"#,
            r#"{"mcpart_job":1,"program":"fir","seed":-3}"#,
            // Numbers must be exact: no rounding, saturation or
            // truncation on the way in.
            r#"{"mcpart_job":1,"program":"fir","seed":9007199254740993}"#,
            r#"{"mcpart_job":1,"program":"fir","latency":5000000000}"#,
            r#"{"mcpart_job":1,"program":"fir","clusters":2.5}"#,
            r#"{"mcpart_job":1,"program":"fir","method":7}"#,
            r#"{"mcpart_job":1,"program":"fir","fault":"panic:"}"#,
            r#"{"mcpart_job":1,"program":"fir","fault":"halt:1"}"#,
        ] {
            assert!(parse_job(bad).is_err(), "accepted {bad}");
        }
        // The largest seed a job file can carry exactly.
        let spec = parse_job(r#"{"mcpart_job":1,"program":"fir","seed":9007199254740991}"#)
            .expect("safe seed");
        assert_eq!(spec.seed, Some(9_007_199_254_740_991));
        // A cluster count past the id space is refused before the
        // machine is built.
        let spec = parse_job(r#"{"mcpart_job":1,"program":"fir","clusters":65536}"#)
            .expect("parses; bounded by the machine");
        assert_eq!(spec.machine().unwrap_err(), MachineError::TooManyClusters(65536));
    }

    /// The CLI and job files set only the point's cluster count,
    /// latency and memory model: on the default bus and paper mix the
    /// point builds exactly [`Machine::homogeneous`].
    #[test]
    fn a_spec_builds_the_homogeneous_machine() {
        for (clusters, latency, memory) in [
            (1, 1, MemoryModel::Partitioned),
            (2, 5, MemoryModel::Unified),
            (4, 10, MemoryModel::CoherentCache { remote_penalty: 3 }),
            (8, 7, MemoryModel::Partitioned),
        ] {
            let mut spec = JobSpec::new("fir");
            spec.machine = SweepPoint { clusters, latency, memory, ..spec.machine };
            let homogeneous = Machine { memory, ..Machine::homogeneous(clusters, latency) };
            assert_eq!(spec.machine(), Ok(homogeneous));
        }
    }

    #[test]
    fn cache_entry_roundtrip_and_verification() {
        let (program, profile) = demo();
        let header = demo_header(&program);
        let record = demo_record(&program, &profile);
        let entry = render_cache_entry(&header, &record, None);
        let verified = verify_cache_entry(entry.as_bytes(), &header, &record.unit)
            .expect("pristine entry verifies");
        assert_eq!(verified, record);
    }

    #[test]
    fn cache_entry_with_manifest_verifies_and_yields_it_back() {
        let (program, profile) = demo();
        let header = demo_header(&program);
        let machine = Machine::homogeneous(2, 5);
        let cfg = PipelineConfig::new(Method::Gdp);
        let run = run_unit_full(&program, &profile, &machine, &cfg).expect("unit runs");
        let manifest = run.manifest.expect("GDP run produces a manifest");
        let entry = render_cache_entry(&header, &run.record, Some(&manifest));
        let verified = verify_cache_entry(entry.as_bytes(), &header, &run.record.unit)
            .expect("manifest-bearing entry verifies");
        assert_eq!(verified, run.record);
        let text = checksum_verified_text(entry.as_bytes()).expect("checksum holds");
        let ck = parse_checkpoint(text, None).expect("parses as checkpoint");
        assert_eq!(ck.manifest_for(&run.record.unit), Some(&manifest));
    }

    #[test]
    fn cache_verification_rejects_every_corruption() {
        let (program, profile) = demo();
        let header = demo_header(&program);
        let record = demo_record(&program, &profile);
        let entry = render_cache_entry(&header, &record, None);
        let bytes = entry.as_bytes();

        // Truncation sweep: every proper prefix must be rejected.
        for keep in [0, 1, bytes.len() / 4, bytes.len() / 2, bytes.len() - 2, bytes.len() - 1] {
            assert!(
                verify_cache_entry(&bytes[..keep], &header, &record.unit).is_err(),
                "accepted a {keep}-byte truncation"
            );
        }
        // Bit flips: every byte is covered by the checksum.
        for pos in (0..bytes.len()).step_by(bytes.len() / 23 + 1) {
            let mut flipped = bytes.to_vec();
            flipped[pos] ^= 0x10;
            assert!(
                verify_cache_entry(&flipped, &header, &record.unit).is_err(),
                "accepted a bit flip at byte {pos}"
            );
        }
        // Headerless / foreign content.
        for junk in ["", "\n", "{\"x\":1}\n", "plain text\n"] {
            assert!(verify_cache_entry(junk.as_bytes(), &header, &record.unit).is_err());
        }
        // A wrong unit or mismatched header is stale, not servable.
        assert!(verify_cache_entry(bytes, &header, "other/gdp").is_err());
        let mut other = header.clone();
        other.seed ^= 1;
        assert!(verify_cache_entry(bytes, &other, &record.unit).is_err());
    }

    #[test]
    fn cache_key_separates_configurations() {
        let (program, _) = demo();
        let header = demo_header(&program);
        let base = cache_key(&header, Method::Gdp);
        assert_eq!(base, cache_key(&header, Method::Gdp));
        assert_ne!(base, cache_key(&header, Method::Naive));
        let mut seeded = header.clone();
        seeded.seed += 1;
        assert_ne!(base, cache_key(&seeded, Method::Gdp));
        let mut wider = header.clone();
        wider.clusters = 4;
        assert_ne!(base, cache_key(&wider, Method::Gdp));
    }

    #[test]
    fn result_files_are_pinned_and_typed() {
        let (program, profile) = demo();
        let record = demo_record(&program, &profile);
        let ok = render_result("j1", JobStatus::Ok, "", Some(&record));
        assert!(ok.contains("\"status\":\"ok\",\"exit\":0"));
        assert!(ok.contains("\"cycles\":"));
        assert!(!ok.contains("partition_ms"), "wall-clock leaked into a result file");
        let shed =
            render_result("j2", JobStatus::Overloaded, "admission queue full (bound 1)", None);
        assert!(shed.contains("\"status\":\"overloaded\",\"exit\":1"));
        assert!(shed.contains("queue full"));
        let invalid = render_result("j3", JobStatus::Invalid, "not a JSON job file: x", None);
        assert!(invalid.contains("\"exit\":2"));
    }

    #[test]
    fn startup_requeue_budget_quarantines_poison_jobs() {
        let root =
            std::env::temp_dir().join(format!("mcpart-serve-requeues-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let dirs = SpoolDirs::prepare(&root).expect("spool");
        let cap = 2u32;
        fs::write(dirs.root.join("poison.job"), "{}").expect("spool job");

        // Crash loop: the job is claimed, the process dies, the next
        // startup requeues it — `cap` times, each tallied in the
        // sidecar — and the startup after that quarantines it.
        for round in 1..=cap {
            fs::rename(dirs.root.join("poison.job"), dirs.work.join("poison.job")).expect("claim");
            let (requeued, poisoned, _) = dirs.recover(cap).expect("recover");
            assert_eq!((requeued, poisoned), (1, 0), "round {round}");
            assert_eq!(
                fs::read_to_string(dirs.sidecar("poison")).expect("sidecar").trim(),
                round.to_string()
            );
        }
        fs::rename(dirs.root.join("poison.job"), dirs.work.join("poison.job")).expect("claim");
        let (requeued, poisoned, _) = dirs.recover(cap).expect("recover");
        assert_eq!((requeued, poisoned), (0, 1), "budget exhausted, must quarantine");
        assert!(dirs.failed.join("poison.job").exists(), "job not moved to failed/");
        let reason = fs::read_to_string(dirs.failed.join("poison.reason")).expect("diagnostic");
        assert!(reason.contains("poisoned: requeued 2 time(s)"), "{reason}");
        assert!(!dirs.sidecar("poison").exists(), "sidecar must not outlive the job");

        // A torn sidecar resets the tally instead of quarantining a
        // job whose history was lost.
        fs::write(dirs.root.join("flaky.job"), "{}").expect("spool job");
        fs::rename(dirs.root.join("flaky.job"), dirs.work.join("flaky.job")).expect("claim");
        fs::write(dirs.sidecar("flaky"), "99 garbage").expect("torn sidecar");
        let (requeued, poisoned, _) = dirs.recover(1).expect("recover");
        assert_eq!((requeued, poisoned), (1, 0), "torn tally must read as zero");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_sweeps_tmp_files_from_every_published_dir() {
        let root = std::env::temp_dir().join(format!("mcpart-serve-sweep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let dirs = SpoolDirs::prepare(&root).expect("spool");
        fs::create_dir_all(&dirs.telemetry).expect("telemetry dir");
        let stale = [
            dirs.out.join("a.json.tmp"),
            dirs.cache.join("k.json.tmp"),
            dirs.failed.join("a.reason.tmp"),
            dirs.telemetry.join("latest.json.tmp"),
            dirs.root.join("a.requeues.tmp"),
        ];
        for p in &stale {
            fs::write(p, "torn").expect("stale tmp");
        }
        // A client staging a job in the root is not ours to delete.
        let staged = dirs.root.join("b.job.tmp");
        fs::write(&staged, "{").expect("staged job");
        let (_, _, tmps) = dirs.recover(3).expect("recover");
        assert_eq!(tmps, stale.len() as u64);
        assert!(stale.iter().all(|p| !p.exists()), "a stale tmp survived recovery");
        assert!(staged.exists(), "recovery deleted a client's staged job");
        let _ = fs::remove_dir_all(&root);
    }
}
