//! Checkpoint/resume for pipeline work units (crash-only operation).
//!
//! A *unit* at this level is one `(program, method)` pipeline run — the
//! granularity of the CLI's `run`/`exec`/`compare` commands and of the
//! bench sweep. After each completed unit the driver appends one
//! serde-free JSON line (rendered and parsed with [`mcpart_obs::json`])
//! to the checkpoint file; a resumed run validates the header, skips
//! the recorded units (replaying their pinned obs events), and runs
//! only what is missing — producing output byte-identical to an
//! uninterrupted run.
//!
//! ## File format
//!
//! Line 1 is the **header**: the format version plus everything a
//! result depends on — program name and content hash, RHOP seed,
//! machine shape (clusters, latency, memory mode) and GDP fuel. A
//! mismatch on resume is rejected with
//! [`CheckpointError::Mismatch`] (exit 2 at the CLI) rather than
//! silently mixing incompatible placements. Every subsequent line is
//! one [`UnitRecord`].
//!
//! ## Crash tolerance
//!
//! Lines are written and read with [`mcpart_obs::durable`]: one synced
//! `\n`-terminated line per unit, appended before the unit is reported
//! done. A process killed mid-append leaves at most one unterminated
//! final line; the loader treats that unterminated tail as a crash
//! artifact and discards it (the unit simply reruns). A *terminated*
//! line that fails to parse is real corruption and is rejected with a
//! line/column diagnostic — never a panic. Lines carry no checksum.
//!
//! ## Manifest lines
//!
//! A GDP unit may be followed by one **manifest** line (key
//! `mcpart_manifest`): per-function content hashes, per-group content
//! hashes and homes, and the per-function RHOP outputs needed to replay
//! clean functions on a later incremental run (see
//! [`crate::repartition`]). Manifest lines are advisory: manifest-less
//! checkpoints (from before the manifest existed, or whose manifest was
//! lost) load fine and simply force a full recompute, and a manifest
//! line that fails to parse or validate is silently ignored rather than
//! rejected. Only the *absence* of a manifest costs anything; it can
//! never make a result wrong.

use crate::error::{Downgrade, PipelineError};
use crate::pipeline::{Method, PipelineConfig, PipelineResult};
use crate::run_pipeline;
use mcpart_ir::{ClusterId, EntityMap, Profile, Program};
use mcpart_machine::Machine;
use mcpart_obs::durable::{self, Tail};
use mcpart_obs::json::{self, JsonValue, JsonWriter};
use mcpart_obs::EventKind;
use mcpart_par::supervise::QuarantinedUnit;
use mcpart_sched::Placement;
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// Checkpoint format version (bumped on incompatible changes).
pub const CHECKPOINT_VERSION: i64 = 1;

/// The content fingerprint of a program (FNV-1a of its textual IR),
/// which ties a checkpoint to its program text. The text is streamed
/// into the hash, never built.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut hash = durable::Fnv1a::default();
    // Hashing cannot fail.
    let _ = mcpart_ir::write_program(&mut hash, program);
    hash.finish()
}

/// Stable lowercase slug of a method, used in unit keys and records.
pub fn method_slug(method: Method) -> &'static str {
    match method {
        Method::Gdp => "gdp",
        Method::ProfileMax => "profile-max",
        Method::Naive => "naive",
        Method::Unified => "unified",
    }
}

/// The key of one (program, method) unit in checkpoints, cache entries
/// and manifests: `<program name>/<method slug>`.
pub fn unit_key(program: &Program, method: Method) -> String {
    format!("{}/{}", program.name, method_slug(method))
}

/// The one method parser, inverse of [`method_slug`]: used by
/// `--method`, job files, checkpoints and chaos repros. Case-insensitive,
/// and `pm`/`profilemax` name Profile Max too.
impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(slug: &str) -> Result<Self, String> {
        Ok(match slug.to_ascii_lowercase().as_str() {
            "gdp" => Method::Gdp,
            "profile-max" | "profilemax" | "pm" => Method::ProfileMax,
            "naive" => Method::Naive,
            "unified" => Method::Unified,
            _ => return Err(format!("unknown method `{slug}`")),
        })
    }
}

/// Everything a unit's result depends on; written as the checkpoint's
/// first line and validated on resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Program (workload) name.
    pub program: String,
    /// Content hash of the program's textual IR.
    pub program_hash: u64,
    /// RHOP seed.
    pub seed: u64,
    /// Cluster count of the machine.
    pub clusters: usize,
    /// Intercluster move latency.
    pub latency: u32,
    /// Memory mode slug (`partitioned`, `unified`, `coherent:<p>`).
    pub memory: String,
    /// GDP refinement fuel (`None` = unlimited).
    pub gdp_fuel: Option<u64>,
}

impl CheckpointHeader {
    /// Renders the header as its JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj()
            .field("mcpart_checkpoint", &CHECKPOINT_VERSION)
            .field("program", &self.program)
            .key("program_hash")
            .hex64(self.program_hash)
            .field("seed", &self.seed.to_string())
            .field("clusters", &self.clusters)
            .field("latency", &self.latency)
            .field("memory", &self.memory)
            .field("gdp_fuel", &self.gdp_fuel.map_or(-1, |f| f as i64))
            .close_obj();
        w.finish()
    }

    fn from_json(doc: &JsonValue) -> Result<CheckpointHeader, String> {
        let version = doc
            .req("mcpart_checkpoint", JsonValue::to_i64)
            .map_err(|_| "not a checkpoint file (missing 'mcpart_checkpoint' version)")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        // The seed travels as a decimal string: a JSON number cannot
        // hold every u64.
        let seed = doc.req("seed", |v| {
            let s = v.to_str()?;
            s.parse::<u64>().map_err(|_| format!("expected a decimal u64, found `{s}`"))
        })?;
        let gdp_fuel = match doc.req("gdp_fuel", JsonValue::to_i64)? {
            -1 => None,
            f if f >= 0 => Some(f as u64),
            f => return Err(format!("`gdp_fuel`: expected -1 (unlimited) or a fuel, found `{f}`")),
        };
        Ok(CheckpointHeader {
            program: doc.req("program", JsonValue::to_str)?.to_string(),
            program_hash: doc.req("program_hash", JsonValue::to_hex)?,
            seed,
            clusters: doc.req("clusters", JsonValue::to_u64)? as usize,
            latency: doc.req("latency", JsonValue::to_u32)?,
            memory: doc.req("memory", JsonValue::to_str)?.to_string(),
            gdp_fuel,
        })
    }

    /// First header field that differs from `expected`, if any.
    fn mismatch_against(&self, expected: &CheckpointHeader) -> Option<(String, String, String)> {
        let fields: [(&str, String, String); 7] = [
            ("program", expected.program.clone(), self.program.clone()),
            (
                "program_hash",
                format!("{:016x}", expected.program_hash),
                format!("{:016x}", self.program_hash),
            ),
            ("seed", expected.seed.to_string(), self.seed.to_string()),
            ("clusters", expected.clusters.to_string(), self.clusters.to_string()),
            ("latency", expected.latency.to_string(), self.latency.to_string()),
            ("memory", expected.memory.clone(), self.memory.clone()),
            ("gdp_fuel", format!("{:?}", expected.gdp_fuel), format!("{:?}", self.gdp_fuel)),
        ];
        fields
            .into_iter()
            .find(|(_, want, got)| want != got)
            .map(|(name, want, got)| (name.to_string(), want, got))
    }

    /// Whether a checkpoint with this header can serve as the
    /// *baseline* of an incremental re-partition targeting `current`:
    /// every result-affecting field must match except `program_hash`
    /// (the whole point is that the program text changed).
    pub fn compatible_baseline(&self, current: &CheckpointHeader) -> bool {
        let mut relaxed = self.clone();
        relaxed.program_hash = current.program_hash;
        relaxed.mismatch_against(current).is_none()
    }
}

/// Manifest line key (and, with the leading `{"`, the prefix that
/// identifies a manifest line inside a checkpoint or cache entry).
pub const MANIFEST_KEY: &str = "mcpart_manifest";

/// Per-function entry of a [`Manifest`]: everything needed to decide
/// whether the function is dirty and, if clean, to replay its RHOP
/// result without re-running the partitioner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestFunc {
    /// Function name (diagnostic only; identity is positional, because
    /// RHOP's per-function RNG seed derives from the function *index*).
    pub name: String,
    /// Content hash: FNV-1a of the function's textual IR folded with
    /// the object names its memory ops may touch (in op order), so a
    /// points-to change caused elsewhere still dirties this function.
    pub hash: u64,
    /// Sorted content hashes of the object groups the function
    /// accesses.
    pub groups: Vec<u64>,
    /// Pre-normalization RHOP op clusters (empty for a quarantined
    /// function, which is never replayable).
    pub op_cluster: Vec<u32>,
    /// Per-function RHOP stats, in fixed order: regions,
    /// estimator_calls, moves_accepted, full_evals, pruned_evals,
    /// pruned_lock, pruned_bound. `pruned_bound` counts both probes the
    /// static lower bound rejected and simulations the running bound
    /// stopped part-way ([`crate::rhop::RhopStats::pruned_bound`]).
    pub stats: [u64; 7],
    /// Panicking attempts the function needed (`u64::MAX` marks a
    /// quarantined function). Only a `0` entry is replayable: retries
    /// consume backoff fuel whose accounting cannot be reproduced
    /// without re-running.
    pub retries: u64,
}

impl ManifestFunc {
    /// Whether this entry carries a replayable RHOP result.
    pub fn replayable(&self) -> bool {
        self.retries == 0
    }
}

/// The incremental-repartition manifest written alongside a GDP unit
/// record: per-function and per-group content hashes plus the
/// per-function RHOP outputs a clean function replays from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Unit key this manifest belongs to (`program/method-slug`).
    pub unit: String,
    /// Per-function entries, in function-index order.
    pub funcs: Vec<ManifestFunc>,
    /// `(content hash, home cluster)` of every live object group in
    /// the baseline GDP placement, sorted by hash (`-1` = unhomed).
    pub groups: Vec<(u64, i64)>,
}

impl Manifest {
    /// Renders the manifest as its JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj().field(MANIFEST_KEY, &CHECKPOINT_VERSION).field("unit", &self.unit);
        w.key("funcs").arr(&self.funcs, |w, f| {
            w.open_obj().field("name", &f.name).key("hash").hex64(f.hash);
            w.key("groups").arr(&f.groups, |w, &g| {
                w.hex64(g);
            });
            w.field("op_cluster", &f.op_cluster).field("stats", &f.stats[..]);
            // u64::MAX (quarantine marker) does not survive an f64
            // roundtrip; encode retries as -1 in that case.
            let retries = if f.retries == u64::MAX { -1 } else { f.retries as i64 };
            w.field("retries", &retries).close_obj();
        });
        w.key("groups").arr(&self.groups, |w, &(hash, home)| {
            w.open_arr().hex64(hash).val(&home).close_arr();
        });
        w.close_obj();
        w.finish()
    }

    /// Decodes a manifest line; every op cluster and group home must
    /// name one of the header's `clusters`.
    fn from_json(doc: &JsonValue, clusters: usize) -> Result<Manifest, String> {
        if doc.req(MANIFEST_KEY, JsonValue::to_i64)? != CHECKPOINT_VERSION {
            return Err("unsupported manifest version".to_string());
        }
        let funcs = doc.req("funcs", |funcs| {
            funcs.items(|f| {
                let stats: [u64; 7] = f
                    .req("stats", |v| v.items(JsonValue::to_u64))?
                    .try_into()
                    .map_err(|_| "`stats` must have 7 entries".to_string())?;
                // -1 marks a quarantined function.
                let retries = f.req("retries", JsonValue::to_i64)?;
                Ok(ManifestFunc {
                    name: f.req("name", JsonValue::to_str)?.to_string(),
                    hash: f.req("hash", JsonValue::to_hex)?,
                    groups: f.req("groups", |v| v.items(JsonValue::to_hex))?,
                    op_cluster: f.req("op_cluster", |v| v.items(|c| cluster(c, clusters)))?,
                    stats,
                    retries: u64::try_from(retries).unwrap_or(u64::MAX),
                })
            })
        })?;
        let groups = doc.req("groups", |groups| {
            groups.items(|pair| match pair.to_arr()? {
                [hash, h] => Ok((hash.to_hex()?, home(h, clusters)?)),
                _ => Err("expected a [hash, home] pair".to_string()),
            })
        })?;
        Ok(Manifest { unit: doc.req("unit", JsonValue::to_str)?.to_string(), funcs, groups })
    }
}

/// Reads an op's cluster: an index below `clusters`.
fn cluster(v: &JsonValue, clusters: usize) -> Result<u32, String> {
    match v.to_u32()? {
        c if (c as usize) < clusters => Ok(c),
        c => Err(format!("expected a cluster below `clusters` ({clusters}), found `{c}`")),
    }
}

/// Reads an object's home: a cluster index below `clusters`, or `-1`
/// for unhomed.
fn home(v: &JsonValue, clusters: usize) -> Result<i64, String> {
    match v.to_i64()? {
        h if (-1..clusters as i64).contains(&h) => Ok(h),
        h => Err(format!("expected -1 or a cluster below `clusters` ({clusters}), found `{h}`")),
    }
}

/// The pinned projection of one obs event, carried by a [`UnitRecord`]
/// so a resumed run can replay the unit's trace contribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinnedEvent {
    /// Event category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// `Some(value)` for counters, `None` for spans.
    pub counter: Option<i64>,
    /// Pinned integer attributes.
    pub args: Vec<(String, i64)>,
}

/// One completed unit: its identity, placement, downgrade records,
/// report scalars, quarantine state and pinned obs events.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitRecord {
    /// Unit key: `program/method-slug` of the *requested* method.
    pub unit: String,
    /// Requested method.
    pub requested: Method,
    /// Method that actually produced the result.
    pub method: Method,
    /// Degradation-ladder records, oldest first.
    pub downgrades: Vec<Downgrade>,
    /// Operation clusters per function (input order).
    pub op_cluster: Vec<Vec<u32>>,
    /// Object home clusters (`-1` = unhomed).
    pub object_home: Vec<i64>,
    /// Total dynamic cycles.
    pub cycles: u64,
    /// Dynamic intercluster moves.
    pub dynamic_moves: u64,
    /// Dynamic remote accesses (coherent model).
    pub remote: u64,
    /// Static intercluster moves inserted.
    pub moves_inserted: usize,
    /// Detailed-partitioner runs (compile-time proxy).
    pub detailed_runs: usize,
    /// Data bytes homed per cluster.
    pub data_bytes: Vec<u64>,
    /// Panicking function attempts that were retried successfully.
    pub retries: u64,
    /// Function units replaced by the quarantine fallback.
    pub quarantine: Vec<QuarantinedUnit>,
    /// Peak boundary register pressure of the transformed program.
    pub pressure: u64,
    /// Partitioning wall-clock milliseconds (non-pinned; informational).
    pub partition_ms: f64,
    /// Pinned obs events recorded while the unit ran.
    pub events: Vec<PinnedEvent>,
}

impl UnitRecord {
    /// Builds a record from a finished pipeline run. `events` is the
    /// slice of the obs log recorded *during* this unit (the caller
    /// snapshots the sink length before the run).
    pub fn from_result(
        unit: &str,
        result: &PipelineResult,
        events: &[mcpart_obs::Event],
    ) -> UnitRecord {
        let pressure = result
            .program
            .functions
            .values()
            .map(|f| mcpart_analysis::Liveness::compute(f).peak_boundary_pressure())
            .max()
            .unwrap_or(0) as u64;
        UnitRecord {
            unit: unit.to_string(),
            requested: result.requested_method,
            method: result.method,
            downgrades: result.downgrades.clone(),
            op_cluster: result
                .placement
                .op_cluster
                .values()
                .map(|ops| ops.values().map(|c| c.index() as u32).collect())
                .collect(),
            object_home: result
                .placement
                .object_home
                .values()
                .map(|h| h.map_or(-1, |c| c.index() as i64))
                .collect(),
            cycles: result.cycles(),
            dynamic_moves: result.dynamic_moves(),
            remote: result.report.dynamic_remote_accesses,
            moves_inserted: result.moves_inserted,
            detailed_runs: result.detailed_runs,
            data_bytes: result.data_bytes.clone(),
            retries: result.rhop_stats.retries,
            quarantine: result.rhop_stats.quarantine.units.clone(),
            pressure,
            // Quantized to the serialized precision (microseconds) so the
            // record roundtrips bit-for-bit through its JSON line.
            partition_ms: (result.partition_time.as_secs_f64() * 1e6).round() / 1e3,
            events: events
                .iter()
                .map(|e| PinnedEvent {
                    cat: e.cat.to_string(),
                    name: e.name.clone(),
                    counter: match e.kind {
                        EventKind::Counter(v) => Some(v),
                        EventKind::Span => None,
                    },
                    args: e.args.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds the placement this record describes.
    pub fn placement(&self) -> Placement {
        Placement {
            op_cluster: self
                .op_cluster
                .iter()
                .map(|ops| {
                    ops.iter().map(|&c| ClusterId::new(c as usize)).collect::<EntityMap<_, _>>()
                })
                .collect(),
            object_home: self
                .object_home
                .iter()
                .map(|&h| if h < 0 { None } else { Some(ClusterId::new(h as usize)) })
                .collect(),
        }
    }

    /// Replays the unit's pinned obs events into a sink, so a resumed
    /// run's pinned log is byte-identical to an uninterrupted one.
    pub fn replay_events(&self, obs: &mcpart_obs::Obs) {
        for e in &self.events {
            let kind = match e.counter {
                Some(v) => EventKind::Counter(v),
                None => EventKind::Span,
            };
            obs.replay(mcpart_obs::intern_cat(&e.cat), &e.name, kind, e.args.clone());
        }
    }

    /// Renders the record as its JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj()
            .field("unit", &self.unit)
            .field("requested", method_slug(self.requested))
            .field("method", method_slug(self.method));
        w.key("downgrades").arr(&self.downgrades, |w, d| {
            w.open_obj()
                .field("from", method_slug(d.from))
                .field("to", method_slug(d.to))
                .field("reason", &d.reason)
                .close_obj();
        });
        w.field("op_cluster", &self.op_cluster)
            .field("object_home", &self.object_home)
            .field("cycles", &self.cycles)
            .field("dynamic_moves", &self.dynamic_moves)
            .field("remote", &self.remote)
            .field("moves_inserted", &self.moves_inserted)
            .field("detailed_runs", &self.detailed_runs)
            .field("retries", &self.retries)
            .field("pressure", &self.pressure)
            .key("partition_ms")
            .fixed(self.partition_ms, 3)
            .field("data_bytes", &self.data_bytes);
        w.key("quarantine").arr(&self.quarantine, |w, q| {
            w.open_obj()
                .field("unit", &q.unit)
                .field("attempts", &q.attempts)
                .field("reason", &q.reason)
                .close_obj();
        });
        w.key("events").arr(&self.events, |w, e| {
            w.open_obj().field("cat", &e.cat).field("name", &e.name);
            if let Some(v) = e.counter {
                w.field("counter", &v);
            }
            w.key("args").arr(&e.args, |w, (k, v)| {
                w.open_arr().val(k).val(v).close_arr();
            });
            w.close_obj();
        });
        w.close_obj();
        w.finish()
    }

    /// Decodes a record line; every op cluster and object home must
    /// name one of the header's `clusters`.
    fn from_json(doc: &JsonValue, clusters: usize) -> Result<UnitRecord, String> {
        let method = |v: &JsonValue| v.to_str()?.parse::<Method>();
        let downgrades = doc.req("downgrades", |v| {
            v.items(|d| {
                Ok(Downgrade {
                    from: d.req("from", method)?,
                    to: d.req("to", method)?,
                    reason: d.req("reason", JsonValue::to_str)?.to_string(),
                })
            })
        })?;
        let quarantine = doc.req("quarantine", |v| {
            v.items(|q| {
                Ok(QuarantinedUnit {
                    unit: q.req("unit", JsonValue::to_str)?.to_string(),
                    attempts: q.req("attempts", JsonValue::to_u32)?,
                    reason: q.req("reason", JsonValue::to_str)?.to_string(),
                })
            })
        })?;
        let events = doc.req("events", |v| {
            v.items(|e| {
                let args = e.req("args", |v| {
                    v.items(|pair| match pair.to_arr()? {
                        [k, v] => Ok((k.to_str()?.to_string(), v.to_i64()?)),
                        _ => Err("expected a [key, value] pair".to_string()),
                    })
                })?;
                Ok(PinnedEvent {
                    cat: e.req("cat", JsonValue::to_str)?.to_string(),
                    name: e.req("name", JsonValue::to_str)?.to_string(),
                    counter: e.opt("counter", JsonValue::to_i64)?,
                    args,
                })
            })
        })?;
        Ok(UnitRecord {
            unit: doc.req("unit", JsonValue::to_str)?.to_string(),
            requested: doc.req("requested", method)?,
            method: doc.req("method", method)?,
            downgrades,
            op_cluster: doc
                .req("op_cluster", |v| v.items(|ops| ops.items(|c| cluster(c, clusters))))?,
            object_home: doc.req("object_home", |v| v.items(|h| home(h, clusters)))?,
            cycles: doc.req("cycles", JsonValue::to_u64)?,
            dynamic_moves: doc.req("dynamic_moves", JsonValue::to_u64)?,
            remote: doc.req("remote", JsonValue::to_u64)?,
            moves_inserted: doc.req("moves_inserted", JsonValue::to_u64)? as usize,
            detailed_runs: doc.req("detailed_runs", JsonValue::to_u64)? as usize,
            data_bytes: doc.req("data_bytes", |v| v.items(JsonValue::to_u64))?,
            retries: doc.req("retries", JsonValue::to_u64)?,
            quarantine,
            pressure: doc.req("pressure", JsonValue::to_u64)?,
            partition_ms: doc.req("partition_ms", JsonValue::to_f64)?,
            events,
        })
    }
}

/// Why a checkpoint could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(String),
    /// A newline-terminated line is malformed (real corruption, not a
    /// crash artifact). `line`/`column` are 1-based.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// 1-based byte column within the line.
        column: usize,
        /// What was wrong.
        message: String,
    },
    /// The header does not match the requested run configuration.
    Mismatch {
        /// Header field that differs.
        field: String,
        /// Value the current run requires.
        expected: String,
        /// Value found in the file.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, column, message } => {
                write!(f, "checkpoint corrupt at line {line}, column {column}: {message}")
            }
            CheckpointError::Mismatch { field, expected, found } => write!(
                f,
                "checkpoint header mismatch: {field} is `{found}` but this run requires \
                 `{expected}` (delete the checkpoint or rerun with matching options)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A loaded checkpoint: validated header, completed unit records, and
/// whether a crash artifact (unterminated tail line) was discarded.
#[derive(Debug)]
pub struct Checkpoint {
    /// The validated header.
    pub header: CheckpointHeader,
    /// Completed units, in file order.
    pub records: Vec<UnitRecord>,
    /// Repartition manifests, in file order. Unparseable manifest
    /// lines are dropped here (never an error), so absence only forces
    /// a full recompute.
    pub manifests: Vec<Manifest>,
    /// Whether an unterminated final line was dropped (the killed
    /// process died mid-append; the unit will simply rerun).
    pub dropped_partial_tail: bool,
}

impl Checkpoint {
    /// The manifest for a unit key, if one was written and survived.
    pub fn manifest_for(&self, unit: &str) -> Option<&Manifest> {
        self.manifests.iter().find(|m| m.unit == unit)
    }
}

/// Loads and validates a checkpoint file against the header the
/// current run would write.
pub fn load_checkpoint(
    path: &str,
    expected: &CheckpointHeader,
) -> Result<Checkpoint, CheckpointError> {
    parse_checkpoint(&read_checkpoint(path)?, Some(expected))
}

/// Reads a checkpoint file, classifying invalid UTF-8 as corruption at
/// a 1-based line/column rather than as an I/O failure: garbage on disk
/// is a configuration problem (exit 2), not a transient runtime error.
fn read_checkpoint(path: &str) -> Result<String, CheckpointError> {
    let bytes =
        std::fs::read(path).map_err(|e| CheckpointError::Io(format!("cannot read {path}: {e}")))?;
    String::from_utf8(bytes).map_err(|e| {
        let at = e.utf8_error().valid_up_to();
        let (line, column) =
            json::line_col(std::str::from_utf8(&e.as_bytes()[..at]).unwrap_or_default(), at);
        CheckpointError::Corrupt { line, column, message: format!("invalid UTF-8 at byte {at}") }
    })
}

/// [`load_checkpoint`] without header validation — loads a file for
/// `checkpoint-diff`, which compares two checkpoints on their own
/// terms.
pub fn load_checkpoint_any(path: &str) -> Result<Checkpoint, CheckpointError> {
    parse_checkpoint(&read_checkpoint(path)?, None)
}

/// Parses checkpoint text (the testable core of both loaders). With
/// `expected`, the header must match it; without, the file is taken on
/// its own terms.
pub fn parse_checkpoint(
    text: &str,
    expected: Option<&CheckpointHeader>,
) -> Result<Checkpoint, CheckpointError> {
    let corrupt = |line_no: usize, message: String| {
        // Parse errors embed a byte offset within the line; surface it
        // as a 1-based column.
        let column = json::error_byte(&message).map_or(1, |b| b + 1);
        CheckpointError::Corrupt { line: line_no, column, message }
    };
    // Lines are parsed without their `\r` (CRLF tolerance).
    let (mut lines, tail) = durable::read_records(text);
    // An unterminated tail that still parses lost only its newline and
    // is kept; anything else is what a kill mid-append leaves.
    let mut dropped_partial_tail = false;
    if let Tail::Unterminated(line) = tail {
        if json::parse(line.text.trim_end_matches('\r')).is_ok() {
            lines.push(line);
        } else {
            dropped_partial_tail = true;
        }
    }
    let Some(header_line) = lines.first() else {
        return Err(corrupt(1, "missing checkpoint header".to_string()));
    };
    let header_doc =
        json::parse(header_line.text.trim_end_matches('\r')).map_err(|e| corrupt(1, e))?;
    let header = CheckpointHeader::from_json(&header_doc).map_err(|e| corrupt(1, e))?;
    if let Some(expected) = expected {
        if let Some((field, expected, found)) = header.mismatch_against(expected) {
            return Err(CheckpointError::Mismatch { field, expected, found });
        }
    }
    let mut records = Vec::new();
    let mut manifests = Vec::new();
    let manifest_prefix = format!("{{\"{MANIFEST_KEY}\"");
    for line in &lines[1..] {
        let (n, body) = (line.number, line.text.trim_end_matches('\r'));
        if body.is_empty() {
            continue;
        }
        if body.starts_with(&manifest_prefix) {
            // Manifests are advisory: a malformed one is dropped (the
            // unit recomputes from scratch), never a parse error.
            if let Ok(doc) = json::parse(body) {
                if let Ok(m) = Manifest::from_json(&doc, header.clusters) {
                    manifests.push(m);
                }
            }
            continue;
        }
        let doc = json::parse(body).map_err(|e| corrupt(n, e))?;
        records.push(UnitRecord::from_json(&doc, header.clusters).map_err(|e| corrupt(n, e))?);
    }
    Ok(Checkpoint { header, records, manifests, dropped_partial_tail })
}

/// Appends unit records to a checkpoint file, one synced line each.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    path: String,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint file and writes the header.
    pub fn create(path: &str, header: &CheckpointHeader) -> Result<Self, CheckpointError> {
        let file = File::create(path)
            .map_err(|e| CheckpointError::Io(format!("cannot create {path}: {e}")))?;
        let mut w = CheckpointWriter { file, path: path.to_string() };
        w.append_line(&header.to_json())?;
        Ok(w)
    }

    /// Re-creates the file from a validated resume: header plus the
    /// surviving records and manifests (this drops any crash artifact
    /// from the tail so subsequent appends start on a clean line). The
    /// rewrite is published atomically, so a kill during it leaves the
    /// original file with every committed record.
    pub fn resume(
        path: &str,
        header: &CheckpointHeader,
        records: &[UnitRecord],
        manifests: &[Manifest],
    ) -> Result<Self, CheckpointError> {
        let mut text = format!("{}\n", header.to_json());
        for r in records {
            let _ = writeln!(text, "{}", r.to_json());
            if let Some(m) = manifests.iter().find(|m| m.unit == r.unit) {
                let _ = writeln!(text, "{}", m.to_json());
            }
        }
        durable::publish_atomic(Path::new(path), text.as_bytes())
            .map_err(|e| CheckpointError::Io(format!("cannot rewrite {path}: {e}")))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| CheckpointError::Io(format!("cannot reopen {path}: {e}")))?;
        Ok(CheckpointWriter { file, path: path.to_string() })
    }

    /// Appends one record and syncs it before returning, so a later
    /// SIGKILL cannot lose a unit that was reported done.
    pub fn append(&mut self, record: &UnitRecord) -> Result<(), CheckpointError> {
        self.append_line(&record.to_json())
    }

    /// Appends one manifest line (written right after its unit's
    /// record, so a crash between the two costs only the manifest).
    pub fn append_manifest(&mut self, manifest: &Manifest) -> Result<(), CheckpointError> {
        self.append_line(&manifest.to_json())
    }

    /// The `halt:<n>` fault's crash hook: tears the record's line as a kill
    /// mid-append would, then aborts ([`durable::crash_torn`]).
    pub fn crash_mid_append(&mut self, record: &UnitRecord) -> ! {
        durable::crash_torn(&mut self.file, &record.to_json())
    }

    fn append_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        durable::append_record(&mut self.file, line)
            .map_err(|e| CheckpointError::Io(format!("cannot write {}: {e}", self.path)))
    }
}

/// A completed unit plus its incremental-repartition byproducts.
#[derive(Debug)]
pub struct UnitRun {
    /// The unit record.
    pub record: UnitRecord,
    /// Manifest for a future incremental run (GDP method, not
    /// downgraded; `None` otherwise).
    pub manifest: Option<Manifest>,
    /// Dirty-cone statistics when the run replayed against a baseline
    /// manifest (`None` on a from-scratch run).
    pub repartition: Option<crate::repartition::RepartitionStats>,
}

/// Runs one checkpointable unit: snapshots the obs log, runs the
/// pipeline, and packages the result (placement, downgrades, report
/// scalars, quarantine, the unit's pinned events) as a [`UnitRecord`],
/// alongside the fresh manifest and — when `config.baseline` carried a
/// prior manifest — the dirty-cone statistics.
///
/// A terminal failure, a worker panic included, is the pipeline's own
/// [`PipelineError`].
pub fn run_unit_full(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
) -> Result<UnitRun, PipelineError> {
    let unit = unit_key(program, config.method);
    let before = config.obs.events().len();
    let result = run_pipeline(program, profile, machine, config)?;
    let events = config.obs.events();
    let record = UnitRecord::from_result(&unit, &result, &events[before..]);
    let manifest = result.manifest.clone().map(|mut m| {
        m.unit = unit.clone();
        m
    });
    Ok(UnitRun { record, manifest, repartition: result.repartition })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth};

    fn demo_program() -> (Program, Profile) {
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
            seed: 0x4409,
            clusters: 2,
            latency: 5,
            memory: "partitioned".to_string(),
            gdp_fuel: None,
        }
    }

    #[test]
    fn header_roundtrips() {
        let (program, _) = demo_program();
        let h = demo_header(&program);
        let doc = json::parse(&h.to_json()).expect("header is valid JSON");
        let parsed = CheckpointHeader::from_json(&doc).expect("header parses back");
        assert_eq!(parsed, h);
        let mut other = h.clone();
        other.seed = 7;
        assert!(parsed.mismatch_against(&h).is_none());
        let (field, _, _) = parsed.mismatch_against(&other).expect("seed differs");
        assert_eq!(field, "seed");
    }

    #[test]
    fn unit_record_roundtrips_through_json() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let obs = mcpart_obs::Obs::enabled();
        let config = PipelineConfig::new(Method::Gdp).with_obs(obs.clone());
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        assert_eq!(record.unit, "demo/gdp");
        assert!(!record.events.is_empty(), "obs events captured");
        let doc = json::parse(&record.to_json()).expect("record is valid JSON");
        let parsed = UnitRecord::from_json(&doc, 2).expect("record parses back");
        assert_eq!(parsed, record);
        // The rebuilt placement matches the live one.
        let result = run_pipeline(&program, &profile, &machine, &config).expect("pipeline");
        assert_eq!(record.placement().op_cluster, result.placement.op_cluster);
        assert_eq!(record.placement().object_home, result.placement.object_home);
    }

    #[test]
    fn replay_reproduces_the_pinned_log() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let live = mcpart_obs::Obs::enabled();
        let config = PipelineConfig::new(Method::Gdp).with_obs(live.clone());
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        let resumed = mcpart_obs::Obs::enabled();
        record.replay_events(&resumed);
        assert_eq!(live.pinned_log(), resumed.pinned_log());
    }

    #[test]
    fn checkpoint_roundtrips_and_tolerates_partial_tail() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let config = PipelineConfig::new(Method::Gdp);
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        let header = demo_header(&program);
        let mut text = format!("{}\n{}\n", header.to_json(), record.to_json());
        let ck = parse_checkpoint(&text, Some(&header)).expect("clean checkpoint parses");
        assert_eq!(ck.records.len(), 1);
        assert!(!ck.dropped_partial_tail);
        // A SIGKILL mid-append leaves an unterminated prefix of the next
        // record: dropped as a crash artifact, not an error.
        let half = &record.to_json()[..40];
        text.push_str(half);
        let ck = parse_checkpoint(&text, Some(&header)).expect("partial tail tolerated");
        assert_eq!(ck.records.len(), 1);
        assert!(ck.dropped_partial_tail);
    }

    #[test]
    fn terminated_garbage_is_corruption_with_line_and_column() {
        let (program, _) = demo_program();
        let header = demo_header(&program);
        let text = format!("{}\n{{\"unit\": }}\n", header.to_json());
        match parse_checkpoint(&text, Some(&header)) {
            Err(CheckpointError::Corrupt { line, column, .. }) => {
                assert_eq!(line, 2);
                assert!(column > 1, "column {column} should point into the line");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A header mismatch is a Mismatch, not corruption.
        let mut other_header = header.clone();
        other_header.clusters = 4;
        let text = format!("{}\n", header.to_json());
        match parse_checkpoint(&text, Some(&other_header)) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "clusters"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // An empty file has no header.
        assert!(matches!(
            parse_checkpoint("", Some(&header)),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn writer_appends_flushed_lines() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let config = PipelineConfig::new(Method::Gdp);
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        let header = demo_header(&program);
        let dir = std::env::temp_dir().join("mcpart_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("unit.ckpt");
        let path_str = path.to_str().expect("utf-8 path");
        {
            let mut w = CheckpointWriter::create(path_str, &header).expect("create");
            w.append(&record).expect("append");
        }
        let ck = load_checkpoint(path_str, &header).expect("load");
        assert_eq!(ck.records.len(), 1);
        assert_eq!(ck.records[0], record);
        // Resume rewrites the file with the surviving records.
        {
            let _w = CheckpointWriter::resume(path_str, &header, &ck.records, &ck.manifests)
                .expect("resume");
        }
        let again = load_checkpoint(path_str, &header).expect("reload");
        assert_eq!(again.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A kill (here: a full disk) in the middle of `--resume`'s rewrite
    /// must not cost records that were already durable: the rewrite
    /// goes to `<path>.tmp`, and the live file is only replaced by the
    /// rename.
    #[cfg(target_os = "linux")]
    #[test]
    fn interrupted_resume_rewrite_keeps_every_committed_record() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let config = PipelineConfig::new(Method::Gdp);
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        let mut other = record.clone();
        other.unit = "demo/naive".to_string();
        let header = demo_header(&program);
        let manifest = demo_manifest("demo/gdp");
        let dir = std::env::temp_dir().join(format!("mcpart_resume_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("unit.ckpt");
        let path_str = path.to_str().expect("utf-8 path");
        {
            let mut w = CheckpointWriter::create(path_str, &header).expect("create");
            w.append(&record).expect("append");
            w.append_manifest(&manifest).expect("append manifest");
            w.append(&other).expect("append");
        }
        let before = std::fs::read(&path).expect("read");
        // Every write to the staging file fails mid-rewrite.
        std::os::unix::fs::symlink("/dev/full", durable::tmp_path(&path)).expect("symlink");
        let ck = load_checkpoint(path_str, &header).expect("load");
        assert!(CheckpointWriter::resume(path_str, &header, &ck.records, &ck.manifests).is_err());
        assert_eq!(std::fs::read(&path).expect("reread"), before, "live file was touched");
        let again = load_checkpoint(path_str, &header).expect("original still loads");
        assert_eq!(again.records, [record, other]);
        assert_eq!(again.manifests, [manifest]);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn demo_manifest(unit: &str) -> Manifest {
        Manifest {
            unit: unit.to_string(),
            funcs: vec![
                ManifestFunc {
                    name: "main".to_string(),
                    hash: 0xdead_beef_0123_4567,
                    groups: vec![1, 0xffff_ffff_ffff_fffe],
                    op_cluster: vec![0, 1, 0, 1],
                    stats: [1, 2, 3, 4, 5, 6, 7],
                    retries: 0,
                },
                ManifestFunc {
                    name: "quarantined".to_string(),
                    hash: 7,
                    groups: vec![],
                    op_cluster: vec![],
                    stats: [0; 7],
                    retries: u64::MAX,
                },
            ],
            groups: vec![(1, 0), (0xffff_ffff_ffff_fffe, -1)],
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = demo_manifest("demo/gdp");
        let doc = json::parse(&m.to_json()).expect("manifest is valid JSON");
        let parsed = Manifest::from_json(&doc, 2).expect("manifest parses back");
        assert_eq!(parsed, m);
        assert!(parsed.funcs[0].replayable());
        assert!(!parsed.funcs[1].replayable());
    }

    #[test]
    fn manifest_lines_load_and_corrupt_ones_are_dropped_not_errors() {
        let (program, profile) = demo_program();
        let machine = Machine::paper_2cluster(5);
        let config = PipelineConfig::new(Method::Gdp);
        let record =
            run_unit_full(&program, &profile, &machine, &config).expect("unit runs").record;
        let header = demo_header(&program);
        let manifest = demo_manifest("demo/gdp");
        let text = format!("{}\n{}\n{}\n", header.to_json(), record.to_json(), manifest.to_json());
        let ck = parse_checkpoint(&text, Some(&header)).expect("manifested checkpoint parses");
        assert_eq!(ck.records.len(), 1);
        assert_eq!(ck.manifest_for("demo/gdp"), Some(&manifest));
        assert!(ck.manifest_for("demo/naive").is_none());
        // A corrupt manifest line is dropped (full recompute), never an
        // error — but a corrupt *record* line still is one.
        let m = manifest.to_json();
        for bad in [&m[..m.len() / 2], "{\"mcpart_manifest\":1,\"unit\":3}"] {
            let text = format!("{}\n{}\n{bad}\n", header.to_json(), record.to_json());
            let ck = parse_checkpoint(&text, Some(&header)).expect("corrupt manifest tolerated");
            assert_eq!(ck.records.len(), 1);
            assert!(ck.manifests.is_empty());
        }
        // Manifests survive a resume rewrite.
        let dir = std::env::temp_dir().join("mcpart_manifest_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("unit.ckpt");
        let path_str = path.to_str().expect("utf-8 path");
        {
            let _w = CheckpointWriter::resume(
                path_str,
                &header,
                &ck.records,
                std::slice::from_ref(&manifest),
            )
            .expect("resume");
        }
        let again = load_checkpoint(path_str, &header).expect("reload");
        assert_eq!(again.manifest_for("demo/gdp"), Some(&manifest));
        std::fs::remove_file(&path).ok();
    }
}
