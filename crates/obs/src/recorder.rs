//! The serve-mode flight recorder: a crash-safe, append-only log of
//! metrics snapshots under `<spool>/telemetry/`.
//!
//! Each snapshot is one JSON line sealed with a checksum footer
//! ([`crate::durable::seal`]):
//!
//! ```text
//! {"mcpart_telemetry":1,"run":R,"seq":S,"counters":{...},"metrics":{...},"sum":"<FNV-1a 64>"}
//! ```
//!
//! The `sum` footer is an FNV-1a 64 checksum over every byte of the
//! record **before** `,"sum"`. Records are appended and synced one at
//! a time, so a `kill -9` can corrupt at most the final line; the
//! reader verifies each line's checksum and strict-parses the JSON,
//! keeps the valid prefix, and counts (never misparses) corrupt or
//! truncated records. Snapshots are cumulative within a `run` (one
//! serve invocation); a restart scans the log and opens the next run
//! id, so a daemon's whole history is reconstructable after a crash by
//! merging each run's last valid snapshot.
//!
//! The most recent snapshot is additionally published atomically to
//! `latest.json` in the same directory — a convenience mirror for
//! humans; the `.jsonl` log is the durable record.

use crate::durable::{self, Tail};
use crate::json::{self, JsonValue, JsonWriter};
use crate::metrics::MetricsRegistry;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// File name of the append-only snapshot log inside the telemetry
/// directory.
pub const TELEMETRY_LOG: &str = "telemetry.jsonl";

/// File name of the atomically published mirror of the newest snapshot.
pub const TELEMETRY_LATEST: &str = "latest.json";

/// Framing version stamped into every record.
pub const TELEMETRY_VERSION: i64 = 1;

/// Opening of the checksum footer that seals every record.
const SUM_OPEN: &str = ",\"sum\":\"";

/// An open, appendable flight-recorder log.
#[derive(Debug)]
pub struct FlightRecorder {
    dir: PathBuf,
    file: File,
    run: u64,
    seq: u64,
}

impl FlightRecorder {
    /// Opens (creating if needed) the telemetry log in `dir` and
    /// starts a new run numbered after the highest run already on
    /// disk. Corrupt records in the existing log are ignored here —
    /// they only cost history, never startup. A log whose last line is
    /// unterminated (a crash mid-append) first gets a synced newline,
    /// so the new run's records start on a fresh line instead of being
    /// glued onto the torn one.
    pub fn open(dir: &Path) -> io::Result<FlightRecorder> {
        fs::create_dir_all(dir)?;
        let path = dir.join(TELEMETRY_LOG);
        let (prior, torn) = match fs::read_to_string(&path) {
            Ok(text) => (
                parse_telemetry(&text).snapshots.iter().map(|s| s.run).max().unwrap_or(0),
                matches!(durable::read_records(&text).1, Tail::Unterminated(_)),
            ),
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, false),
            Err(e) => return Err(e),
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if torn {
            durable::append_record(&mut file, "")?;
        }
        Ok(FlightRecorder { dir: dir.to_path_buf(), file, run: prior + 1, seq: 0 })
    }

    /// The run id this recorder stamps into its snapshots.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Appends one snapshot record (cumulative for this run) and
    /// fsyncs it, then republishes `latest.json` atomically.
    pub fn record(
        &mut self,
        counters: &[(&str, i64)],
        metrics: &MetricsRegistry,
    ) -> io::Result<()> {
        // The body stays open: the checksum footer closes the object.
        let mut w = JsonWriter::new();
        w.open_obj()
            .field("mcpart_telemetry", &TELEMETRY_VERSION)
            .field("run", &self.run)
            .field("seq", &self.seq)
            .key("counters")
            .open_obj();
        for (k, v) in counters {
            w.field(k, v);
        }
        metrics.write_json(w.close_obj().key("metrics"), false);
        let body = w.finish();
        let sealed = durable::seal(&body, SUM_OPEN);
        durable::append_record(&mut self.file, &sealed)?;
        self.seq += 1;
        // Best-effort mirror; the jsonl log is the durable record.
        durable::publish_atomic(&self.dir.join(TELEMETRY_LATEST), format!("{sealed}\n").as_bytes())
    }
}

/// Closes a record body with its checksum footer and newline. The
/// checksum covers every byte of `body` (which must end just after the
/// `metrics` value, before the footer comma).
pub fn seal_record(body: &str) -> String {
    format!("{}\n", durable::seal(body, SUM_OPEN))
}

/// One decoded snapshot record.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Serve invocation ordinal (1-based, monotonic across restarts).
    pub run: u64,
    /// Snapshot ordinal within the run (0-based).
    pub seq: u64,
    /// Cumulative scalar counters at snapshot time, in record order.
    pub counters: Vec<(String, i64)>,
    /// Cumulative histogram registry at snapshot time.
    pub metrics: MetricsRegistry,
}

/// A decoded telemetry log: the valid snapshots plus how many records
/// were detected as corrupt/truncated and skipped.
#[derive(Clone, Debug, Default)]
pub struct TelemetryLog {
    /// Every record that passed checksum + strict parse, in file order.
    pub snapshots: Vec<TelemetrySnapshot>,
    /// Records that failed framing, checksum, or parse.
    pub skipped: usize,
}

impl TelemetryLog {
    /// Merges the log into one registry and counter set: snapshots are
    /// cumulative within a run, so this takes each run's last valid
    /// snapshot and folds runs together (counters sum; histograms
    /// merge bucket-wise).
    pub fn merged(&self) -> (MetricsRegistry, Vec<(String, i64)>) {
        let mut registry = MetricsRegistry::new();
        let mut counters: Vec<(String, i64)> = Vec::new();
        let mut runs: Vec<&TelemetrySnapshot> = Vec::new();
        for snap in &self.snapshots {
            match runs.iter_mut().find(|s| s.run == snap.run) {
                Some(slot) if snap.seq >= slot.seq => *slot = snap,
                Some(_) => {}
                None => runs.push(snap),
            }
        }
        for snap in runs {
            registry.merge(&snap.metrics);
            for (k, v) in &snap.counters {
                match counters.iter_mut().find(|(name, _)| name == k) {
                    Some((_, total)) => *total += v,
                    None => counters.push((k.clone(), *v)),
                }
            }
        }
        (registry, counters)
    }
}

fn decode_record(line: &str) -> Result<TelemetrySnapshot, String> {
    durable::unseal(line.as_bytes(), SUM_OPEN)?;
    let doc = json::parse(line)?;
    if doc.req("mcpart_telemetry", JsonValue::to_i64)? != TELEMETRY_VERSION {
        return Err("bad telemetry version".to_string());
    }
    let counters = doc.req("counters", |v| {
        let fields = v.to_obj()?;
        fields.iter().map(|(k, v)| Ok((k.clone(), v.to_i64()?))).collect()
    })?;
    Ok(TelemetrySnapshot {
        run: doc.req("run", JsonValue::to_u64)?,
        seq: doc.req("seq", JsonValue::to_u64)?,
        counters,
        metrics: doc.req("metrics", MetricsRegistry::from_json)?,
    })
}

/// Decodes a telemetry log's text. Corrupt or truncated records are
/// detected (checksum + strict parse), skipped and counted, never
/// misparsed; an unterminated final line — the expected artifact of a
/// crash mid-append — is decoded like any other, so it counts as
/// skipped unless it lost only its newline.
pub fn parse_telemetry(text: &str) -> TelemetryLog {
    let (mut lines, tail) = durable::read_records(text);
    if let Tail::Unterminated(line) = tail {
        lines.push(line);
    }
    let mut log = TelemetryLog::default();
    for line in lines.iter().filter(|l| !l.text.is_empty()) {
        match decode_record(line.text) {
            Ok(snap) => log.snapshots.push(snap),
            Err(_) => log.skipped += 1,
        }
    }
    log
}

/// Reads and decodes `<dir>/telemetry.jsonl`. `dir` may be the
/// telemetry directory itself, a spool root containing `telemetry/`,
/// or the `telemetry.jsonl` file directly.
pub fn read_telemetry_dir(dir: &Path) -> Result<TelemetryLog, String> {
    let direct = dir.join(TELEMETRY_LOG);
    let nested = dir.join("telemetry").join(TELEMETRY_LOG);
    let path = if dir.is_file() {
        dir.to_path_buf()
    } else if direct.is_file() {
        direct
    } else if nested.is_file() {
        nested
    } else {
        return Err(format!("no {TELEMETRY_LOG} under {}", dir.display()));
    };
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(parse_telemetry(&text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry(base: i64) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.observe("gdp/cut", base);
        reg.observe("rhop/function.estimator_calls", base * 3);
        reg.observe_wall("serve/batch", 1500);
        reg
    }

    #[test]
    fn record_roundtrips_through_parse() {
        let dir = std::env::temp_dir().join(format!("mcpart-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut rec = FlightRecorder::open(&dir).expect("open");
        assert_eq!(rec.run(), 1);
        rec.record(&[("admitted", 2)], &sample_registry(10)).expect("record");
        rec.record(&[("admitted", 5)], &sample_registry(20)).expect("record");
        let log = read_telemetry_dir(&dir).expect("read");
        assert_eq!(log.skipped, 0);
        assert_eq!(log.snapshots.len(), 2);
        assert_eq!(log.snapshots[1].seq, 1);
        assert_eq!(log.snapshots[1].counters, vec![("admitted".to_string(), 5)]);
        assert!(dir.join(TELEMETRY_LATEST).is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_starts_a_new_run_and_merge_folds_runs() {
        let dir = std::env::temp_dir().join(format!("mcpart-rec2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut rec = FlightRecorder::open(&dir).expect("open");
        rec.record(&[("admitted", 3)], &sample_registry(10)).expect("record");
        drop(rec);
        let mut rec2 = FlightRecorder::open(&dir).expect("reopen");
        assert_eq!(rec2.run(), 2);
        rec2.record(&[("admitted", 1)], &sample_registry(40)).expect("record");
        rec2.record(&[("admitted", 4)], &sample_registry(50)).expect("record");
        let log = read_telemetry_dir(&dir).expect("read");
        let (reg, counters) = log.merged();
        // Last snapshot of each run: run1 admitted=3, run2 admitted=4.
        assert_eq!(counters, vec![("admitted".to_string(), 7)]);
        let cut = reg.get("gdp/cut").expect("gdp/cut merged");
        assert_eq!(cut.count(), 2);
        assert_eq!(cut.sum(), 60);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_is_tolerated_and_valid_prefix_replayed() {
        let mut rec_body = String::new();
        let reg = sample_registry(10);
        rec_body.push_str(&seal_record(&format!(
            "{{\"mcpart_telemetry\":1,\"run\":1,\"seq\":0,\"counters\":{{\"admitted\":1}},\"metrics\":{}",
            reg.to_json()
        )));
        let full = rec_body.clone();
        // Truncation sweep: every strict prefix is detected and
        // skipped, never misparsed. (Losing only the trailing newline
        // leaves a complete, checksum-valid record — that one prefix
        // legitimately decodes.)
        for cut in 0..full.len() - 1 {
            let log = parse_telemetry(&full[..cut]);
            if !log.snapshots.is_empty() {
                panic!("truncated record at {cut} must not decode");
            }
        }
        assert_eq!(parse_telemetry(&full[..full.len() - 1]).snapshots.len(), 1);
        let log = parse_telemetry(&full);
        assert_eq!((log.snapshots.len(), log.skipped), (1, 0));
        // A valid record followed by a torn half-record keeps the prefix.
        let torn = format!("{full}{}", &full[..full.len() / 2]);
        let log = parse_telemetry(&torn);
        assert_eq!(log.snapshots.len(), 1);
        assert_eq!(log.skipped, 1);
    }

    #[test]
    fn a_new_run_after_a_torn_tail_starts_on_a_fresh_line() {
        let dir = std::env::temp_dir().join(format!("mcpart-rec3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut rec = FlightRecorder::open(&dir).expect("open");
        rec.record(&[("admitted", 1)], &sample_registry(10)).expect("record");
        drop(rec);
        // A crash mid-append leaves half a record and no newline.
        let path = dir.join(TELEMETRY_LOG);
        let text = fs::read_to_string(&path).expect("read");
        let torn = durable::torn_prefix(text.trim_end_matches('\n'));
        fs::write(&path, format!("{text}{torn}")).expect("tear");
        let mut rec = FlightRecorder::open(&dir).expect("reopen");
        assert_eq!(rec.run(), 2);
        rec.record(&[("admitted", 4)], &sample_registry(20)).expect("record");
        let text = fs::read_to_string(&path).expect("read");
        let (lines, tail) = durable::read_records(&text);
        assert_eq!(tail, Tail::Complete);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].text, torn);
        // The torn line is one corrupt record; the new run's snapshot
        // survives intact after it.
        let log = parse_telemetry(&text);
        assert_eq!(log.skipped, 1);
        assert_eq!(log.snapshots.len(), 2);
        assert_eq!((log.snapshots[1].run, log.snapshots[1].seq), (2, 0));
        assert_eq!(log.snapshots[1].counters, vec![("admitted".to_string(), 4)]);
        // A clean reopen adds nothing before the next run's records.
        drop(rec);
        let before = fs::read_to_string(&path).expect("read");
        drop(FlightRecorder::open(&dir).expect("clean reopen"));
        assert_eq!(fs::read_to_string(&path).expect("read"), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_detected_by_the_checksum() {
        let reg = sample_registry(7);
        let line = seal_record(&format!(
            "{{\"mcpart_telemetry\":1,\"run\":1,\"seq\":0,\"counters\":{{\"admitted\":1}},\"metrics\":{}",
            reg.to_json()
        ));
        let mut flipped = 0;
        for i in 0..line.len() - 1 {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x04;
            let Ok(text) = String::from_utf8(bytes) else { continue };
            let log = parse_telemetry(&text);
            if log.snapshots.is_empty() {
                flipped += 1;
            } else {
                // A flip that survives must decode to different data or
                // be in a semantically dead byte; checksum coverage of
                // the body makes this impossible before the footer.
                panic!("bit flip at {i} went undetected");
            }
        }
        assert!(flipped > 0);
    }
}
