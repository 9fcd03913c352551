//! # mcpart-obs — observability for the partitioning pipeline
//!
//! A tiny, dependency-free tracing and metrics layer: stages record
//! **spans** (a labelled interval with wall-clock duration) and
//! **counters** (a labelled integer sample) into a shared, thread-safe
//! sink. The log has one encoder, one decoder and one aggregation:
//!
//! * [`Obs::chrome_trace`] writes it as a Chrome `trace_event` JSON
//!   file, and [`decode_chrome_trace`] reads such a file back into the
//!   same [`Event`]s (`mcpart trace-check` and `mcpart stats` use it);
//! * [`metrics::MetricsRegistry::from_events`] folds events into
//!   fixed-layout log2 histograms by one rule, so `--metrics` on a live
//!   run and `mcpart stats` on its trace print the same table;
//! * [`Obs::pinned_log`] is the deterministic projection the
//!   `--jobs` pins compare.
//!
//! The [`recorder`] module appends histogram snapshots to a crash-safe
//! flight-recorder log (serve mode's `<spool>/telemetry/`).
//!
//! ## The determinism contract
//!
//! The pipeline parallelizes with `mcpart-par`, whose contract is
//! input-order reduction of per-item results. Observability composes
//! with that contract by splitting every event into **pinned** fields
//! (sequence number, category, name, kind, integer args) and
//! **non-pinned** fields (the wall-clock timestamp and duration).
//! Workers never write to the sink directly: each worker records into a
//! private [`EventBuf`], and the caller appends the buffers **in input
//! order** ([`Obs::append`]) during the same ordered reduction it
//! already performs for results. Sequence numbers are assigned at
//! append time, so the pinned projection of the event log — what
//! [`Obs::pinned_log`] renders — is byte-identical for every `--jobs`
//! value, while timestamps remain honest wall-clock measurements.
//!
//! ## Disabled is free-ish
//!
//! [`Obs::disabled`] (also [`Obs::default`]) carries no sink at all;
//! every recording call is a cheap branch on an `Option`. Cloning an
//! enabled `Obs` shares the sink (it is an `Arc`), which is how one
//! sink observes every rung of the pipeline's degradation ladder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod durable;
pub mod json;
pub mod metrics;
pub mod recorder;

use json::{JsonValue, JsonWriter};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// What an [`Event`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A labelled interval: `dur_us` is meaningful.
    Span,
    /// A labelled integer sample.
    Counter(i64),
}

/// One recorded observation.
///
/// `seq`, `cat`, `name`, `kind` and `args` are **pinned**: they must be
/// identical across worker counts. `ts_us`/`dur_us` are **non-pinned**
/// wall-clock measurements and are excluded from [`Obs::pinned_log`].
#[derive(Clone, Debug)]
pub struct Event {
    /// Position in the flushed log (assigned at append time).
    pub seq: u64,
    /// Coarse source category (`"pipeline"`, `"gdp"`, `"metis"`, ...).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: String,
    /// Span or counter.
    pub kind: EventKind,
    /// Pinned integer attributes (`("nodes", 120)`, ...).
    pub args: Vec<(String, i64)>,
    /// Microseconds since the sink was created (non-pinned).
    pub ts_us: u64,
    /// Span duration in microseconds (non-pinned; 0 for counters).
    pub dur_us: u64,
}

impl Event {
    /// The `cat/name` label metrics and `trace-check` key events by.
    pub fn label(&self) -> String {
        format!("{}/{}", self.cat, self.name)
    }
}

#[derive(Debug)]
struct Sink {
    zero: Instant,
    events: Mutex<Vec<Event>>,
}

/// A cloneable handle on a shared event sink (or on nothing at all:
/// the default handle is disabled and records nothing).
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<Sink>>,
}

/// A private, single-threaded event buffer for one `mcpart-par` work
/// item. Workers record here and the caller flushes the buffers in
/// input order with [`Obs::append`]; see the crate docs for why.
#[derive(Debug, Default)]
pub struct EventBuf {
    zero: Option<Instant>,
    events: Vec<Event>,
}

impl EventBuf {
    /// Whether the parent handle was enabled (a disabled buffer drops
    /// everything recorded into it).
    pub fn is_enabled(&self) -> bool {
        self.zero.is_some()
    }

    fn push(
        &mut self,
        cat: &'static str,
        name: &str,
        kind: EventKind,
        args: &[(&str, i64)],
        started: Option<Instant>,
    ) {
        let Some(zero) = self.zero else { return };
        let (ts_us, dur_us) = stamp(zero, started);
        self.events.push(Event {
            seq: 0, // assigned at append time
            cat,
            name: name.to_string(),
            kind,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ts_us,
            dur_us,
        });
    }

    /// Records a counter sample into the buffer.
    pub fn counter(&mut self, cat: &'static str, name: &str, value: i64) {
        self.push(cat, name, EventKind::Counter(value), &[], None);
    }

    /// Records a span that began at `started` and ends now.
    pub fn span_since(&mut self, cat: &'static str, name: &str, started: Instant) {
        self.push(cat, name, EventKind::Span, &[], Some(started));
    }

    /// Records a span with pinned integer attributes.
    pub fn span_args(
        &mut self,
        cat: &'static str,
        name: &str,
        started: Instant,
        args: &[(&str, i64)],
    ) {
        self.push(cat, name, EventKind::Span, args, Some(started));
    }
}

/// Maps a category string (parsed back out of a checkpoint or a trace)
/// onto the `&'static str` that [`Event::cat`] requires. The known
/// pipeline categories are returned without allocation; each distinct
/// unknown one is leaked once into a process-wide table, so the leak is
/// bounded by the number of distinct categories, not of events decoded.
pub fn intern_cat(cat: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "pipeline",
        "gdp",
        "metis",
        "rhop",
        "sched",
        "sim",
        "exec",
        "supervise",
        "checkpoint",
        "serve",
        "repartition",
        "bench",
        "chaos",
    ];
    static LEAKED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if let Some(k) = KNOWN.iter().find(|&&k| k == cat) {
        return k;
    }
    // The table only grows by whole entries, so a poisoned lock still
    // guards a consistent set.
    let mut leaked = LEAKED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(k) = leaked.get(cat) {
        return k;
    }
    let k: &'static str = Box::leak(cat.into());
    leaked.insert(k);
    k
}

fn stamp(zero: Instant, started: Option<Instant>) -> (u64, u64) {
    match started {
        Some(start) => {
            let ts = start.saturating_duration_since(zero).as_micros() as u64;
            let dur = start.elapsed().as_micros() as u64;
            (ts, dur)
        }
        None => (zero.elapsed().as_micros() as u64, 0),
    }
}

impl Obs {
    /// A live handle with a fresh, empty sink.
    pub fn enabled() -> Self {
        Obs { inner: Some(Arc::new(Sink { zero: Instant::now(), events: Mutex::new(Vec::new()) })) }
    }

    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether this handle carries a sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn record(
        &self,
        cat: &'static str,
        name: &str,
        kind: EventKind,
        args: &[(&str, i64)],
        started: Option<Instant>,
    ) {
        let Some(sink) = &self.inner else { return };
        let (ts_us, dur_us) = stamp(sink.zero, started);
        let mut events = sink.events.lock().expect("obs sink poisoned");
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            cat,
            name: name.to_string(),
            kind,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ts_us,
            dur_us,
        });
    }

    /// Records a counter sample.
    pub fn counter(&self, cat: &'static str, name: &str, value: i64) {
        self.record(cat, name, EventKind::Counter(value), &[], None);
    }

    /// Records a counter sample with pinned integer attributes.
    pub fn counter_args(&self, cat: &'static str, name: &str, value: i64, args: &[(&str, i64)]) {
        self.record(cat, name, EventKind::Counter(value), args, None);
    }

    /// Records a span that began at `started` and ends now.
    pub fn span_since(&self, cat: &'static str, name: &str, started: Instant) {
        self.record(cat, name, EventKind::Span, &[], Some(started));
    }

    /// Records a span with pinned integer attributes.
    pub fn span_args(&self, cat: &'static str, name: &str, started: Instant, args: &[(&str, i64)]) {
        self.record(cat, name, EventKind::Span, args, Some(started));
    }

    /// Re-records the pinned fields of a previously exported event —
    /// the checkpoint-resume path, which replays a completed unit's
    /// events so a resumed run's [`Obs::pinned_log`] is byte-identical
    /// to an uninterrupted one. The sequence number is reassigned at
    /// record time; the timestamp is "now" and the duration 0 (both
    /// non-pinned).
    pub fn replay(&self, cat: &'static str, name: &str, kind: EventKind, args: Vec<(String, i64)>) {
        let Some(sink) = &self.inner else { return };
        let (ts_us, dur_us) = stamp(sink.zero, None);
        let mut events = sink.events.lock().expect("obs sink poisoned");
        let seq = events.len() as u64;
        events.push(Event { seq, cat, name: name.to_string(), kind, args, ts_us, dur_us });
    }

    /// A private buffer for one parallel work item. The buffer shares
    /// this handle's time base so exported timestamps stay coherent;
    /// a disabled handle yields a buffer that drops everything.
    pub fn buffer(&self) -> EventBuf {
        EventBuf { zero: self.inner.as_ref().map(|s| s.zero), events: Vec::new() }
    }

    /// Flushes a worker buffer into the sink, assigning sequence
    /// numbers. Call in **input order** from the ordered reduction —
    /// that is the whole determinism contract.
    pub fn append(&self, buf: EventBuf) {
        let Some(sink) = &self.inner else { return };
        let mut events = sink.events.lock().expect("obs sink poisoned");
        for mut e in buf.events {
            e.seq = events.len() as u64;
            events.push(e);
        }
    }

    /// A snapshot of every event recorded so far, in sequence order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(sink) => sink.events.lock().expect("obs sink poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// The deterministic projection of the event log: one line per
    /// event with every pinned field and no timestamps. Byte-identical
    /// across worker counts when recording follows the crate contract.
    pub fn pinned_log(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let kind = match e.kind {
                EventKind::Span => "span".to_string(),
                EventKind::Counter(v) => format!("counter={v}"),
            };
            let _ = write!(out, "{:>5} {}/{} {}", e.seq, e.cat, e.name, kind);
            for (k, v) in &e.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders the log as a Chrome `trace_event` JSON document (load
    /// it at `chrome://tracing` or in Perfetto), one event per line.
    /// Spans become `"X"` complete events whose args lead with the
    /// event's `seq`; counters become `"C"` counter events whose args
    /// lead with the value, keyed by the counter's own name.
    /// [`decode_chrome_trace`] reads it back.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let mut w = JsonWriter::new();
            w.open_obj()
                .field("name", &e.name)
                .field("cat", e.cat)
                .field("pid", &1u32)
                .field("tid", &1u32)
                .field("ts", &e.ts_us);
            match e.kind {
                EventKind::Span => {
                    w.field("ph", "X").field("dur", &e.dur_us);
                    w.key("args").open_obj().field("seq", &e.seq)
                }
                EventKind::Counter(v) => {
                    w.field("ph", "C").key("args").open_obj().field(&e.name, &v)
                }
            };
            for (k, v) in &e.args {
                w.field(k, v);
            }
            w.close_obj().close_obj();
            out.push_str(&w.finish());
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A Chrome trace read back by [`decode_chrome_trace`].
#[derive(Clone, Debug, Default)]
pub struct DecodedTrace {
    /// The events in `traceEvents` order; each one's `seq` is its
    /// position there.
    pub events: Vec<Event>,
    /// Unknown top-level keys: the trace is usable, but a tool should
    /// surface these (typos, version skew).
    pub warnings: Vec<String>,
}

/// The top-level keys of the Chrome trace format.
const TRACE_KEYS: &[&str] =
    &["traceEvents", "displayTimeUnit", "otherData", "metadata", "systemTraceEvents"];

/// Decodes a Chrome `trace_event` document into [`Event`]s: the one
/// reader of what [`Obs::chrome_trace`] writes, so a decoded log
/// aggregates exactly like the live one. Every event needs `name`,
/// `cat`, `ph` (`"X"` or `"C"`) and a non-negative integer `ts`; a span
/// needs a non-negative integer `dur`, a counter its value under its
/// own name in `args`, and every arg must be an integer. A span's `seq`
/// arg is the exporter's position, not a metric, and is dropped.
pub fn decode_chrome_trace(text: &str) -> Result<DecodedTrace, String> {
    let doc = json::parse(text)?;
    let warnings = doc
        .to_obj()?
        .iter()
        .filter(|(key, _)| !TRACE_KEYS.contains(&key.as_str()))
        .map(|(key, _)| format!("unknown top-level key '{key}'"))
        .collect();
    let mut events = doc.req("traceEvents", |v| v.items(decode_event))?;
    for (seq, e) in events.iter_mut().enumerate() {
        e.seq = seq as u64;
    }
    Ok(DecodedTrace { events, warnings })
}

fn decode_event(v: &JsonValue) -> Result<Event, String> {
    let name = v.req("name", JsonValue::to_str)?;
    let cat = intern_cat(v.req("cat", JsonValue::to_str)?);
    let ts_us = v.req("ts", JsonValue::to_u64)?;
    let read_arg = |(k, n): &(String, JsonValue)| match n.to_i64() {
        Ok(n) => Ok((k.clone(), n)),
        Err(e) => Err(format!("`{k}`: {e}")),
    };
    let args = v.opt("args", |a| a.to_obj()?.iter().map(read_arg).collect());
    let mut args: Vec<(String, i64)> = args?.unwrap_or_default();
    let mut take = |key: &str| args.iter().position(|(k, _)| k == key).map(|i| args.remove(i).1);
    let (kind, dur_us) = match v.req("ph", JsonValue::to_str)? {
        "X" => {
            take("seq");
            (EventKind::Span, v.req("dur", JsonValue::to_u64)?)
        }
        "C" => match take(name) {
            Some(value) => (EventKind::Counter(value), 0),
            None => return Err(format!("counter `{name}` carries no value in `args`")),
        },
        other => return Err(format!("unknown phase '{other}'")),
    };
    Ok(Event { seq: 0, cat, name: name.to_string(), kind, args, ts_us, dur_us })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("t", "c", 1);
        obs.span_since("t", "s", Instant::now());
        let mut buf = obs.buffer();
        buf.counter("t", "c", 2);
        obs.append(buf);
        assert!(obs.events().is_empty());
        assert!(obs.pinned_log().is_empty());
    }

    #[test]
    fn events_are_sequenced_in_record_order() {
        let obs = Obs::enabled();
        obs.counter("a", "x", 1);
        obs.span_since("b", "y", Instant::now());
        obs.counter_args("a", "z", 3, &[("k", 9)]);
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(events[2].args, vec![("k".to_string(), 9)]);
    }

    #[test]
    fn buffers_flush_in_append_order_with_fresh_seqs() {
        let obs = Obs::enabled();
        obs.counter("main", "head", 0);
        let mut b1 = obs.buffer();
        let mut b2 = obs.buffer();
        // Record "out of order" on purpose: append order wins.
        b2.counter("w", "second", 2);
        b1.counter("w", "first", 1);
        b1.span_since("w", "work", Instant::now());
        obs.append(b1);
        obs.append(b2);
        let log = obs.pinned_log();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("w/first counter=1"), "{log}");
        assert!(lines[2].contains("w/work span"), "{log}");
        assert!(lines[3].contains("w/second counter=2"), "{log}");
    }

    #[test]
    fn pinned_log_excludes_timestamps() {
        let obs = Obs::enabled();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.span_args("p", "stage", start, &[("n", 7)]);
        let log = obs.pinned_log();
        assert_eq!(log, "    0 p/stage span n=7\n");
        let e = &obs.events()[0];
        assert!(e.dur_us >= 1000, "span must still carry a real duration, got {}", e.dur_us);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let obs = Obs::enabled();
        obs.span_args("pipeline", "analysis", Instant::now(), &[("ops", 10)]);
        obs.counter("gdp", "cut", 42);
        let trace = decode_chrome_trace(&obs.chrome_trace()).expect("trace parses");
        let kinds: Vec<_> = trace.events.iter().map(|e| (e.label(), e.kind)).collect();
        assert_eq!(
            kinds,
            [
                ("pipeline/analysis".to_string(), EventKind::Span),
                ("gdp/cut".to_string(), EventKind::Counter(42))
            ]
        );
        assert!(trace.warnings.is_empty());
    }

    /// A log with fixed timestamps: a span with args, a counter with
    /// args, and a counter whose name needs escaping.
    fn fixed_log() -> Obs {
        let event = |seq, cat, name: &str, kind, args: &[(&str, i64)], ts_us, dur_us| Event {
            seq,
            cat,
            name: name.to_string(),
            kind,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ts_us,
            dur_us,
        };
        let events = vec![
            event(0, "pipeline", "analysis", EventKind::Span, &[("ops", 10), ("funcs", 2)], 5, 120),
            event(1, "gdp", "cluster_bytes", EventKind::Counter(1456), &[("cluster", 1)], 130, 0),
            event(2, "c", "we\"ird\\name\n", EventKind::Counter(-3), &[], 131, 0),
            event(3, "rhop", "partition", EventKind::Span, &[], 140, 2_000_001),
        ];
        Obs { inner: Some(Arc::new(Sink { zero: Instant::now(), events: Mutex::new(events) })) }
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        let expected = concat!(
            "{\"traceEvents\":[\n",
            "{\"name\":\"analysis\",\"cat\":\"pipeline\",\"pid\":1,\"tid\":1,\"ts\":5,",
            "\"ph\":\"X\",\"dur\":120,\"args\":{\"seq\":0,\"ops\":10,\"funcs\":2}},\n",
            "{\"name\":\"cluster_bytes\",\"cat\":\"gdp\",\"pid\":1,\"tid\":1,\"ts\":130,",
            "\"ph\":\"C\",\"args\":{\"cluster_bytes\":1456,\"cluster\":1}},\n",
            "{\"name\":\"we\\\"ird\\\\name\\n\",\"cat\":\"c\",\"pid\":1,\"tid\":1,\"ts\":131,",
            "\"ph\":\"C\",\"args\":{\"we\\\"ird\\\\name\\n\":-3}},\n",
            "{\"name\":\"partition\",\"cat\":\"rhop\",\"pid\":1,\"tid\":1,\"ts\":140,",
            "\"ph\":\"X\",\"dur\":2000001,\"args\":{\"seq\":3}}\n",
            "]}\n"
        );
        assert_eq!(fixed_log().chrome_trace(), expected);
        assert_eq!(Obs::enabled().chrome_trace(), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let obs = Obs::enabled();
        obs.counter("c", "we\"ird\\name", 1);
        let trace = decode_chrome_trace(&obs.chrome_trace()).expect("escaped trace parses");
        assert_eq!(trace.events[0].name, "we\"ird\\name");
        assert_eq!(trace.events[0].kind, EventKind::Counter(1));
    }

    /// The decoder inverts the encoder: the decoded log has the live
    /// log's pinned projection and aggregates to the same registry,
    /// wall histograms included (durations are integer microseconds).
    #[test]
    fn chrome_trace_roundtrips_through_the_decoder() {
        let live = Obs::enabled();
        live.span_args("pipeline", "sim", Instant::now(), &[("cycles", 123), ("seq", 9)]);
        live.counter_args("serve", "cache_hits", 3, &[("batch", 2)]);
        for obs in [fixed_log(), live] {
            let decoded = decode_chrome_trace(&obs.chrome_trace()).expect("trace parses").events;
            let seqs: Vec<u64> = decoded.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..obs.events().len() as u64).collect::<Vec<_>>());
            let replayed = Obs::enabled();
            for e in &decoded {
                replayed.replay(e.cat, &e.name, e.kind, e.args.clone());
            }
            assert_eq!(replayed.pinned_log(), obs.pinned_log());
            assert_eq!(
                metrics::MetricsRegistry::from_events(&decoded).to_json(),
                metrics::MetricsRegistry::from_events(&obs.events()).to_json()
            );
        }
    }

    #[test]
    fn decoder_reads_spans_and_counters() {
        let text = r#"{"traceEvents":[
            {"name":"s","cat":"p","ph":"X","ts":1,"dur":5,"pid":1,"tid":1},
            {"name":"c","cat":"g","ph":"C","ts":2,"args":{"c":3,"k":-4}}
        ]}"#;
        let trace = decode_chrome_trace(text).unwrap();
        let [span, counter] = &trace.events[..] else { panic!("{:?}", trace.events) };
        assert_eq!(
            (span.label(), span.kind, span.ts_us, span.dur_us),
            ("p/s".into(), EventKind::Span, 1, 5)
        );
        assert!(span.args.is_empty());
        assert_eq!(
            (counter.seq, counter.label(), counter.kind),
            (1, "g/c".into(), EventKind::Counter(3))
        );
        assert_eq!(counter.args, [("k".to_string(), -4)]);
    }

    #[test]
    fn decoder_keeps_every_counter_sample_in_order() {
        let text = r#"{"traceEvents":[
            {"name":"retries","cat":"s","ph":"C","ts":1,"args":{"retries":2}},
            {"name":"retries","cat":"s","ph":"C","ts":2,"args":{"retries":0}},
            {"name":"quarantined","cat":"s","ph":"C","ts":3,"args":{"quarantined":0}}
        ]}"#;
        let events = decode_chrome_trace(text).unwrap().events;
        let samples = |label: &str| -> Vec<EventKind> {
            events.iter().filter(|e| e.label() == label).map(|e| e.kind).collect()
        };
        // The last sample is the value; the earlier nonzero one is the
        // history `trace-check --forbid` sees.
        assert_eq!(samples("s/retries"), [EventKind::Counter(2), EventKind::Counter(0)]);
        assert_eq!(samples("s/quarantined"), [EventKind::Counter(0)]);
    }

    #[test]
    fn unknown_top_level_keys_warn_but_pass() {
        let text = r#"{"traceEvents":[],"frobs":1,"displayTimeUnit":"ms"}"#;
        let trace = decode_chrome_trace(text).unwrap();
        assert_eq!(trace.warnings.len(), 1, "{:?}", trace.warnings);
        assert!(trace.warnings[0].contains("frobs"), "{:?}", trace.warnings);
        let clean = decode_chrome_trace(r#"{"traceEvents":[]}"#).unwrap();
        assert!(clean.warnings.is_empty());
    }

    #[test]
    fn decoder_rejects_structural_problems() {
        let event =
            |fields: &str| format!(r#"{{"traceEvents":[{{"name":"s","cat":"p",{fields}}}]}}"#);
        for (bad, why) in [
            ("[]".to_string(), "expected an object"),
            (r#"{"traceEvents": 3}"#.to_string(), "`traceEvents`: expected an array"),
            (r#"{"traceEvents":[{"ph":"X"}]}"#.to_string(), "missing `name`"),
            (event(r#""ts":1"#), "missing `ph`"),
            (event(r#""ph":"X","ts":1"#), "missing `dur`"),
            (event(r#""ph":"B","ts":1"#), "unknown phase 'B'"),
            (event(r#""ph":"X","ts":-1,"dur":1"#), "`ts`: expected a non-negative integer"),
            (event(r#""ph":"X","ts":1,"dur":0.5"#), "`dur`: expected a non-negative integer"),
            (event(r#""ph":"C","ts":1,"args":{"v":1}"#), "counter `s` carries no value"),
            (event(r#""ph":"C","ts":1,"args":{"s":"x"}"#), "`args`: `s`: expected an integer"),
        ] {
            let err = decode_chrome_trace(&bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn replay_reproduces_the_pinned_projection() {
        let live = Obs::enabled();
        live.counter_args("rhop", "estimator_calls", 7, &[("func", 2)]);
        live.span_args("pipeline", "sim", Instant::now(), &[("cycles", 123)]);
        // Replaying the pinned fields into a fresh sink (the resume
        // path) must reproduce the pinned log byte for byte.
        let resumed = Obs::enabled();
        for e in live.events() {
            resumed.replay(intern_cat(e.cat), &e.name, e.kind, e.args.clone());
        }
        assert_eq!(live.pinned_log(), resumed.pinned_log());
    }

    #[test]
    fn intern_cat_is_stable() {
        assert_eq!(intern_cat("rhop"), "rhop");
        assert_eq!(intern_cat("supervise"), "supervise");
        assert_eq!(intern_cat("chaos"), "chaos");
        let leaked = intern_cat("custom-cat");
        assert_eq!(leaked, "custom-cat");
        // An unknown category is leaked once, not once per call.
        assert!(std::ptr::eq(intern_cat("x-new"), intern_cat("x-new")));
    }

    #[test]
    fn shared_sink_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("c", "v", 1);
        assert_eq!(obs.events().len(), 1);
    }
}
