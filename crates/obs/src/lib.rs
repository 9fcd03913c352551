//! # mcpart-obs — observability for the partitioning pipeline
//!
//! A tiny, dependency-free tracing and metrics layer: stages record
//! **spans** (a labelled interval with wall-clock duration) and
//! **counters** (a labelled integer sample) into a shared, thread-safe
//! sink, and the sink exports them as a Chrome `trace_event` JSON file
//! ([`Obs::chrome_trace`]), a human-readable end-of-run summary table
//! ([`Obs::summary`]) or a deterministic pinned log
//! ([`Obs::pinned_log`]). The [`metrics`] module aggregates the log
//! into fixed-layout log2 histograms with a snapshot API, and the
//! [`recorder`] module appends those snapshots to a crash-safe
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

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
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

/// Maps a category string (e.g. parsed back out of a checkpoint file)
/// onto the `&'static str` that [`Event::cat`] requires. The known
/// pipeline categories are returned without allocation; unknown ones
/// are leaked once — categories are a small closed set in practice, so
/// the leak is bounded and keeps `Event` allocation-free on the hot
/// recording path.
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
    ];
    if let Some(k) = KNOWN.iter().find(|&&k| k == cat) {
        return k;
    }
    Box::leak(cat.to_string().into_boxed_str())
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

    /// The latest sample of a counter, if any was recorded.
    pub fn last_counter(&self, cat: &str, name: &str) -> Option<i64> {
        self.events().iter().rev().find_map(|e| match e.kind {
            EventKind::Counter(v) if e.cat == cat && e.name == name => Some(v),
            _ => None,
        })
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
    /// it at `chrome://tracing` or in Perfetto). Spans become `"X"`
    /// complete events, counters become `"C"` counter events.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{");
            let _ = write!(
                out,
                "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":1,\"ts\":{}",
                json::escape(&e.name),
                json::escape(e.cat),
                e.ts_us
            );
            match e.kind {
                EventKind::Span => {
                    let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", e.dur_us);
                    out.push_str(",\"args\":{");
                    let _ = write!(out, "\"seq\":{}", e.seq);
                    for (k, v) in &e.args {
                        let _ = write!(out, ",\"{}\":{}", json::escape(k), v);
                    }
                    out.push('}');
                }
                EventKind::Counter(v) => {
                    let _ =
                        write!(out, ",\"ph\":\"C\",\"args\":{{\"{}\":{}", json::escape(&e.name), v);
                    for (k, a) in &e.args {
                        let _ = write!(out, ",\"{}\":{}", json::escape(k), a);
                    }
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// A human-readable end-of-run summary: spans aggregated by
    /// `cat/name` (count + total milliseconds, in first-seen order),
    /// then counters (count + last + sum).
    pub fn summary(&self) -> String {
        struct SpanAgg {
            label: String,
            count: u64,
            total_us: u64,
        }
        struct CtrAgg {
            label: String,
            count: u64,
            last: i64,
            sum: i64,
        }
        let mut spans: Vec<SpanAgg> = Vec::new();
        let mut ctrs: Vec<CtrAgg> = Vec::new();
        for e in self.events() {
            let label = format!("{}/{}", e.cat, e.name);
            match e.kind {
                EventKind::Span => match spans.iter_mut().find(|s| s.label == label) {
                    Some(s) => {
                        s.count += 1;
                        s.total_us += e.dur_us;
                    }
                    None => spans.push(SpanAgg { label, count: 1, total_us: e.dur_us }),
                },
                EventKind::Counter(v) => match ctrs.iter_mut().find(|c| c.label == label) {
                    Some(c) => {
                        c.count += 1;
                        c.last = v;
                        c.sum += v;
                    }
                    None => ctrs.push(CtrAgg { label, count: 1, last: v, sum: v }),
                },
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== observability summary ==");
        if !spans.is_empty() {
            let _ = writeln!(out, "{:<34} {:>6} {:>12}", "span", "count", "total ms");
            for s in &spans {
                let _ = writeln!(
                    out,
                    "{:<34} {:>6} {:>12.3}",
                    s.label,
                    s.count,
                    s.total_us as f64 / 1000.0
                );
            }
        }
        if !ctrs.is_empty() {
            let _ = writeln!(out, "{:<34} {:>6} {:>12} {:>12}", "counter", "count", "last", "sum");
            for c in &ctrs {
                let _ =
                    writeln!(out, "{:<34} {:>6} {:>12} {:>12}", c.label, c.count, c.last, c.sum);
            }
        }
        out
    }
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
    fn last_counter_returns_latest_sample() {
        let obs = Obs::enabled();
        assert_eq!(obs.last_counter("c", "v"), None);
        obs.counter("c", "v", 1);
        obs.counter("c", "v", 5);
        obs.counter("c", "other", 9);
        assert_eq!(obs.last_counter("c", "v"), Some(5));
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let obs = Obs::enabled();
        obs.span_args("pipeline", "analysis", Instant::now(), &[("ops", 10)]);
        obs.counter("gdp", "cut", 42);
        let trace = obs.chrome_trace();
        let stats = json::validate_trace(&trace).expect("trace parses");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.counters, 1);
        assert!(stats.has_counter("gdp/cut"), "{:?}", stats.counter_names);
    }

    #[test]
    fn chrome_trace_escapes_names() {
        let obs = Obs::enabled();
        obs.counter("c", "we\"ird\\name", 1);
        let trace = obs.chrome_trace();
        json::validate_trace(&trace).expect("escaped trace parses");
    }

    #[test]
    fn summary_aggregates_by_label() {
        let obs = Obs::enabled();
        obs.span_since("p", "stage", Instant::now());
        obs.span_since("p", "stage", Instant::now());
        obs.counter("c", "v", 2);
        obs.counter("c", "v", 3);
        let s = obs.summary();
        assert!(s.contains("p/stage"), "{s}");
        assert!(s.contains("c/v"), "{s}");
        // count column for the repeated span and counter
        assert!(s.lines().any(|l| l.contains("p/stage") && l.contains(" 2 ")), "{s}");
        assert!(s.lines().any(|l| l.contains("c/v") && l.contains(" 5")), "{s}");
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
        let leaked = intern_cat("custom-cat");
        assert_eq!(leaked, "custom-cat");
    }

    #[test]
    fn shared_sink_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("c", "v", 1);
        assert_eq!(obs.events().len(), 1);
    }
}
