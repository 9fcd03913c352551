//! Histogram metrics over the event log.
//!
//! [`Histogram`] is a fixed-layout log2 histogram: bucket 0 counts the
//! value 0 and bucket `i` (1..=64) counts values whose bit length is
//! `i`, i.e. the range `[2^(i-1), 2^i)`. The layout is declared once
//! and never adapts to the data, so two histograms built from the same
//! samples are byte-identical regardless of arrival order, worker
//! count, or host — the same determinism contract the event log keeps
//! with its pinned/non-pinned field split.
//!
//! [`MetricsRegistry`] holds labelled histograms in two classes:
//!
//! * **pinned** — work-denominated quantities (fuel, estimator calls,
//!   cut size, cluster bytes, stall/transfer cycles). Built from
//!   pinned event fields only; [`MetricsRegistry::pinned_json`] must be
//!   byte-identical at every `--jobs` count and across resume/replay.
//! * **wall** — wall-clock durations in microseconds (span `dur_us`,
//!   serve batch latency). Honest measurements, explicitly excluded
//!   from the pinned payload.
//!
//! [`MetricsRegistry::observe_event`] is the one rule that maps events
//! to histograms, whether the events were recorded live, decoded from
//! a trace file, or replayed from checkpoint records by serve.

use crate::json::{JsonValue, JsonWriter};
use crate::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of buckets in the fixed log2 layout: bucket 0 for the value
/// 0, buckets 1..=64 for each possible bit length of a `u64`.
pub const HIST_BUCKETS: usize = 65;

/// Whether a histogram counts pinned (work-denominated) samples or
/// non-pinned wall-clock microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistClass {
    /// Deterministic, work-denominated samples (pinned fields).
    Pinned,
    /// Wall-clock microseconds (non-pinned fields).
    Wall,
}

/// A fixed-layout log2 histogram with exact count/sum/min/max.
///
/// Sample values are `u64`; negative counter samples are clamped to 0
/// on entry (every pipeline counter is non-negative by construction,
/// so the clamp only defends against corrupt input).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// The bucket a value falls into: 0 for 0, else the bit length.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value a bucket can hold (the representative reported
/// for quantiles, before clamping to the observed min/max).
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one (same fixed layout, so
    /// merging is plain bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `pct`-th percentile (0..=100), estimated deterministically
    /// from the bucket layout: the upper bound of the bucket holding
    /// the rank, clamped to the observed `[min, max]`. Exact for the
    /// 0th/100th percentiles; within one power of two otherwise.
    pub fn percentile(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(pct.min(100))).div_ceil(100).max(1) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Renders as a JSON object (sparse bucket list, deterministic).
    pub fn to_json(&self, pinned: bool) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, pinned);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter, pinned: bool) {
        w.open_obj()
            .field("pinned", &pinned)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max);
        let buckets = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        w.key("buckets").arr(buckets, |w, (i, c)| {
            w.open_arr().val(&i).val(c).close_arr();
        });
        w.close_obj();
    }

    /// Parses a histogram rendered by [`Histogram::to_json`]; returns
    /// the histogram and its pinned flag.
    pub fn from_json(value: &JsonValue) -> Result<(Histogram, bool), String> {
        let mut hist = Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: value.req("count", JsonValue::to_u64)?,
            sum: value.req("sum", JsonValue::to_u64)?,
            min: value.req("min", JsonValue::to_u64)?,
            max: value.req("max", JsonValue::to_u64)?,
        };
        if hist.count == 0 {
            hist.min = u64::MAX;
        }
        let buckets = value.req("buckets", |v| {
            v.items(|pair| match pair.to_arr()? {
                [i, c] => match i.to_u64()? {
                    i if (i as usize) < HIST_BUCKETS => Ok((i as usize, c.to_u64()?)),
                    i => Err(format!("expected a bucket below {HIST_BUCKETS}, found `{i}`")),
                },
                _ => Err("expected an [index, count] pair".to_string()),
            })
        })?;
        let mut total = 0u64;
        for (i, c) in buckets {
            hist.counts[i] = c;
            total += c;
        }
        if total != hist.count {
            return Err(format!(
                "histogram: bucket counts sum to {total} but count is {}",
                hist.count
            ));
        }
        Ok((hist, value.req("pinned", JsonValue::to_bool)?))
    }
}

/// A set of labelled histograms with a deterministic snapshot API.
///
/// Labels follow the event log's `cat/name` convention; per-arg
/// distributions get a `cat/name.arg` label. The registry is plain
/// data — serve builds one on its single-threaded commit path and the
/// CLI builds them offline from traces, so no locking is needed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, (HistClass, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records a pinned (work-denominated) sample. Negative samples
    /// clamp to 0.
    pub fn observe(&mut self, label: &str, value: i64) {
        self.observe_class(label, HistClass::Pinned, value.max(0) as u64);
    }

    /// Records a non-pinned wall-clock sample in microseconds.
    pub fn observe_wall(&mut self, label: &str, micros: u64) {
        self.observe_class(label, HistClass::Wall, micros);
    }

    fn observe_class(&mut self, label: &str, class: HistClass, value: u64) {
        let entry =
            self.entries.entry(label.to_string()).or_insert_with(|| (class, Histogram::new()));
        entry.1.observe(value);
    }

    /// Ingests one event, by the one rule every event log is folded
    /// with (live runs, decoded traces, serve telemetry): a span feeds
    /// the wall `cat/name` histogram from its duration; then
    /// [`MetricsRegistry::observe_pinned`] takes the pinned fields.
    pub fn observe_event(&mut self, event: &Event) {
        let label = event.label();
        let value = match event.kind {
            EventKind::Span => {
                self.observe_wall(&label, event.dur_us);
                None
            }
            EventKind::Counter(v) => Some(v),
        };
        self.observe_pinned(&label, value, &event.args);
    }

    /// The pinned half of [`MetricsRegistry::observe_event`]: a
    /// counter's value feeds `label`, and each arg feeds `label.arg`
    /// (how per-function estimator effort and METIS fuel become
    /// distributions). Serve telemetry calls it directly for checkpoint
    /// records, which carry no durations.
    pub fn observe_pinned(&mut self, label: &str, counter: Option<i64>, args: &[(String, i64)]) {
        if let Some(v) = counter {
            self.observe(label, v);
        }
        for (k, v) in args {
            self.observe(&format!("{label}.{k}"), *v);
        }
    }

    /// Builds a registry from an event log (a live
    /// [`crate::Obs::events`] or a [`crate::decode_chrome_trace`]).
    pub fn from_events(events: &[Event]) -> Self {
        let mut reg = MetricsRegistry::new();
        for e in events {
            reg.observe_event(e);
        }
        reg
    }

    /// Whether the registry holds no histograms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a histogram by label.
    pub fn get(&self, label: &str) -> Option<&Histogram> {
        self.entries.get(label).map(|(_, h)| h)
    }

    /// Iterates `(label, class, histogram)` in sorted label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, HistClass, &Histogram)> {
        self.entries.iter().map(|(label, (class, hist))| (label.as_str(), *class, hist))
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (label, (class, hist)) in &other.entries {
            let entry =
                self.entries.entry(label.clone()).or_insert_with(|| (*class, Histogram::new()));
            entry.1.merge(hist);
        }
    }

    /// Snapshot as a JSON object, labels sorted: the flight-recorder
    /// payload. Includes both pinned and wall histograms.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Snapshot of **only** the pinned histograms: the payload the
    /// determinism contract covers. Byte-identical at every `--jobs`
    /// count and across resume/replay.
    pub fn pinned_json(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, pinned_only: bool) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, pinned_only);
        w.finish()
    }

    /// Writes the snapshot ([`MetricsRegistry::to_json`], or with
    /// `pinned_only` [`MetricsRegistry::pinned_json`]) into `w`.
    pub fn write_json(&self, w: &mut JsonWriter, pinned_only: bool) {
        w.open_obj();
        for (label, class, hist) in self.iter() {
            if !pinned_only || class == HistClass::Pinned {
                hist.write_json(w.key(label), class == HistClass::Pinned);
            }
        }
        w.close_obj();
    }

    /// Parses a registry rendered by [`MetricsRegistry::to_json`].
    pub fn from_json(value: &JsonValue) -> Result<MetricsRegistry, String> {
        let mut reg = MetricsRegistry::new();
        for (label, v) in value.to_obj().map_err(|e| format!("metrics: {e}"))? {
            let (hist, pinned) =
                Histogram::from_json(v).map_err(|e| format!("metrics '{label}': {e}"))?;
            let class = if pinned { HistClass::Pinned } else { HistClass::Wall };
            reg.entries.insert(label.clone(), (class, hist));
        }
        Ok(reg)
    }

    /// Renders the percentile tables: wall-clock latencies first (in
    /// microseconds), then pinned work distributions. Columns are
    /// count, sum, min, p50, p90, p99, max.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (title, class) in [
            ("latency percentiles (wall-clock, us)", HistClass::Wall),
            ("work distributions (pinned)", HistClass::Pinned),
        ] {
            let rows: Vec<_> = self.iter().filter(|(_, c, _)| *c == class).collect();
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "== {title} ==");
            let _ = writeln!(
                out,
                "{:<38} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "label", "count", "sum", "min", "p50", "p90", "p99", "max"
            );
            for (label, _, h) in rows {
                let _ = writeln!(
                    out,
                    "{:<38} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    label,
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.percentile(50),
                    h.percentile(90),
                    h.percentile(99),
                    h.max()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_extremes() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max(), h.sum()), (0, 0, 0, 0));
        for v in [7, 0, 900, 17] {
            h.observe(v);
        }
        assert_eq!((h.count(), h.min(), h.max(), h.sum()), (4, 0, 900, 924));
    }

    #[test]
    fn percentiles_are_deterministic_and_clamped() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.percentile(0), 1);
        assert_eq!(h.percentile(100), 100);
        // p50 lands in bucket [32,64): upper bound 63.
        assert_eq!(h.percentile(50), 63);
        // Percentiles never exceed the observed max.
        let mut one = Histogram::new();
        one.observe(5);
        assert_eq!(one.percentile(99), 5);
    }

    #[test]
    fn observation_order_does_not_matter() {
        let samples = [3u64, 99, 0, 7, 7, 1_000_000, 42];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in samples {
            a.observe(v);
        }
        for v in samples.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b);
        assert_eq!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn merge_equals_combined_observation() {
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for v in [1u64, 2, 3] {
            all.observe(v);
            left.observe(v);
        }
        for v in [10u64, 0, 500] {
            all.observe(v);
            right.observe(v);
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn histogram_json_roundtrips() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 5, 1 << 40] {
            h.observe(v);
        }
        let text = h.to_json(true);
        let parsed = json::parse(&text).expect("valid json");
        let (back, pinned) = Histogram::from_json(&parsed).expect("roundtrip");
        assert!(pinned);
        assert_eq!(back, h);
        let empty_text = Histogram::new().to_json(false);
        let (empty, pinned) =
            Histogram::from_json(&json::parse(&empty_text).unwrap()).expect("empty roundtrip");
        assert!(!pinned);
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn histogram_json_rejects_inconsistent_counts() {
        let bad = r#"{"pinned":true,"count":3,"sum":1,"min":0,"max":1,"buckets":[[1,1]]}"#;
        let err = Histogram::from_json(&json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("sum to 1"), "{err}");
        let oob = r#"{"pinned":true,"count":1,"sum":1,"min":1,"max":1,"buckets":[[99,1]]}"#;
        assert!(Histogram::from_json(&json::parse(oob).unwrap()).is_err());
    }

    #[test]
    fn registry_splits_pinned_from_wall() {
        let mut reg = MetricsRegistry::new();
        reg.observe("gdp/cut", 42);
        reg.observe_wall("pipeline/analysis", 1500);
        let pinned = reg.pinned_json();
        assert!(pinned.contains("gdp/cut"), "{pinned}");
        assert!(!pinned.contains("pipeline/analysis"), "{pinned}");
        let full = reg.to_json();
        assert!(full.contains("pipeline/analysis"), "{full}");
        let table = reg.render_table();
        assert!(table.contains("latency percentiles"), "{table}");
        assert!(table.contains("work distributions"), "{table}");
    }

    #[test]
    fn registry_ingests_events() {
        use std::time::Instant;
        let obs = crate::Obs::enabled();
        obs.counter("gdp", "cut", 10);
        obs.counter("gdp", "cut", 30);
        obs.counter_args("gdp", "cluster_bytes", 900, &[("cluster", 1)]);
        obs.span_args("rhop", "function", Instant::now(), &[("estimator_calls", 77)]);
        let reg = MetricsRegistry::from_events(&obs.events());
        assert_eq!(reg.get("gdp/cut").map(Histogram::count), Some(2));
        // A counter's args are pinned distributions too.
        assert_eq!(reg.get("gdp/cluster_bytes.cluster").map(Histogram::sum), Some(1));
        assert_eq!(reg.get("rhop/function.estimator_calls").map(Histogram::sum), Some(77));
        assert_eq!(reg.get("rhop/function").map(Histogram::count), Some(1));
        // The pinned payload must not depend on the span's duration.
        let replayed = crate::Obs::enabled();
        for e in obs.events() {
            replayed.replay(crate::intern_cat(e.cat), &e.name, e.kind, e.args.clone());
        }
        let reg2 = MetricsRegistry::from_events(&replayed.events());
        assert_eq!(reg.pinned_json(), reg2.pinned_json());
    }

    #[test]
    fn registry_ingests_decoded_traces() {
        let obs = crate::Obs::enabled();
        obs.counter_args("serve", "cache_hits", 3, &[("batch", 2)]);
        obs.span_args("pipeline", "sim", std::time::Instant::now(), &[("cycles", 123)]);
        let decoded = crate::decode_chrome_trace(&obs.chrome_trace()).expect("trace parses");
        let reg = MetricsRegistry::from_events(&decoded.events);
        assert_eq!(reg.get("serve/cache_hits").map(Histogram::sum), Some(3));
        assert_eq!(reg.get("serve/cache_hits.batch").map(Histogram::sum), Some(2));
        assert_eq!(reg.get("pipeline/sim.cycles").map(Histogram::sum), Some(123));
        // The synthetic per-span "seq" arg is not a metric.
        assert!(reg.get("pipeline/sim.seq").is_none());
        // The live log folds by the same rule.
        assert_eq!(reg, MetricsRegistry::from_events(&obs.events()));
    }

    #[test]
    fn table_keeps_totals_in_the_sum_column() {
        let mut reg = MetricsRegistry::new();
        reg.observe("c/v", 2);
        reg.observe("c/v", 3);
        let table = reg.render_table();
        let rows: Vec<Vec<&str>> = table.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(rows[1], ["label", "count", "sum", "min", "p50", "p90", "p99", "max"]);
        assert_eq!(rows[2], ["c/v", "2", "5", "2", "3", "3", "3", "3"]);
    }

    #[test]
    fn registry_json_roundtrips_and_merges() {
        let mut a = MetricsRegistry::new();
        a.observe("sim/stall_cycles", 100);
        a.observe_wall("serve/batch", 2000);
        let text = a.to_json();
        let back = MetricsRegistry::from_json(&json::parse(&text).unwrap()).expect("roundtrip");
        assert_eq!(back, a);
        let mut b = MetricsRegistry::new();
        b.observe("sim/stall_cycles", 50);
        a.merge(&b);
        assert_eq!(a.get("sim/stall_cycles").map(Histogram::count), Some(2));
        assert_eq!(a.get("sim/stall_cycles").map(Histogram::sum), Some(150));
    }
}
