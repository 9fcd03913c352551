//! Metric definitions (read from `BENCHMARK.json`), the per-layer
//! values derived from traced passes, the stage table, and the result
//! line.

use crate::stages::{CHILD_LAYERS, TOP_LAYERS};
use crate::trace::{median, Trace};
use mcpart_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One metric of `BENCHMARK.json`.
#[derive(Debug)]
pub struct MetricDef {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`: (end-to-end, per-layer).
fn defs() -> &'static (Vec<MetricDef>, Vec<MetricDef>) {
    static DEFS: OnceLock<(Vec<MetricDef>, Vec<MetricDef>)> = OnceLock::new();
    DEFS.get_or_init(|| {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<MetricDef> {
            let items = doc.get(key).and_then(JsonValue::as_arr).expect("a metric list");
            items
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                    MetricDef { name: field("name"), unit: field("unit") }
                })
                .collect()
        };
        (list("end_to_end"), list("per_layer"))
    })
}

/// End-to-end metrics, measured with tracing off.
pub fn end_to_end() -> &'static [MetricDef] {
    &defs().0
}

/// Per-layer metrics, measured by the traced run. A `.s`/`_s` suffix
/// names the wall seconds of the layer before it; most other names are
/// work counters recorded under the same name.
pub fn per_layer() -> &'static [MetricDef] {
    &defs().1
}

/// The layer a time metric measures (`rhop.s` → `rhop`,
/// `gdp.dfg_s` → `gdp.dfg`), or `None` for a counter.
fn time_layer(metric: &str) -> Option<&str> {
    metric.strip_suffix(".s").or_else(|| metric.strip_suffix("_s"))
}

/// Work done outside the compile's spans: `compile_s × workers` minus
/// the top-level layer walls.
fn residual(wall: f64, workers: f64, tr: &Trace) -> f64 {
    wall * workers - TOP_LAYERS.iter().map(|l| tr.wall(l)).sum::<f64>()
}

/// Layers that run RHOP: GDP's own call and the three baselines.
const RHOP_LAYERS: [&str; 4] =
    ["rhop", "baselines.profile_max", "baselines.naive", "baselines.unified"];

/// One traced pass's value of a per-layer metric (`None` for the ones
/// measured once per run rather than per pass).
fn pass_value(metric: &str, wall: f64, workers: f64, tr: &Trace) -> Option<f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rhop = tr.layers.get("rhop").copied().unwrap_or_default();
    let rhop_cpu: f64 = RHOP_LAYERS.iter().filter_map(|l| tr.layers.get(l)).map(|l| l.cpu).sum();
    Some(match metric {
        "rhop.parallelism" => ratio(rhop.cpu, rhop.wall),
        "rhop.prune_ratio" => {
            ratio(tr.counter("rhop.pruned_evals"), tr.counter("rhop.estimator_calls"))
        }
        "rhop.full_eval_us" => ratio(rhop_cpu * 1e6, tr.counter("rhop.full_evals")),
        "pipeline.residual_s" => residual(wall, workers, tr),
        "workloads.gen_s" | "oracle.check_s" | "obs.trace_overhead_frac" => return None,
        m => match time_layer(m) {
            Some(layer) => tr.wall(layer),
            None => tr.counter(m),
        },
    })
}

/// Per-layer values of a traced run: each metric's median over the
/// timed passes, plus the tracing overhead against one untraced unit
/// of `untraced` seconds. `workers` is how many units ran at once.
pub fn layer_metrics(passes: &[(f64, Trace)], workers: f64, untraced: f64) -> Values {
    let mut values = Values::new();
    for m in per_layer() {
        let samples: Vec<f64> = passes
            .iter()
            .filter_map(|(wall, tr)| pass_value(&m.name, *wall, workers, tr))
            .collect();
        if !samples.is_empty() {
            values.insert(&m.name, median(&samples));
        }
    }
    let traced = median(&passes.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    values.insert("obs.trace_overhead_frac", traced / untraced - 1.0);
    values
}

/// The traced stage table: per layer, median wall and self seconds,
/// share of the traced `compile_s` (times `workers` when units ran in
/// parallel), calls and CPU/wall; then the residual and the counters.
pub fn stage_table(
    workload: &str,
    passes: &[(f64, Trace)],
    workers: f64,
    values: &Values,
) -> String {
    let med = |f: &dyn Fn(f64, &Trace) -> f64| {
        median(&passes.iter().map(|(w, tr)| f(*w, tr)).collect::<Vec<_>>())
    };
    let capacity = med(&|w, _| w * workers);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== stage table: {workload} (traced, median of {} pass(es); compile_s x workers = {capacity:.3} s) ==",
        passes.len()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>7} {:>7} {:>8}",
        "layer", "wall s", "self s", "share", "calls", "cpu/wall"
    );
    let mut row = |name: &str, indent: &str, wall: f64, own: f64, calls: u64, cpu: f64| {
        let _ = writeln!(
            out,
            "{:<24} {wall:>10.4} {own:>10.4} {:>6.1}% {calls:>7} {:>8.2}",
            format!("{indent}{name}"),
            100.0 * wall / capacity.max(f64::MIN_POSITIVE),
            if wall > 0.0 { cpu / wall } else { 0.0 },
        );
    };
    for layer in TOP_LAYERS {
        let Some(l) = passes.last().and_then(|(_, tr)| tr.layers.get(layer)).copied() else {
            continue;
        };
        let wall = med(&|_, tr| tr.wall(layer));
        let own = med(&|_, tr| tr.wall(layer) - children(layer).map(|c| tr.wall(c)).sum::<f64>());
        let cpu = med(&|_, tr| tr.layers.get(layer).map_or(0.0, |l| l.cpu));
        row(layer, "", wall, own, l.calls, cpu);
        for child in children(layer) {
            let calls =
                passes.last().and_then(|(_, tr)| tr.layers.get(child)).map_or(0, |l| l.calls);
            let wall = med(&|_, tr| tr.wall(child));
            row(child, "  ", wall, wall, calls, 0.0);
        }
    }
    let res = med(&|w, tr| residual(w, workers, tr));
    row("(residual)", "", res, res, 0, 0.0);
    let _ = writeln!(out, "work counters (per pass):");
    if let Some((_, tr)) = passes.last() {
        for (name, v) in tr.counters.iter().chain(tr.peaks.iter()) {
            let _ = writeln!(out, "  {name:<30} {v:>14}");
        }
    }
    for name in [
        "rhop.parallelism",
        "rhop.prune_ratio",
        "rhop.full_eval_us",
        "obs.trace_overhead_frac",
        "oracle.check_s",
        "workloads.gen_s",
    ] {
        if let Some(v) = values.get(name) {
            let _ = writeln!(out, "  {name:<30} {v:>14.4}");
        }
    }
    out
}

/// The program-emitted spans nested under `parent`.
fn children(parent: &str) -> impl Iterator<Item = &'static str> + '_ {
    CHILD_LAYERS.iter().filter(move |c| c.1 == parent).map(|c| c.0)
}

/// Renders a number for JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `defs` with its unit (0 for a metric the run could not measure).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = values.get(m.name.as_str()).copied().unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(v), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
