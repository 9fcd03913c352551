//! The committed results: one [`Figure`] per `results/<name>.txt`,
//! each rendering one experiment of [`crate::experiments`] as text.

use crate::experiments as ex;
use mcpart_workloads::Workload;
use std::cell::OnceCell;

/// The workloads a figure runs when `--benchmarks` is not given.
#[derive(Clone, Copy, Debug)]
pub enum Takes {
    /// None: the figure needs no programs.
    Nothing,
    /// Every bundled workload.
    All,
    /// These bundled workloads.
    Only(&'static [&'static str]),
    /// These bundled workloads, even under `--benchmarks`: the figure
    /// fixes its own programs.
    Fixed(&'static [&'static str]),
}

/// The bundled workloads, built (and profiled) on first use and shared
/// by every figure of one invocation.
#[derive(Debug, Default)]
pub struct Bundled(OnceCell<Vec<Workload>>);

impl Bundled {
    /// Every bundled workload.
    pub fn all(&self) -> &[Workload] {
        self.0.get_or_init(mcpart_workloads::all)
    }

    /// The bundled workloads named `names`, in that order.
    ///
    /// # Panics
    ///
    /// On a name that is not bundled (figure tables name only bundled
    /// programs).
    fn pick(&self, names: &[&str]) -> Vec<Workload> {
        names
            .iter()
            .map(|n| self.all().iter().find(|w| w.name == *n).expect("bundled workload").clone())
            .collect()
    }
}

/// One committed result: `results/<name>.txt` is `run` over the
/// figure's workloads.
#[derive(Debug)]
pub struct Figure {
    /// The `results/` file stem.
    pub name: &'static str,
    /// The default workloads.
    pub takes: Takes,
    /// Runs the experiment and renders it.
    pub run: fn(&[Workload]) -> String,
}

impl Figure {
    /// Runs the figure on `chosen` (`--benchmarks`) or, when that is
    /// `None`, on its default workloads, taken from `bundled`. A figure
    /// that takes no workloads, or fixes its own, ignores `chosen`.
    pub fn render(&self, chosen: Option<&[Workload]>, bundled: &Bundled) -> String {
        let picked: Vec<Workload>;
        let workloads = match (self.takes, chosen) {
            (Takes::Nothing, _) => &[][..],
            (Takes::All | Takes::Only(_), Some(ws)) => ws,
            (Takes::All, None) => bundled.all(),
            (Takes::Only(names), None) | (Takes::Fixed(names), _) => {
                picked = bundled.pick(names);
                &picked
            }
        };
        (self.run)(workloads)
    }
}

/// Every committed result: the paper's tables and figures, then the
/// ablations and extensions.
pub const FIGURES: &[Figure] = &[
    Figure { name: "table1", takes: Takes::Nothing, run: table1 },
    Figure { name: "fig2", takes: Takes::All, run: fig2 },
    Figure { name: "fig7", takes: Takes::All, run: |ws| fig7_8(ws, "7", 1) },
    Figure { name: "fig8a", takes: Takes::All, run: |ws| fig7_8(ws, "8a", 5) },
    Figure { name: "fig8b", takes: Takes::All, run: |ws| fig7_8(ws, "8b", 10) },
    Figure { name: "fig9", takes: Takes::Fixed(&["rawcaudio", "rawdaudio"]), run: fig9 },
    Figure { name: "fig10", takes: Takes::All, run: fig10 },
    Figure { name: "compile_time", takes: Takes::All, run: compile_time },
    Figure {
        name: "ablation_balance",
        takes: Takes::Only(&["rawcaudio", "rawdaudio", "matmul", "cjpeg"]),
        run: ablation_balance,
    },
    Figure { name: "ablation_clusters", takes: Takes::All, run: ablation_clusters },
    Figure { name: "ablation_hoist", takes: Takes::All, run: ablation_hoist },
    Figure { name: "ablation_merge", takes: Takes::All, run: ablation_merge },
    Figure { name: "ablation_opt", takes: Takes::All, run: ablation_opt },
    Figure { name: "ablation_regions", takes: Takes::All, run: ablation_regions },
    Figure { name: "ext_cache", takes: Takes::All, run: ext_cache },
    Figure { name: "ext_hetero", takes: Takes::All, run: ext_hetero },
    Figure { name: "ext_regfile", takes: Takes::All, run: ext_regfile },
    Figure { name: "ext_swp", takes: Takes::All, run: ext_swp },
    Figure { name: "ext_terechko", takes: Takes::All, run: ext_terechko },
];

/// The mean of `f` over `rows` (0 for none).
fn mean<R>(rows: &[R], f: impl Fn(&R) -> f64) -> f64 {
    rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
}

/// A table row: `name`, then `cells`.
fn row(name: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(name.to_string()).chain(cells).collect()
}

/// A signed percentage with one decimal.
fn signed_pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Table 1: the object/computation partitioner matrix of the four
/// evaluated methods.
fn table1(_: &[Workload]) -> String {
    let rows = [
        ["GDP", "Global Data Partitioning", "graph partition of coarsened program DFG"],
        ["Profile Max", "RHOP", "greedy (dynamic frequency order)"],
        ["Naive", "none", "data object moves inserted post-partitioning"],
        ["Unified Memory", "n/a", "no moves required for single, unified memory"],
    ];
    render_table(
        "Table 1: object and computation partitioning methods",
        &["Algorithm", "Object Partitioner", "Object Assignment", "Computation Partitioner"],
        rows.iter().map(|r| r.iter().chain(&["RHOP"]).map(|c| c.to_string()).collect()),
    )
}

/// Figure 2: cycle increase of the Naïve data placement over unified
/// memory at 1/5/10-cycle move latencies.
fn fig2(workloads: &[Workload]) -> String {
    let rows = ex::fig2(workloads, &[1, 5, 10]);
    let avg = (0..3).map(|i| signed_pct(mean(&rows, |r| r.increase_pct[i])));
    render_table(
        "Figure 2: cycle increase of Naive data placement vs unified memory",
        &["benchmark", "1-cycle", "5-cycle", "10-cycle"],
        rows.iter()
            .map(|r| row(&r.benchmark, r.increase_pct.iter().map(|&p| signed_pct(p))))
            .chain([row("average", avg)]),
    )
}

/// Figures 7 / 8a / 8b: GDP and Profile Max performance relative to
/// unified memory at one move latency.
fn fig7_8(workloads: &[Workload], figure: &str, latency: u32) -> String {
    let fig = ex::fig7_8(workloads, latency);
    let (gdp, pm, naive) = fig.averages;
    render_table(
        &format!(
            "Figure {figure} ({latency}-cycle moves): performance relative to unified memory \
             (1.0 = parity)"
        ),
        &["benchmark", "GDP", "Profile Max", "Naive"],
        fig.rows
            .iter()
            .map(|r| (&*r.benchmark, [r.gdp_rel, r.profile_max_rel, r.naive_rel]))
            .chain([("average", [gdp, pm, naive])])
            .map(|(name, rel)| row(name, rel.map(f3))),
    )
}

/// Figure 9: exhaustive search over all data-object mappings of
/// rawcaudio (a) and rawdaudio (b), every point as `perf imbalance
/// moves`, plus the GDP and Profile Max choices.
fn fig9(workloads: &[Workload]) -> String {
    let mut out = String::new();
    for w in workloads {
        let name = &w.name;
        let result = match ex::fig9(w, 14) {
            Ok(result) => result,
            Err(e) => {
                out += &format!("# Figure 9 — {name}: skipped ({e})\n");
                continue;
            }
        };
        out += &format!("# Figure 9 — {name}: {} mappings\n", result.points.len());
        out += "# columns: normalized_perf imbalance dynamic_moves\n";
        let worst = result.points.iter().map(|p| p.cycles).max().unwrap_or(1) as f64;
        let perf = |cycles: u64| worst / cycles.max(1) as f64;
        for p in &result.points {
            out += &format!("{:.4} {:.3} {}\n", perf(p.cycles), p.imbalance, p.dynamic_moves);
        }
        let best = result.points.iter().map(|p| p.cycles).min().unwrap_or(1) as f64;
        for (method, point) in
            [("GDP", &result.gdp_point), ("Profile Max", &result.profile_max_point)]
        {
            out += &format!(
                "# {method} choice: perf {:.4}, imbalance {:.3}\n",
                perf(point.cycles),
                point.imbalance
            );
        }
        out += &format!("# best/worst spread: {:.1}%\n", (worst / best - 1.0) * 100.0);
    }
    out
}

/// Figure 10: dynamic intercluster move increase of GDP and Profile Max
/// over unified memory at 5-cycle moves.
fn fig10(workloads: &[Workload]) -> String {
    let rows = ex::fig10(workloads);
    let avg = [mean(&rows, |r| r.gdp_pct), mean(&rows, |r| r.profile_max_pct)];
    render_table(
        "Figure 10: dynamic intercluster move increase vs unified memory (5-cycle)",
        &["benchmark", "GDP", "Profile Max"],
        rows.iter()
            .map(|r| (&*r.benchmark, [r.gdp_pct, r.profile_max_pct]))
            .chain([("average", avg)])
            .map(|(name, pcts)| row(name, pcts.map(signed_pct))),
    )
}

/// §4.5: partitioning work per method. Profile Max runs the detailed
/// computation partitioner twice; GDP and Naïve once.
fn compile_time(workloads: &[Workload]) -> String {
    let rows = ex::compile_time(workloads);
    let total = |f: fn(&ex::CompileTimeRow) -> u64| rows.iter().map(f).sum::<u64>();
    let totals = [total(|r| r.gdp), total(|r| r.profile_max), total(|r| r.naive)];
    render_table(
        "Section 4.5: partitioning work per method (RHOP estimator calls)",
        &["benchmark", "GDP", "Profile Max", "Naive", "PM/GDP"],
        rows.iter()
            .map(|r| (&*r.benchmark, [r.gdp, r.profile_max, r.naive]))
            .chain([("total", totals)])
            .map(|(name, [gdp, pm, naive])| {
                let ratio = format!("{:.2}x", pm as f64 / gdp.max(1) as f64);
                row(name, [gdp.to_string(), pm.to_string(), naive.to_string(), ratio])
            }),
    )
}

/// §4.3: sweeping the data-size balance tolerance of the graph
/// partitioner trades balance for performance.
fn ablation_balance(workloads: &[Workload]) -> String {
    let mut out = String::new();
    for w in workloads {
        let points = ex::ablation_balance(w, &[0.02, 0.10, 0.30, 0.50, 1.00]);
        out += &render_table(
            &format!("Balance sweep — {}", w.name),
            &["tolerance", "GDP cycles", "byte skew (max fraction)"],
            points.iter().map(|p| {
                vec![format!("{:.2}", p.imbalance), p.cycles.to_string(), f3(p.byte_skew)]
            }),
        );
    }
    out
}

/// Cluster-count scaling beyond the paper's 2-cluster machine.
fn ablation_clusters(workloads: &[Workload]) -> String {
    render_table(
        "Cluster scaling: GDP perf relative to unified (5-cycle moves)",
        &["benchmark", "2 clusters", "4 clusters"],
        ex::ablation_clusters(workloads, &[2, 4])
            .iter()
            .map(|r| row(&r.benchmark, r.gdp_rel.iter().map(|&x| f3(x)))),
    )
}

/// Move placement: per-use-block transfers vs profile-guided
/// producer-side hoisting.
fn ablation_hoist(workloads: &[Workload]) -> String {
    render_table(
        "Move hoisting: GDP cycles and dynamic moves (5-cycle latency)",
        &["benchmark", "cycles/block", "cycles/hoisted", "delta", "moves/block", "moves/hoisted"],
        ex::ablation_hoist(workloads).into_iter().map(|r| {
            vec![
                r.benchmark,
                r.cycles.0.to_string(),
                r.cycles.1.to_string(),
                signed_pct((r.cycles.1 as f64 / r.cycles.0 as f64 - 1.0) * 100.0),
                r.moves.0.to_string(),
                r.moves.1.to_string(),
            ]
        }),
    )
}

/// §3.3.1: GDP with the rejected dependent-operation merging, and with
/// an operation-balance constraint.
fn ablation_merge(workloads: &[Workload]) -> String {
    render_table(
        "Ablation 3.3.1: GDP coarsening variants (perf relative to unified, 5-cycle)",
        &["benchmark", "GDP default", "+dependent-op merge", "+op balance"],
        ex::ablation_merge(workloads)
            .into_iter()
            .map(|r| vec![r.benchmark, f3(r.default_rel), f3(r.merged_rel), f3(r.op_balance_rel)]),
    )
}

/// Scalar pre-optimization: op-count reduction and GDP relative
/// performance with and without DCE/CSE/copy-prop/const-fold.
fn ablation_opt(workloads: &[Workload]) -> String {
    render_table(
        "Pre-optimization: op counts and GDP perf vs unified (5-cycle)",
        &["benchmark", "raw ops", "opt ops", "shrink", "GDP raw", "GDP opt"],
        ex::ablation_opt(workloads).into_iter().map(|r| {
            vec![
                r.benchmark,
                r.ops.0.to_string(),
                r.ops.1.to_string(),
                format!("{:.0}%", (1.0 - r.ops.1 as f64 / r.ops.0 as f64) * 100.0),
                f3(r.gdp_rel.0),
                f3(r.gdp_rel.1),
            ]
        }),
    )
}

/// RHOP region scope: per-block regions (plus live-in sweeps), loop
/// nests, whole functions.
fn ablation_regions(workloads: &[Workload]) -> String {
    render_table(
        "Region scope: GDP perf relative to unified (5-cycle)",
        &["benchmark", "per-block", "loop nests", "whole function"],
        ex::ablation_regions(workloads)
            .into_iter()
            .map(|r| vec![r.benchmark, f3(r.rel.0), f3(r.rel.1), f3(r.rel.2)]),
    )
}

/// Extension: coherent per-cluster caches (the paper's §2 middle
/// ground) at several remote-access penalties, vs partitioned memory.
fn ext_cache(workloads: &[Workload]) -> String {
    render_table(
        "Coherent-cache extension: GDP perf relative to unified (5-cycle moves)",
        &["benchmark", "partitioned", "coh p=2", "coh p=5", "coh p=10", "remote accesses"],
        ex::ext_cache(workloads, &[2, 5, 10]).iter().map(|r| {
            let remote = r.remote_accesses.iter().map(u64::to_string).collect::<Vec<_>>();
            let rels = std::iter::once(r.partitioned_rel).chain(r.coherent_rel.iter().copied());
            row(&r.benchmark, rels.map(f3).chain([remote.join("/")]))
        }),
    )
}

/// Extension: an asymmetric 2-cluster machine (3:1 memory capacity,
/// wider FU mix on the big cluster).
fn ext_hetero(workloads: &[Workload]) -> String {
    render_table(
        "Heterogeneous machine: data share on the big cluster; speed vs homogeneous GDP",
        &["benchmark", "big-cluster data", "vs homogeneous"],
        ex::ext_hetero(workloads)
            .into_iter()
            .map(|r| vec![r.benchmark, pct(r.big_cluster_share), f3(r.vs_homogeneous)]),
    )
}

/// Extension: spill-penalty cycles of GDP's distributed placement vs a
/// centralized one as the per-cluster register file shrinks.
fn ext_regfile(workloads: &[Workload]) -> String {
    render_table(
        "Register pressure: spill cycles, GDP-distributed / centralized (per RF size)",
        &["benchmark", "rf=12", "rf=16", "rf=24", "rf=32"],
        ex::ext_regfile(workloads, &[12, 16, 24, 32]).iter().map(|r| {
            let spills = r.spill_cycles.iter().zip(&r.packed_spills);
            row(&r.benchmark, spills.map(|(s, p)| format!("{s}/{p}")))
        }),
    )
}

/// Extension: GDP vs unified with loop kernels modulo-scheduled.
fn ext_swp(workloads: &[Workload]) -> String {
    render_table(
        "Software pipelining: GDP vs unified, flat and pipelined (5-cycle)",
        &["benchmark", "GDP rel (flat)", "GDP rel (piped)", "SWP speedup"],
        ex::ext_swp(workloads).into_iter().map(|r| {
            let speedup = format!("{:.2}x", r.gdp_speedup);
            vec![r.benchmark, f3(r.flat_rel), f3(r.piped_rel), speedup]
        }),
    )
}

/// After Terechko et al. (cited in §2): the share of the Naïve method's
/// intercluster moves that serve data accesses, and its cycle overhead.
fn ext_terechko(workloads: &[Workload]) -> String {
    let rows = ex::ext_terechko(workloads);
    let avg = [mean(&rows, |r| r.data_move_fraction), mean(&rows, |r| r.overhead)];
    render_table(
        "Data-related share of Naive intercluster moves (5-cycle latency)",
        &["benchmark", "data moves", "cycle overhead"],
        rows.iter()
            .map(|r| (&*r.benchmark, [r.data_move_fraction, r.overhead]))
            .chain([("average", avg)])
            .map(|(name, fractions)| row(name, fractions.map(pct))),
    )
}

/// Renders a table with a title, column headers and string rows.
fn render_table(
    title: &str,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> String {
    let header = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = std::iter::once(header).chain(rows).collect();
    let mut widths = vec![0; headers.len()];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.len().max(*w);
        }
    }
    let sep = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+") + "\n";
    let line = |row: &[String]| {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(c, w)| format!(" {c:<w$} ")).collect();
        cells.join("|") + "\n"
    };
    let mut out = format!("{title}\n{sep}{}{sep}", line(&rows[0]));
    rows[1..].iter().for_each(|row| out += &line(row));
    out + &sep
}

/// Formats a ratio as a percentage with one decimal.
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with three decimals.
fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "Demo",
            &["bench", "value"],
            [vec!["rawcaudio".into(), "1.0".into()], vec!["fft".into(), "0.95".into()]],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("rawcaudio"));
        let lines: Vec<&str> = t.lines().collect();
        // header/sep/rows aligned to the same width.
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.956), "95.6%");
        assert_eq!(f3(1.23456), "1.235");
    }
}
