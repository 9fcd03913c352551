//! The committed results: one [`Figure`] per `results/<name>.txt`.
//!
//! Each figure is one function. It runs its pipeline configurations
//! over its workloads through one fan-out helper and fills a [`Table`]
//! whose cells keep their numbers until `Display` renders the committed
//! text. Figure 9 (a scatter, [`fig9`]) and the balance sweep (one table
//! per program) keep their own shapes.
//!
//! Every (workload, configuration) pair runs on the host's worker pool.
//! Each run is a pure function of its inputs and the results are
//! reduced in input order, so the numbers are identical at every worker
//! count.

use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{
    evaluate_mapping, exhaustive_search, profile_max_partition, run_pipeline, ExhaustiveError,
    ExhaustivePoint, GdpConfig, Method, ObjectGroups, PipelineConfig, PipelineResult, RhopConfig,
};
use mcpart_ir::ClusterId;
use mcpart_machine::Machine;
use mcpart_workloads::Workload;
use std::cell::OnceCell;
use std::fmt;

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
    Figure { name: "table1", takes: Takes::Nothing, run: |_| table1().to_string() },
    Figure { name: "fig2", takes: Takes::All, run: |ws| fig2(ws, &[1, 5, 10]).to_string() },
    Figure { name: "fig7", takes: Takes::All, run: |ws| fig7_8(ws, "7", 1).to_string() },
    Figure { name: "fig8a", takes: Takes::All, run: |ws| fig7_8(ws, "8a", 5).to_string() },
    Figure { name: "fig8b", takes: Takes::All, run: |ws| fig7_8(ws, "8b", 10).to_string() },
    Figure {
        name: "fig9",
        takes: Takes::Fixed(&["rawcaudio", "rawdaudio"]),
        run: |ws| render_fig9(ws, &fig9(ws, 14)),
    },
    Figure { name: "fig10", takes: Takes::All, run: |ws| fig10(ws).to_string() },
    Figure { name: "compile_time", takes: Takes::All, run: |ws| compile_time(ws).to_string() },
    Figure {
        name: "ablation_balance",
        takes: Takes::Only(&["rawcaudio", "rawdaudio", "matmul", "cjpeg"]),
        run: |ws| {
            let tables = ablation_balance(ws, &[0.02, 0.10, 0.30, 0.50, 1.00]);
            tables.iter().map(Table::to_string).collect()
        },
    },
    Figure {
        name: "ablation_clusters",
        takes: Takes::All,
        run: |ws| ablation_clusters(ws, &[2, 4]).to_string(),
    },
    Figure { name: "ablation_hoist", takes: Takes::All, run: |ws| ablation_hoist(ws).to_string() },
    Figure { name: "ablation_merge", takes: Takes::All, run: |ws| ablation_merge(ws).to_string() },
    Figure { name: "ablation_opt", takes: Takes::All, run: |ws| ablation_opt(ws).to_string() },
    Figure {
        name: "ablation_regions",
        takes: Takes::All,
        run: |ws| ablation_regions(ws).to_string(),
    },
    Figure {
        name: "ext_cache",
        takes: Takes::All,
        run: |ws| ext_cache(ws, &[2, 5, 10]).to_string(),
    },
    Figure { name: "ext_hetero", takes: Takes::All, run: |ws| ext_hetero(ws).to_string() },
    Figure {
        name: "ext_regfile",
        takes: Takes::All,
        run: |ws| ext_regfile(ws, &[12, 16, 24, 32]).to_string(),
    },
    Figure { name: "ext_swp", takes: Takes::All, run: |ws| ext_swp(ws).to_string() },
    Figure { name: "ext_terechko", takes: Takes::All, run: |ws| ext_terechko(ws).to_string() },
];

/// One table cell: a number and the way it prints, or text.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A count: `4333`.
    Int(u64),
    /// A ratio with three decimals: `0.976`.
    Ratio(f64),
    /// A fraction as a percentage with one decimal: `95.6%` for 0.956.
    Percent(f64),
    /// A fraction as a whole percentage: `28%` for 0.28.
    WholePercent(f64),
    /// A change in percent, signed, with one decimal: `+4.4%`.
    Change(f64),
    /// A factor with two decimals: `2.07x`.
    Times(f64),
    /// Text: a description, or a composite such as `spills/packed`.
    Text(String),
}

impl Cell {
    /// The cell's number (`None` for text).
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Int(n) => Some(n as f64),
            Cell::Ratio(x)
            | Cell::Percent(x)
            | Cell::WholePercent(x)
            | Cell::Change(x)
            | Cell::Times(x) => Some(x),
            Cell::Text(_) => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Ratio(x) => write!(f, "{x:.3}"),
            Cell::Percent(x) => write!(f, "{:.1}%", x * 100.0),
            Cell::WholePercent(x) => write!(f, "{:.0}%", x * 100.0),
            Cell::Change(x) => write!(f, "{x:+.1}%"),
            Cell::Times(x) => write!(f, "{x:.2}x"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

/// A row: its name (the first column) and its cells.
pub type Row = (String, Vec<Cell>);

/// One committed table. `Display` renders it as aligned text: the
/// title, the headers, the rows, then the summary row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// The line above the table.
    pub title: String,
    /// Column headers, the name column's first.
    pub headers: Vec<String>,
    /// One row per program (or swept value).
    pub rows: Vec<Row>,
    /// The `average` or `total` row, printed last.
    pub summary: Option<Row>,
}

impl Table {
    /// An empty table.
    fn new(title: impl Into<String>, headers: impl IntoIterator<Item = impl ToString>) -> Table {
        let headers = headers.into_iter().map(|h| h.to_string()).collect();
        Table { title: title.into(), headers, ..Table::default() }
    }

    /// Appends the row `name`, `cells`.
    fn push(&mut self, name: impl Into<String>, cells: impl IntoIterator<Item = Cell>) {
        self.rows.push((name.into(), cells.into_iter().collect()));
    }

    /// Sets the summary row to `average`: each column's mean over the
    /// rows (0 for none), printed as `cell`.
    fn average(mut self, cell: fn(f64) -> Cell) -> Table {
        let n = self.rows.len().max(1) as f64;
        let means = (0..self.headers.len() - 1).map(|j| cell(self.values(j).sum::<f64>() / n));
        self.summary = Some(("average".to_string(), means.collect()));
        self
    }

    /// The numbers of cell column `j` (the column after the name is 0)
    /// over the rows.
    fn values(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        self.rows.iter().filter_map(move |(_, cells)| cells.get(j)?.value())
    }

    /// The cell column under `header`.
    fn index(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)?.checked_sub(1)
    }

    /// The numbers under `header` over the rows (not the summary).
    pub fn column(&self, header: &str) -> Vec<f64> {
        self.index(header).map_or_else(Vec::new, |j| self.values(j).collect())
    }

    /// The number under `header` in the row (or summary row) named `row`.
    pub fn get(&self, row: &str, header: &str) -> Option<f64> {
        let j = self.index(header)?;
        let (_, cells) = self.rows.iter().chain(&self.summary).find(|(name, _)| name == row)?;
        cells.get(j)?.value()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = self.rows.iter().chain(&self.summary).map(|(name, cells)| {
            std::iter::once(name.clone()).chain(cells.iter().map(Cell::to_string)).collect()
        });
        let lines: Vec<Vec<String>> = std::iter::once(self.headers.clone()).chain(body).collect();
        let mut widths = vec![0; self.headers.len()];
        for line in &lines {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = cell.len().max(*w);
            }
        }
        let sep = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let line = |cells: &[String]| {
            let cells: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!(" {c:<w$} ")).collect();
            cells.join("|")
        };
        writeln!(f, "{}\n{sep}\n{}\n{sep}", self.title, line(&lines[0]))?;
        for cells in &lines[1..] {
            writeln!(f, "{}", line(cells))?;
        }
        writeln!(f, "{sep}")
    }
}

/// One pipeline run a figure makes on each workload: the machine and
/// the configuration.
type Config = (Machine, PipelineConfig);

/// `method`'s default configuration on `machine`, with `tweak` applied.
fn config(machine: &Machine, method: Method, tweak: impl FnOnce(&mut PipelineConfig)) -> Config {
    let mut cfg = PipelineConfig::new(method);
    tweak(&mut cfg);
    (machine.clone(), cfg)
}

/// Runs the whole pipeline on `w` under `config`.
fn run(w: &Workload, (machine, cfg): &Config) -> PipelineResult {
    run_pipeline(&w.program, &w.profile, machine, cfg).expect("pipeline")
}

/// The cycles of `w` under `config`.
fn cycles(w: &Workload, config: &Config) -> u64 {
    run(w, config).cycles()
}

/// Runs `f` on every (workload, variant) pair on the host's worker pool
/// and returns, per workload, its variants' results in order. Pairs,
/// not whole workloads, are the unit of work: variants differ widely in
/// cost (GDP runs RHOP three times, Naïve once), so pair-level stealing
/// balances the pool better.
fn fan_out<V: Sync, R: Send>(
    workloads: &[Workload],
    variants: &[V],
    f: impl Fn(&Workload, &V) -> R + Sync,
) -> Vec<Vec<R>> {
    let pairs: Vec<(&Workload, &V)> =
        workloads.iter().flat_map(|w| variants.iter().map(move |v| (w, v))).collect();
    let mut runs = mcpart_par::parallel_map(0, &pairs, |_, &(w, v)| f(w, v)).into_iter();
    workloads.iter().map(|_| runs.by_ref().take(variants.len()).collect()).collect()
}

/// `x / base` (a zero `base` counts as one).
fn ratio(x: u64, base: u64) -> f64 {
    x as f64 / base.max(1) as f64
}

/// The percentage by which `x` exceeds `base`.
fn increase(x: u64, base: u64) -> f64 {
    (ratio(x, base) - 1.0) * 100.0
}

/// Table 1: the object/computation partitioner matrix of the four
/// evaluated methods.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: object and computation partitioning methods",
        ["Algorithm", "Object Partitioner", "Object Assignment", "Computation Partitioner"],
    );
    for [name, partitioner, assignment] in [
        ["GDP", "Global Data Partitioning", "graph partition of coarsened program DFG"],
        ["Profile Max", "RHOP", "greedy (dynamic frequency order)"],
        ["Naive", "none", "data object moves inserted post-partitioning"],
        ["Unified Memory", "n/a", "no moves required for single, unified memory"],
    ] {
        t.push(name, [partitioner, assignment, "RHOP"].map(|c| Cell::Text(c.to_string())));
    }
    t
}

/// Figure 2: cycle increase of the Naïve data placement over unified
/// memory at each move latency.
pub fn fig2(workloads: &[Workload], latencies: &[u32]) -> Table {
    let configs: Vec<Config> = latencies
        .iter()
        .flat_map(|&lat| {
            let machine = Machine::paper_2cluster(lat);
            [Method::Naive, Method::Unified].map(|m| config(&machine, m, |_| {}))
        })
        .collect();
    let headers = latencies.iter().map(|lat| format!("{lat}-cycle"));
    let mut t = Table::new(
        "Figure 2: cycle increase of Naive data placement vs unified memory",
        std::iter::once("benchmark".to_string()).chain(headers),
    );
    for (w, runs) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        t.push(&w.name, runs.chunks(2).map(|c| Cell::Change(increase(c[0], c[1]))));
    }
    t.average(Cell::Change)
}

/// Figures 7 / 8a / 8b: GDP, Profile Max and Naïve performance relative
/// to unified memory at one move latency (1.0 = parity, higher is
/// better).
pub fn fig7_8(workloads: &[Workload], figure: &str, latency: u32) -> Table {
    let machine = Machine::paper_2cluster(latency);
    let configs = [Method::Unified, Method::Gdp, Method::ProfileMax, Method::Naive]
        .map(|m| config(&machine, m, |_| {}));
    let mut t = Table::new(
        format!(
            "Figure {figure} ({latency}-cycle moves): performance relative to unified memory \
             (1.0 = parity)"
        ),
        ["benchmark", "GDP", "Profile Max", "Naive"],
    );
    for (w, c) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        t.push(&w.name, c[1..].iter().map(|&x| Cell::Ratio(ratio(c[0], x))));
    }
    t.average(Cell::Ratio)
}

/// Figure 9 for one program: every enumerated data-object mapping, and
/// the mappings GDP and Profile Max choose.
#[derive(Clone, Debug)]
pub struct Scatter {
    /// Every enumerated mapping.
    pub points: Vec<ExhaustivePoint>,
    /// The point of the GDP-chosen mapping.
    pub gdp_point: ExhaustivePoint,
    /// The point of the Profile-Max-chosen mapping.
    pub profile_max_point: ExhaustivePoint,
}

/// Figure 9: exhaustive search over the data-object mappings of each
/// program (5-cycle moves), one result per workload.
///
/// A program with more than `limit` object groups is
/// [`ExhaustiveError::TooManyGroups`]; partitioner failures of the GDP
/// and Profile Max reference points are passed on.
pub fn fig9(workloads: &[Workload], limit: usize) -> Vec<Result<Scatter, ExhaustiveError>> {
    let machine = Machine::paper_2cluster(5);
    let rhop = RhopConfig::default();
    let scatters = fan_out(workloads, &[limit], |w, &limit| {
        let points = exhaustive_search(&w.program, &w.profile, &machine, &rhop, limit)?;
        let program = w.profile.apply_heap_sizes(&w.program);
        let pts = PointsTo::compute(&program);
        let access = AccessInfo::compute(&program, &pts, &w.profile);
        let groups = ObjectGroups::compute(&program, &access);
        let dp = mcpart_core::gdp_partition(
            &program,
            &w.profile,
            &access,
            &groups,
            &machine,
            &GdpConfig::default(),
        )
        .expect("GDP on enumerable benchmark");
        // The enumeration fixes the first live group on cluster 0; fold
        // GDP's mapping into the same half-space so its point lands
        // inside the enumerated bracket (RHOP itself is not
        // swap-invariant because calls pin to cluster 0, so the labeling
        // matters).
        let mut gdp_mapping = dp.group_cluster.clone();
        if let Some(&first) = groups.live_groups().first() {
            if gdp_mapping[first] == ClusterId::new(1) {
                for c in &mut gdp_mapping {
                    *c = ClusterId::new(1 - c.index());
                }
            }
        }
        let evaluate = |mapping: &[ClusterId]| {
            evaluate_mapping(&program, &w.profile, &machine, &groups, mapping, &rhop)
        };
        let gdp_point = evaluate(&gdp_mapping)?;
        let (pm_placement, _) =
            profile_max_partition(&program, &access, &w.profile, &machine, &groups, &rhop, 0.10)?;
        let pm_mapping: Vec<ClusterId> = groups
            .groups
            .iter()
            .map(|members| pm_placement.object_home[members[0]].unwrap_or(ClusterId::new(0)))
            .collect();
        let profile_max_point = evaluate(&pm_mapping)?;
        Ok(Scatter { points, gdp_point, profile_max_point })
    });
    scatters.into_iter().flatten().collect()
}

/// Renders Figure 9: every point of each program as `perf imbalance
/// moves`, then the GDP and Profile Max choices.
fn render_fig9(workloads: &[Workload], scatters: &[Result<Scatter, ExhaustiveError>]) -> String {
    let mut out = String::new();
    for (w, scatter) in workloads.iter().zip(scatters) {
        let name = &w.name;
        let fig = match scatter {
            Ok(fig) => fig,
            Err(e) => {
                out += &format!("# Figure 9 — {name}: skipped ({e})\n");
                continue;
            }
        };
        out += &format!("# Figure 9 — {name}: {} mappings\n", fig.points.len());
        out += "# columns: normalized_perf imbalance dynamic_moves\n";
        let worst = fig.points.iter().map(|p| p.cycles).max().unwrap_or(1) as f64;
        let perf = |cycles: u64| worst / cycles.max(1) as f64;
        for p in &fig.points {
            out += &format!("{:.4} {:.3} {}\n", perf(p.cycles), p.imbalance, p.dynamic_moves);
        }
        let best = fig.points.iter().map(|p| p.cycles).min().unwrap_or(1) as f64;
        for (method, point) in [("GDP", &fig.gdp_point), ("Profile Max", &fig.profile_max_point)] {
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
pub fn fig10(workloads: &[Workload]) -> Table {
    let machine = Machine::paper_2cluster(5);
    let configs =
        [Method::Unified, Method::Gdp, Method::ProfileMax].map(|m| config(&machine, m, |_| {}));
    let mut t = Table::new(
        "Figure 10: dynamic intercluster move increase vs unified memory (5-cycle)",
        ["benchmark", "GDP", "Profile Max"],
    );
    let runs = fan_out(workloads, &configs, |w, c| run(w, c).dynamic_moves());
    for (w, moves) in workloads.iter().zip(runs) {
        t.push(&w.name, moves[1..].iter().map(|&m| Cell::Change(increase(m, moves[0]))));
    }
    t.average(Cell::Change)
}

/// §4.5: partitioning work per method, in RHOP estimator calls. Profile
/// Max runs the detailed computation partitioner twice; GDP and Naïve
/// once. Unlike wall time, the counts are the same on every host and at
/// every worker count.
pub fn compile_time(workloads: &[Workload]) -> Table {
    let machine = Machine::paper_2cluster(5);
    let configs =
        [Method::Gdp, Method::ProfileMax, Method::Naive].map(|m| config(&machine, m, |_| {}));
    let mut t = Table::new(
        "Section 4.5: partitioning work per method (RHOP estimator calls)",
        ["benchmark", "GDP", "Profile Max", "Naive", "PM/GDP"],
    );
    let cells = |calls: &[u64]| {
        let cells = calls.iter().map(|&n| Cell::Int(n));
        cells.chain([Cell::Times(ratio(calls[1], calls[0]))]).collect::<Vec<_>>()
    };
    let mut totals = [0; 3];
    let runs = fan_out(workloads, &configs, |w, c| run(w, c).rhop_stats.estimator_calls);
    for (w, calls) in workloads.iter().zip(runs) {
        totals.iter_mut().zip(&calls).for_each(|(total, n)| *total += n);
        t.push(&w.name, cells(&calls));
    }
    t.summary = Some(("total".to_string(), cells(&totals)));
    t
}

/// §4.3: GDP cycles and data-size skew as the METIS balance tolerance
/// loosens, one table per program (5-cycle moves).
pub fn ablation_balance(workloads: &[Workload], tolerances: &[f64]) -> Vec<Table> {
    let machine = Machine::paper_2cluster(5);
    let configs: Vec<Config> = tolerances
        .iter()
        .map(|&eps| config(&machine, Method::Gdp, |cfg| cfg.gdp.imbalance = eps))
        .collect();
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        let total: u64 = r.data_bytes.iter().sum();
        let heaviest = r.data_bytes.iter().copied().max().unwrap_or(0);
        (r.cycles(), if total == 0 { 0.5 } else { ratio(heaviest, total) })
    });
    let tables = workloads.iter().zip(runs).map(|(w, points)| {
        let mut t = Table::new(
            format!("Balance sweep — {}", w.name),
            ["tolerance", "GDP cycles", "byte skew (max fraction)"],
        );
        for (eps, (cycles, skew)) in tolerances.iter().zip(points) {
            t.push(format!("{eps:.2}"), [Cell::Int(cycles), Cell::Ratio(skew)]);
        }
        t
    });
    tables.collect()
}

/// Cluster-count scaling beyond the paper's 2-cluster machine: GDP
/// relative to unified on the same machine (5-cycle moves).
pub fn ablation_clusters(workloads: &[Workload], cluster_counts: &[usize]) -> Table {
    let configs: Vec<Config> = cluster_counts
        .iter()
        .flat_map(|&n| {
            let machine = Machine::homogeneous(n, 5);
            [Method::Unified, Method::Gdp].map(|m| config(&machine, m, |_| {}))
        })
        .collect();
    let headers = cluster_counts.iter().map(|n| format!("{n} clusters"));
    let mut t = Table::new(
        "Cluster scaling: GDP perf relative to unified (5-cycle moves)",
        std::iter::once("benchmark".to_string()).chain(headers),
    );
    for (w, runs) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        t.push(&w.name, runs.chunks(2).map(|c| Cell::Ratio(ratio(c[0], c[1]))));
    }
    t
}

/// Move placement: GDP with per-use-block transfers vs profile-guided
/// producer-side hoisting (5-cycle moves).
pub fn ablation_hoist(workloads: &[Workload]) -> Table {
    use mcpart_sched::MoveStrategy;
    let machine = Machine::paper_2cluster(5);
    let configs = [MoveStrategy::PerUseBlock, MoveStrategy::ProfileHoisted]
        .map(|strategy| config(&machine, Method::Gdp, |cfg| cfg.move_strategy = strategy));
    let mut t = Table::new(
        "Move hoisting: GDP cycles and dynamic moves (5-cycle latency)",
        ["benchmark", "cycles/block", "cycles/hoisted", "delta", "moves/block", "moves/hoisted"],
    );
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        (r.cycles(), r.dynamic_moves())
    });
    for (w, r) in workloads.iter().zip(runs) {
        let [(block, block_moves), (hoisted, hoisted_moves)] = [r[0], r[1]];
        t.push(
            &w.name,
            [
                Cell::Int(block),
                Cell::Int(hoisted),
                Cell::Change(increase(hoisted, block)),
                Cell::Int(block_moves),
                Cell::Int(hoisted_moves),
            ],
        );
    }
    t
}

/// §3.3.1: GDP with the rejected dependent-operation merging, and with
/// dynamic operation weight as a second balance constraint, relative to
/// unified (5-cycle moves).
pub fn ablation_merge(workloads: &[Workload]) -> Table {
    let machine = Machine::paper_2cluster(5);
    let configs = [
        config(&machine, Method::Unified, |_| {}),
        config(&machine, Method::Gdp, |_| {}),
        config(&machine, Method::Gdp, |cfg| cfg.gdp.merge_dependent_ops = true),
        config(&machine, Method::Gdp, |cfg| cfg.gdp.balance_ops = true),
    ];
    let mut t = Table::new(
        "Ablation 3.3.1: GDP coarsening variants (perf relative to unified, 5-cycle)",
        ["benchmark", "GDP default", "+dependent-op merge", "+op balance"],
    );
    for (w, c) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        t.push(&w.name, c[1..].iter().map(|&x| Cell::Ratio(ratio(c[0], x))));
    }
    t
}

/// Scalar pre-optimization (DCE/CSE/copy-prop/const-fold) before
/// partitioning: op counts, and GDP relative to the matching unified
/// run (5-cycle moves).
pub fn ablation_opt(workloads: &[Workload]) -> Table {
    let machine = Machine::paper_2cluster(5);
    let configs: Vec<Config> = [false, true]
        .into_iter()
        .flat_map(|pre| {
            [Method::Unified, Method::Gdp]
                .map(|m| config(&machine, m, |cfg| cfg.pre_optimize = pre))
        })
        .collect();
    let mut t = Table::new(
        "Pre-optimization: op counts and GDP perf vs unified (5-cycle)",
        ["benchmark", "raw ops", "opt ops", "shrink", "GDP raw", "GDP opt"],
    );
    for (w, c) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        let raw = w.program.num_ops() as u64;
        let mut optimized = w.profile.apply_heap_sizes(&w.program);
        mcpart_ir::optimize(&mut optimized);
        let opt = optimized.num_ops() as u64;
        t.push(
            &w.name,
            [
                Cell::Int(raw),
                Cell::Int(opt),
                Cell::WholePercent(1.0 - ratio(opt, raw)),
                Cell::Ratio(ratio(c[0], c[1])),
                Cell::Ratio(ratio(c[2], c[3])),
            ],
        );
    }
    t
}

/// RHOP region scope: GDP relative to unified with per-block regions
/// (plus live-in sweeps), loop nests and whole functions; both sides use
/// the same scope (5-cycle moves).
pub fn ablation_regions(workloads: &[Workload]) -> Table {
    use mcpart_core::RegionScope;
    let machine = Machine::paper_2cluster(5);
    let configs: Vec<Config> =
        [RegionScope::PerBlock, RegionScope::LoopNests, RegionScope::WholeFunction]
            .into_iter()
            .flat_map(|scope| {
                [Method::Unified, Method::Gdp]
                    .map(|m| config(&machine, m, |cfg| cfg.rhop.region_scope = scope))
            })
            .collect();
    let mut t = Table::new(
        "Region scope: GDP perf relative to unified (5-cycle)",
        ["benchmark", "per-block", "loop nests", "whole function"],
    );
    for (w, runs) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        t.push(&w.name, runs.chunks(2).map(|c| Cell::Ratio(ratio(c[0], c[1]))));
    }
    t
}

/// Extension (the paper's §2 middle ground, §5 future work): GDP under
/// coherent per-cluster caches at each remote-access penalty, and under
/// fully partitioned memory, relative to unified (5-cycle moves); the
/// last column is the dynamic remote accesses per penalty.
pub fn ext_cache(workloads: &[Workload], penalties: &[u32]) -> Table {
    let base = Machine::paper_2cluster(5);
    let configs: Vec<Config> = [Method::Unified, Method::Gdp]
        .map(|m| config(&base, m, |_| {}))
        .into_iter()
        .chain(penalties.iter().map(|&p| {
            config(&Machine::paper_2cluster(5).with_coherent_cache(p), Method::Gdp, |_| {})
        }))
        .collect();
    let headers = penalties.iter().map(|p| format!("coh p={p}"));
    let mut t = Table::new(
        "Coherent-cache extension: GDP perf relative to unified (5-cycle moves)",
        ["benchmark".to_string(), "partitioned".to_string()]
            .into_iter()
            .chain(headers)
            .chain(["remote accesses".to_string()]),
    );
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        (r.cycles(), r.report.dynamic_remote_accesses)
    });
    for (w, r) in workloads.iter().zip(runs) {
        let unified = r[0].0;
        let rels = r[1..].iter().map(|&(cycles, _)| Cell::Ratio(ratio(unified, cycles)));
        let remote: Vec<String> = r[2..].iter().map(|(_, remote)| remote.to_string()).collect();
        t.push(&w.name, rels.chain([Cell::Text(remote.join("/"))]));
    }
    t
}

/// Extension: GDP on an asymmetric 2-cluster machine whose cluster 0 has
/// 3× the memory capacity (balance target 3:1) and a wider FU mix. The
/// columns are the share of data bytes homed on the big cluster, and
/// the speed relative to GDP on the homogeneous paper machine (> 1: the
/// asymmetric machine is faster).
pub fn ext_hetero(workloads: &[Workload]) -> Table {
    use mcpart_machine::{Cluster, FuMix, Interconnect, LatencyTable, MemoryModel};
    let hetero = Machine {
        clusters: vec![
            Cluster::new("big", FuMix::new(3, 1, 2, 1)).with_memory_weight(3),
            Cluster::new("small", FuMix::new(2, 1, 1, 1)).with_memory_weight(1),
        ],
        interconnect: Interconnect::bus(5),
        memory: MemoryModel::Partitioned,
        latency: LatencyTable::itanium_like(),
    };
    let configs = [hetero, Machine::paper_2cluster(5)].map(|m| config(&m, Method::Gdp, |_| {}));
    let mut t = Table::new(
        "Heterogeneous machine: data share on the big cluster; speed vs homogeneous GDP",
        ["benchmark", "big-cluster data", "vs homogeneous"],
    );
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        (r.cycles(), ratio(r.data_bytes[0], r.data_bytes.iter().sum()))
    });
    for (w, r) in workloads.iter().zip(runs) {
        let [(hetero, big_share), (homogeneous, _)] = [r[0], r[1]];
        t.push(&w.name, [Cell::Percent(big_share), Cell::Ratio(ratio(homogeneous, hetero))]);
    }
    t
}

/// Extension: register-file pressure. A 2-cluster machine doubles the
/// register capacity of a monolithic design with the same per-file
/// size; each cell is the profile-weighted spill cycles of GDP's
/// distributed placement / of everything on one cluster, as the
/// per-cluster file shrinks (5-cycle moves).
pub fn ext_regfile(workloads: &[Workload], sizes: &[u32]) -> Table {
    use mcpart_sched::{register_pressure, Placement};
    let configs: Vec<Config> = sizes
        .iter()
        .map(|&size| {
            let mut machine = Machine::paper_2cluster(5);
            for c in &mut machine.clusters {
                c.regfile_size = size;
            }
            config(&machine, Method::Gdp, |_| {})
        })
        .collect();
    let headers = sizes.iter().map(|size| format!("rf={size}"));
    let mut t = Table::new(
        "Register pressure: spill cycles, GDP-distributed / centralized (per RF size)",
        std::iter::once("benchmark".to_string()).chain(headers),
    );
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        let spills = |placement: &Placement| {
            register_pressure(&r.program, placement, &c.0, &w.profile).spill_cycles
        };
        let packed = Placement::all_on_cluster0(&r.program);
        Cell::Text(format!("{}/{}", spills(&r.placement), spills(&packed)))
    });
    for (w, cells) in workloads.iter().zip(runs) {
        t.push(&w.name, cells);
    }
    t
}

/// Extension: software pipelining. GDP relative to unified with flat
/// and with modulo-scheduled loop kernels (both sides alike), and the
/// cycle reduction pipelining gives GDP (5-cycle moves).
pub fn ext_swp(workloads: &[Workload]) -> Table {
    let machine = Machine::paper_2cluster(5);
    let configs: Vec<Config> = [false, true]
        .into_iter()
        .flat_map(|swp| {
            [Method::Unified, Method::Gdp]
                .map(|m| config(&machine, m, |cfg| cfg.software_pipelining = swp))
        })
        .collect();
    let mut t = Table::new(
        "Software pipelining: GDP vs unified, flat and pipelined (5-cycle)",
        ["benchmark", "GDP rel (flat)", "GDP rel (piped)", "SWP speedup"],
    );
    for (w, c) in workloads.iter().zip(fan_out(workloads, &configs, cycles)) {
        let [uni_flat, gdp_flat, uni_piped, gdp_piped] = [c[0], c[1], c[2], c[3]];
        t.push(
            &w.name,
            [
                Cell::Ratio(ratio(uni_flat, gdp_flat)),
                Cell::Ratio(ratio(uni_piped, gdp_piped)),
                Cell::Times(ratio(gdp_flat, gdp_piped)),
            ],
        );
    }
    t
}

/// §2 background (after Terechko et al., cited by the paper): the share
/// of the Naïve method's dynamic intercluster moves that serve data
/// accesses (they forward a load result or feed a memory operation)
/// rather than computation, and Naïve's cycle overhead over unified
/// (5-cycle moves).
pub fn ext_terechko(workloads: &[Workload]) -> Table {
    use mcpart_ir::{DefUse, Opcode};
    use mcpart_sched::{is_intercluster_move, vreg_homes};
    let machine = Machine::paper_2cluster(5);
    let configs = [Method::Naive, Method::Unified].map(|m| config(&machine, m, |_| {}));
    let mut t = Table::new(
        "Data-related share of Naive intercluster moves (5-cycle latency)",
        ["benchmark", "data moves", "cycle overhead"],
    );
    // The share is only reported for the Naïve run.
    let runs = fan_out(workloads, &configs, |w, c| {
        let r = run(w, c);
        let (mut data_moves, mut all_moves) = (0, 0);
        for (fid, f) in r.program.functions.iter() {
            let homes = vreg_homes(&r.program, fid, &r.placement);
            let du = DefUse::compute(f);
            for (oid, op) in f.ops.iter() {
                if !is_intercluster_move(&r.program, fid, oid, &r.placement, &homes) {
                    continue;
                }
                let freq = w.profile.op_freq(&r.program, fid, oid);
                all_moves += freq;
                let from_load =
                    du.defs[op.srcs[0]].iter().any(|&d| matches!(f.ops[d].opcode, Opcode::Load(_)));
                let to_mem = du.uses[op.dsts[0]].iter().any(|&u| f.ops[u].opcode.is_memory());
                if from_load || to_mem {
                    data_moves += freq;
                }
            }
        }
        (r.cycles(), ratio(data_moves, all_moves))
    });
    for (w, r) in workloads.iter().zip(runs) {
        let [(naive, data_share), (unified, _)] = [r[0], r[1]];
        t.push(&w.name, [Cell::Percent(data_share), Cell::Percent(ratio(naive, unified) - 1.0)]);
    }
    t.average(Cell::Percent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", ["bench", "value"]);
        t.push("rawcaudio", [Cell::Ratio(1.0)]);
        t.push("fft", [Cell::Ratio(0.95)]);
        let t = t.average(Cell::Ratio);
        let text = t.to_string();
        assert!(text.contains("Demo"));
        assert!(text.contains("rawcaudio"));
        assert!(text.contains(" average   | 0.975 "), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        // header/sep/rows aligned to the same width.
        assert_eq!(lines[1].len(), lines[2].len());
        assert_eq!(t.column("value"), [1.0, 0.95]);
        assert_eq!(t.get("average", "value"), Some(0.975));
        assert_eq!(t.get("average", "bench"), None);
    }

    #[test]
    fn formatters() {
        assert_eq!(Cell::Percent(0.956).to_string(), "95.6%");
        assert_eq!(Cell::Ratio(1.23456).to_string(), "1.235");
        assert_eq!(Cell::WholePercent(0.278).to_string(), "28%");
        assert_eq!(Cell::Change(4.44).to_string(), "+4.4%");
        assert_eq!(Cell::Times(2.071).to_string(), "2.07x");
        assert_eq!(Cell::Int(4333).to_string(), "4333");
    }
}
