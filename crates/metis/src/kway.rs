//! The multilevel k-way driver.

use crate::balance::BalanceModel;
use crate::coarsen::{coarsen_once, default_max_vwgt, CoarseLevel, CoarsenWorkspace};
use crate::error::{Fuel, MetisError};
use crate::graph::Graph;
use crate::initial::initial_partition;
use crate::refine::{rebalance, refine};
use mcpart_rng::rngs::SmallRng;
use mcpart_rng::SeedableRng;

/// Configuration of a k-way partitioning run.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Number of parts.
    pub nparts: usize,
    /// Allowed relative imbalance ε: a part may weigh up to
    /// `target × (1 + ε)` in each constraint. The paper's data
    /// partitioner defaults to 10%.
    pub imbalance: f64,
    /// Per-part target fractions. `None` means uniform. Used to model
    /// clusters with unequal memory capacities.
    pub target_fractions: Option<Vec<f64>>,
    /// RNG seed (the partitioner is fully deterministic given a seed).
    pub seed: u64,
    /// Stop coarsening at roughly this many vertices.
    pub coarsen_to: usize,
    /// Initial-partition restarts at the coarsest level.
    pub initial_tries: usize,
    /// Refinement passes per uncoarsening level.
    pub refine_passes: usize,
    /// Total refinement work budget (boundary-vertex evaluations plus
    /// rebalance rounds) across the whole run. `None` = unlimited.
    /// Exhausting it yields [`MetisError::BudgetExceeded`].
    pub fuel: Option<u64>,
    /// Worker threads for the initial-partition restarts: `1` =
    /// sequential, `0` = all available cores. Results are identical for
    /// every value (restarts run on independent derived RNG streams and
    /// reduce in try order); with a finite [`PartitionConfig::fuel`]
    /// the restarts stay sequential so the exhaustion point is exact.
    pub jobs: usize,
    /// Observability sink; the default records nothing.
    pub obs: mcpart_obs::Obs,
}

impl PartitionConfig {
    /// A sensible default for `nparts` parts: 10% imbalance, 4
    /// restarts, 8 refinement passes.
    pub fn new(nparts: usize) -> Self {
        PartitionConfig {
            nparts,
            imbalance: 0.10,
            target_fractions: None,
            seed: 0x5eed,
            coarsen_to: (nparts * 16).max(32),
            initial_tries: 4,
            refine_passes: 8,
            fuel: None,
            jobs: 1,
            obs: mcpart_obs::Obs::disabled(),
        }
    }

    /// Sets the imbalance tolerance.
    pub fn with_imbalance(mut self, eps: f64) -> Self {
        self.imbalance = eps;
        self
    }

    /// Sets per-part target fractions (they are normalized internally).
    pub fn with_target_fractions(mut self, fractions: Vec<f64>) -> Self {
        self.target_fractions = Some(fractions);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the refinement fuel budget (`None` = unlimited).
    pub fn with_fuel(mut self, fuel: Option<u64>) -> Self {
        self.fuel = fuel;
        self
    }

    /// Sets the worker-thread count for initial-partition restarts
    /// (`0` = all available cores; never changes results).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Attaches an observability sink ([`partition`] records a span
    /// with coarsening/cut/fuel statistics into it).
    pub fn with_obs(mut self, obs: mcpart_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Checks the configuration against a concrete graph.
    fn validate(&self, graph: &Graph) -> Result<(), MetisError> {
        let invalid = |message: String| MetisError::InvalidConfig { message };
        if self.nparts == 0 {
            return Err(invalid("nparts must be positive".into()));
        }
        if !self.imbalance.is_finite() || self.imbalance < 0.0 {
            return Err(invalid(format!("imbalance {} must be finite and >= 0", self.imbalance)));
        }
        if let Some(fractions) = &self.target_fractions {
            if fractions.len() != self.nparts {
                return Err(invalid(format!(
                    "{} target fractions given for {} parts",
                    fractions.len(),
                    self.nparts
                )));
            }
            if fractions.iter().any(|f| !f.is_finite() || *f <= 0.0) {
                return Err(invalid("target fractions must be finite and positive".into()));
            }
        }
        let _ = graph;
        Ok(())
    }
}

/// The result of a partitioning run.
#[derive(Clone, PartialEq, Debug)]
pub struct Partitioning {
    /// Part of each vertex.
    pub assignment: Vec<u32>,
    /// Total weight of cut edges.
    pub cut: u64,
    /// Flat per-part, per-constraint weights
    /// (`part_weights[p * ncon + c]`).
    pub part_weights: Vec<u64>,
    /// Whether every part is within its balance limit.
    pub balanced: bool,
}

impl Partitioning {
    /// Maximum over parts/constraints of `weight / ideal` (1.0 =
    /// perfectly balanced). Useful for reporting.
    pub fn max_overweight(&self, graph: &Graph, config: &PartitionConfig) -> f64 {
        let balance = make_balance(graph, config);
        balance.max_overweight(&self.part_weights)
    }
}

fn make_balance(graph: &Graph, config: &PartitionConfig) -> BalanceModel {
    match &config.target_fractions {
        Some(f) => BalanceModel::new(graph, config.nparts, f, config.imbalance),
        None => BalanceModel::uniform(graph, config.nparts, config.imbalance),
    }
}

/// Partitions `graph` into `config.nparts` parts, minimizing edge cut
/// subject to multi-constraint balance — a reimplementation of the
/// multilevel k-way scheme of METIS used by the paper's data
/// partitioner.
///
/// # Errors
///
/// Returns [`MetisError::InvalidConfig`] for an unusable configuration
/// (zero parts, malformed target fractions, non-finite imbalance) and
/// [`MetisError::BudgetExceeded`] when `config.fuel` ran out before
/// refinement converged.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Result<Partitioning, MetisError> {
    config.validate(graph)?;
    let clock = std::time::Instant::now();
    let n = graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut fuel = Fuel::from_limit(config.fuel);

    if config.nparts == 1 || n <= 1 {
        let assignment = vec![0u32; n];
        let result = finish(graph, config, assignment);
        record_partition(config, clock, n, 0, n, 0, &result);
        return Ok(result);
    }

    // Coarsening phase. The finest graph is borrowed, never cloned:
    // each level owns its coarse graph and the driver looks at
    // `levels.last()` for the current finest-so-far.
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut ws = CoarsenWorkspace::default();
    loop {
        let current = levels.last().map_or(graph, |l| &l.graph);
        if current.num_vertices() <= config.coarsen_to {
            break;
        }
        let cap = default_max_vwgt(current, config.nparts.max(2) * 4);
        match coarsen_once(current, &cap, config.jobs, &mut ws) {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    record_coarsening(config, graph, &levels);

    // Initial partition at the coarsest level.
    let coarsest_graph = levels.last().map_or(graph, |l| &l.graph);
    let coarse_balance = make_balance(coarsest_graph, config);
    let mut assignment = initial_partition(
        coarsest_graph,
        &coarse_balance,
        config.initial_tries,
        config.jobs,
        &mut fuel,
        &mut rng,
    );

    // Uncoarsening with refinement. Level `idx` refines on the graph one
    // step finer: the original graph for the first stored level,
    // otherwise the previous level's coarse graph.
    for idx in (0..levels.len()).rev() {
        let fine_graph = if idx == 0 { graph } else { &levels[idx - 1].graph };
        let mut fine_assignment = vec![0u32; fine_graph.num_vertices()];
        for (fine_v, &coarse_v) in levels[idx].map.iter().enumerate() {
            fine_assignment[fine_v] = assignment[coarse_v as usize];
        }
        let balance = make_balance(fine_graph, config);
        let mut pw = fine_graph.part_weights(&fine_assignment, config.nparts);
        rebalance(fine_graph, &mut fine_assignment, &balance, &mut pw, &mut fuel, &mut rng);
        refine(
            fine_graph,
            &mut fine_assignment,
            &balance,
            &mut pw,
            config.refine_passes,
            &mut fuel,
            &mut rng,
        );
        assignment = fine_assignment;
    }

    // Final polish on the original graph (also covers the no-coarsening
    // path).
    let balance = make_balance(graph, config);
    let mut pw = graph.part_weights(&assignment, config.nparts);
    rebalance(graph, &mut assignment, &balance, &mut pw, &mut fuel, &mut rng);
    refine(graph, &mut assignment, &balance, &mut pw, config.refine_passes, &mut fuel, &mut rng);
    if fuel.is_exhausted() {
        return Err(MetisError::BudgetExceeded { limit: config.fuel.unwrap_or(0) });
    }
    let coarsest = levels.last().map_or(n, |l| l.graph.num_vertices());
    let result = finish(graph, config, assignment);
    record_partition(config, clock, n, levels.len(), coarsest, fuel.spent(), &result);
    Ok(result)
}

/// Records the coarsening trajectory: level count, matched fraction
/// per level (in thousandths), and the peak resident graph bytes (the
/// original CSR plus every coarse level, since all levels stay live
/// through uncoarsening).
fn record_coarsening(config: &PartitionConfig, graph: &Graph, levels: &[CoarseLevel]) {
    if !config.obs.is_enabled() {
        return;
    }
    config.obs.counter("metis", "coarsen_levels", levels.len() as i64);
    let mut fine_n = graph.num_vertices();
    let mut peak = graph.csr_bytes();
    for (i, level) in levels.iter().enumerate() {
        let coarse_n = level.graph.num_vertices();
        let matched = 2 * fine_n.saturating_sub(coarse_n);
        config.obs.counter_args(
            "metis",
            "matched_frac_x1000",
            (matched * 1000 / fine_n.max(1)) as i64,
            &[("level", i as i64)],
        );
        peak += level.graph.csr_bytes();
        fine_n = coarse_n;
    }
    config.obs.counter("metis", "peak_graph_bytes", peak as i64);
}

/// Records the whole run as one `metis/partition` span: coarsening
/// shape, final cut and balance, fuel consumed.
fn record_partition(
    config: &PartitionConfig,
    clock: std::time::Instant,
    vertices: usize,
    levels: usize,
    coarsest: usize,
    fuel_spent: u64,
    result: &Partitioning,
) {
    config.obs.span_args(
        "metis",
        "partition",
        clock,
        &[
            ("vertices", vertices as i64),
            ("levels", levels as i64),
            ("coarsest_vertices", coarsest as i64),
            ("cut", result.cut as i64),
            ("balanced", result.balanced as i64),
            ("fuel_spent", fuel_spent as i64),
        ],
    );
}

fn finish(graph: &Graph, config: &PartitionConfig, assignment: Vec<u32>) -> Partitioning {
    let balance = make_balance(graph, config);
    let part_weights = graph.part_weights(&assignment, config.nparts);
    let cut = graph.edge_cut(&assignment);
    let balanced = balance.is_balanced(&part_weights);
    Partitioning { assignment, cut, part_weights, balanced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn grid(w: usize, h: usize) -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..w * h {
            b.add_vertex(&[1]);
        }
        for y in 0..h {
            for x in 0..w {
                let v = (y * w + x) as u32;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w as u32, 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn partition_records_an_obs_span() {
        let g = grid(8, 8);
        let obs = mcpart_obs::Obs::enabled();
        let cfg = PartitionConfig::new(2).with_obs(obs.clone());
        let result = partition(&g, &cfg).expect("partitions");
        let events = obs.events();
        let e = events
            .iter()
            .find(|e| e.cat == "metis" && e.name == "partition")
            .expect("one span for the whole run");
        let arg = |k: &str| e.args.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
        assert_eq!(arg("vertices"), Some(64));
        assert_eq!(arg("cut"), Some(result.cut as i64));
        assert_eq!(arg("balanced"), Some(result.balanced as i64));
        // The coarsening trajectory counters ride along.
        let counter = |name: &str| {
            events.iter().rev().find_map(|e| match e.kind {
                mcpart_obs::EventKind::Counter(v) if e.cat == "metis" && e.name == name => Some(v),
                _ => None,
            })
        };
        let levels = counter("coarsen_levels").expect("levels counter");
        assert!(levels >= 1, "levels = {levels}");
        let peak = counter("peak_graph_bytes").expect("peak counter");
        assert!(peak >= g.csr_bytes() as i64, "peak = {peak}");
        let frac = counter("matched_frac_x1000").expect("matched fraction");
        assert!((0..=1000).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn bisects_large_grid_well() {
        let g = grid(16, 16);
        let result = partition(&g, &PartitionConfig::new(2)).expect("partitions");
        assert!(result.balanced, "{:?}", result.part_weights);
        // Optimal bisection of a 16x16 grid cuts 16 edges.
        assert!(result.cut <= 24, "cut = {}", result.cut);
        assert_eq!(result.assignment.len(), 256);
    }

    #[test]
    fn four_way_partition_of_grid() {
        let g = grid(16, 16);
        let result = partition(&g, &PartitionConfig::new(4)).expect("partitions");
        assert!(result.balanced, "{:?}", result.part_weights);
        assert!(result.cut <= 56, "cut = {}", result.cut);
        for p in 0..4u32 {
            assert!(result.assignment.contains(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid(10, 10);
        let cfg = PartitionConfig::new(2).with_seed(99);
        let a = partition(&g, &cfg).expect("partitions");
        let b = partition(&g, &cfg).expect("partitions");
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn zero_parts_is_typed_error() {
        let g = grid(3, 3);
        let e = partition(&g, &PartitionConfig::new(0)).unwrap_err();
        assert!(matches!(e, MetisError::InvalidConfig { .. }), "{e}");
    }

    #[test]
    fn bad_target_fractions_are_typed_errors() {
        let g = grid(3, 3);
        let cfg = PartitionConfig::new(2).with_target_fractions(vec![1.0]);
        assert!(matches!(partition(&g, &cfg).unwrap_err(), MetisError::InvalidConfig { .. }));
        let cfg = PartitionConfig::new(2).with_target_fractions(vec![1.0, -2.0]);
        assert!(matches!(partition(&g, &cfg).unwrap_err(), MetisError::InvalidConfig { .. }));
        let cfg = PartitionConfig::new(2).with_imbalance(f64::NAN);
        assert!(matches!(partition(&g, &cfg).unwrap_err(), MetisError::InvalidConfig { .. }));
    }

    #[test]
    fn tiny_fuel_budget_is_typed_error() {
        let g = grid(16, 16);
        let cfg = PartitionConfig::new(2).with_fuel(Some(3));
        let e = partition(&g, &cfg).unwrap_err();
        assert!(matches!(e, MetisError::BudgetExceeded { limit: 3 }), "{e}");
    }

    #[test]
    fn generous_fuel_budget_succeeds() {
        let g = grid(8, 8);
        let cfg = PartitionConfig::new(2).with_fuel(Some(1_000_000));
        let result = partition(&g, &cfg).expect("enough fuel");
        assert!(result.balanced);
    }

    #[test]
    fn single_part_trivial() {
        let g = grid(3, 3);
        let result = partition(&g, &PartitionConfig::new(1)).expect("partitions");
        assert_eq!(result.cut, 0);
        assert!(result.assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(1).build();
        let result = partition(&g, &PartitionConfig::new(2)).expect("partitions");
        assert!(result.assignment.is_empty());
        assert_eq!(result.cut, 0);
    }

    #[test]
    fn weighted_targets_shift_weight() {
        let g = grid(8, 8);
        let cfg =
            PartitionConfig::new(2).with_target_fractions(vec![3.0, 1.0]).with_imbalance(0.05);
        let result = partition(&g, &cfg).expect("partitions");
        let w0 = result.part_weights[0];
        let w1 = result.part_weights[1];
        assert!(w0 > w1 * 2, "w0={w0} w1={w1}");
    }

    #[test]
    fn weighted_fractions_and_multiconstraint_combine() {
        // Constraint 0 heavy on a few vertices, constraint 1 uniform,
        // 2:1 target fractions: both constraints respect the skew.
        let mut b = GraphBuilder::new(2);
        for i in 0..30u32 {
            let heavy = if i % 5 == 0 { 60 } else { 0 };
            b.add_vertex(&[heavy, 1]);
        }
        for i in 0..29u32 {
            b.add_edge(i, i + 1, 2);
        }
        let g = b.build();
        let cfg =
            PartitionConfig::new(2).with_target_fractions(vec![2.0, 1.0]).with_imbalance(0.25);
        let result = partition(&g, &cfg).expect("partitions");
        assert!(result.balanced, "{:?}", result.part_weights);
        // Part 0 should carry roughly twice of each constraint
        // (ncon = 2: constraint 1 of part p lives at `p * 2 + 1`).
        assert!(result.part_weights[1] > result.part_weights[3]);
    }

    #[test]
    fn zero_weight_vertices_follow_the_cut() {
        // Vertices with zero weight in all constraints are placed purely
        // by cut minimization.
        let mut b = GraphBuilder::new(1);
        let a = b.add_vertex(&[10]);
        let c = b.add_vertex(&[10]);
        let free = b.add_vertex(&[0]);
        b.add_edge(a, free, 100); // free wants to sit with a
        b.add_edge(free, c, 1);
        let g = b.build();
        let result = partition(&g, &PartitionConfig::new(2)).expect("partitions");
        assert_eq!(
            result.assignment[a as usize], result.assignment[free as usize],
            "zero-weight vertex should follow its heavy edge"
        );
        assert_ne!(result.assignment[a as usize], result.assignment[c as usize]);
    }

    #[test]
    fn respects_multi_constraint_balance() {
        // Constraint 0: only a few heavy vertices carry it (data size);
        // constraint 1: uniform (op count).
        let mut b = GraphBuilder::new(2);
        for i in 0..32u32 {
            let data = if i % 8 == 0 { 100 } else { 0 };
            b.add_vertex(&[data, 1]);
        }
        for i in 0..31u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.build();
        let result =
            partition(&g, &PartitionConfig::new(2).with_imbalance(0.3)).expect("partitions");
        assert!(result.balanced, "{:?}", result.part_weights);
        // Both heavy-data parts get some of the 4 heavy vertices
        // (ncon = 2: constraint 0 of part p lives at `p * 2`).
        assert!(result.part_weights[0] > 0);
        assert!(result.part_weights[2] > 0);
    }
}
