//! The experiment implementations behind every table and figure of the
//! paper. Each function returns structured results; [`crate::figures`]
//! renders them into the committed `results/*.txt` and EXPERIMENTS.md
//! records them.
//!
//! Every experiment fans its independent pipeline runs out over the
//! process-default worker pool ([`mcpart_par::default_jobs`], the
//! host's parallelism). Each run is a pure function of its (workload,
//! method, machine) inputs and the results are reduced in input order,
//! so the numbers are identical at every worker count.

use mcpart_analysis::{AccessInfo, PointsTo};
use mcpart_core::{
    evaluate_mapping, exhaustive_search, profile_max_partition, run_pipeline, ExhaustiveError,
    ExhaustivePoint, GdpConfig, Method, ObjectGroups, PipelineConfig, PipelineResult, RhopConfig,
};
use mcpart_ir::ClusterId;
use mcpart_machine::Machine;
use mcpart_workloads::Workload;

/// Result of one (benchmark, method, latency) pipeline run, reduced to
/// the metrics the figures plot.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Dynamic cycles.
    pub cycles: u64,
    /// Dynamic intercluster moves.
    pub dynamic_moves: u64,
    /// RHOP estimator calls: the partitioning work, independent of the
    /// host and the worker count.
    pub estimator_calls: u64,
}

/// Maps `f` over the workloads on the process-default worker pool,
/// preserving workload order.
fn par_workloads<R, F>(workloads: &[Workload], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Workload) -> R + Sync,
{
    mcpart_par::parallel_map(mcpart_par::default_jobs(), workloads, |_, w| f(w))
}

/// Runs the whole pipeline on `w` under `method`'s default
/// configuration with `tweak` applied.
fn run(
    w: &Workload,
    machine: &Machine,
    method: Method,
    tweak: impl FnOnce(&mut PipelineConfig),
) -> PipelineResult {
    let mut cfg = PipelineConfig::new(method);
    tweak(&mut cfg);
    run_pipeline(&w.program, &w.profile, machine, &cfg).expect("pipeline")
}

fn run_method(w: &Workload, machine: &Machine, method: Method) -> MethodResult {
    let r = run(w, machine, method, |_| {});
    MethodResult {
        cycles: r.cycles(),
        dynamic_moves: r.dynamic_moves(),
        estimator_calls: r.rhop_stats.estimator_calls,
    }
}

/// Figure 2: percentage increase in cycles of the Naïve data placement
/// over the unified-memory model at each intercluster move latency.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Percent cycle increase per latency (aligned with the input
    /// latency list).
    pub increase_pct: Vec<f64>,
}

/// Runs the Figure 2 experiment.
pub fn fig2(workloads: &[Workload], latencies: &[u32]) -> Vec<Fig2Row> {
    par_workloads(workloads, |w| {
        let increase_pct = latencies
            .iter()
            .map(|&lat| {
                let machine = Machine::paper_2cluster(lat);
                let naive = run_method(w, &machine, Method::Naive);
                let unified = run_method(w, &machine, Method::Unified);
                (naive.cycles as f64 / unified.cycles.max(1) as f64 - 1.0) * 100.0
            })
            .collect();
        Fig2Row { benchmark: w.name.to_string(), increase_pct }
    })
}

/// Figures 7 / 8a / 8b: performance of GDP and Profile Max relative to
/// the unified-memory model (1.0 = parity, higher is better).
#[derive(Clone, Debug)]
pub struct Fig78Row {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP cycles relative to unified (`unified / gdp`).
    pub gdp_rel: f64,
    /// Profile Max relative performance.
    pub profile_max_rel: f64,
    /// Naive relative performance (the paper folds this into the last
    /// bar group as an average).
    pub naive_rel: f64,
}

/// Summary of a Figure 7/8 run.
#[derive(Clone, Debug)]
pub struct Fig78 {
    /// Per-benchmark rows.
    pub rows: Vec<Fig78Row>,
    /// Averages over benchmarks: (GDP, Profile Max, Naive).
    pub averages: (f64, f64, f64),
}

/// Runs the Figure 7/8 experiment at one latency.
pub fn fig7_8(workloads: &[Workload], latency: u32) -> Fig78 {
    let machine = Machine::paper_2cluster(latency);
    // Fan out at (workload × method) granularity: methods vary widely
    // in cost (GDP runs RHOP three times, Naïve once), so pair-level
    // stealing balances the pool better than whole-workload items.
    const METHODS: [Method; 4] = [Method::Unified, Method::Gdp, Method::ProfileMax, Method::Naive];
    let pairs: Vec<(usize, Method)> =
        (0..workloads.len()).flat_map(|i| METHODS.iter().map(move |&m| (i, m))).collect();
    let runs = mcpart_par::parallel_map(mcpart_par::default_jobs(), &pairs, |_, &(i, m)| {
        run_method(&workloads[i], &machine, m)
    });
    let rows: Vec<Fig78Row> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let base = i * METHODS.len();
            let (unified, gdp, pm, naive) =
                (&runs[base], &runs[base + 1], &runs[base + 2], &runs[base + 3]);
            Fig78Row {
                benchmark: w.name.to_string(),
                gdp_rel: unified.cycles as f64 / gdp.cycles.max(1) as f64,
                profile_max_rel: unified.cycles as f64 / pm.cycles.max(1) as f64,
                naive_rel: unified.cycles as f64 / naive.cycles.max(1) as f64,
            }
        })
        .collect();
    let n = rows.len().max(1) as f64;
    let averages = (
        rows.iter().map(|r| r.gdp_rel).sum::<f64>() / n,
        rows.iter().map(|r| r.profile_max_rel).sum::<f64>() / n,
        rows.iter().map(|r| r.naive_rel).sum::<f64>() / n,
    );
    Fig78 { rows, averages }
}

/// Figure 9: the exhaustive scatter plus the mappings chosen by GDP and
/// Profile Max.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// Benchmark name.
    pub benchmark: String,
    /// Every enumerated mapping.
    pub points: Vec<ExhaustivePoint>,
    /// The point of the GDP-chosen mapping.
    pub gdp_point: ExhaustivePoint,
    /// The point of the Profile-Max-chosen mapping.
    pub profile_max_point: ExhaustivePoint,
}

/// Runs the Figure 9 experiment for one benchmark.
///
/// # Errors
///
/// Returns [`ExhaustiveError::TooManyGroups`] when the benchmark has
/// too many object groups to enumerate, and propagates partitioner
/// failures from the GDP/Profile-Max reference points.
pub fn fig9(w: &Workload, limit: usize) -> Result<Fig9, ExhaustiveError> {
    let machine = Machine::paper_2cluster(5);
    let rhop = RhopConfig::default();
    let points = exhaustive_search(&w.program, &w.profile, &machine, &rhop, limit)?;

    let program = w.profile.apply_heap_sizes(&w.program);
    let pts = PointsTo::compute(&program);
    let access = AccessInfo::compute(&program, &pts, &w.profile);
    let groups = ObjectGroups::compute(&program, &access);
    // GDP mapping.
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
    // GDP's mapping into the same half-space so its point lands inside
    // the enumerated bracket (RHOP itself is not swap-invariant because
    // calls pin to cluster 0, so the labeling matters).
    let mut gdp_mapping = dp.group_cluster.clone();
    if let Some(&first) = groups.live_groups().first() {
        if gdp_mapping[first] == ClusterId::new(1) {
            for c in &mut gdp_mapping {
                *c = ClusterId::new(1 - c.index());
            }
        }
    }
    let gdp_point = evaluate_mapping(&program, &w.profile, &machine, &groups, &gdp_mapping, &rhop)?;
    // Profile Max mapping.
    let (pm_placement, _) =
        profile_max_partition(&program, &access, &w.profile, &machine, &groups, &rhop, 0.10)?;
    let pm_mapping: Vec<ClusterId> = groups
        .groups
        .iter()
        .map(|members| pm_placement.object_home[members[0]].unwrap_or(ClusterId::new(0)))
        .collect();
    let profile_max_point =
        evaluate_mapping(&program, &w.profile, &machine, &groups, &pm_mapping, &rhop)?;
    Ok(Fig9 { benchmark: w.name.to_string(), points, gdp_point, profile_max_point })
}

/// Figure 10: percentage increase in dynamic intercluster moves of GDP
/// and Profile Max over the unified-memory model at 5-cycle latency.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP move increase in percent (can be negative: fewer moves than
    /// unified).
    pub gdp_pct: f64,
    /// Profile Max move increase in percent.
    pub profile_max_pct: f64,
}

/// Runs the Figure 10 experiment.
pub fn fig10(workloads: &[Workload]) -> Vec<Fig10Row> {
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let unified = run_method(w, &machine, Method::Unified);
        let gdp = run_method(w, &machine, Method::Gdp);
        let pm = run_method(w, &machine, Method::ProfileMax);
        let base = unified.dynamic_moves.max(1) as f64;
        Fig10Row {
            benchmark: w.name.to_string(),
            gdp_pct: (gdp.dynamic_moves as f64 / base - 1.0) * 100.0,
            profile_max_pct: (pm.dynamic_moves as f64 / base - 1.0) * 100.0,
        }
    })
}

/// §4.5: compile-time comparison, measured as partitioning work — RHOP
/// estimator calls — for GDP, Profile Max and Naïve. Unlike wall time,
/// the counts are the same on every host and at every worker count.
#[derive(Clone, Debug)]
pub struct CompileTimeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP estimator calls.
    pub gdp: u64,
    /// Profile Max estimator calls (≈ two detailed runs).
    pub profile_max: u64,
    /// Naïve estimator calls.
    pub naive: u64,
}

/// Runs the compile-time experiment.
pub fn compile_time(workloads: &[Workload]) -> Vec<CompileTimeRow> {
    let machine = Machine::paper_2cluster(5);
    // (workload × method) fan-out, as in `fig7_8`.
    const METHODS: [Method; 3] = [Method::Gdp, Method::ProfileMax, Method::Naive];
    let pairs: Vec<(usize, Method)> =
        (0..workloads.len()).flat_map(|i| METHODS.iter().map(move |&m| (i, m))).collect();
    let runs = mcpart_par::parallel_map(mcpart_par::default_jobs(), &pairs, |_, &(i, m)| {
        run_method(&workloads[i], &machine, m).estimator_calls
    });
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let base = i * METHODS.len();
            CompileTimeRow {
                benchmark: w.name.to_string(),
                gdp: runs[base],
                profile_max: runs[base + 1],
                naive: runs[base + 2],
            }
        })
        .collect()
}

/// Ablation: GDP relative performance with the rejected
/// dependent-operation merging (§3.3.1) and with dynamic operation
/// weight added as a second balance constraint.
#[derive(Clone, Debug)]
pub struct MergeAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Default GDP relative performance.
    pub default_rel: f64,
    /// With dependent-op merging.
    pub merged_rel: f64,
    /// With dynamic operation weight as a second balance constraint.
    pub op_balance_rel: f64,
}

/// Runs the merge ablation at 5-cycle latency.
pub fn ablation_merge(workloads: &[Workload]) -> Vec<MergeAblationRow> {
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let unified = run_method(w, &machine, Method::Unified).cycles as f64;
        let rel = |tweak: fn(&mut PipelineConfig)| {
            unified / run(w, &machine, Method::Gdp, tweak).cycles() as f64
        };
        MergeAblationRow {
            benchmark: w.name.to_string(),
            default_rel: rel(|_| {}),
            merged_rel: rel(|cfg| cfg.gdp.merge_dependent_ops = true),
            op_balance_rel: rel(|cfg| cfg.gdp.balance_ops = true),
        }
    })
}

/// Ablation (§4.3): sweep of the METIS balance tolerance — looser
/// balance admits better-performing but more imbalanced mappings.
#[derive(Clone, Debug)]
pub struct BalanceSweepPoint {
    /// Balance tolerance ε.
    pub imbalance: f64,
    /// GDP cycles at this tolerance.
    pub cycles: u64,
    /// Fraction of data bytes on the heavier cluster.
    pub byte_skew: f64,
}

/// Runs the balance-tolerance sweep for one benchmark.
pub fn ablation_balance(w: &Workload, tolerances: &[f64]) -> Vec<BalanceSweepPoint> {
    let machine = Machine::paper_2cluster(5);
    tolerances
        .iter()
        .map(|&eps| {
            let r = run(w, &machine, Method::Gdp, |cfg| cfg.gdp.imbalance = eps);
            let total: u64 = r.data_bytes.iter().sum();
            let byte_skew = if total == 0 {
                0.5
            } else {
                r.data_bytes.iter().copied().max().unwrap_or(0) as f64 / total as f64
            };
            BalanceSweepPoint { imbalance: eps, cycles: r.cycles(), byte_skew }
        })
        .collect()
}

/// Extension: register-file pressure. A 2-cluster machine doubles the
/// total register capacity over a monolithic design with the same
/// per-file size; this sweep reports the profile-weighted spill-penalty
/// cycles of GDP's placement as the per-cluster file shrinks.
#[derive(Clone, Debug)]
pub struct RegFileRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Spill cycles at each swept register-file size (2-cluster GDP
    /// placement), aligned with the input list.
    pub spill_cycles: Vec<u64>,
    /// Spill cycles with everything on one cluster of the same file
    /// size (the centralized strawman), per size.
    pub packed_spills: Vec<u64>,
}

/// Runs the register-pressure sweep for GDP placements (5-cycle moves).
pub fn ext_regfile(workloads: &[Workload], sizes: &[u32]) -> Vec<RegFileRow> {
    use mcpart_sched::{register_pressure, Placement};
    par_workloads(workloads, |w| {
        let mut spill_cycles = Vec::new();
        let mut packed_spills = Vec::new();
        for &size in sizes {
            let mut machine = Machine::paper_2cluster(5);
            for c in &mut machine.clusters {
                c.regfile_size = size;
            }
            let r = run(w, &machine, Method::Gdp, |_| {});
            let p = register_pressure(&r.program, &r.placement, &machine, &w.profile);
            spill_cycles.push(p.spill_cycles);
            let packed = Placement::all_on_cluster0(&r.program);
            let pp = register_pressure(&r.program, &packed, &machine, &w.profile);
            packed_spills.push(pp.spill_cycles);
        }
        RegFileRow { benchmark: w.name.to_string(), spill_cycles, packed_spills }
    })
}

/// Extension: software pipelining. Modulo-scheduling the loop kernels
/// compresses schedules for all methods; the question is whether data
/// partitioning still matters once loops are pipelined (memory-port
/// contention dominates II, so it should matter *more*).
#[derive(Clone, Debug)]
pub struct SwpRow {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP relative perf without pipelining.
    pub flat_rel: f64,
    /// GDP relative perf with pipelining (both sides pipelined).
    pub piped_rel: f64,
    /// Cycle reduction from pipelining under GDP.
    pub gdp_speedup: f64,
}

/// Runs the software-pipelining extension at 5-cycle latency.
pub fn ext_swp(workloads: &[Workload]) -> Vec<SwpRow> {
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let run4 = |method: Method, swp: bool| {
            run(w, &machine, method, |cfg| cfg.software_pipelining = swp).cycles()
        };
        let uni_flat = run4(Method::Unified, false) as f64;
        let gdp_flat = run4(Method::Gdp, false) as f64;
        let uni_piped = run4(Method::Unified, true) as f64;
        let gdp_piped = run4(Method::Gdp, true) as f64;
        SwpRow {
            benchmark: w.name.to_string(),
            flat_rel: uni_flat / gdp_flat,
            piped_rel: uni_piped / gdp_piped,
            gdp_speedup: gdp_flat / gdp_piped,
        }
    })
}

/// Extension: heterogeneous machines. GDP on a 2-cluster machine whose
/// cluster 0 has a 3× memory capacity (balance target 3:1) and a wider
/// FU mix; verifies the data split follows the capacity weights and
/// reports performance relative to the homogeneous machine's unified
/// model.
#[derive(Clone, Debug)]
pub struct HeteroRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of data bytes homed on the big cluster.
    pub big_cluster_share: f64,
    /// GDP cycles on the heterogeneous machine relative to GDP on the
    /// homogeneous paper machine (>1 = the asymmetric machine is
    /// faster).
    pub vs_homogeneous: f64,
}

/// Runs the heterogeneous-machine extension at 5-cycle latency.
pub fn ext_hetero(workloads: &[Workload]) -> Vec<HeteroRow> {
    use mcpart_machine::{Cluster, FuMix, Interconnect, LatencyTable, MemoryModel};
    let hetero = mcpart_machine::Machine {
        clusters: vec![
            Cluster::new("big", FuMix::new(3, 1, 2, 1)).with_memory_weight(3),
            Cluster::new("small", FuMix::new(2, 1, 1, 1)).with_memory_weight(1),
        ],
        interconnect: Interconnect::bus(5),
        memory: MemoryModel::Partitioned,
        latency: LatencyTable::itanium_like(),
    };
    let homo = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let h = run(w, &hetero, Method::Gdp, |_| {});
        let base = run(w, &homo, Method::Gdp, |_| {});
        let total: u64 = h.data_bytes.iter().sum();
        HeteroRow {
            benchmark: w.name.to_string(),
            big_cluster_share: h.data_bytes[0] as f64 / total.max(1) as f64,
            vs_homogeneous: base.cycles() as f64 / h.cycles() as f64,
        }
    })
}

/// §2 background experiment (after Terechko et al., cited by the
/// paper): what fraction of the Naïve method's intercluster move
/// traffic serves *data* accesses (operands of relocated memory
/// operations or forwarded load results) rather than ordinary
/// computation, and how large the naive cycle overhead is.
#[derive(Clone, Debug)]
pub struct TerechkoRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of dynamic intercluster moves that are data-related.
    pub data_move_fraction: f64,
    /// Naive cycle overhead over unified (fraction).
    pub overhead: f64,
}

/// Runs the data-vs-computation move classification for the Naïve
/// method at 5-cycle latency.
pub fn ext_terechko(workloads: &[Workload]) -> Vec<TerechkoRow> {
    use mcpart_ir::{DefUse, Opcode};
    use mcpart_sched::{is_intercluster_move, vreg_homes};
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let naive = run(w, &machine, Method::Naive, |_| {});
        let unified = run_method(w, &machine, Method::Unified);
        let program = &naive.program;
        let mut data_moves = 0u64;
        let mut all_moves = 0u64;
        for (fid, f) in program.functions.iter() {
            let homes = vreg_homes(program, fid, &naive.placement);
            let du = DefUse::compute(f);
            for (oid, op) in f.ops.iter() {
                if !is_intercluster_move(program, fid, oid, &naive.placement, &homes) {
                    continue;
                }
                let freq = w.profile.op_freq(program, fid, oid);
                all_moves += freq;
                // Data-related: forwards a load result, or feeds a
                // memory operation.
                let src = op.srcs[0];
                let from_load =
                    du.defs[src].iter().any(|&d| matches!(f.ops[d].opcode, Opcode::Load(_)));
                let dst = op.dsts[0];
                let to_mem = du.uses[dst].iter().any(|&u| f.ops[u].opcode.is_memory());
                if from_load || to_mem {
                    data_moves += freq;
                }
            }
        }
        TerechkoRow {
            benchmark: w.name.to_string(),
            data_move_fraction: data_moves as f64 / all_moves.max(1) as f64,
            overhead: naive.cycles() as f64 / unified.cycles.max(1) as f64 - 1.0,
        }
    })
}

/// Ablation: scalar pre-optimization (DCE/CSE/copy-prop/const-fold)
/// before partitioning.
#[derive(Clone, Debug)]
pub struct OptAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Operation count: (raw, optimized).
    pub ops: (usize, usize),
    /// GDP relative performance vs the *matching* unified baseline:
    /// (raw, optimized).
    pub gdp_rel: (f64, f64),
}

/// Runs the pre-optimization ablation for GDP at 5-cycle latency.
pub fn ablation_opt(workloads: &[Workload]) -> Vec<OptAblationRow> {
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let mut rels = [0.0f64; 2];
        let mut ops = [0usize; 2];
        for (i, pre) in [false, true].into_iter().enumerate() {
            let cycles = |method| run(w, &machine, method, |cfg| cfg.pre_optimize = pre).cycles();
            rels[i] = cycles(Method::Unified) as f64 / cycles(Method::Gdp) as f64;
            // Count ops before move insertion by re-optimizing a copy.
            ops[i] = if pre {
                let mut p = w.profile.apply_heap_sizes(&w.program);
                mcpart_ir::optimize(&mut p);
                p.num_ops()
            } else {
                w.program.num_ops()
            };
        }
        OptAblationRow {
            benchmark: w.name.to_string(),
            ops: (ops[0], ops[1]),
            gdp_rel: (rels[0], rels[1]),
        }
    })
}

/// Ablation: move-placement strategy — per-use-block transfers vs
/// profile-guided producer-side hoisting.
#[derive(Clone, Debug)]
pub struct HoistAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles: (per-use-block, hoisted).
    pub cycles: (u64, u64),
    /// Dynamic moves: (per-use-block, hoisted).
    pub moves: (u64, u64),
}

/// Runs the hoisting ablation for GDP at 5-cycle latency.
pub fn ablation_hoist(workloads: &[Workload]) -> Vec<HoistAblationRow> {
    use mcpart_sched::MoveStrategy;
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let mut results = Vec::new();
        for strategy in [MoveStrategy::PerUseBlock, MoveStrategy::ProfileHoisted] {
            let r = run(w, &machine, Method::Gdp, |cfg| cfg.move_strategy = strategy);
            results.push((r.cycles(), r.dynamic_moves()));
        }
        HoistAblationRow {
            benchmark: w.name.to_string(),
            cycles: (results[0].0, results[1].0),
            moves: (results[0].1, results[1].1),
        }
    })
}

/// Extension (the paper's §2 middle ground / §5 future work): GDP under
/// coherent per-cluster caches at several remote-access penalties,
/// compared to fully partitioned memory, all relative to unified.
#[derive(Clone, Debug)]
pub struct CacheExtensionRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fully partitioned relative performance.
    pub partitioned_rel: f64,
    /// Coherent-cache relative performance per penalty (aligned with
    /// the input list).
    pub coherent_rel: Vec<f64>,
    /// Dynamic remote accesses per penalty.
    pub remote_accesses: Vec<u64>,
}

/// Runs the coherent-cache extension experiment (5-cycle moves).
pub fn ext_cache(workloads: &[Workload], penalties: &[u32]) -> Vec<CacheExtensionRow> {
    par_workloads(workloads, |w| {
        let base = Machine::paper_2cluster(5);
        let unified = run_method(w, &base, Method::Unified).cycles as f64;
        let part = run_method(w, &base, Method::Gdp).cycles as f64;
        let mut coherent_rel = Vec::new();
        let mut remote_accesses = Vec::new();
        for &p in penalties {
            let machine = Machine::paper_2cluster(5).with_coherent_cache(p);
            let r = run(w, &machine, Method::Gdp, |_| {});
            coherent_rel.push(unified / r.cycles() as f64);
            remote_accesses.push(r.report.dynamic_remote_accesses);
        }
        CacheExtensionRow {
            benchmark: w.name.to_string(),
            partitioned_rel: unified / part,
            coherent_rel,
            remote_accesses,
        }
    })
}

/// Ablation: RHOP region scope (per-block + live-in sweeps vs loop
/// nests vs whole function).
#[derive(Clone, Debug)]
pub struct RegionScopeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP relative performance per scope: (per-block, loop-nests,
    /// whole-function).
    pub rel: (f64, f64, f64),
}

/// Runs the region-scope ablation at 5-cycle latency.
pub fn ablation_regions(workloads: &[Workload]) -> Vec<RegionScopeRow> {
    use mcpart_core::RegionScope;
    let machine = Machine::paper_2cluster(5);
    par_workloads(workloads, |w| {
        let mut rels = [0.0f64; 3];
        for (i, scope) in
            [RegionScope::PerBlock, RegionScope::LoopNests, RegionScope::WholeFunction]
                .into_iter()
                .enumerate()
        {
            // Both sides use the same scope for a fair comparison.
            let cycles =
                |method| run(w, &machine, method, |cfg| cfg.rhop.region_scope = scope).cycles();
            rels[i] = cycles(Method::Unified) as f64 / cycles(Method::Gdp) as f64;
        }
        RegionScopeRow { benchmark: w.name.to_string(), rel: (rels[0], rels[1], rels[2]) }
    })
}

/// Ablation: cluster-count scaling (beyond the paper's 2 clusters).
#[derive(Clone, Debug)]
pub struct ClusterScaleRow {
    /// Benchmark name.
    pub benchmark: String,
    /// GDP relative performance (vs unified on the same machine) per
    /// cluster count, aligned with the input list.
    pub gdp_rel: Vec<f64>,
}

/// Runs the cluster-scaling ablation at 5-cycle latency.
pub fn ablation_clusters(workloads: &[Workload], cluster_counts: &[usize]) -> Vec<ClusterScaleRow> {
    par_workloads(workloads, |w| {
        let gdp_rel = cluster_counts
            .iter()
            .map(|&n| {
                let machine = Machine::homogeneous(n, 5);
                let unified = run_method(w, &machine, Method::Unified);
                let gdp = run_method(w, &machine, Method::Gdp);
                unified.cycles as f64 / gdp.cycles.max(1) as f64
            })
            .collect();
        ClusterScaleRow { benchmark: w.name.to_string(), gdp_rel }
    })
}
