//! Second pass: Region-based Hierarchical Operation Partitioning
//! (RHOP, Chu/Fan/Mahlke PLDI'03) extended with data-object locking
//! (§3.4 of the CGO'06 paper).
//!
//! For each region, operations are coarsened bottom-up along
//! low-slack (high-weight) dependence edges, an initial cluster
//! assignment is made at the coarsest level, and the hierarchy is walked
//! back while greedily moving operation groups between clusters whenever
//! the schedule-length estimate improves. Memory operations whose data
//! object has a home cluster are *locked*: the estimator reports any
//! displacing assignment as infeasible, so they never move.
//!
//! ## Performance structure
//!
//! The pass is organized for speed without giving up determinism:
//!
//! * **Per-function parallelism.** Functions are independent — a
//!   function's sweeps read and write only its own operations — so they
//!   are fanned out over [`mcpart_par::parallel_map`] with one RNG
//!   stream per function ([`mcpart_rng::derive_seed`] of the config
//!   seed and the function index). Results are bit-identical for every
//!   [`RhopConfig::jobs`] value, including `1`.
//! * **Cached region contexts.** The dependence graph, estimator,
//!   locks, def-grouping and base edge weights of a region are built
//!   once ([`RegionCtx`]) and reused by all three sweeps, instead of
//!   being recomputed per sweep.
//! * **Incremental probe evaluation.** Refinement probes run through
//!   [`IncrementalEstimator`]: one scratch assignment mutated by
//!   try-move/rollback (no per-probe clone), occupancy buckets updated
//!   only for moved nodes, an exact static lower bound that prunes
//!   probes which provably cannot improve the incumbent, and a bounded
//!   simulation for the rest that stops as soon as its running lower
//!   bound rules the probe out. Most rejected probes thus never
//!   simulate to the end. Pruned probes still charge the
//!   estimator-call budget, so [`RhopConfig::max_estimator_calls`]
//!   retains its meaning. One [`EstimateWorkspace`] per function is
//!   lent to each region's evaluator in turn, so the simulation's
//!   buffers grow once per function, not once per region and sweep.
//! * **Repeat-probe memo.** Within one refinement level, a probe of
//!   group `g` on cluster `c` made again with no move committed since
//!   has the same trial, incumbent and bounds, so its recorded answer
//!   and counter deltas are replayed instead of evaluated (it still
//!   charges the budget).

use mcpart_analysis::{AccessInfo, AccessSite};
use mcpart_ir::{
    BlockId, ClusterId, EntityId, EntityMap, FuncId, ObjectId, OpId, Opcode, Profile, Program, VReg,
};
use mcpart_machine::Machine;
use mcpart_par::fault::{FaultEntry, FaultPlan};
use mcpart_par::supervise::{
    supervise_unit, AbortHandle, QuarantineReport, RetryPolicy, UnitOutcome,
};
use mcpart_par::SharedBudget;
use mcpart_rng::rngs::SmallRng;
use mcpart_rng::seq::SliceRandom;
use mcpart_rng::{derive_seed, SeedableRng};
use mcpart_sched::{
    EstimateWorkspace, IncrementalEstimator, Placement, RegionEstimator, INFEASIBLE,
};

use crate::error::RhopError;
use crate::groups::UnionFind;

/// Coarsening stops when a region has at most this many groups (or
/// as many as there are clusters, if that is more).
const COARSEN_TO: usize = 8;

/// Refinement passes per uncoarsening level; the initial assignment at
/// the coarsest level gets `REFINE_PASSES.max(2) + 2`.
const REFINE_PASSES: usize = 2;

/// Scope of the regions RHOP partitions one at a time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionScope {
    /// Every basic block is its own region (the default). Cross-block
    /// placement is coordinated by a second sweep in which each region
    /// sees the home clusters of its live-in values and the estimator
    /// charges a move for consuming them remotely.
    PerBlock,
    /// All blocks of a function form one region (unless the function
    /// declares explicit regions, which always win). Cross-block
    /// register flow then participates in the cut estimates, matching
    /// the paper's region-based (hyperblock-scope) partitioning.
    WholeFunction,
    /// One region per outermost natural loop nest (header + body +
    /// latches), plus singleton regions for straight-line blocks —
    /// the closest analog of the paper's compiler-formed loop regions.
    LoopNests,
}

/// Configuration of the RHOP computation partitioner.
#[derive(Clone, Debug)]
pub struct RhopConfig {
    /// RNG seed (refinement visit order). Each function derives its own
    /// stream from this seed, so placements do not depend on how
    /// functions are scheduled across workers.
    pub seed: u64,
    /// Region scope (see [`RegionScope`]).
    pub region_scope: RegionScope,
    /// Budget on schedule-estimator invocations across the whole run
    /// (`None` = unlimited). The estimator dominates RHOP's compile
    /// time (§4.5), so this bounds the pass's total work; exhausting it
    /// yields [`RhopError::EstimatorBudgetExceeded`]. Pruned probes
    /// charge the budget exactly like full evaluations, so the budget
    /// counts probes, not how each was answered.
    pub max_estimator_calls: Option<u64>,
    /// Worker threads partitioning functions concurrently: `1` =
    /// sequential (the default for library users), `0` = all available
    /// cores. Placements, statistics and errors are bit-identical for
    /// every value.
    pub jobs: usize,
    /// Observability sink. Workers record into private buffers that are
    /// flushed in function order, so the pinned event log of a
    /// successful run is byte-identical for every [`RhopConfig::jobs`]
    /// value; on a failed run no RHOP events are flushed at all. The
    /// default records nothing.
    pub obs: mcpart_obs::Obs,
    /// Extra attempts a *panicking* function unit gets before it is
    /// quarantined. Typed errors (budget exhaustion) are never retried
    /// here — they are deterministic and feed the pipeline's ladder.
    /// Before each retry the supervisor charges the default
    /// [`RetryPolicy`]'s backoff fuel (16, doubling per retry) against
    /// the estimator budget. Fuel-denominated so the retry decision
    /// never consults a clock: `--jobs N` stays bit-identical.
    pub retries: u32,
    /// Fault injection: each `panic:<unit>[xN]` term panics inside the
    /// named function's partition while the 0-based attempt number is
    /// below N. A `#k` unit names function `k` modulo the function
    /// count, so a plan stays meaningful across shrunk programs. Other
    /// terms are applied by the pipeline and its callers.
    pub faults: FaultPlan,
    /// Abort handle checked by every budget charge; a watchdog fires it
    /// to stop a runaway unit at its next fuel spend. Disarmed by
    /// default.
    pub abort: AbortHandle,
    /// Per-function replay table installed by an incremental run (see
    /// [`crate::repartition`]): entry `i`, when present, short-circuits
    /// function `i`'s partition with the baseline's recorded result —
    /// charging the recorded estimator calls against the budget and
    /// emitting the recorded `rhop/function` span, so placements,
    /// stats, budget outcome and pinned events are byte-identical to a
    /// live run. `None` (the default) and `None` entries run live.
    pub reuse: Option<std::sync::Arc<Vec<Option<ReuseEntry>>>>,
}

/// A replayable per-function RHOP result recorded by a baseline run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReuseEntry {
    /// Pre-normalization cluster of every op, in op order.
    pub op_cluster: Vec<u32>,
    /// The function's recorded stats contribution (zero retries and no
    /// quarantine — only clean completions are replayable).
    pub stats: RhopStats,
}

/// Per-function outcome surfaced by [`rhop_partition_detailed`]:
/// `None` marks a quarantined function (its placement is the trivial
/// fallback, never replayable later).
#[derive(Clone, Debug)]
pub struct FuncPartitionOutcome {
    /// The function's own stats contribution.
    pub stats: RhopStats,
    /// Panicking attempts that preceded success.
    pub retries: u64,
    /// Whether the result was replayed from a [`ReuseEntry`].
    pub replayed: bool,
}

impl Default for RhopConfig {
    fn default() -> Self {
        RhopConfig {
            seed: 0x4409,
            region_scope: RegionScope::PerBlock,
            max_estimator_calls: None,
            jobs: 1,
            obs: mcpart_obs::Obs::disabled(),
            retries: 2,
            faults: FaultPlan::none(),
            abort: AbortHandle::default(),
            reuse: None,
        }
    }
}

/// Statistics of one RHOP run (for the compile-time experiment, §4.5).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RhopStats {
    /// Regions partitioned.
    pub regions: usize,
    /// Total schedule-estimator invocations (budgeted work units; a
    /// pruned probe counts exactly like a fully simulated one).
    pub estimator_calls: u64,
    /// Total groups moved during refinement.
    pub moves_accepted: u64,
    /// Probes whose schedule simulation ran to the end.
    pub full_evals: u64,
    /// Probes answered by an exact lower bound without a complete
    /// simulation (`pruned_lock + pruned_bound`).
    pub pruned_evals: u64,
    /// Pruned probes rejected for displacing a locked operation.
    pub pruned_lock: u64,
    /// Pruned probes rejected by the resource/critical-path bound
    /// before simulating, or stopped part-way by the simulation's
    /// running bound.
    pub pruned_bound: u64,
    /// Panicking attempts that were retried and then completed.
    pub retries: u64,
    /// Function units that exhausted their retries and were replaced by
    /// the trivial all-on-cluster-0 fallback instead of failing the run.
    pub quarantine: QuarantineReport,
}

impl RhopStats {
    /// Accumulates another run's counters (merging per-function or
    /// per-phase results).
    pub fn add(&mut self, other: &RhopStats) {
        self.regions += other.regions;
        self.estimator_calls += other.estimator_calls;
        self.moves_accepted += other.moves_accepted;
        self.full_evals += other.full_evals;
        self.pruned_evals += other.pruned_evals;
        self.pruned_lock += other.pruned_lock;
        self.pruned_bound += other.pruned_bound;
        self.retries += other.retries;
        self.quarantine.merge(&other.quarantine);
    }
}

/// Spends one estimator invocation against the shared budget. A failed
/// spend is the watchdog's abort when the handle fired, and plain
/// budget exhaustion otherwise.
fn spend_estimate(stats: &mut RhopStats, budget: &SharedBudget) -> Result<(), RhopError> {
    stats.estimator_calls += 1;
    if budget.spend() {
        Ok(())
    } else if budget.is_aborted() {
        Err(RhopError::Aborted)
    } else {
        Err(RhopError::EstimatorBudgetExceeded { limit: budget.limit().unwrap_or(0) })
    }
}

/// Runs RHOP over every region of every function.
///
/// `object_home` supplies the data partition: memory operations
/// accessing a homed object are locked to that cluster, and `call`s are
/// locked to cluster 0. Pass a map of `None`s for the unified-memory
/// model (no locks).
///
/// Functions are partitioned concurrently on [`RhopConfig::jobs`]
/// workers; the result does not depend on the worker count.
///
/// # Errors
///
/// Returns [`RhopError::EstimatorBudgetExceeded`] when
/// `config.max_estimator_calls` runs out mid-pass, and
/// [`RhopError::Internal`] if the hierarchical partitioner breaks one
/// of its invariants.
pub fn rhop_partition(
    program: &Program,
    access: &AccessInfo,
    profile: &Profile,
    machine: &Machine,
    object_home: &EntityMap<ObjectId, Option<ClusterId>>,
    config: &RhopConfig,
) -> Result<(Placement, RhopStats), RhopError> {
    rhop_partition_detailed(program, access, profile, machine, object_home, config)
        .map(|(placement, stats, _)| (placement, stats))
}

/// [`rhop_partition`] plus the per-function outcome vector the
/// incremental-repartition manifest is built from (one entry per
/// function in index order; `None` = quarantined).
pub fn rhop_partition_detailed(
    program: &Program,
    access: &AccessInfo,
    _profile: &Profile,
    machine: &Machine,
    object_home: &EntityMap<ObjectId, Option<ClusterId>>,
    config: &RhopConfig,
) -> Result<(Placement, RhopStats, Vec<Option<FuncPartitionOutcome>>), RhopError> {
    let clock = std::time::Instant::now();
    let mut placement = Placement::all_on_cluster0(program);
    placement.object_home = object_home.clone();
    // The budget is shared across workers. Whether it runs out depends
    // only on the total demand (which is fixed: a replayed function
    // lump-charges exactly the estimator calls its live run would
    // spend), so the ok/exceeded outcome — and with the fid-order
    // reduction below, the reported error — is deterministic.
    let budget = SharedBudget::with_abort(config.max_estimator_calls, config.abort.clone());
    let fids: Vec<FuncId> = program.functions.keys().collect();
    let policy = RetryPolicy::new(config.retries);
    let reuse = config.reuse.as_deref();
    let reuse_of = |fid: FuncId| reuse.and_then(|r| r.get(fid.index())).and_then(Option::as_ref);
    // Each function is a supervised unit: a panicking attempt is caught
    // (its events withheld), retried with fuel-denominated backoff, and
    // finally quarantined behind a trivial fallback placement. Panics
    // and backoff charges are pure functions of `(function, attempt)`,
    // so the supervision outcome is identical for every worker count.
    // A function with a reuse entry skips supervision entirely: replay
    // runs no partitioner code, so there is nothing to panic.
    let results = mcpart_par::parallel_map(config.jobs, &fids, |_, &fid| {
        if let Some(entry) = reuse_of(fid) {
            return replay_function(fid, entry, config, &budget);
        }
        supervise_unit(
            &program.functions[fid].name,
            policy,
            |fuel| budget.charge(fuel),
            |attempt| {
                partition_function(
                    program,
                    fid,
                    access,
                    machine,
                    object_home,
                    config,
                    &budget,
                    attempt,
                )
            },
        )
    });
    let mut stats = RhopStats::default();
    let mut outcomes: Vec<Option<FuncPartitionOutcome>> = Vec::with_capacity(fids.len());
    // Worker event buffers are held back until every function succeeded,
    // then flushed in function order: the sink sees the same sequence
    // for every worker count, and a failed run flushes nothing.
    let mut bufs = Vec::with_capacity(fids.len());
    for (&fid, outcome) in fids.iter().zip(results) {
        match outcome {
            UnitOutcome::Completed { value: (op_clusters, func_stats, buf), retries, .. } => {
                placement.op_cluster[fid] = op_clusters;
                stats.add(&func_stats);
                stats.retries += u64::from(retries);
                outcomes.push(Some(FuncPartitionOutcome {
                    stats: func_stats,
                    retries: u64::from(retries),
                    replayed: reuse_of(fid).is_some(),
                }));
                bufs.push(buf);
            }
            UnitOutcome::Failed(e) => return Err(e),
            UnitOutcome::Quarantined(q) => {
                // The unit never completed: leave the function on the
                // all-on-cluster-0 fallback, withhold its events, and
                // report it instead of failing the workload.
                stats.quarantine.units.push(q);
                outcomes.push(None);
            }
        }
    }
    for buf in bufs {
        config.obs.append(buf);
    }
    if config.obs.is_enabled() {
        config.obs.counter("rhop", "regions", stats.regions as i64);
        config.obs.counter("rhop", "estimator_calls", stats.estimator_calls as i64);
        config.obs.counter("rhop", "moves_accepted", stats.moves_accepted as i64);
        config.obs.counter("rhop", "full_evals", stats.full_evals as i64);
        config.obs.counter("rhop", "pruned_evals", stats.pruned_evals as i64);
        config.obs.counter("rhop", "pruned_lock", stats.pruned_lock as i64);
        config.obs.counter("rhop", "pruned_bound", stats.pruned_bound as i64);
        config.obs.span_since("rhop", "partition", clock);
    }
    Ok((placement, stats, outcomes))
}

/// Replays one function's recorded RHOP result: charges the recorded
/// estimator calls (so the shared budget's total demand — and
/// therefore its ok/exceeded outcome — matches a live run exactly),
/// rebuilds the op-cluster map, and emits the one `rhop/function` span
/// a live [`partition_function`] would, from the recorded stats.
fn replay_function(
    fid: FuncId,
    entry: &ReuseEntry,
    config: &RhopConfig,
    budget: &SharedBudget,
) -> UnitOutcome<(EntityMap<OpId, ClusterId>, RhopStats, mcpart_obs::EventBuf), RhopError> {
    let clock = std::time::Instant::now();
    let mut buf = config.obs.buffer();
    if entry.stats.estimator_calls > 0 && !budget.charge(entry.stats.estimator_calls) {
        return UnitOutcome::Failed(if budget.is_aborted() {
            RhopError::Aborted
        } else {
            RhopError::EstimatorBudgetExceeded { limit: budget.limit().unwrap_or(0) }
        });
    }
    let op_clusters: EntityMap<OpId, ClusterId> =
        entry.op_cluster.iter().map(|&c| ClusterId::new(c as usize)).collect();
    let stats = entry.stats.clone();
    buf.span_args(
        "rhop",
        "function",
        clock,
        &[
            ("func", fid.index() as i64),
            ("regions", stats.regions as i64),
            ("estimator_calls", stats.estimator_calls as i64),
            ("moves_accepted", stats.moves_accepted as i64),
            ("full_evals", stats.full_evals as i64),
            ("pruned_evals", stats.pruned_evals as i64),
        ],
    );
    UnitOutcome::Completed { value: (op_clusters, stats, buf), retries: 0, backoff_spent: 0 }
}

/// Whether a `panic:` term of `faults` fires in function `fid` on the
/// 0-based `attempt`.
fn panic_injected(faults: &FaultPlan, program: &Program, fid: FuncId, attempt: u32) -> bool {
    faults.entries.iter().any(|e| match e {
        FaultEntry::UnitPanic { unit, times } if attempt < *times => {
            match unit.strip_prefix('#').and_then(|k| k.parse::<usize>().ok()) {
                Some(k) => k % program.functions.len().max(1) == fid.index(),
                None => *unit == program.functions[fid].name,
            }
        }
        _ => false,
    })
}

/// Partitions all regions of one function (all three sweeps). Pure in
/// `(program, fid, config, attempt)` plus the shared budget: reads only
/// `fid`'s operations and returns only `fid`'s cluster map, which is
/// what makes the per-function fan-out deterministic. `attempt` is the
/// supervisor's 0-based retry counter, consumed only by fault
/// injection.
#[allow(clippy::too_many_arguments)]
fn partition_function(
    program: &Program,
    fid: FuncId,
    access: &AccessInfo,
    machine: &Machine,
    object_home: &EntityMap<ObjectId, Option<ClusterId>>,
    config: &RhopConfig,
    budget: &SharedBudget,
    attempt: u32,
) -> Result<(EntityMap<OpId, ClusterId>, RhopStats, mcpart_obs::EventBuf), RhopError> {
    let clock = std::time::Instant::now();
    let mut buf = config.obs.buffer();
    let func = &program.functions[fid];
    if panic_injected(&config.faults, program, fid, attempt) {
        panic!("injected fault in `{}` (attempt {attempt})", func.name);
    }
    let mut op_clusters: EntityMap<OpId, ClusterId> =
        EntityMap::with_default(func.num_ops(), ClusterId::new(0));
    let mut stats = RhopStats::default();
    let mut rng = SmallRng::seed_from_u64(derive_seed(config.seed, fid.index() as u64));
    let regions: Vec<Vec<BlockId>> = if !func.regions.is_empty() {
        func.regions.values().map(|r| r.blocks.clone()).collect()
    } else {
        match config.region_scope {
            RegionScope::PerBlock => func.blocks.keys().map(|b| vec![b]).collect(),
            RegionScope::WholeFunction => {
                vec![func.blocks.keys().collect()]
            }
            RegionScope::LoopNests => mcpart_analysis::loop_regions(func),
        }
    };
    // Build each region's dependence graph, estimator, locks and base
    // grouping once; all three sweeps reuse them.
    let mut ctxs: Vec<RegionCtx> = regions
        .iter()
        .map(|blocks| RegionCtx::build(program, fid, blocks, access, machine, object_home))
        .collect();
    let nclusters = machine.num_clusters();
    // One simulation workspace serves every region's evaluator in turn.
    let mut ws = EstimateWorkspace::default();
    // Sweep 1: partition each region in isolation. Sweep 2:
    // re-partition with the homes of live-in registers (from sweep
    // 1's global result) charged by the estimator, coordinating
    // placement across blocks.
    for sweep in 0..3 {
        let hints: Option<EntityMap<VReg, ClusterId>> =
            if sweep == 0 { None } else { Some(mcpart_sched::vreg_homes_of(func, &op_clusters)) };
        for ctx in &mut ctxs {
            partition_region(
                ctx,
                nclusters,
                hints.as_ref(),
                sweep == 0,
                &mut op_clusters,
                &mut stats,
                &mut rng,
                &mut ws,
                budget,
            )?;
        }
    }
    buf.span_args(
        "rhop",
        "function",
        clock,
        &[
            ("func", fid.index() as i64),
            ("regions", stats.regions as i64),
            ("estimator_calls", stats.estimator_calls as i64),
            ("moves_accepted", stats.moves_accepted as i64),
            ("full_evals", stats.full_evals as i64),
            ("pruned_evals", stats.pruned_evals as i64),
        ],
    );
    Ok((op_clusters, stats, buf))
}

/// One coarsening level: groups of region-node indices.
#[derive(Clone)]
struct Level {
    /// Node members per group.
    members: Vec<Vec<u32>>,
    /// Cluster lock per group.
    lock: Vec<Option<ClusterId>>,
}

/// Everything about a region that is invariant across the three RHOP
/// sweeps: the estimator (dependence graph, latencies, locks, memory
/// homes), the operation list, the def-grouped base level and its
/// slack-weighted edges, and the live-in consumption sites. Building
/// this dominates a sweep's fixed cost, so it is done once per region.
struct RegionCtx {
    est: RegionEstimator,
    node_ops: Vec<OpId>,
    base: Level,
    group_edges: std::collections::HashMap<(usize, usize), u64>,
    /// `(node, source register)` per live-in operand occurrence, for
    /// re-annotating the estimator each hinted sweep.
    live_ins: Vec<(u32, VReg)>,
}

impl RegionCtx {
    fn build(
        program: &Program,
        fid: FuncId,
        blocks: &[BlockId],
        access: &AccessInfo,
        machine: &Machine,
        object_home: &EntityMap<ObjectId, Option<ClusterId>>,
    ) -> Self {
        let mut est = RegionEstimator::new(program, fid, blocks, access, machine);
        let n = est.len();
        let func = &program.functions[fid];

        // Locks: calls to cluster 0; memory ops to their object's home
        // (hard lock under partitioned memory, latency penalty under the
        // coherent-cache model).
        let node_ops: Vec<OpId> = est.dg.ops.clone();
        for (i, &op_id) in node_ops.iter().enumerate() {
            let op = &func.ops[op_id];
            match op.opcode {
                Opcode::Call(_) => est.lock(i, ClusterId::new(0)),
                _ if op.opcode.is_memory() => {
                    let site = AccessSite { func: fid, op: op_id };
                    let home = access
                        .site_objects
                        .get(&site)
                        .and_then(|objs| objs.iter().find_map(|&o| object_home[o]));
                    match (
                        home,
                        machine.memory.is_partitioned(),
                        machine.memory.coherence_penalty(),
                    ) {
                        (Some(home), true, _) => est.lock(i, home),
                        (Some(home), false, Some(penalty)) => est.set_mem_home(i, home, penalty),
                        _ => {}
                    }
                }
                _ => {}
            }
        }

        // Live-in operand sites: values defined outside the region
        // consumed here, annotated with their home clusters on the
        // hinted sweeps.
        let defined_here: std::collections::HashSet<VReg> =
            node_ops.iter().flat_map(|&o| func.ops[o].dsts.iter().copied()).collect();
        let mut live_ins = Vec::new();
        for (i, &op_id) in node_ops.iter().enumerate() {
            for &src in &func.ops[op_id].srcs {
                if !defined_here.contains(&src) {
                    live_ins.push((i as u32, src));
                }
            }
        }

        // Base grouping: definitions of the same register stay together
        // so every value has a unique home register file.
        let mut uf = UnionFind::new(n);
        let mut def_node: std::collections::HashMap<VReg, u32> = std::collections::HashMap::new();
        for (i, &op_id) in node_ops.iter().enumerate() {
            for &d in &func.ops[op_id].dsts {
                match def_node.entry(d) {
                    std::collections::hash_map::Entry::Occupied(e) => uf.union(*e.get(), i as u32),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(i as u32);
                    }
                }
            }
        }
        let mut base = Level { members: Vec::new(), lock: Vec::new() };
        let mut root_group: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        let mut group_of_node = vec![0usize; n];
        for i in 0..n as u32 {
            let root = uf.find(i);
            let g = *root_group.entry(root).or_insert_with(|| {
                base.members.push(Vec::new());
                base.lock.push(None);
                base.members.len() - 1
            });
            base.members[g].push(i);
            group_of_node[i as usize] = g;
            if base.lock[g].is_none() {
                base.lock[g] = est.lock_of(i as usize);
            }
        }

        // Edge weights between base groups: low slack ⇒ high weight,
        // scaled so critical edges dominate the matching order.
        let slacks = est.dg.edge_slacks();
        let max_slack = slacks.iter().copied().max().unwrap_or(0) as u64;
        let mut group_edges: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        for (ei, d) in est.dg.deps.iter().enumerate() {
            if d.kind != mcpart_sched::DepKind::Flow {
                continue;
            }
            let a = group_of_node[d.from as usize];
            let b = group_of_node[d.to as usize];
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            let w = max_slack + 1 - slacks[ei] as u64;
            *group_edges.entry(key).or_insert(0) += w;
        }

        RegionCtx { est, node_ops, base, group_edges, live_ins }
    }
}

#[allow(clippy::too_many_arguments)]
fn partition_region(
    ctx: &mut RegionCtx,
    nclusters: usize,
    live_in_hints: Option<&EntityMap<VReg, ClusterId>>,
    count_region: bool,
    op_clusters: &mut EntityMap<OpId, ClusterId>,
    stats: &mut RhopStats,
    rng: &mut SmallRng,
    ws: &mut EstimateWorkspace,
    budget: &SharedBudget,
) -> Result<(), RhopError> {
    let n = ctx.est.len();
    if n == 0 {
        return Ok(());
    }
    if count_region {
        stats.regions += 1;
    }

    // Re-annotate the (cached) estimator with this sweep's live-in
    // operand homes; everything else in the context is sweep-invariant.
    ctx.est.clear_live_in_homes();
    if let Some(hints) = live_in_hints {
        for &(i, src) in &ctx.live_ins {
            ctx.est.add_live_in_home(i as usize, hints[src]);
        }
    }
    let est = &ctx.est;
    let mut inc = IncrementalEstimator::with_workspace(est, std::mem::take(ws));

    // Multilevel coarsening by heavy-edge matching over groups, from
    // the cached base level.
    let mut group_edges = ctx.group_edges.clone();
    let mut levels: Vec<Level> = vec![ctx.base.clone()];
    loop {
        let Some(current) = levels.last() else {
            return Err(RhopError::Internal { message: "coarsening lost the base level".into() });
        };
        let g = current.members.len();
        if g <= COARSEN_TO.max(nclusters) {
            break;
        }
        // Build adjacency with weights (sorted for determinism —
        // HashMap iteration order must not influence matching).
        let mut sorted_edges: Vec<((usize, usize), u64)> =
            group_edges.iter().map(|(&k, &w)| (k, w)).collect();
        sorted_edges.sort_unstable();
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); g];
        for &((a, b), w) in &sorted_edges {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        let mut matched = vec![usize::MAX; g];
        let mut order: Vec<usize> = (0..g).collect();
        order.shuffle(rng);
        for &v in &order {
            if matched[v] != usize::MAX {
                continue;
            }
            let mut best: Option<(usize, u64)> = None;
            for &(u, w) in &adj[v] {
                if matched[u] != usize::MAX || u == v {
                    continue;
                }
                // Conflicting locks cannot merge.
                if let (Some(a), Some(b)) = (current.lock[v], current.lock[u]) {
                    if a != b {
                        continue;
                    }
                }
                if best.map(|(_, bw)| w > bw).unwrap_or(true) {
                    best = Some((u, w));
                }
            }
            match best {
                Some((u, _)) => {
                    matched[v] = u;
                    matched[u] = v;
                }
                None => matched[v] = v,
            }
        }
        // Build the coarser level.
        let mut coarse = Level { members: Vec::new(), lock: Vec::new() };
        let mut map = vec![usize::MAX; g];
        for v in 0..g {
            if map[v] != usize::MAX {
                continue;
            }
            let mut members = current.members[v].clone();
            let mut lock = current.lock[v];
            map[v] = coarse.members.len();
            let partner = matched[v];
            if partner != v && partner != usize::MAX && map[partner] == usize::MAX {
                members.extend(current.members[partner].iter().copied());
                lock = lock.or(current.lock[partner]);
                map[partner] = coarse.members.len();
            }
            coarse.members.push(members);
            coarse.lock.push(lock);
        }
        if coarse.members.len() as f64 > g as f64 * 0.98 {
            break;
        }
        // Re-project edges.
        let mut new_edges: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        for (&(a, b), &w) in &group_edges {
            let (na, nb) = (map[a], map[b]);
            if na == nb {
                continue;
            }
            *new_edges.entry((na.min(nb), na.max(nb))).or_insert(0) += w;
        }
        group_edges = new_edges;
        levels.push(coarse);
    }

    // Initial assignment at the coarsest level: try both a lock-seeded
    // single-cluster start and a balanced round-robin start, refine
    // each, and keep the better one. The single-cluster start puts an
    // unlocked group on cluster 0 unless cluster 0 lacks a unit one of
    // its members needs; then on the first cluster that has them all.
    let coarsest = levels.len() - 1;
    // `Some((estimate, peak))` while the evaluator's committed node
    // assignment is the incumbent `assign_groups`, whose estimate and
    // peak these are.
    let mut carried: Option<(u32, u32)> = None;
    let mut assign_groups: Vec<u16> = {
        let level = &levels[coarsest];
        let start = |members: &[u32]| {
            (0..nclusters as u16)
                .find(|&c| members.iter().all(|&m| est.has_unit(m as usize, c)))
                .unwrap_or(0)
        };
        let seed_a: Vec<u16> = level
            .lock
            .iter()
            .zip(&level.members)
            .map(|(l, members)| l.map(|c| c.index() as u16).unwrap_or_else(|| start(members)))
            .collect();
        let mut seed_b = seed_a.clone();
        let mut next = 0usize;
        for (g, lock) in level.lock.iter().enumerate() {
            if lock.is_none() {
                seed_b[g] = (next % nclusters) as u16;
                next += 1;
            }
        }
        let mut best: Option<(Vec<u16>, u32, u32)> = None;
        for (ci, mut cand) in [seed_a, seed_b].into_iter().enumerate() {
            let (e, peak) = refine_level(
                level,
                &mut cand,
                &mut inc,
                None,
                nclusters,
                REFINE_PASSES.max(2) + 2,
                stats,
                rng,
                budget,
            )?;
            // The refined candidate's final (estimate, peak) is already
            // exact; charge the comparison like the re-evaluation it
            // replaces so budgets keep their historical meaning.
            spend_estimate(stats, budget)?;
            let better = match &best {
                None => true,
                Some((_, be, bp)) => e < *be || (e == *be && peak < *bp),
            };
            if better {
                best = Some((cand, e, peak));
                // The evaluator holds the last candidate's refined state.
                carried = (ci == 1).then_some((e, peak));
            }
        }
        match best {
            Some((cand, _, _)) => cand,
            None => {
                return Err(RhopError::Internal {
                    message: "no initial candidate assignment survived".into(),
                })
            }
        }
    };

    // Uncoarsening: project and refine at each finer level.
    for li in (0..coarsest).rev() {
        // Project: a fine group takes the cluster of the coarse group
        // containing its first node.
        let coarse = &levels[li + 1];
        let fine = &levels[li];
        let mut node_cluster = vec![0u16; n];
        for (g, members) in coarse.members.iter().enumerate() {
            for &m in members {
                node_cluster[m as usize] = assign_groups[g];
            }
        }
        let mut fine_assign: Vec<u16> =
            fine.members.iter().map(|members| node_cluster[members[0] as usize]).collect();
        // Projection keeps every node where the coarser level's
        // refinement left it, so that level's final state carries over.
        carried = Some(refine_level(
            fine,
            &mut fine_assign,
            &mut inc,
            carried,
            nclusters,
            REFINE_PASSES,
            stats,
            rng,
            budget,
        )?);
        assign_groups = fine_assign;
    }

    // Write node clusters into the function's cluster map.
    let finest = &levels[0];
    for (g, members) in finest.members.iter().enumerate() {
        for &m in members {
            op_clusters[ctx.node_ops[m as usize]] = ClusterId::new(assign_groups[g] as usize);
        }
    }
    stats.full_evals += inc.full_evals;
    stats.pruned_evals += inc.pruned_evals;
    stats.pruned_lock += inc.pruned_lock;
    stats.pruned_bound += inc.pruned_bound;
    *ws = inc.into_workspace();
    Ok(())
}

/// Greedy refinement at one level: move groups between clusters while
/// the schedule estimate improves. Returns the final `(estimate, peak)`
/// of the refined assignment.
///
/// `carried` is `Some((estimate, peak))` when the evaluator's committed
/// node assignment already is `assign` (uncoarsening projects the
/// previous level's result without moving a node): the level then
/// starts from those values instead of reloading the assignment and
/// re-simulating it. The start still charges the budget and counts as
/// a full evaluation, exactly like the estimate it replaces.
///
/// Probes go through the incremental evaluator: each candidate is a
/// try-move, judged either by the exact lower bound (pruned) or by a
/// full allocation-free simulation, then rolled back — the accepted
/// best move is re-applied and committed. Every probe charges the
/// budget exactly once regardless of how it was answered, and pruning
/// rejects precisely the probes the acceptance test below would reject,
/// so placements, accepted moves and budget-exhaustion points are
/// identical to exhaustive evaluation.
///
/// A probe of group `g` on cluster `c` repeats an earlier one exactly
/// when no move was committed since: the trial, the incumbent and the
/// `(bound, peak_bound)` are all the same. Such a probe replays the
/// recorded answer and counter deltas instead of evaluating again.
#[allow(clippy::too_many_arguments)]
fn refine_level(
    level: &Level,
    assign: &mut [u16],
    inc: &mut IncrementalEstimator<'_>,
    carried: Option<(u32, u32)>,
    nclusters: usize,
    passes: usize,
    stats: &mut RhopStats,
    rng: &mut SmallRng,
    budget: &SharedBudget,
) -> Result<(u32, u32), RhopError> {
    let (mut current, mut current_peak) = match carried {
        Some(start) => {
            debug_assert!(
                level
                    .members
                    .iter()
                    .zip(assign.iter())
                    .all(|(ms, &c)| ms.iter().all(|&m| inc.assign()[m as usize] == c)),
                "the carried state is not the level's assignment"
            );
            if cfg!(debug_assertions) {
                let saved = ProbeMemo::counters(inc);
                debug_assert_eq!((inc.estimate(), inc.resource_peak()), start);
                ProbeMemo::set_counters(inc, saved);
            }
            inc.full_evals += 1;
            start
        }
        None => {
            inc.load_groups(&level.members, assign);
            (inc.estimate(), inc.resource_peak())
        }
    };
    spend_estimate(stats, budget)?;
    if current == INFEASIBLE {
        // Locked base assignment should always be feasible; bail out
        // defensively.
        return Ok((current, current_peak));
    }
    let mut order: Vec<usize> = (0..level.members.len()).collect();
    // Commits so far, and per (group, cluster) the last probe's answer
    // with the commit count it was computed under.
    let mut commits = 0u32;
    let mut memo: Vec<Option<ProbeMemo>> = vec![None; level.members.len() * nclusters];
    for _ in 0..passes.max(1) {
        order.shuffle(rng);
        let mut moved = 0usize;
        for &g in &order {
            if level.lock[g].is_some() {
                continue;
            }
            let original = assign[g];
            let mut best: Option<(u16, u32, u32)> = None;
            for c in 0..nclusters as u16 {
                if c == original {
                    continue;
                }
                spend_estimate(stats, budget)?;
                let evaluate = |inc: &mut IncrementalEstimator<'_>| {
                    let before = ProbeMemo::counters(inc);
                    inc.try_move(&level.members[g], c);
                    let probe = inc.estimate_unless_worse(current, current_peak);
                    inc.rollback();
                    let after = ProbeMemo::counters(inc);
                    ProbeMemo {
                        commits,
                        probe,
                        delta: std::array::from_fn(|i| after[i] - before[i]),
                    }
                };
                let slot = &mut memo[g * nclusters + c as usize];
                let probe = match slot {
                    Some(m) if m.commits == commits => {
                        if cfg!(debug_assertions) {
                            // The replayed answer is the one evaluating
                            // again would give.
                            let saved = ProbeMemo::counters(inc);
                            let again = evaluate(inc);
                            ProbeMemo::set_counters(inc, saved);
                            debug_assert_eq!((again.probe, again.delta), (m.probe, m.delta));
                        }
                        m.replay(inc);
                        m.probe
                    }
                    _ => {
                        let m = evaluate(inc);
                        *slot = Some(m);
                        m.probe
                    }
                };
                if let Some((e, peak)) = probe {
                    // Accept strict improvements, or equal estimates
                    // that lower the resource peak (leaves headroom for
                    // the real scheduler and lets coordinated splits
                    // emerge).
                    let improves = e < current || (e == current && peak < current_peak);
                    if improves
                        && best.map(|(_, be, bp)| e < be || (e == be && peak < bp)).unwrap_or(true)
                    {
                        best = Some((c, e, peak));
                    }
                }
            }
            if let Some((c, e, peak)) = best {
                assign[g] = c;
                inc.try_move(&level.members[g], c);
                inc.commit();
                commits += 1;
                current = e;
                current_peak = peak;
                moved += 1;
                stats.moves_accepted += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
    Ok((current, current_peak))
}

/// One answered refinement probe: valid while no move has been
/// committed since `commits`.
#[derive(Clone, Copy)]
struct ProbeMemo {
    commits: u32,
    probe: Option<(u32, u32)>,
    /// What the probe added to the evaluator's `full_evals`,
    /// `pruned_evals`, `pruned_lock` and `pruned_bound`.
    delta: [u64; 4],
}

impl ProbeMemo {
    fn counters(inc: &IncrementalEstimator<'_>) -> [u64; 4] {
        [inc.full_evals, inc.pruned_evals, inc.pruned_lock, inc.pruned_bound]
    }

    fn set_counters(inc: &mut IncrementalEstimator<'_>, c: [u64; 4]) {
        [inc.full_evals, inc.pruned_evals, inc.pruned_lock, inc.pruned_bound] = c;
    }

    /// Counts the probe again, exactly as evaluating it would.
    fn replay(&self, inc: &mut IncrementalEstimator<'_>) {
        let c = Self::counters(inc);
        Self::set_counters(inc, std::array::from_fn(|i| c[i] + self.delta[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_analysis::PointsTo;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth};
    use mcpart_sched::{evaluate, insert_moves, normalize_placement};

    fn analyze(p: &Program) -> (Profile, AccessInfo) {
        let profile = Profile::uniform(p, 100);
        let pts = PointsTo::compute(p);
        let access = AccessInfo::compute(p, &pts, &profile);
        (profile, access)
    }

    /// Two independent dependence chains: RHOP should split them across
    /// clusters for ILP.
    #[test]
    fn independent_chains_split_across_clusters() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        // Four serial chains: one cluster's two integer units saturate,
        // so the resource bound pushes RHOP to use both clusters.
        let mut chains: Vec<_> = (0..4).map(|i| b.iconst(i)).collect();
        for _ in 0..8 {
            for c in chains.iter_mut() {
                *c = b.add(*c, *c);
            }
        }
        let s1 = b.add(chains[0], chains[1]);
        let s2 = b.add(chains[2], chains[3]);
        let z = b.add(s1, s2);
        b.ret(Some(z));
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(1);
        let homes = EntityMap::with_default(0, None);
        let (placement, stats) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        let counts = placement.ops_per_cluster(2);
        assert!(counts[0] > 0 && counts[1] > 0, "both clusters used: {counts:?}");
        assert!(stats.regions >= 1);
        assert!(stats.estimator_calls > 0);
    }

    /// A single serial chain must stay on one cluster (no benefit from
    /// splitting, move latency would hurt).
    #[test]
    fn serial_chain_stays_together() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let mut x = b.iconst(1);
        for _ in 0..10 {
            x = b.add(x, x);
        }
        b.ret(Some(x));
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(10);
        let homes = EntityMap::with_default(0, None);
        let (placement, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        let counts = placement.ops_per_cluster(2);
        assert!(counts[0] == 0 || counts[1] == 0, "serial chain split needlessly: {counts:?}");
    }

    /// Memory operations follow their object's home cluster.
    #[test]
    fn locked_memops_respect_object_homes() {
        let mut p = Program::new("t");
        let t1 = p.add_object(DataObject::global("t1", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        let base = b.addrof(t1);
        let v = b.load(MemWidth::B4, base);
        let w = b.add(v, v);
        b.store(MemWidth::B4, base, w);
        b.ret(None);
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let mut homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(1, None);
        homes[t1] = Some(ClusterId::new(1));
        let (placement, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        let func = p.entry_function();
        for (oid, op) in func.ops.iter() {
            if op.opcode.is_memory() {
                assert_eq!(
                    placement.cluster_of(p.entry, oid),
                    ClusterId::new(1),
                    "{oid} must sit with its object"
                );
            }
        }
    }

    /// The partitioner is deterministic: same seed, same placement.
    #[test]
    fn rhop_is_deterministic() {
        let mut p = Program::new("t");
        let t1 = p.add_object(DataObject::global("t1", 64));
        let t2 = p.add_object(DataObject::global("t2", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        for obj in [t1, t2] {
            let base = b.addrof(obj);
            let v = b.load(MemWidth::B4, base);
            let w = b.mul(v, v);
            b.store(MemWidth::B4, base, w);
        }
        b.ret(None);
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let homes = EntityMap::with_default(2, None);
        let (a, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        let (b2, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        assert_eq!(a.op_cluster, b2.op_cluster);
    }

    /// A cluster without a float unit never receives a float op. The
    /// estimator must call that assignment infeasible: a finite estimate
    /// that ties all-on-cluster-0 would win the tie on resource peak.
    #[test]
    fn float_ops_stay_off_a_cluster_without_float_units() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.fconst(1.5);
        let y = b.fadd(x, x);
        b.ret(Some(y));
        let (profile, access) = analyze(&p);
        let mut machine = Machine::homogeneous(2, 5);
        machine.clusters[1].fu = mcpart_machine::FuMix::new(1, 0, 1, 1);
        assert_eq!(machine.validate(), Ok(()));
        let homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(0, None);
        let (pl, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        for (op_id, op) in p.functions[p.entry].ops.iter() {
            if op.opcode.fu_kind() == mcpart_ir::FuKind::Float {
                assert_eq!(pl.cluster_of(p.entry, op_id), ClusterId::new(0), "{:?}", op.opcode);
            }
        }
    }

    /// The mirror image: cluster 0, where every group starts, has no
    /// float unit, so the float ops must start (and stay) elsewhere.
    #[test]
    fn float_ops_leave_a_cluster_0_without_float_units() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let mut f = b.fconst(1.5);
        for _ in 0..8 {
            f = b.fadd(f, f);
            f = b.fmul(f, f);
        }
        b.fadd(f, f);
        let mut n = b.iconst(1);
        for _ in 0..8 {
            n = b.add(n, n);
        }
        b.ret(Some(n));
        let (profile, access) = analyze(&p);
        let mut machine = Machine::homogeneous(2, 5);
        machine.clusters[0].fu = mcpart_machine::FuMix::new(1, 0, 1, 1);
        assert_eq!(machine.validate(), Ok(()));
        let homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(0, None);
        let (pl, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        for (op_id, op) in p.functions[p.entry].ops.iter() {
            if op.opcode.fu_kind() == mcpart_ir::FuKind::Float {
                assert_eq!(pl.cluster_of(p.entry, op_id), ClusterId::new(1), "{:?}", op.opcode);
            }
        }
    }

    /// Worker count never changes the result: placements and statistics
    /// from `jobs = 1` and `jobs = 8` are bit-identical. (That pruning
    /// changes no placement is pinned by the golden digests in
    /// `tests/estimator_fidelity.rs`.)
    #[test]
    fn jobs_do_not_change_results() {
        let mut p = Program::new("t");
        let t1 = p.add_object(DataObject::global("t1", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        let base = b.addrof(t1);
        let v = b.load(MemWidth::B4, base);
        let mut acc = v;
        for i in 0..6 {
            let k = b.iconst(i);
            acc = b.add(acc, k);
        }
        b.store(MemWidth::B4, base, acc);
        b.ret(None);
        // A second function so the fan-out actually has two tasks.
        let mut b2 = FunctionBuilder::new_function(&mut p, "aux");
        let mut x = b2.iconst(3);
        for _ in 0..5 {
            x = b2.mul(x, x);
        }
        b2.ret(Some(x));
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let mut homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(1, None);
        homes[t1] = Some(ClusterId::new(1));
        let seq = RhopConfig { jobs: 1, ..RhopConfig::default() };
        let par = RhopConfig { jobs: 8, ..RhopConfig::default() };
        let (pl_seq, st_seq) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &seq).expect("rhop");
        let (pl_par, st_par) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &par).expect("rhop");
        assert_eq!(pl_seq.op_cluster, pl_par.op_cluster);
        assert_eq!(st_seq, st_par);
        assert!(st_seq.pruned_evals > 0, "pruning should answer some probes: {st_seq:?}");
        assert_eq!(
            st_seq.pruned_lock + st_seq.pruned_bound,
            st_seq.pruned_evals,
            "the prune-reason split must cover every pruned probe"
        );
    }

    /// Loop-carried registers (multi-def) are pre-merged: both defining
    /// operations receive the same cluster straight from RHOP (not just
    /// after normalization).
    #[test]
    fn def_groups_share_a_cluster() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let i = b.iconst(0);
        let n = b.iconst(64);
        let head = b.block("head");
        let body = b.block("body");
        let exit = b.block("exit");
        b.jump(head);
        b.switch_to(head);
        let c = b.icmp(mcpart_ir::Cmp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.iconst(1);
        let ni = b.add(i, one);
        b.mov_to(i, ni);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let homes = EntityMap::with_default(0, None);
        let (placement, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        // Defs of i: the entry iconst and the body mov — note they sit
        // in different regions (per-block), so only normalization can
        // unify across regions; within the body region the mov and its
        // feeding add share a def-group with... check the in-region
        // invariant: every multi-def register defined twice within one
        // region is co-located. Here each region has one def, so assert
        // the pipeline-level property instead via normalization.
        let npl = mcpart_sched::normalize_placement(&p, &placement, &access, &machine, &profile);
        let f = p.entry;
        let entry_iconst = p.functions[f].blocks[p.functions[f].entry].ops[0];
        let body_mov = p.functions[f].blocks[body].ops[2];
        assert_eq!(npl.cluster_of(f, entry_iconst), npl.cluster_of(f, body_mov));
    }

    /// Conflicting locks (two memops in one def-group with different
    /// homes) degrade gracefully: the eventual placement still runs.
    #[test]
    fn region_scope_variants_produce_valid_placements() {
        let mut p = Program::new("t");
        let t1 = p.add_object(DataObject::global("t1", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        let lhs = b.addrof(t1);
        let v = b.load(MemWidth::B4, lhs);
        let w = b.add(v, v);
        b.store(MemWidth::B4, lhs, w);
        b.ret(None);
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let mut homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(1, None);
        homes[t1] = Some(ClusterId::new(1));
        for scope in [RegionScope::PerBlock, RegionScope::LoopNests, RegionScope::WholeFunction] {
            let cfg = RhopConfig { region_scope: scope, ..RhopConfig::default() };
            let (placement, _) =
                rhop_partition(&p, &access, &profile, &machine, &homes, &cfg).expect("rhop");
            for (oid, op) in p.entry_function().ops.iter() {
                if op.opcode.is_memory() {
                    assert_eq!(
                        placement.cluster_of(p.entry, oid),
                        ClusterId::new(1),
                        "{scope:?}: memop must sit at its home"
                    );
                }
            }
        }
    }

    /// End-to-end sanity: RHOP placement normalizes, moves insert, the
    /// result schedules, and semantics are preserved.
    #[test]
    fn rhop_pipeline_end_to_end() {
        let mut p = Program::new("t");
        let t1 = p.add_object(DataObject::global("t1", 64));
        let t2 = p.add_object(DataObject::global("t2", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        for (i, obj) in [t1, t2].into_iter().enumerate() {
            let base = b.addrof(obj);
            let k = b.iconst(i as i64 + 3);
            let v = b.load(MemWidth::B4, base);
            let w = b.add(v, k);
            let w2 = b.mul(w, k);
            b.store(MemWidth::B4, base, w2);
        }
        b.ret(None);
        mcpart_ir::verify_program(&p).unwrap();
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(5);
        let mut homes: EntityMap<ObjectId, Option<ClusterId>> = EntityMap::with_default(2, None);
        homes[t1] = Some(ClusterId::new(0));
        homes[t2] = Some(ClusterId::new(1));
        let (placement, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        let normalized = normalize_placement(&p, &placement, &access, &machine, &profile);
        let (moved, moved_placement, _) = insert_moves(&p, &normalized, &machine);
        mcpart_ir::verify_program(&moved).unwrap();
        assert!(mcpart_sim::semantically_equivalent(
            &p,
            &moved,
            &[],
            mcpart_sim::ExecConfig::default()
        )
        .unwrap());
        let pts = PointsTo::compute(&moved);
        let moved_access = AccessInfo::compute(&moved, &pts, &Profile::uniform(&moved, 100));
        let report = evaluate(
            &moved,
            &moved_placement,
            &machine,
            &Profile::uniform(&moved, 100),
            &moved_access,
        );
        assert!(report.total_cycles > 0);
    }

    /// A starved estimator budget is a typed error, never a hang, and a
    /// generous one changes nothing. The budget's exhaustion point is
    /// deterministic even with parallel workers.
    #[test]
    fn estimator_budget_is_enforced() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let mut chains: Vec<_> = (0..4).map(|i| b.iconst(i)).collect();
        for _ in 0..8 {
            for c in chains.iter_mut() {
                *c = b.add(*c, *c);
            }
        }
        b.ret(Some(chains[0]));
        let (profile, access) = analyze(&p);
        let machine = Machine::paper_2cluster(1);
        let homes = EntityMap::with_default(0, None);
        for jobs in [1, 4] {
            let starved =
                RhopConfig { max_estimator_calls: Some(2), jobs, ..RhopConfig::default() };
            let e = rhop_partition(&p, &access, &profile, &machine, &homes, &starved).unwrap_err();
            assert!(matches!(e, RhopError::EstimatorBudgetExceeded { limit: 2 }), "{e}");
        }
        let generous = RhopConfig { max_estimator_calls: Some(1_000_000), ..RhopConfig::default() };
        let (a, stats) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &generous).expect("rhop");
        let (b2, _) =
            rhop_partition(&p, &access, &profile, &machine, &homes, &RhopConfig::default())
                .expect("rhop");
        assert_eq!(a.op_cluster, b2.op_cluster);
        assert!(stats.estimator_calls > 2);
    }
}
