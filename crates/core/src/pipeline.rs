//! The end-to-end compilation pipeline: analyses → data partitioning →
//! computation partitioning → normalization → move insertion →
//! scheduling and evaluation.
//!
//! Every stage reports failure through [`PipelineError`], and a
//! graceful-degradation ladder retries recoverable GDP failures with
//! Profile Max and then Naive placement, recording each downgrade in
//! the [`PipelineResult`] so reports stay honest about what actually
//! ran.

use crate::baselines::{naive_partition, profile_max_partition, unified_partition};
use crate::checkpoint::Manifest;
use crate::error::{Downgrade, PipelineError, PipelineErrorKind, Stage};
use crate::gdp::{gdp_partition, GdpConfig};
use crate::groups::ObjectGroups;
use crate::repartition::RepartitionStats;
use crate::rhop::{RhopConfig, RhopStats};
use mcpart_analysis::{validate_profile, AccessInfo, PointsTo};
use mcpart_ir::{Profile, Program};
use mcpart_machine::Machine;
use mcpart_sched::{evaluate, normalize_placement, validate_placement, PerfReport, Placement};
use std::fmt;
use std::time::{Duration, Instant};

/// The partitioning method to run (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// Global Data Partitioning (the paper's contribution): GDP object
    /// partitioning + RHOP with locked memory operations.
    Gdp,
    /// Profile Max: RHOP twice — unified-memory profile, greedy
    /// frequency-ordered object assignment, then RHOP with locks.
    ProfileMax,
    /// Naïve: RHOP assuming unified memory; objects placed post-hoc at
    /// their maximum-access cluster, remote accesses patched in.
    Naive,
    /// Unified memory: single multiported memory, ordinary RHOP (the
    /// upper-bound baseline).
    Unified,
}

impl Method {
    /// All methods, in the paper's presentation order.
    pub const ALL: [Method; 4] = [Method::Gdp, Method::ProfileMax, Method::Naive, Method::Unified];

    /// How many runs of the detailed computation partitioner the method
    /// costs (the compile-time proxy of §4.5).
    pub fn detailed_partitioner_runs(self) -> usize {
        match self {
            Method::ProfileMax => 2,
            _ => 1,
        }
    }

    /// The next rung of the graceful-degradation ladder: the simpler
    /// method the pipeline retries with when this one fails
    /// recoverably. GDP falls back to Profile Max, Profile Max to
    /// Naive; Naive and Unified have nowhere simpler to go.
    pub fn fallback(self) -> Option<Method> {
        match self {
            Method::Gdp => Some(Method::ProfileMax),
            Method::ProfileMax => Some(Method::Naive),
            Method::Naive | Method::Unified => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Gdp => "GDP",
            Method::ProfileMax => "Profile Max",
            Method::Naive => "Naive",
            Method::Unified => "Unified",
        };
        f.write_str(s)
    }
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Which scheme to run.
    pub method: Method,
    /// GDP first-pass options (including its refinement fuel budget).
    pub gdp: GdpConfig,
    /// RHOP second-pass options (including its estimator-call budget).
    pub rhop: RhopConfig,
    /// Profile Max memory balance threshold.
    pub profile_max_balance: f64,
    /// When `true`, the pipeline additionally executes the original and
    /// transformed programs and checks identical behaviour (slow; meant
    /// for tests). A mismatch is a typed
    /// [`PipelineErrorKind::SemanticsChanged`] error.
    pub validate: bool,
    /// Interpreter limits for the semantic-validation runs (step budget
    /// and call depth), so a runaway transformed program yields a typed
    /// error instead of a hang.
    pub exec: mcpart_sim::ExecConfig,
    /// When `false` (the default is `true`), skip the post-move
    /// placement validation. Validation is cheap and catches partitioner
    /// bugs, so leave it on outside microbenchmarks.
    pub check_placement: bool,
    /// Where intercluster transfers are placed.
    pub move_strategy: mcpart_sched::MoveStrategy,
    /// Run the scalar optimizer (DCE, CSE, copy propagation, constant
    /// folding) before partitioning. Off by default to keep the
    /// paper-reproduction numbers on the raw generator output.
    pub pre_optimize: bool,
    /// Evaluate with software pipelining: single-block loop bodies are
    /// modulo-scheduled and charged their initiation interval per
    /// iteration. Off by default (the paper's model schedules each
    /// iteration acyclically).
    pub software_pipelining: bool,
    /// Observability sink shared by every stage (set it with
    /// [`PipelineConfig::with_obs`] so the GDP/RHOP sub-configs share
    /// the same sink). The default records nothing.
    pub obs: mcpart_obs::Obs,
    /// Run-level retry cap: how many times a recoverable failure (or a
    /// caught worker panic) may advance the degradation ladder one rung
    /// before the run fails. The default of 2 admits the full
    /// GDP → Profile Max → Naive ladder.
    pub retries: u32,
    /// Per-unit wall-clock ceiling enforced by a watchdog thread: when
    /// a method attempt runs longer than this, the watchdog flags the
    /// attempt's shared budget so its next fuel charge fails cleanly
    /// (a typed, recoverable error feeding the same ladder). `None`
    /// (default) disables the watchdog and keeps the run fully
    /// deterministic.
    pub unit_timeout: Option<Duration>,
    /// Fault injection for supervision tests: method attempts listed
    /// here panic at entry (caught by panic isolation, advancing the
    /// ladder). Empty in production.
    pub fault_methods: Vec<Method>,
    /// Baseline manifest for incremental re-partitioning (see
    /// [`crate::repartition`]): when set and the method is
    /// [`Method::Gdp`], clean functions replay the baseline's recorded
    /// RHOP results instead of re-running the partitioner. Output is
    /// byte-identical either way; `None` (default) runs from scratch.
    pub baseline: Option<std::sync::Arc<Manifest>>,
}

impl PipelineConfig {
    /// Default configuration for a method.
    pub fn new(method: Method) -> Self {
        PipelineConfig {
            method,
            gdp: GdpConfig::default(),
            rhop: RhopConfig::default(),
            profile_max_balance: 0.10,
            validate: false,
            exec: mcpart_sim::ExecConfig::default(),
            check_placement: true,
            move_strategy: mcpart_sched::MoveStrategy::default(),
            pre_optimize: false,
            software_pipelining: false,
            obs: mcpart_obs::Obs::disabled(),
            retries: 2,
            unit_timeout: None,
            fault_methods: Vec::new(),
            baseline: None,
        }
    }

    /// Sets the retry cap at both supervision levels: the run-level
    /// ladder (this config) and the per-function unit supervisor
    /// (`rhop.retries`).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self.rhop.retries = retries;
        self
    }

    /// Sets the worker-thread count of every parallel stage (RHOP's
    /// per-function fan-out and the graph partitioner's restarts): `1`
    /// = sequential, `0` = all available cores. Never changes results —
    /// only wall-clock time.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.rhop.jobs = jobs;
        self.gdp.jobs = jobs;
        self
    }

    /// Attaches one observability sink to the whole pipeline: stage
    /// spans and counters here, plus the GDP, METIS and RHOP events of
    /// the sub-configs (they all share the sink, so a downgrade ladder
    /// accumulates every attempt's events in order).
    pub fn with_obs(mut self, obs: mcpart_obs::Obs) -> Self {
        self.gdp.obs = obs.clone();
        self.rhop.obs = obs.clone();
        self.obs = obs;
        self
    }
}

/// Stable method ordinal for pinned event args (events carry integers).
fn method_ord(method: Method) -> i64 {
    match method {
        Method::Gdp => 0,
        Method::ProfileMax => 1,
        Method::Naive => 2,
        Method::Unified => 3,
    }
}

/// Everything the pipeline produces for one (program, machine, method)
/// triple.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The method that actually produced this result (after any
    /// downgrades).
    pub method: Method,
    /// The method originally requested. Differs from `method` exactly
    /// when `downgrades` is non-empty.
    pub requested_method: Method,
    /// The degradation ladder's record of abandoned methods, oldest
    /// first. Empty on a clean run.
    pub downgrades: Vec<Downgrade>,
    /// The transformed program (intercluster moves inserted).
    pub program: Program,
    /// The final placement of the transformed program.
    pub placement: Placement,
    /// Scheduled performance (cycles, dynamic moves).
    pub report: PerfReport,
    /// RHOP statistics (estimator calls etc.).
    pub rhop_stats: RhopStats,
    /// Number of detailed-partitioner runs (compile-time proxy).
    pub detailed_runs: usize,
    /// Data bytes homed per cluster (all zeros for Unified).
    pub data_bytes: Vec<u64>,
    /// Static intercluster moves inserted.
    pub moves_inserted: usize,
    /// Wall-clock time of the partitioning phases (excludes evaluation).
    pub partition_time: Duration,
    /// Manifest for a future incremental run. `Some` exactly when the
    /// producing rung was [`Method::Gdp`] (its `unit` field is empty;
    /// [`crate::checkpoint::run_unit_full`] fills it in).
    pub manifest: Option<Manifest>,
    /// Dirty-cone statistics when this run replayed against a baseline
    /// manifest; `None` on a from-scratch run.
    pub repartition: Option<RepartitionStats>,
}

impl PipelineResult {
    /// Total dynamic cycles.
    pub fn cycles(&self) -> u64 {
        self.report.total_cycles
    }

    /// Dynamic intercluster moves.
    pub fn dynamic_moves(&self) -> u64 {
        self.report.dynamic_moves
    }

    /// Whether the degradation ladder fired (the result was produced by
    /// a simpler method than requested).
    pub fn was_downgraded(&self) -> bool {
        !self.downgrades.is_empty()
    }

    /// Function units that exhausted their retries and run on the
    /// trivial fallback placement (empty on a healthy run).
    pub fn quarantine(&self) -> &mcpart_par::supervise::QuarantineReport {
        &self.rhop_stats.quarantine
    }
}

/// Runs the full pipeline for one method.
///
/// The input program is verified and the profile shape-checked before
/// any partitioning work. If the requested method fails recoverably
/// (partitioner budget exhaustion, an invalid placement, a semantic
/// mismatch, a stage timeout), the pipeline walks the degradation
/// ladder — GDP → Profile Max → Naive — and records each rung in
/// [`PipelineResult::downgrades`].
///
/// # Errors
///
/// Returns a [`PipelineError`] naming the failing stage when the input
/// is unusable or when the last rung of the ladder also fails.
pub fn run_pipeline(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    let fail = |stage: Stage, kind: PipelineErrorKind| PipelineError {
        program: program.name.clone(),
        method: config.method,
        stage,
        kind,
    };
    mcpart_ir::verify_program(program)
        .map_err(|e| fail(Stage::Verify, PipelineErrorKind::Verify(e)))?;
    validate_profile(program, profile)
        .map_err(|e| fail(Stage::Analysis, PipelineErrorKind::Profile(e)))?;
    machine
        .validate()
        .map_err(|e| fail(Stage::Verify, PipelineErrorKind::Machine { message: e.to_string() }))?;

    let mut downgrades = Vec::new();
    let mut method = config.method;
    loop {
        let mut attempt = config.clone();
        attempt.method = method;
        // Arm the per-attempt watchdog: it fires the abort handle that
        // this attempt's shared budget checks on every fuel charge, so
        // a runaway unit fails at its next spend with a typed,
        // recoverable error — no thread is killed. The guard disarms
        // the watchdog when the attempt returns.
        let _watchdog = config.unit_timeout.map(|ceiling| {
            let handle = mcpart_par::supervise::AbortHandle::armed();
            attempt.rhop.abort = handle.clone();
            mcpart_par::supervise::Watchdog::arm(ceiling, handle)
        });
        // Panic isolation: a worker panic anywhere inside the attempt
        // is caught here, converted into a typed recoverable error, and
        // fed to the same ladder as ordinary partitioning failures. The
        // attempt's obs events stay withheld exactly as on the error
        // path, preserving the pinned-log determinism contract.
        let outcome =
            mcpart_par::supervise::catch_unit(|| run_method(program, profile, machine, &attempt))
                .unwrap_or_else(|payload| {
                    Err(PipelineError {
                        program: program.name.clone(),
                        method,
                        stage: Stage::Supervision,
                        kind: PipelineErrorKind::WorkerPanic { payload },
                    })
                });
        match outcome {
            Ok(mut result) => {
                result.requested_method = config.method;
                result.downgrades = downgrades;
                if config.obs.is_enabled() {
                    let stats = &result.rhop_stats;
                    config.obs.counter(
                        "supervise",
                        "retries",
                        stats.retries as i64 + result.downgrades.len() as i64,
                    );
                    config.obs.counter("supervise", "quarantined", stats.quarantine.len() as i64);
                }
                return Ok(result);
            }
            Err(e) if e.is_recoverable() && downgrades.len() < config.retries as usize => {
                match method.fallback() {
                    Some(next) => {
                        config.obs.counter_args(
                            "pipeline",
                            "downgrade",
                            (downgrades.len() + 1) as i64,
                            &[("from", method_ord(method)), ("to", method_ord(next))],
                        );
                        downgrades.push(Downgrade {
                            from: method,
                            to: next,
                            reason: e.to_string(),
                        });
                        method = next;
                    }
                    None => return Err(e),
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One strict attempt with one method: any stage failure is returned,
/// never retried.
fn run_method(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    if config.fault_methods.contains(&config.method) {
        panic!("injected fault in method {}", config.method);
    }
    let fail = |stage: Stage, kind: PipelineErrorKind| PipelineError {
        program: program.name.clone(),
        method: config.method,
        stage,
        kind,
    };
    // Between stages, react to the `unit_timeout` watchdog's abort
    // (stages without a shared budget of their own).
    let check_clock = |stage: Stage| -> Result<(), PipelineError> {
        if config.rhop.abort.is_aborted() {
            let ceiling = config.unit_timeout.unwrap_or_default();
            return Err(fail(stage, PipelineErrorKind::Timeout { ceiling }));
        }
        Ok(())
    };

    // Prepartitioning analyses (§3.2): heap sizes applied, points-to,
    // access relationship, object groups.
    let clock = Instant::now();
    let mut program = profile.apply_heap_sizes(program);
    if config.pre_optimize {
        mcpart_ir::optimize(&mut program);
    }
    let program = program;
    let pts = PointsTo::compute(&program);
    let access = AccessInfo::compute(&program, &pts, profile);
    let merge_clock = Instant::now();
    let groups = ObjectGroups::compute(&program, &access);
    if config.obs.is_enabled() {
        let singletons = groups.groups.iter().filter(|g| g.len() == 1).count();
        config.obs.span_args(
            "pipeline",
            "merge",
            merge_clock,
            &[
                ("objects", program.objects.len() as i64),
                ("groups", groups.len() as i64),
                ("merged", (program.objects.len() - groups.len()) as i64),
                ("singletons", singletons as i64),
            ],
        );
        config.obs.span_args(
            "pipeline",
            "analysis",
            clock,
            &[("method", method_ord(config.method))],
        );
    }
    check_clock(Stage::Analysis)?;

    let start = Instant::now();
    let mut manifest = None;
    let mut repartition = None;
    let (placement, rhop_stats) = match config.method {
        Method::Gdp => {
            let dp = gdp_partition(&program, profile, &access, &groups, machine, &config.gdp)
                .map_err(|e| fail(Stage::DataPartition, PipelineErrorKind::Gdp(e)))?;
            check_clock(Stage::DataPartition)?;
            // GDP is always re-run (it is the cheap global pass); a
            // baseline manifest only short-circuits the per-function
            // RHOP work for functions outside the dirty cone.
            let mut rhop_cfg = config.rhop.clone();
            if let Some(baseline) = &config.baseline {
                let (reuse, stats) = crate::repartition::compute_reuse(
                    &program,
                    &access,
                    &groups,
                    &dp,
                    config.gdp.merge_dependent_ops,
                    baseline,
                );
                repartition = Some(stats);
                rhop_cfg.reuse = Some(std::sync::Arc::new(reuse));
            }
            let (placement, stats, outcomes) = crate::rhop::rhop_partition_detailed(
                &program,
                &access,
                profile,
                machine,
                &dp.object_home,
                &rhop_cfg,
            )
            .map_err(|e| fail(Stage::ComputationPartition, PipelineErrorKind::Rhop(e)))?;
            check_clock(Stage::ComputationPartition)?;
            manifest = Some(crate::repartition::build_manifest(
                &program, &access, &groups, &dp, &placement, &outcomes,
            ));
            (placement, stats)
        }
        Method::ProfileMax => {
            let out = profile_max_partition(
                &program,
                &access,
                profile,
                machine,
                &groups,
                &config.rhop,
                config.profile_max_balance,
            )
            .map_err(|e| fail(Stage::ComputationPartition, PipelineErrorKind::Rhop(e)))?;
            check_clock(Stage::ComputationPartition)?;
            out
        }
        Method::Naive => {
            let out = naive_partition(&program, &access, profile, machine, &groups, &config.rhop)
                .map_err(|e| fail(Stage::ComputationPartition, PipelineErrorKind::Rhop(e)))?;
            check_clock(Stage::ComputationPartition)?;
            out
        }
        Method::Unified => {
            let out = unified_partition(&program, &access, profile, machine, &config.rhop)
                .map_err(|e| fail(Stage::ComputationPartition, PipelineErrorKind::Rhop(e)))?;
            check_clock(Stage::ComputationPartition)?;
            out
        }
    };
    let eval_machine = match config.method {
        Method::Unified => machine.clone().with_unified_memory(),
        _ => machine.clone(),
    };
    let clock = Instant::now();
    let normalized = normalize_placement(&program, &placement, &access, &eval_machine, profile);
    config.obs.span_since("pipeline", "normalize", clock);
    check_clock(Stage::Normalize)?;
    let clock = Instant::now();
    let (moved_program, moved_placement, move_stats) = mcpart_sched::insert_moves_with(
        &program,
        &normalized,
        &eval_machine,
        Some(profile),
        config.move_strategy,
    );
    config.obs.span_args(
        "pipeline",
        "moves",
        clock,
        &[("moves_inserted", move_stats.moves_inserted as i64)],
    );
    check_clock(Stage::MoveInsertion)?;
    let partition_time = start.elapsed();

    // Re-analyze the moved program (op ids shifted) for placement
    // validation and scheduling disambiguation.
    let moved_pts = PointsTo::compute(&moved_program);
    let moved_access = AccessInfo::compute(&moved_program, &moved_pts, profile);

    // Post-partition validation: every memory op on its object's home
    // cluster, every cross-cluster def bridged by a move. A violation
    // here marks the placement unusable and (for GDP / Profile Max)
    // drives the degradation ladder.
    if config.check_placement {
        let clock = Instant::now();
        validate_placement(&moved_program, &moved_placement, &moved_access, &eval_machine)
            .map_err(|e| fail(Stage::PlacementValidation, PipelineErrorKind::Placement(e)))?;
        config.obs.span_since("pipeline", "validate_placement", clock);
        check_clock(Stage::PlacementValidation)?;
    }

    if config.validate {
        let clock = Instant::now();
        let ok = mcpart_sim::semantically_equivalent(&program, &moved_program, &[], config.exec)
            .map_err(|e| fail(Stage::SemanticValidation, PipelineErrorKind::Exec(e)))?;
        if !ok {
            return Err(fail(Stage::SemanticValidation, PipelineErrorKind::SemanticsChanged));
        }
        config.obs.span_since("pipeline", "validate_semantics", clock);
        check_clock(Stage::SemanticValidation)?;
    }

    let clock = Instant::now();
    let report = if config.software_pipelining {
        mcpart_sched::evaluate_pipelined(
            &moved_program,
            &moved_placement,
            &eval_machine,
            profile,
            &moved_access,
        )
    } else {
        evaluate(&moved_program, &moved_placement, &eval_machine, profile, &moved_access)
    };
    if config.obs.is_enabled() {
        config.obs.counter("sim", "cycles", report.total_cycles as i64);
        config.obs.counter("sim", "stall_cycles", report.stall_cycles as i64);
        config.obs.counter("sim", "transfer_cycles", report.transfer_cycles as i64);
        config.obs.counter("sim", "dynamic_moves", report.dynamic_moves as i64);
        config.obs.counter("sim", "static_moves", report.static_moves as i64);
        config.obs.counter("sim", "remote_accesses", report.dynamic_remote_accesses as i64);
        config.obs.span_since("pipeline", "sim", clock);
    }
    check_clock(Stage::Evaluation)?;

    let data_bytes = moved_placement.bytes_per_cluster(&moved_program, machine.num_clusters());
    if config.obs.is_enabled() {
        for (cluster, &bytes) in data_bytes.iter().enumerate() {
            config.obs.counter_args(
                "pipeline",
                "data_bytes",
                bytes as i64,
                &[("cluster", cluster as i64)],
            );
        }
    }
    Ok(PipelineResult {
        method: config.method,
        requested_method: config.method,
        downgrades: Vec::new(),
        program: moved_program,
        placement: moved_placement,
        report,
        rhop_stats,
        detailed_runs: config.method.detailed_partitioner_runs(),
        data_bytes,
        moves_inserted: move_stats.moves_inserted,
        partition_time,
        manifest,
        repartition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GdpError;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth};

    fn bench_program() -> Program {
        let mut p = Program::new("bench");
        let t1 = p.add_object(DataObject::global("t1", 128));
        let t2 = p.add_object(DataObject::global("t2", 64));
        let state = p.add_object(DataObject::global("state", 16));
        let mut b = FunctionBuilder::entry(&mut p);
        let base1 = b.addrof(t1);
        let base2 = b.addrof(t2);
        let sbase = b.addrof(state);
        let mut acc = b.iconst(0);
        for i in 0..4i64 {
            let o = b.iconst(4 * i);
            let a1 = b.add(base1, o);
            let v1 = b.load(MemWidth::B4, a1);
            let a2 = b.add(base2, o);
            let v2 = b.load(MemWidth::B4, a2);
            let s = b.add(v1, v2);
            acc = b.add(acc, s);
        }
        b.store(MemWidth::B4, sbase, acc);
        b.ret(Some(acc));
        p
    }

    #[test]
    fn all_methods_run_and_validate() {
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        for method in Method::ALL {
            let mut cfg = PipelineConfig::new(method);
            cfg.validate = true;
            let result = run_pipeline(&p, &profile, &machine, &cfg).expect("pipeline");
            assert!(result.cycles() > 0, "{method} produced zero cycles");
            assert!(!result.was_downgraded(), "{method} should run cleanly");
            mcpart_ir::verify_program(&result.program).unwrap();
        }
    }

    #[test]
    fn unified_is_competitive() {
        // The unified model has no data-placement penalty, so it should
        // be at least as fast as the naive scheme at high move latency.
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(10);
        let unified = run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::Unified))
            .expect("pipeline");
        let naive = run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::Naive))
            .expect("pipeline");
        assert!(
            unified.cycles() <= naive.cycles() + 2,
            "unified {} vs naive {}",
            unified.cycles(),
            naive.cycles()
        );
    }

    #[test]
    fn profile_max_counts_two_runs() {
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        let pm = run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::ProfileMax))
            .expect("pipeline");
        assert_eq!(pm.detailed_runs, 2);
        let gdp = run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::Gdp))
            .expect("pipeline");
        assert_eq!(gdp.detailed_runs, 1);
    }

    #[test]
    fn method_display_names() {
        assert_eq!(Method::Gdp.to_string(), "GDP");
        assert_eq!(Method::ProfileMax.to_string(), "Profile Max");
        assert_eq!(Method::Naive.to_string(), "Naive");
        assert_eq!(Method::Unified.to_string(), "Unified");
    }

    #[test]
    fn starved_gdp_downgrades_to_profile_max() {
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        let mut cfg = PipelineConfig::new(Method::Gdp);
        cfg.gdp.fuel = Some(0); // the graph partitioner cannot refine at all
        cfg.validate = true;
        let result = run_pipeline(&p, &profile, &machine, &cfg).expect("ladder recovers");
        assert_eq!(result.requested_method, Method::Gdp);
        assert_eq!(result.method, Method::ProfileMax);
        assert_eq!(result.downgrades.len(), 1);
        assert_eq!(result.downgrades[0].from, Method::Gdp);
        assert_eq!(result.downgrades[0].to, Method::ProfileMax);
        assert!(result.downgrades[0].reason.contains("budget"), "{}", result.downgrades[0]);
        assert!(result.cycles() > 0);
    }

    #[test]
    fn ladder_bottoms_out_at_naive() {
        // Starve GDP *and* RHOP: GDP fails on fuel, Profile Max and
        // Naive fail on the estimator budget, so the error that
        // surfaces is the last rung's.
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        let mut cfg = PipelineConfig::new(Method::Gdp);
        cfg.gdp.fuel = Some(0);
        cfg.rhop.max_estimator_calls = Some(1);
        let e = run_pipeline(&p, &profile, &machine, &cfg).unwrap_err();
        assert_eq!(e.method, Method::Naive, "the surfaced error names the last rung tried");
        assert!(matches!(e.kind, PipelineErrorKind::Rhop(_)), "{e}");
    }

    #[test]
    fn unverifiable_program_is_rejected_up_front() {
        let mut p = Program::new("broken");
        let mut b = FunctionBuilder::entry(&mut p);
        let v = b.iconst(1);
        b.ret(Some(v));
        // Truncate the entry block's terminator.
        let entry = p.entry;
        let eb = p.functions[entry].entry;
        p.functions[entry].blocks[eb].term = None;
        let profile = Profile::uniform(&p, 1);
        let machine = Machine::paper_2cluster(5);
        let e =
            run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::Gdp)).unwrap_err();
        assert_eq!(e.stage, Stage::Verify);
        assert!(matches!(e.kind, PipelineErrorKind::Verify(_)), "{e}");
    }

    #[test]
    fn mismatched_profile_is_rejected_up_front() {
        let p = bench_program();
        let other = Program::new("other");
        let profile = Profile::uniform(&other, 1);
        let machine = Machine::paper_2cluster(5);
        let e =
            run_pipeline(&p, &profile, &machine, &PipelineConfig::new(Method::Naive)).unwrap_err();
        assert_eq!(e.stage, Stage::Analysis);
        assert!(!e.is_recoverable());
    }

    /// A config whose abort handle has already fired, as the
    /// `unit_timeout` watchdog fires it.
    fn aborted(method: Method) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(method);
        cfg.rhop.abort = mcpart_par::supervise::AbortHandle::armed();
        cfg.rhop.abort.abort();
        cfg
    }

    #[test]
    fn fired_abort_times_out_at_the_first_stage_boundary() {
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        let e = run_pipeline(&p, &profile, &machine, &aborted(Method::Unified)).unwrap_err();
        assert!(matches!(e.kind, PipelineErrorKind::Timeout { .. }), "{e}");
        assert_eq!(e.stage, Stage::Analysis, "{e}");
    }

    #[test]
    fn timeout_is_recoverable_through_the_ladder() {
        // With the abort fired, GDP times out, Profile Max times out,
        // Naive times out: the surfaced error is a timeout (recoverable
        // kind) from the final rung.
        let p = bench_program();
        let profile = Profile::uniform(&p, 10);
        let machine = Machine::paper_2cluster(5);
        let e = run_pipeline(&p, &profile, &machine, &aborted(Method::Gdp)).unwrap_err();
        assert!(e.is_recoverable());
    }

    #[test]
    fn gdp_internal_errors_render() {
        // Exercise the Display plumbing end to end.
        let e = PipelineError {
            program: "x".into(),
            method: Method::Gdp,
            stage: Stage::DataPartition,
            kind: PipelineErrorKind::Gdp(GdpError::NoClusters),
        };
        assert!(e.to_string().contains("no clusters"), "{e}");
    }
}
