//! One compile, either through `run_pipeline` (tracing off) or stage by
//! stage (tracing on): the staged form calls every layer's public
//! function in `run_pipeline`'s order, with a benchmark span around
//! each call, and then reads the counters the program emitted through
//! `Obs`. The benchmark's tests pin the two forms to identical results.

use crate::trace::Trace;
use mcpart_analysis::{validate_profile, AccessInfo, PointsTo};
use mcpart_core::{
    build_manifest, compute_reuse, gdp_partition, naive_partition, profile_max_partition,
    rhop_partition_detailed, run_pipeline, unified_partition, Method, ObjectGroups, PipelineConfig,
    PipelineResult,
};
use mcpart_ir::{Profile, Program};
use mcpart_machine::Machine;
use mcpart_obs::{EventKind, Obs};
use mcpart_sched::{evaluate, insert_moves_with, normalize_placement, validate_placement};
use std::sync::Arc;
use std::time::Instant;

/// Layers whose spans tile a compile, in `run_pipeline`'s order (the
/// edit workload adds the `ir`, `sim` and `checkpoint` layers around
/// it). Their sum is what `pipeline.residual_s` is measured against.
pub const TOP_LAYERS: [&str; 18] = [
    "ir.parse",
    "ir.verify",
    "sim.profile",
    "checkpoint.load",
    "analysis",
    "groups",
    "gdp",
    "repartition",
    "rhop",
    "baselines.profile_max",
    "baselines.naive",
    "baselines.unified",
    "sched.normalize",
    "sched.moves",
    "sched.reanalysis",
    "sched.validate",
    "sched.evaluate",
    "checkpoint.write",
];

/// Spans the program emits itself, nested under a top layer:
/// `(layer, parent, obs category, obs name)`.
pub const CHILD_LAYERS: [(&str, &str, &str, &str); 2] =
    [("gdp.dfg", "gdp", "gdp", "dfg"), ("metis", "gdp", "metis", "partition")];

/// Compiles `program` with `config`: `run_pipeline` when `tr` is off,
/// the staged pipeline when it is on.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn compile(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
    tr: &mut Trace,
) -> Result<PipelineResult, String> {
    if !tr.is_on() {
        return run_pipeline(program, profile, machine, config).map_err(|e| e.to_string());
    }
    let obs = Obs::enabled();
    let config = config.clone().with_obs(obs.clone());
    let result = staged(program, profile, machine, &config, tr);
    harvest(&obs, tr);
    result
}

/// Reads the spans and counters the GDP and METIS layers emitted.
fn harvest(obs: &Obs, tr: &mut Trace) {
    for e in obs.events() {
        match e.kind {
            EventKind::Span => {
                if let Some(&(layer, ..)) =
                    CHILD_LAYERS.iter().find(|(_, _, cat, name)| e.cat == *cat && e.name == *name)
                {
                    tr.add(layer, e.dur_us as f64 * 1e-6, 0.0);
                }
            }
            EventKind::Counter(v) => match (e.cat, e.name.as_str()) {
                ("gdp", "cut") => tr.count("gdp.cut", v as f64),
                ("metis", "coarsen_levels") => tr.count("metis.coarsen_levels", v as f64),
                ("metis", "peak_graph_bytes") => tr.peak("metis.peak_graph_bytes", v as f64),
                _ => {}
            },
        }
    }
}

/// `run_pipeline`'s clean path for one method, one public call per
/// span. The degradation ladder, watchdog and panic isolation are left
/// out: a failure here is reported, not retried. Only the options the
/// benchmark uses are mirrored (`pre_optimize`, `validate` and
/// `software_pipelining` stay off).
fn staged(
    program: &Program,
    profile: &Profile,
    machine: &Machine,
    config: &PipelineConfig,
    tr: &mut Trace,
) -> Result<PipelineResult, String> {
    tr.span("ir.verify", || mcpart_ir::verify_program(program)).map_err(|e| e.to_string())?;
    machine.validate().map_err(|e| e.to_string())?;
    let (program, access) = tr.span("analysis", || {
        validate_profile(program, profile).map_err(|e| e.to_string())?;
        let program = profile.apply_heap_sizes(program);
        let pts = PointsTo::compute(&program);
        let access = AccessInfo::compute(&program, &pts, profile);
        Ok::<_, String>((program, access))
    })?;
    tr.count("analysis.ops", program.num_ops() as f64);
    let groups = tr.span("groups", || ObjectGroups::compute(&program, &access));
    tr.count("groups.count", groups.len() as f64);

    let start = Instant::now();
    let mut manifest = None;
    let mut repartition = None;
    let (placement, rhop_stats) = match config.method {
        Method::Gdp => {
            let dp = tr
                .span("gdp", || {
                    gdp_partition(&program, profile, &access, &groups, machine, &config.gdp)
                })
                .map_err(|e| e.to_string())?;
            let mut rhop_cfg = config.rhop.clone();
            if let Some(baseline) = &config.baseline {
                let (reuse, stats) = tr.span("repartition", || {
                    compute_reuse(
                        &program,
                        &access,
                        &groups,
                        &dp,
                        config.gdp.merge_dependent_ops,
                        baseline,
                    )
                });
                repartition = Some(stats);
                rhop_cfg.reuse = Some(Arc::new(reuse));
            }
            let (placement, stats, outcomes) = tr
                .span("rhop", || {
                    rhop_partition_detailed(
                        &program,
                        &access,
                        profile,
                        machine,
                        &dp.object_home,
                        &rhop_cfg,
                    )
                })
                .map_err(|e| e.to_string())?;
            manifest = Some(tr.span("repartition", || {
                build_manifest(&program, &access, &groups, &dp, &placement, &outcomes)
            }));
            (placement, stats)
        }
        Method::ProfileMax => tr
            .span("baselines.profile_max", || {
                profile_max_partition(
                    &program,
                    &access,
                    profile,
                    machine,
                    &groups,
                    &config.rhop,
                    config.profile_max_balance,
                )
            })
            .map_err(|e| e.to_string())?,
        Method::Naive => tr
            .span("baselines.naive", || {
                naive_partition(&program, &access, profile, machine, &groups, &config.rhop)
            })
            .map_err(|e| e.to_string())?,
        Method::Unified => tr
            .span("baselines.unified", || {
                unified_partition(&program, &access, profile, machine, &config.rhop)
            })
            .map_err(|e| e.to_string())?,
    };
    // Every method runs RHOP (Profile Max twice, summed in its stats).
    tr.count("rhop.estimator_calls", rhop_stats.estimator_calls as f64);
    tr.count("rhop.full_evals", rhop_stats.full_evals as f64);
    tr.count("rhop.pruned_evals", rhop_stats.pruned_evals as f64);
    tr.count("rhop.moves_accepted", rhop_stats.moves_accepted as f64);
    tr.count("rhop.regions", rhop_stats.regions as f64);
    let eval_machine = match config.method {
        Method::Unified => machine.clone().with_unified_memory(),
        _ => machine.clone(),
    };
    let normalized = tr.span("sched.normalize", || {
        normalize_placement(&program, &placement, &access, &eval_machine, profile)
    });
    let (moved_program, moved_placement, move_stats) = tr.span("sched.moves", || {
        insert_moves_with(&program, &normalized, &eval_machine, Some(profile), config.move_strategy)
    });
    tr.count("sched.moves_inserted", move_stats.moves_inserted as f64);
    let partition_time = start.elapsed();
    let moved_access = tr.span("sched.reanalysis", || {
        let pts = PointsTo::compute(&moved_program);
        AccessInfo::compute(&moved_program, &pts, profile)
    });
    if config.check_placement {
        tr.span("sched.validate", || {
            validate_placement(&moved_program, &moved_placement, &moved_access, &eval_machine)
        })
        .map_err(|e| e.to_string())?;
    }
    let report = tr.span("sched.evaluate", || {
        evaluate(&moved_program, &moved_placement, &eval_machine, profile, &moved_access)
    });
    let data_bytes = moved_placement.bytes_per_cluster(&moved_program, machine.num_clusters());
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

/// Whether two compiles produced the same code: transformed program,
/// placement, report, RHOP work counters and manifest.
pub fn same_result(a: &PipelineResult, b: &PipelineResult) -> bool {
    a.method == b.method
        && a.downgrades.is_empty() == b.downgrades.is_empty()
        && a.program == b.program
        && a.placement == b.placement
        && a.report == b.report
        && a.rhop_stats == b.rhop_stats
        && a.data_bytes == b.data_bytes
        && a.moves_inserted == b.moves_inserted
        && a.manifest == b.manifest
        && a.repartition == b.repartition
}
