//! Partitioning-pipeline performance benchmark: per-workload stage
//! wall-clock, estimator-call accounting (full vs pruned probes, and
//! the incremental-estimation ablation), and the suite-level parallel
//! speedup of `--jobs N` over `--jobs 1`.
//!
//! Writes a machine-readable report (default `BENCH_partition.json`,
//! override with `--out PATH`); `scripts/bench.sh` wraps this binary.
//! `--quick` runs one repetition on a three-workload subset for smoke
//! testing.

use mcpart_core::{run_pipeline, Method, PipelineConfig};
use mcpart_machine::Machine;
use mcpart_obs::json::JsonWriter;
use mcpart_workloads::Workload;
use std::time::{Duration, Instant};

/// One timed pipeline run: (partition-stage wall, total wall, result).
fn timed_run(
    w: &Workload,
    machine: &Machine,
    cfg: &PipelineConfig,
) -> (Duration, Duration, mcpart_core::PipelineResult) {
    let start = Instant::now();
    let r = run_pipeline(&w.program, &w.profile, machine, cfg).expect("pipeline");
    let total = start.elapsed();
    (r.partition_time, total, r)
}

/// Best-of-`reps` wall times (minimum is the least noisy estimator on a
/// shared host).
fn best_of(
    reps: usize,
    w: &Workload,
    machine: &Machine,
    cfg: &PipelineConfig,
) -> (Duration, Duration, mcpart_core::PipelineResult) {
    let mut best: Option<(Duration, Duration, mcpart_core::PipelineResult)> = None;
    for _ in 0..reps {
        let run = timed_run(w, machine, cfg);
        if best.as_ref().map(|(_, t, _)| run.1 < *t).unwrap_or(true) {
            best = Some(run);
        }
    }
    best.expect("reps >= 1")
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A one-function edit applied the way a developer edit lands — on the
/// textual IR: one table-mask constant of the last function
/// (`iconst 2^k - 1`, the synth generator's in-bounds index mask)
/// drops by one. The smaller mask keeps every access in bounds and
/// leaves control flow — and therefore the profile and the GDP homes —
/// untouched, so the dirty cone is exactly the edited function plus
/// its merge neighbourhood.
fn one_function_edit(program: &mcpart_ir::Program) -> mcpart_ir::Program {
    let text = mcpart_ir::program_to_string(program);
    let func_start = text.rfind("\nfunc ").map(|i| i + 1).unwrap_or(0);
    let body = &text[func_start..];
    let (at, len, k) = body
        .match_indices("= iconst ")
        .find_map(|(i, m)| {
            let at = i + m.len();
            let len = body[at..].chars().take_while(char::is_ascii_digit).count();
            let k: i64 = body[at..at + len].parse().ok()?;
            // The generator's masks are 63/127/255/511 (tables of
            // 64..512 elements); nothing else in a synth function has
            // that shape.
            ((63..=511).contains(&k) && (k + 1) & k == 0).then_some((at, len, k))
        })
        .expect("a mask constant to edit");
    let edited = format!("{}{}{}", &text[..func_start + at], k - 1, &text[func_start + at + len..]);
    let p = mcpart_ir::parse_program(&edited).expect("edited program parses");
    mcpart_ir::verify_program(&p).expect("edited program verifies");
    p
}

fn main() {
    let opts = mcpart_bench::BenchArgs::from_env(&[
        "--benchmarks",
        "--quick",
        "--metrics",
        "--jobs",
        "--out",
        "--reps",
    ]);
    let reps = opts.reps.unwrap_or(3);
    let out = opts.out.as_deref().unwrap_or("BENCH_partition.json");
    let mut workloads = opts.workloads;
    if opts.quick {
        workloads.truncate(3);
    }
    let jobs = mcpart_par::resolve_jobs(opts.jobs);
    let machine = Machine::paper_2cluster(5);

    // The report streams: the header fields are known up front, and
    // each workload's row is written as it finishes.
    let mut doc = JsonWriter::new();
    doc.open_obj()
        .field("schema_version", &mcpart_bench::diff::BENCH_SCHEMA_VERSION)
        .field("benchmark", "partition-pipeline")
        .field("jobs", &jobs)
        .field("quick", &opts.quick)
        .field("metrics", &opts.metrics)
        .field("host_parallelism", &mcpart_par::available_jobs())
        .key("workloads")
        .open_arr();
    let mut suite_seq = Duration::ZERO;
    let mut suite_seq_full = Duration::ZERO;
    for w in &workloads {
        // Incremental estimation ON (the default), sequential. With
        // `--metrics` an observability sink rides along and its final
        // counter values are folded into the report row.
        let obs =
            if opts.metrics { mcpart_obs::Obs::enabled() } else { mcpart_obs::Obs::disabled() };
        let cfg = PipelineConfig::new(Method::Gdp).with_jobs(1).with_obs(obs.clone());
        let (part, total, r) = best_of(reps, w, &machine, &cfg);
        suite_seq += total;
        // Incremental estimation OFF: every probe pays a full schedule
        // simulation. Same placements, same estimator-call budget; the
        // difference is pure per-probe work.
        let mut full_cfg = PipelineConfig::new(Method::Gdp).with_jobs(1);
        full_cfg.rhop.incremental = false;
        let (_, full_total, full_r) = best_of(reps, w, &machine, &full_cfg);
        suite_seq_full += full_total;
        assert_eq!(
            r.report.total_cycles, full_r.report.total_cycles,
            "incremental estimation changed {} results",
            w.name
        );
        let st = &r.rhop_stats;
        doc.open_obj()
            .field("benchmark", &w.name)
            .field("partition_secs", &secs(part))
            .field("pipeline_secs", &secs(total))
            .field("pipeline_secs_no_incremental", &secs(full_total))
            .field("regions", &st.regions)
            .field("estimator_calls", &st.estimator_calls)
            .field("full_evals", &st.full_evals)
            .field("pruned_evals", &st.pruned_evals)
            .field("pruned_lock", &st.pruned_lock)
            .field("pruned_bound", &st.pruned_bound)
            .field("moves_accepted", &st.moves_accepted)
            .field("cycles", &r.report.total_cycles)
            .field("stall_cycles", &r.report.stall_cycles)
            .field("transfer_cycles", &r.report.transfer_cycles)
            // Supervision accounting: unit retries plus method
            // downgrades, and the quarantine outcome. All zero on a
            // healthy suite — nonzero values in a benchmark report
            // flag that the numbers were produced on degraded paths.
            .field("retries", &(st.retries + r.downgrades.len() as u64))
            .field("quarantined", &st.quarantine.len());
        if !st.quarantine.is_empty() {
            doc.field("quarantine", &st.quarantine.names());
        }
        if opts.metrics {
            for (counter, key) in [("cut", "gdp_cut"), ("balance_x1000", "gdp_balance_x1000")] {
                if let Some(v) = obs.last_counter("gdp", counter) {
                    doc.field(key, &v);
                }
            }
        }
        doc.close_obj();
        eprintln!(
            "{:<16} partition {:>8.3}s  pipeline {:>8.3}s (no-incr {:>8.3}s)  \
             probes {} = {} full + {} pruned",
            w.name,
            secs(part),
            secs(total),
            secs(full_total),
            st.estimator_calls,
            st.full_evals,
            st.pruned_evals,
        );
    }

    // Suite-level parallel speedup: the whole workload set partitioned
    // sequentially vs fanned out over `jobs` workers. Measured at the
    // suite level (workload × method stealing) because that is how the
    // experiment harness consumes the pool.
    let run_suite = |j: usize| {
        let start = Instant::now();
        let cfgs: Vec<PipelineConfig> = vec![PipelineConfig::new(Method::Gdp).with_jobs(1)];
        let pairs: Vec<(usize, usize)> =
            (0..workloads.len()).flat_map(|i| (0..cfgs.len()).map(move |c| (i, c))).collect();
        let _ = mcpart_par::parallel_map(j, &pairs, |_, &(i, c)| {
            run_pipeline(&workloads[i].program, &workloads[i].profile, &machine, &cfgs[c])
                .expect("pipeline")
                .report
                .total_cycles
        });
        start.elapsed()
    };
    let mut best_par = Duration::MAX;
    let mut best_seq = Duration::MAX;
    for _ in 0..reps {
        best_seq = best_seq.min(run_suite(1));
        if jobs > 1 {
            best_par = best_par.min(run_suite(jobs));
        }
    }
    if jobs <= 1 {
        // A single worker runs the exact sequential code path; there is
        // no parallel configuration to time.
        eprintln!(
            "note: jobs=1 (host parallelism {}); speedup is 1 by construction",
            mcpart_par::available_jobs()
        );
        best_par = best_seq;
    }
    let speedup = secs(best_seq) / secs(best_par).max(1e-9);
    let incr_speedup = secs(suite_seq_full) / secs(suite_seq).max(1e-9);
    eprintln!(
        "suite: jobs=1 {:.3}s, jobs={jobs} {:.3}s -> {speedup:.2}x parallel speedup; \
         incremental estimation {incr_speedup:.2}x over full re-simulation",
        secs(best_seq),
        secs(best_par),
    );

    // Service-mode throughput: every workload spooled as a job file and
    // drained twice through the in-process serve engine. The cold pass
    // computes and caches every artifact; the warm pass must be pure
    // verified cache hits, and the warm/cold ratio is what a
    // long-lived `mcpart serve` saves a resubmitting client.
    let spool = std::env::temp_dir().join(format!("mcpart_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("serve spool");
    let loader = |name: &str| {
        mcpart_workloads::by_name(name)
            .map(|w| (w.program, w.profile))
            .ok_or_else(|| format!("unknown benchmark {name}"))
    };
    let serve_cfg = mcpart_core::ServeConfig { jobs, drain: true, ..Default::default() };
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let drain = |spool: &std::path::Path| {
        for w in &workloads {
            std::fs::write(
                spool.join(format!("{}.job", w.name)),
                format!("{{\"mcpart_job\":1,\"program\":\"{}\"}}\n", w.name),
            )
            .expect("spool job");
        }
        let start = Instant::now();
        let sum = mcpart_core::serve(spool, &serve_cfg, &loader, &shutdown).expect("serve");
        (start.elapsed(), sum)
    };
    let (serve_cold, cold_sum) = drain(&spool);
    let (serve_warm, warm_sum) = drain(&spool);
    assert_eq!(cold_sum.completed, workloads.len() as u64, "cold drain did not complete all jobs");
    assert_eq!(warm_sum.cache_hits, warm_sum.admitted, "warm drain was not all cache hits");
    let serve_admitted = cold_sum.admitted + warm_sum.admitted;
    let hit_rate = (cold_sum.cache_hits + warm_sum.cache_hits) as f64 / serve_admitted as f64;
    let warm_jobs_per_sec = workloads.len() as f64 / secs(serve_warm).max(1e-9);
    eprintln!(
        "serve: cold {:.3}s, warm {:.3}s ({} jobs, cache hit rate {:.0}%, {:.1} jobs/s warm)",
        secs(serve_cold),
        secs(serve_warm),
        workloads.len(),
        hit_rate * 100.0,
        warm_jobs_per_sec,
    );
    let _ = std::fs::remove_dir_all(&spool);

    // Incremental re-partitioning: a one-function edit against a
    // manifest baseline vs a from-scratch run of the edited program.
    // The edit is textual — the trip bound of the last function's
    // first counted loop drops by one — so it mirrors how a developer
    // edit actually lands. Speedup is measured on the partition stage,
    // the only stage replay touches.
    let spec = if opts.quick { "ops=3000,seed=3" } else { "synth_10k" };
    let base_w = mcpart_workloads::synth(spec).expect("synthetic workload");
    // Round-trip the baseline through the textual IR so its function
    // hashes are computed on the same spelling the edited program has.
    let base_p = mcpart_ir::parse_program(&mcpart_ir::program_to_string(&base_w.program))
        .expect("baseline roundtrips");
    let base_profile = mcpart_sim::profile_run(&base_p, &[], mcpart_sim::ExecConfig::default())
        .expect("baseline runs");
    let base_cfg = PipelineConfig::new(Method::Gdp).with_jobs(1);
    let base =
        run_pipeline(&base_p, &base_profile, &machine, &base_cfg).expect("baseline pipeline");
    let manifest = std::sync::Arc::new(base.manifest.clone().expect("gdp manifest"));
    let edited = one_function_edit(&base_w.program);
    let edited_profile = mcpart_sim::profile_run(&edited, &[], mcpart_sim::ExecConfig::default())
        .expect("edited program runs");
    let time_partition = |cfg: &PipelineConfig| {
        let mut best: Option<(Duration, mcpart_core::PipelineResult)> = None;
        for _ in 0..reps {
            let r = run_pipeline(&edited, &edited_profile, &machine, cfg).expect("pipeline");
            if best.as_ref().map(|(t, _)| r.partition_time < *t).unwrap_or(true) {
                best = Some((r.partition_time, r));
            }
        }
        best.expect("reps >= 1")
    };
    let (scratch_secs, scratch_r) = time_partition(&PipelineConfig::new(Method::Gdp).with_jobs(1));
    let mut inc_cfg = PipelineConfig::new(Method::Gdp).with_jobs(1);
    inc_cfg.baseline = Some(manifest);
    let (inc_secs, inc_r) = time_partition(&inc_cfg);
    assert_eq!(
        scratch_r.report.total_cycles, inc_r.report.total_cycles,
        "incremental re-partitioning changed results"
    );
    let rp = inc_r.repartition.expect("repartition stats");
    let repartition_speedup = secs(scratch_secs) / secs(inc_secs).max(1e-9);
    eprintln!(
        "repartition: {spec} one-function edit, scratch {:.3}s vs incremental {:.3}s \
         -> {repartition_speedup:.2}x ({} dirty / {} replayed of {}, cone {:.1}%)",
        secs(scratch_secs),
        secs(inc_secs),
        rp.dirty_funcs,
        rp.replayed_funcs,
        rp.total_funcs,
        rp.cone_frac_x1000() as f64 / 10.0,
    );

    doc.close_arr()
        .field("suite_secs_sequential", &secs(best_seq))
        .field("suite_secs_parallel", &secs(best_par))
        .field("parallel_speedup", &speedup)
        .field("incremental_speedup", &incr_speedup)
        .field("serve_cold_secs", &secs(serve_cold))
        .field("serve_warm_secs", &secs(serve_warm))
        .field("serve_cache_hit_rate", &hit_rate)
        .field("serve_warm_jobs_per_sec", &warm_jobs_per_sec)
        .field("serve_admitted", &serve_admitted)
        .field("serve_rejected", &(cold_sum.rejected + warm_sum.rejected))
        .field("serve_cache_hits", &(cold_sum.cache_hits + warm_sum.cache_hits))
        .field("serve_cache_evictions", &(cold_sum.cache_evictions + warm_sum.cache_evictions))
        .field("serve_quarantined", &(cold_sum.quarantined + warm_sum.quarantined))
        .field("repartition_scratch_secs", &secs(scratch_secs))
        .field("repartition_incremental_secs", &secs(inc_secs))
        .field("repartition_speedup", &repartition_speedup)
        .field("repartition_dirty_funcs", &rp.dirty_funcs)
        .field("repartition_replayed_funcs", &rp.replayed_funcs)
        .field("repartition_cone_frac_x1000", &rp.cone_frac_x1000())
        .close_obj();
    std::fs::write(out, doc.finish() + "\n").expect("write report");
    eprintln!("wrote {out}");
}
