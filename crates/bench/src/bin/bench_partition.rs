//! Partitioning-pipeline performance benchmark: per-workload stage
//! wall-clock, estimator-call accounting (full vs pruned probes, and
//! the incremental-estimation ablation), and the suite-level parallel
//! speedup of `--jobs N` over `--jobs 1`.
//!
//! Writes a machine-readable report (default `BENCH_partition.json`,
//! override with `--out PATH`); `scripts/bench.sh` wraps this binary.
//! `--quick` runs one repetition on a three-workload subset for smoke
//! testing.

use mcpart_bench::report::Json;
use mcpart_core::{run_pipeline, Method, PipelineConfig};
use mcpart_machine::Machine;
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

    let mut rows: Vec<Json> = Vec::new();
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
        let mut row = vec![
            ("benchmark".into(), Json::Str(w.name.to_string())),
            ("partition_secs".into(), Json::Num(secs(part))),
            ("pipeline_secs".into(), Json::Num(secs(total))),
            ("pipeline_secs_no_incremental".into(), Json::Num(secs(full_total))),
            ("regions".into(), Json::Int(st.regions as i64)),
            ("estimator_calls".into(), Json::Int(st.estimator_calls as i64)),
            ("full_evals".into(), Json::Int(st.full_evals as i64)),
            ("pruned_evals".into(), Json::Int(st.pruned_evals as i64)),
            ("pruned_lock".into(), Json::Int(st.pruned_lock as i64)),
            ("pruned_bound".into(), Json::Int(st.pruned_bound as i64)),
            ("moves_accepted".into(), Json::Int(st.moves_accepted as i64)),
            ("cycles".into(), Json::Int(r.report.total_cycles as i64)),
            ("stall_cycles".into(), Json::Int(r.report.stall_cycles as i64)),
            ("transfer_cycles".into(), Json::Int(r.report.transfer_cycles as i64)),
            // Supervision accounting: unit retries plus method
            // downgrades, and the quarantine outcome. All zero on a
            // healthy suite — nonzero values in a benchmark report
            // flag that the numbers were produced on degraded paths.
            ("retries".into(), Json::Int(st.retries as i64 + r.downgrades.len() as i64)),
            ("quarantined".into(), Json::Int(st.quarantine.len() as i64)),
        ];
        if !st.quarantine.is_empty() {
            row.push((
                "quarantine".into(),
                Json::Arr(st.quarantine.names().iter().map(|n| Json::Str(n.to_string())).collect()),
            ));
        }
        if opts.metrics {
            for (counter, key) in [("cut", "gdp_cut"), ("balance_x1000", "gdp_balance_x1000")] {
                if let Some(v) = obs.last_counter("gdp", counter) {
                    row.push((key.into(), Json::Int(v)));
                }
            }
        }
        rows.push(Json::Obj(row));
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

    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::Int(mcpart_bench::diff::BENCH_SCHEMA_VERSION)),
        ("benchmark".into(), Json::Str("partition-pipeline".to_string())),
        ("jobs".into(), Json::Int(jobs as i64)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("metrics".into(), Json::Bool(opts.metrics)),
        ("host_parallelism".into(), Json::Int(mcpart_par::available_jobs() as i64)),
        ("workloads".into(), Json::Arr(rows)),
        ("suite_secs_sequential".into(), Json::Num(secs(best_seq))),
        ("suite_secs_parallel".into(), Json::Num(secs(best_par))),
        ("parallel_speedup".into(), Json::Num(speedup)),
        ("incremental_speedup".into(), Json::Num(incr_speedup)),
        ("serve_cold_secs".into(), Json::Num(secs(serve_cold))),
        ("serve_warm_secs".into(), Json::Num(secs(serve_warm))),
        ("serve_cache_hit_rate".into(), Json::Num(hit_rate)),
        ("serve_warm_jobs_per_sec".into(), Json::Num(warm_jobs_per_sec)),
        ("serve_admitted".into(), Json::Int(serve_admitted as i64)),
        ("serve_rejected".into(), Json::Int((cold_sum.rejected + warm_sum.rejected) as i64)),
        ("serve_cache_hits".into(), Json::Int((cold_sum.cache_hits + warm_sum.cache_hits) as i64)),
        (
            "serve_cache_evictions".into(),
            Json::Int((cold_sum.cache_evictions + warm_sum.cache_evictions) as i64),
        ),
        (
            "serve_quarantined".into(),
            Json::Int((cold_sum.quarantined + warm_sum.quarantined) as i64),
        ),
        ("repartition_scratch_secs".into(), Json::Num(secs(scratch_secs))),
        ("repartition_incremental_secs".into(), Json::Num(secs(inc_secs))),
        ("repartition_speedup".into(), Json::Num(repartition_speedup)),
        ("repartition_dirty_funcs".into(), Json::Int(rp.dirty_funcs as i64)),
        ("repartition_replayed_funcs".into(), Json::Int(rp.replayed_funcs as i64)),
        ("repartition_cone_frac_x1000".into(), Json::Int(rp.cone_frac_x1000() as i64)),
    ]);
    std::fs::write(out, doc.render() + "\n").expect("write report");
    eprintln!("wrote {out}");
}
