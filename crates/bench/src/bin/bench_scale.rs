//! Million-op scale trajectory: partitions synthetic programs of 10⁴,
//! 10⁵, and 10⁶ static operations end-to-end (points-to, access info,
//! object grouping, GDP) and records ops/sec, peak graph bytes, and the
//! `--jobs` scaling curve. Correctness rides along: every `--jobs`
//! level must produce a bit-identical `DataPartition`.
//!
//! Writes `BENCH_scale.json` (override with `--out PATH`), a
//! `bench-diff`-compatible artifact; `scripts/bench.sh --scale` wraps
//! this binary. `--quick` drops the 10⁶ point and runs one repetition
//! for smoke testing.

use mcpart_core::{gdp_partition, DataPartition, GdpConfig, ObjectGroups};
use mcpart_machine::Machine;
use mcpart_obs::json::JsonWriter;
use mcpart_workloads::Workload;
use std::time::{Duration, Instant};

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One end-to-end partition of a prepared workload at a given jobs
/// level: analyses plus GDP, returning the wall time and the partition.
fn partition_once(w: &Workload, machine: &Machine, jobs: usize) -> (Duration, DataPartition) {
    let start = Instant::now();
    let pts = mcpart_analysis::PointsTo::compute(&w.program);
    let access = mcpart_analysis::AccessInfo::compute(&w.program, &pts, &w.profile);
    let groups = ObjectGroups::compute(&w.program, &access);
    let cfg = GdpConfig { jobs, ..GdpConfig::default() };
    let dp = gdp_partition(&w.program, &w.profile, &access, &groups, machine, &cfg)
        .expect("gdp partition");
    (start.elapsed(), dp)
}

fn main() {
    let opts = mcpart_bench::BenchArgs::from_env(&["--quick", "--out", "--reps"]);
    let reps = opts.reps.unwrap_or(2);
    let out = opts.out.as_deref().unwrap_or("BENCH_scale.json");
    let machine = Machine::paper_2cluster(5);
    let mut points: Vec<(&str, usize)> =
        vec![("synth_10k", 10_000), ("synth_100k", 100_000), ("synth_1m", 1_000_000)];
    if opts.quick {
        points.truncate(2);
    }
    // The full curve runs even on a single-core host (the threads still
    // exercise the sharded code paths and the bit-identity asserts);
    // the recorded speedup is whatever the host's parallelism allows.
    let jobs_curve: [usize; 3] = [1, 2, 4];

    // The report streams: the header fields are known up front, and
    // each point's row is written as it finishes.
    let mut doc = JsonWriter::new();
    doc.open_obj()
        .field("schema_version", &mcpart_bench::diff::BENCH_SCHEMA_VERSION)
        .field("benchmark", "scale-trajectory")
        .field("quick", &opts.quick)
        .field("host_parallelism", &mcpart_par::available_jobs())
        .key("workloads")
        .open_arr();
    let mut speedup_at_max = 1.0f64;
    for &(name, target_ops) in &points {
        let gen_start = Instant::now();
        let w = mcpart_workloads::by_name(name).expect("synthetic preset");
        let gen_secs = secs(gen_start.elapsed());
        let ops = w.num_ops();

        // The jobs curve, best-of-reps per level; every level must be
        // bit-identical to the sequential partition.
        let mut level_secs: Vec<(usize, f64)> = Vec::new();
        let mut reference: Option<DataPartition> = None;
        for &jobs in &jobs_curve {
            let mut best = Duration::MAX;
            let mut dp_last = None;
            for _ in 0..reps {
                let (t, dp) = partition_once(&w, &machine, jobs);
                best = best.min(t);
                dp_last = Some(dp);
            }
            let dp = dp_last.expect("reps >= 1");
            match &reference {
                None => reference = Some(dp),
                Some(r) => {
                    assert_eq!(r, &dp, "{name}: --jobs {jobs} changed the partition");
                }
            }
            level_secs.push((jobs, secs(best)));
        }
        let seq_secs = level_secs[0].1;
        let (max_jobs, par_secs) = *level_secs.last().expect("non-empty curve");
        let speedup = seq_secs / par_secs.max(1e-9);
        speedup_at_max = speedup;

        // One untimed observed run for the coarsening trajectory.
        let obs = mcpart_obs::Obs::enabled();
        let pts = mcpart_analysis::PointsTo::compute(&w.program);
        let access = mcpart_analysis::AccessInfo::compute(&w.program, &pts, &w.profile);
        let groups = ObjectGroups::compute(&w.program, &access);
        let cfg = GdpConfig { jobs: max_jobs, obs: obs.clone(), ..GdpConfig::default() };
        let _ = gdp_partition(&w.program, &w.profile, &access, &groups, &machine, &cfg)
            .expect("gdp partition");
        let peak_bytes = obs.last_counter("metis", "peak_graph_bytes").unwrap_or(0);
        let levels = obs.last_counter("metis", "coarsen_levels").unwrap_or(0);
        let cut = obs.last_counter("gdp", "cut").unwrap_or(0);

        doc.open_obj()
            .field("benchmark", &name)
            .field("target_ops", &target_ops)
            .field("ops", &ops)
            .field("objects", &w.num_objects())
            .field("gen_secs", &gen_secs)
            .field("partition_secs", &seq_secs)
            .field("partition_secs_parallel", &par_secs)
            .field("ops_per_sec", &(ops as f64 / seq_secs.max(1e-9)))
            .field("parallel_speedup", &speedup)
            .field("peak_graph_bytes", &peak_bytes)
            .field("coarsen_levels", &levels)
            .field("gdp_cut", &cut);
        for (jobs, t) in &level_secs {
            doc.field(&format!("secs_jobs_{jobs}"), t);
        }
        doc.close_obj();
        eprintln!(
            "{name:<12} {ops:>8} ops  gen {gen_secs:>6.2}s  partition jobs=1 {seq_secs:>6.2}s, \
             jobs={max_jobs} {par_secs:>6.2}s ({speedup:.2}x)  peak {peak_bytes} B, \
             {levels} levels, cut {cut}",
        );
    }

    doc.close_arr().field("parallel_speedup", &speedup_at_max).close_obj();
    std::fs::write(out, doc.finish() + "\n").expect("write report");
    eprintln!("wrote {out}");
}
