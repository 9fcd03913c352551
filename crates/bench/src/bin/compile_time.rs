//! Regenerates §4.5: compile-time comparison. Profile Max runs the
//! detailed computation partitioner twice; GDP and Naive once.

use mcpart_bench::experiments::compile_time;
use mcpart_bench::report::render_table;

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = compile_time(&workloads);
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.1}ms", r.gdp.as_secs_f64() * 1e3),
                format!("{:.1}ms", r.profile_max.as_secs_f64() * 1e3),
                format!("{:.1}ms", r.naive.as_secs_f64() * 1e3),
                format!("{:.2}x", r.profile_max.as_secs_f64() / r.gdp.as_secs_f64().max(1e-9)),
            ]
        })
        .collect();
    let tg: f64 = rows.iter().map(|r| r.gdp.as_secs_f64()).sum();
    let tp: f64 = rows.iter().map(|r| r.profile_max.as_secs_f64()).sum();
    let tn: f64 = rows.iter().map(|r| r.naive.as_secs_f64()).sum();
    table.push(vec![
        "total".to_string(),
        format!("{:.1}ms", tg * 1e3),
        format!("{:.1}ms", tp * 1e3),
        format!("{:.1}ms", tn * 1e3),
        format!("{:.2}x", tp / tg.max(1e-9)),
    ]);
    print!(
        "{}",
        render_table(
            "Section 4.5: partitioning compile time per method",
            &["benchmark", "GDP", "Profile Max", "Naive", "PM/GDP"],
            &table,
        )
    );
}
