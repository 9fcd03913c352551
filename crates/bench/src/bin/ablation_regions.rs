//! Region-scope ablation: RHOP with per-block regions (plus live-in
//! coordination sweeps), loop-nest regions, and whole-function regions.

use mcpart_bench::experiments::ablation_regions;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ablation_regions(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), f3(r.rel.0), f3(r.rel.1), f3(r.rel.2)])
        .collect();
    print!(
        "{}",
        render_table(
            "Region scope: GDP perf relative to unified (5-cycle)",
            &["benchmark", "per-block", "loop nests", "whole function"],
            &table,
        )
    );
}
