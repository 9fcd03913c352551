//! Scalar pre-optimization ablation: op-count reduction and GDP
//! relative performance with and without DCE/CSE/copy-prop/const-fold.

use mcpart_bench::experiments::ablation_opt;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ablation_opt(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.ops.0.to_string(),
                r.ops.1.to_string(),
                format!("{:.0}%", (1.0 - r.ops.1 as f64 / r.ops.0 as f64) * 100.0),
                f3(r.gdp_rel.0),
                f3(r.gdp_rel.1),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Pre-optimization: op counts and GDP perf vs unified (5-cycle)",
            &["benchmark", "raw ops", "opt ops", "shrink", "GDP raw", "GDP opt"],
            &table,
        )
    );
}
