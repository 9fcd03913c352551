//! Ablation of §3.3.1: GDP with the rejected dependent-operation
//! merging, and without the operation-balance constraint.

use mcpart_bench::experiments::ablation_merge;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ablation_merge(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![r.benchmark.clone(), f3(r.default_rel), f3(r.merged_rel), f3(r.op_balance_rel)]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Ablation 3.3.1: GDP coarsening variants (perf relative to unified, 5-cycle)",
            &["benchmark", "GDP default", "+dependent-op merge", "+op balance"],
            &table,
        )
    );
}
