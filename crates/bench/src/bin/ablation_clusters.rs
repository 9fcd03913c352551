//! Cluster-count scaling ablation (beyond the paper's 2-cluster
//! machine): GDP relative to unified on 2- and 4-cluster machines.

use mcpart_bench::experiments::ablation_clusters;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let counts = [2usize, 4];
    let rows = ablation_clusters(&workloads, &counts);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.benchmark.clone()];
            cells.extend(r.gdp_rel.iter().map(|&x| f3(x)));
            cells
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Cluster scaling: GDP perf relative to unified (5-cycle moves)",
            &["benchmark", "2 clusters", "4 clusters"],
            &table,
        )
    );
}
