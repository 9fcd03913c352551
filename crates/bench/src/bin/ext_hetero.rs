//! Heterogeneous-machine extension: GDP on an asymmetric 2-cluster
//! machine (3:1 memory capacity, wider FU mix on the big cluster).

use mcpart_bench::experiments::ext_hetero;
use mcpart_bench::report::{f3, pct, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ext_hetero(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), pct(r.big_cluster_share), f3(r.vs_homogeneous)])
        .collect();
    print!(
        "{}",
        render_table(
            "Heterogeneous machine: data share on the big cluster; speed vs homogeneous GDP",
            &["benchmark", "big-cluster data", "vs homogeneous"],
            &table,
        )
    );
}
