//! Extension experiment: GDP on a machine with coherent per-cluster
//! caches (the paper's §2 "middle ground" and §5 future work) at
//! several remote-access penalties, vs fully partitioned memory.

use mcpart_bench::experiments::ext_cache;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let penalties = [2u32, 5, 10];
    let rows = ext_cache(&workloads, &penalties);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.benchmark.clone(), f3(r.partitioned_rel)];
            cells.extend(r.coherent_rel.iter().map(|&x| f3(x)));
            cells.push(r.remote_accesses.iter().map(u64::to_string).collect::<Vec<_>>().join("/"));
            cells
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Coherent-cache extension: GDP perf relative to unified (5-cycle moves)",
            &["benchmark", "partitioned", "coh p=2", "coh p=5", "coh p=10", "remote accesses"],
            &table,
        )
    );
}
