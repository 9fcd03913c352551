//! Software-pipelining extension: GDP vs unified with loop kernels
//! modulo-scheduled (initiation-interval accounting).

use mcpart_bench::experiments::ext_swp;
use mcpart_bench::report::{f3, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ext_swp(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                f3(r.flat_rel),
                f3(r.piped_rel),
                format!("{:.2}x", r.gdp_speedup),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Software pipelining: GDP vs unified, flat and pipelined (5-cycle)",
            &["benchmark", "GDP rel (flat)", "GDP rel (piped)", "SWP speedup"],
            &table,
        )
    );
}
