//! Background experiment after Terechko et al. (cited in §2): the
//! fraction of the Naïve method's intercluster move traffic that serves
//! data accesses, alongside its cycle overhead.

use mcpart_bench::experiments::ext_terechko;
use mcpart_bench::report::{pct, render_table};

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ext_terechko(&workloads);
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), pct(r.data_move_fraction), pct(r.overhead)])
        .collect();
    let n = rows.len().max(1) as f64;
    table.push(vec![
        "average".to_string(),
        pct(rows.iter().map(|r| r.data_move_fraction).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.overhead).sum::<f64>() / n),
    ]);
    print!(
        "{}",
        render_table(
            "Data-related share of Naive intercluster moves (5-cycle latency)",
            &["benchmark", "data moves", "cycle overhead"],
            &table,
        )
    );
}
