//! Regenerates Figure 10: percentage increase in dynamic intercluster
//! move operations of GDP and Profile Max over the unified-memory
//! model, with 5-cycle move latency.

use mcpart_bench::experiments::fig10;
use mcpart_bench::report::render_table;
use mcpart_obs::json::JsonWriter;

fn main() {
    let args = mcpart_bench::BenchArgs::from_env(&["--benchmarks", "--json"]);
    let rows = fig10(&args.workloads);
    if args.json {
        let mut w = JsonWriter::new();
        w.arr(&rows, |w, r| {
            w.open_obj()
                .field("benchmark", &r.benchmark)
                .field("gdp_pct", &r.gdp_pct)
                .field("profile_max_pct", &r.profile_max_pct)
                .close_obj();
        });
        println!("{}", w.finish());
        return;
    }
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:+.1}%", r.gdp_pct),
                format!("{:+.1}%", r.profile_max_pct),
            ]
        })
        .collect();
    let n = rows.len().max(1) as f64;
    table.push(vec![
        "average".to_string(),
        format!("{:+.1}%", rows.iter().map(|r| r.gdp_pct).sum::<f64>() / n),
        format!("{:+.1}%", rows.iter().map(|r| r.profile_max_pct).sum::<f64>() / n),
    ]);
    print!(
        "{}",
        render_table(
            "Figure 10: dynamic intercluster move increase vs unified memory (5-cycle)",
            &["benchmark", "GDP", "Profile Max"],
            &table,
        )
    );
}
