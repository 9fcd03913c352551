//! Regenerates Figure 2: percentage increase in cycles when data is
//! naively partitioned across clusters, at 1/5/10-cycle intercluster
//! move latencies, relative to a unified memory.

use mcpart_bench::experiments::fig2;
use mcpart_bench::report::render_table;
use mcpart_obs::json::JsonWriter;

fn main() {
    let args = mcpart_bench::BenchArgs::from_env(&["--benchmarks", "--json"]);
    let latencies = [1u32, 5, 10];
    let rows = fig2(&args.workloads, &latencies);
    if args.json {
        let mut w = JsonWriter::new();
        w.open_obj().field("figure", "2").field("latencies", &latencies[..]);
        w.key("rows").arr(&rows, |w, r| {
            w.open_obj()
                .field("benchmark", &r.benchmark)
                .field("increase_pct", &r.increase_pct)
                .close_obj();
        });
        w.close_obj();
        println!("{}", w.finish());
        return;
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.benchmark.clone()];
            cells.extend(r.increase_pct.iter().map(|p| format!("{p:+.1}%")));
            cells
        })
        .collect();
    let mut avg = vec!["average".to_string()];
    for (i, _) in latencies.iter().enumerate() {
        let a: f64 = rows.iter().map(|r| r.increase_pct[i]).sum::<f64>() / rows.len().max(1) as f64;
        avg.push(format!("{a:+.1}%"));
    }
    let mut all_rows = table_rows;
    all_rows.push(avg);
    print!(
        "{}",
        render_table(
            "Figure 2: cycle increase of Naive data placement vs unified memory",
            &["benchmark", "1-cycle", "5-cycle", "10-cycle"],
            &all_rows,
        )
    );
}
