//! Regenerates Figures 7 / 8a / 8b: performance of GDP and Profile Max
//! relative to the single unified memory, at the latency given by
//! `--latency {1,5,10}` (default 5 = Figure 8a).

use mcpart_bench::experiments::fig7_8;
use mcpart_bench::report::{f3, render_table};
use mcpart_obs::json::JsonWriter;

fn main() {
    let args = mcpart_bench::BenchArgs::from_env(&["--benchmarks", "--latency", "--json"]);
    let latency = args.latency.unwrap_or(5);
    let fig = fig7_8(&args.workloads, latency);
    if args.json {
        let mut w = JsonWriter::new();
        w.open_obj().field("figure", &format!("7/8 latency {latency}"));
        w.key("rows").arr(&fig.rows, |w, r| {
            w.open_obj()
                .field("benchmark", &r.benchmark)
                .field("gdp", &r.gdp_rel)
                .field("profile_max", &r.profile_max_rel)
                .field("naive", &r.naive_rel)
                .close_obj();
        });
        w.key("averages")
            .open_obj()
            .field("gdp", &fig.averages.0)
            .field("profile_max", &fig.averages.1)
            .field("naive", &fig.averages.2)
            .close_obj()
            .close_obj();
        println!("{}", w.finish());
        return;
    }
    let mut rows: Vec<Vec<String>> = fig
        .rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), f3(r.gdp_rel), f3(r.profile_max_rel), f3(r.naive_rel)])
        .collect();
    rows.push(vec![
        "average".to_string(),
        f3(fig.averages.0),
        f3(fig.averages.1),
        f3(fig.averages.2),
    ]);
    let which = match latency {
        1 => "Figure 7 (1-cycle moves)",
        5 => "Figure 8a (5-cycle moves)",
        10 => "Figure 8b (10-cycle moves)",
        _ => "Figure 7/8 (custom latency)",
    };
    print!(
        "{}",
        render_table(
            &format!("{which}: performance relative to unified memory (1.0 = parity)"),
            &["benchmark", "GDP", "Profile Max", "Naive"],
            &rows,
        )
    );
}
