//! Move-placement ablation: per-use-block transfers vs profile-guided
//! producer-side hoisting, under GDP at 5-cycle latency.

use mcpart_bench::experiments::ablation_hoist;
use mcpart_bench::report::render_table;

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let rows = ablation_hoist(&workloads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.cycles.0.to_string(),
                r.cycles.1.to_string(),
                format!("{:+.1}%", (r.cycles.1 as f64 / r.cycles.0 as f64 - 1.0) * 100.0),
                r.moves.0.to_string(),
                r.moves.1.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Move hoisting: GDP cycles and dynamic moves (5-cycle latency)",
            &[
                "benchmark",
                "cycles/block",
                "cycles/hoisted",
                "delta",
                "moves/block",
                "moves/hoisted"
            ],
            &table,
        )
    );
}
