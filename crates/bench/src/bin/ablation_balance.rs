//! Ablation of §4.3: sweeping the data-size balance tolerance of the
//! graph partitioner trades balance for performance.

use mcpart_bench::experiments::ablation_balance;
use mcpart_bench::report::render_table;

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let tolerances = [0.02, 0.10, 0.30, 0.50, 1.00];
    for w in &workloads {
        let points = ablation_balance(w, &tolerances);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.imbalance),
                    p.cycles.to_string(),
                    format!("{:.3}", p.byte_skew),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &format!("Balance sweep — {}", w.name),
                &["tolerance", "GDP cycles", "byte skew (max fraction)"],
                &rows,
            )
        );
    }
}
