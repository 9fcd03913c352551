//! Regenerates Figure 9: exhaustive search over all data-object
//! mappings for rawcaudio (a) and rawdaudio (b). Prints every point as
//! `cycles imbalance` plus the GDP / Profile Max choices, and a summary.

use mcpart_bench::experiments::fig9;

fn main() {
    // No flags: anything on the command line is an error.
    mcpart_bench::BenchArgs::from_env(&[]);
    for name in ["rawcaudio", "rawdaudio"] {
        let w = mcpart_workloads::by_name(name).expect("benchmark exists");
        match fig9(&w, 14) {
            Ok(result) => {
                println!("# Figure 9 — {name}: {} mappings", result.points.len());
                println!("# columns: normalized_perf imbalance dynamic_moves");
                let worst = result.points.iter().map(|p| p.cycles).max().unwrap_or(1) as f64;
                for p in &result.points {
                    println!(
                        "{:.4} {:.3} {}",
                        worst / p.cycles.max(1) as f64,
                        p.imbalance,
                        p.dynamic_moves
                    );
                }
                let best = result.points.iter().map(|p| p.cycles).min().unwrap_or(1) as f64;
                println!(
                    "# GDP choice: perf {:.4}, imbalance {:.3}",
                    worst / result.gdp_point.cycles.max(1) as f64,
                    result.gdp_point.imbalance
                );
                println!(
                    "# Profile Max choice: perf {:.4}, imbalance {:.3}",
                    worst / result.profile_max_point.cycles.max(1) as f64,
                    result.profile_max_point.imbalance
                );
                println!("# best/worst spread: {:.1}%", (worst / best - 1.0) * 100.0);
            }
            Err(e) => println!("# Figure 9 — {name}: skipped ({e})"),
        }
    }
}
