//! Register-file pressure sweep: spill-penalty cycles of GDP's
//! distributed placement vs a centralized single-file placement as the
//! per-cluster register file shrinks.

use mcpart_bench::experiments::ext_regfile;
use mcpart_bench::report::render_table;

fn main() {
    let workloads = mcpart_bench::BenchArgs::from_env(&["--benchmarks"]).workloads;
    let sizes = [12u32, 16, 24, 32];
    let rows = ext_regfile(&workloads, &sizes);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.benchmark.clone()];
            for i in 0..sizes.len() {
                cells.push(format!("{}/{}", r.spill_cycles[i], r.packed_spills[i]));
            }
            cells
        })
        .collect();
    print!(
        "{}",
        render_table(
            "Register pressure: spill cycles, GDP-distributed / centralized (per RF size)",
            &["benchmark", "rf=12", "rf=16", "rf=24", "rf=32"],
            &table,
        )
    );
}
