//! Regenerates Figure 2: percentage increase in cycles when data is
//! naively partitioned across clusters, at 1/5/10-cycle intercluster
//! move latencies, relative to a unified memory.

use mcpart_bench::experiments::fig2;
use mcpart_bench::report::{render_table, Json};

fn main() {
    let args = mcpart_bench::BenchArgs::from_env(mcpart_bench::SELECTION_FLAGS);
    let latencies = [1u32, 5, 10];
    let rows = fig2(&args.workloads, &latencies);
    if args.json {
        let doc = Json::Obj(vec![
            ("figure".into(), Json::Str("2".into())),
            (
                "latencies".into(),
                Json::Arr(latencies.iter().map(|&l| Json::Int(i64::from(l))).collect()),
            ),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("benchmark".into(), Json::Str(r.benchmark.clone())),
                                (
                                    "increase_pct".into(),
                                    Json::Arr(
                                        r.increase_pct.iter().map(|&x| Json::Num(x)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.render());
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
