//! Smoke tests of the experiment harness: each figure runs on a
//! benchmark subset and reproduces the paper's qualitative claims.

use mcpart_bench::figures;

fn subset() -> Vec<mcpart::workloads::Workload> {
    ["rawcaudio", "rawdaudio", "fir", "matmul"]
        .iter()
        .map(|n| mcpart::workloads::by_name(n).expect("known benchmark"))
        .collect()
}

#[test]
fn fig2_penalty_grows_with_latency() {
    let t = figures::fig2(&subset(), &[1, 10]);
    assert_eq!(t.rows.len(), 4);
    let avg = t.get("average", "10-cycle").expect("average row");
    // Figure 2's claim: the naive placement's cycle increase is real
    // and does not vanish at high latencies.
    assert!(avg > -2.0, "naive should cost cycles at 10cy: {avg:.2}%");
    for (benchmark, cells) in &t.rows {
        for pct in cells.iter().map(|c| c.value().expect("a number")) {
            assert!(pct > -20.0, "{benchmark}: naive dramatically beat unified ({pct:.1}%)");
        }
    }
}

#[test]
fn fig7_everyone_close_to_unified_at_1_cycle() {
    let t = figures::fig7_8(&subset(), "7", 1);
    let avg = |column| t.get("average", column).expect("average row");
    // "with such a low latency penalty ... both methods perform well".
    assert!(avg("GDP") > 0.85, "GDP @1cy: {:.3}", avg("GDP"));
    assert!(avg("Profile Max") > 0.85, "PM @1cy: {:.3}", avg("Profile Max"));
}

#[test]
fn fig8_gdp_tracks_unified_at_5_cycles() {
    let t = figures::fig7_8(&subset(), "8a", 5);
    let (gdp, pm) = (t.get("average", "GDP").unwrap(), t.get("average", "Profile Max").unwrap());
    // Paper: GDP averages 95.6% at 5 cycles; allow a band.
    assert!(gdp > 0.85, "GDP @5cy: {gdp:.3}");
    // And GDP should not trail Profile Max meaningfully.
    assert!(gdp > pm - 0.05, "GDP {gdp:.3} vs PM {pm:.3}");
}

#[test]
fn fig9_exhaustive_brackets_the_methods() {
    let w = mcpart::workloads::by_name("rawcaudio").unwrap();
    let fig = figures::fig9(&[w], 12).remove(0).expect("rawcaudio is enumerable");
    assert!(fig.points.len() >= 8, "expected a real search space");
    let best = fig.points.iter().map(|p| p.cycles).min().unwrap();
    let worst = fig.points.iter().map(|p| p.cycles).max().unwrap();
    assert!(worst > best, "placement must matter");
    // The methods' chosen mappings are inside the enumerated bracket.
    assert!(fig.gdp_point.cycles >= best && fig.gdp_point.cycles <= worst);
    assert!(fig.profile_max_point.cycles >= best && fig.profile_max_point.cycles <= worst);
    // GDP picks a good mapping: within 20% of the best found.
    assert!(
        fig.gdp_point.cycles as f64 <= best as f64 * 1.20,
        "GDP {} vs best {best}",
        fig.gdp_point.cycles
    );
}

#[test]
fn fig10_reports_move_traffic() {
    let t = figures::fig10(&subset());
    assert_eq!(t.rows.len(), 4);
    for column in ["GDP", "Profile Max"] {
        let pcts = t.column(column);
        assert_eq!(pcts.len(), 4);
        assert!(pcts.iter().all(|p| p.is_finite()), "{column}: {pcts:?}");
    }
}

#[test]
fn compile_time_profile_max_costs_more() {
    let ws = subset();
    let t = figures::compile_time(&ws);
    let gdp: f64 = t.column("GDP").iter().sum();
    let pm: f64 = t.column("Profile Max").iter().sum();
    // §4.5: Profile Max is roughly two detailed runs, counted in RHOP
    // estimator calls.
    assert!(pm > gdp * 1.2, "PM {pm} vs GDP {gdp} estimator calls");
}

#[test]
fn balance_sweep_trades_balance_for_speed() {
    let w = mcpart::workloads::by_name("rawdaudio").unwrap();
    let tables = figures::ablation_balance(&[w], &[0.05, 1.0]);
    let cycles = tables[0].column("GDP cycles");
    let skew = tables[0].column("byte skew (max fraction)");
    assert_eq!(cycles.len(), 2);
    // Looser balance can only expand the search space: the loose run
    // must be at least as fast (same seeds, superset of mappings is not
    // literally guaranteed with heuristics — allow a small band).
    assert!(cycles[1] <= cycles[0] * 1.10, "loose {} vs tight {}", cycles[1], cycles[0]);
    assert!(skew[1] >= 0.5 && skew[1] <= 1.0);
}
