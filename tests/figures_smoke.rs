//! Smoke tests of the experiment harness: each figure regenerator runs
//! on a benchmark subset and reproduces the paper's qualitative claims.

use mcpart_bench::experiments;

fn subset() -> Vec<mcpart::workloads::Workload> {
    ["rawcaudio", "rawdaudio", "fir", "matmul"]
        .iter()
        .map(|n| mcpart::workloads::by_name(n).expect("known benchmark"))
        .collect()
}

#[test]
fn fig2_penalty_grows_with_latency() {
    let rows = experiments::fig2(&subset(), &[1, 10]);
    assert_eq!(rows.len(), 4);
    let avg = |i: usize| -> f64 {
        rows.iter().map(|r| r.increase_pct[i]).sum::<f64>() / rows.len() as f64
    };
    // Figure 2's claim: the naive placement's cycle increase is real
    // and does not vanish at high latencies.
    assert!(avg(1) > -2.0, "naive should cost cycles at 10cy: {:.2}%", avg(1));
    for r in &rows {
        for &pct in &r.increase_pct {
            assert!(pct > -20.0, "{}: naive dramatically beat unified ({pct:.1}%)", r.benchmark);
        }
    }
}

#[test]
fn fig7_everyone_close_to_unified_at_1_cycle() {
    let fig = experiments::fig7_8(&subset(), 1);
    // "with such a low latency penalty ... both methods perform well".
    assert!(fig.averages.0 > 0.85, "GDP @1cy: {:.3}", fig.averages.0);
    assert!(fig.averages.1 > 0.85, "PM @1cy: {:.3}", fig.averages.1);
}

#[test]
fn fig8_gdp_tracks_unified_at_5_cycles() {
    let fig = experiments::fig7_8(&subset(), 5);
    // Paper: GDP averages 95.6% at 5 cycles; allow a band.
    assert!(fig.averages.0 > 0.85, "GDP @5cy: {:.3}", fig.averages.0);
    // And GDP should not trail Profile Max meaningfully.
    assert!(
        fig.averages.0 > fig.averages.1 - 0.05,
        "GDP {:.3} vs PM {:.3}",
        fig.averages.0,
        fig.averages.1
    );
}

#[test]
fn fig9_exhaustive_brackets_the_methods() {
    let w = mcpart::workloads::by_name("rawcaudio").unwrap();
    let fig = experiments::fig9(&w, 12).expect("rawcaudio is enumerable");
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
    let rows = experiments::fig10(&subset());
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.gdp_pct.is_finite());
        assert!(r.profile_max_pct.is_finite());
    }
}

#[test]
fn compile_time_profile_max_costs_more() {
    let ws = subset();
    let rows = experiments::compile_time(&ws);
    let gdp: u64 = rows.iter().map(|r| r.gdp).sum();
    let pm: u64 = rows.iter().map(|r| r.profile_max).sum();
    // §4.5: Profile Max is roughly two detailed runs, counted in RHOP
    // estimator calls.
    assert!(pm as f64 > gdp as f64 * 1.2, "PM {pm} vs GDP {gdp} estimator calls");
}

#[test]
fn balance_sweep_trades_balance_for_speed() {
    let w = mcpart::workloads::by_name("rawdaudio").unwrap();
    let points = experiments::ablation_balance(&w, &[0.05, 1.0]);
    assert_eq!(points.len(), 2);
    // Looser balance can only expand the search space: the loose run
    // must be at least as fast (same seeds, superset of mappings is not
    // literally guaranteed with heuristics — allow a small band).
    assert!(
        points[1].cycles as f64 <= points[0].cycles as f64 * 1.10,
        "loose {} vs tight {}",
        points[1].cycles,
        points[0].cycles
    );
    assert!(points[1].byte_skew >= 0.5 && points[1].byte_skew <= 1.0);
}
