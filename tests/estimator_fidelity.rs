//! The RHOP schedule estimator must agree with the real list scheduler
//! closely enough that refinement decisions transfer.

use mcpart::analysis::{AccessInfo, PointsTo};
use mcpart::ir::ClusterId;
use mcpart::machine::Machine;
use mcpart::sched::{schedule_block, Placement, RegionEstimator, INFEASIBLE};
use mcpart_rng::rngs::SmallRng;
use mcpart_rng::{Rng, SeedableRng};

/// For every block of a workload, under a few random placements, the
/// estimator's length must stay within a modest band of the real
/// scheduler's (the estimator skips the branch-last rule and models
/// moves virtually, so exact agreement is not expected).
#[test]
fn estimator_tracks_scheduler_on_blocks() {
    let machine = Machine::paper_2cluster(5);
    let mut rng = SmallRng::seed_from_u64(42);
    for name in ["rawcaudio", "fir", "matmul", "cjpeg"] {
        let w = mcpart::workloads::by_name(name).unwrap();
        let program = w.profile.apply_heap_sizes(&w.program);
        let pts = PointsTo::compute(&program);
        let access = AccessInfo::compute(&program, &pts, &w.profile);
        for (fid, f) in program.functions.iter() {
            for (bid, block) in f.blocks.iter() {
                if block.ops.len() < 4 {
                    continue;
                }
                let est = RegionEstimator::new(&program, fid, &[bid], &access, &machine);
                for _ in 0..3 {
                    let mut placement = Placement::all_on_cluster0(&program);
                    let assign: Vec<u16> = (0..est.len()).map(|_| rng.gen_range(0..2u16)).collect();
                    // A consistent placement: defs of the same register
                    // must share a cluster — enforce by clustering per
                    // node independently, then letting vreg_homes use
                    // first-def. To keep the comparison faithful we only
                    // use single-def-friendly random assignments where
                    // the block's ops get the random clusters and
                    // everything else stays on 0.
                    for (i, &op) in est.dg.ops.iter().enumerate() {
                        placement.set_cluster(fid, op, ClusterId::new(assign[i] as usize));
                    }
                    let e = est.estimate(&assign);
                    if e == INFEASIBLE {
                        continue;
                    }
                    let s = schedule_block(&program, fid, bid, &placement, &machine, &access);
                    let actual = s.length.max(1);
                    // The raw scheduler does not see the intercluster
                    // moves that insertion would add for this split
                    // (the estimator charges them as virtual
                    // transfers), so the estimate may legitimately
                    // exceed the raw schedule; it must never collapse
                    // below it by much, nor explode.
                    let ratio = e as f64 / actual as f64;
                    assert!(
                        (0.5..=10.0).contains(&ratio),
                        "{name} {fid}/{bid}: estimate {e} vs actual {actual}"
                    );
                }
            }
        }
    }
}

/// On single-cluster assignments (no moves at all), the estimator and
/// scheduler see the same dependence structure and resources, so they
/// should agree within the branch-last slack.
#[test]
fn estimator_matches_scheduler_single_cluster() {
    let machine = Machine::paper_2cluster(5);
    let w = mcpart::workloads::by_name("latnrm").unwrap();
    let program = w.profile.apply_heap_sizes(&w.program);
    let pts = PointsTo::compute(&program);
    let access = AccessInfo::compute(&program, &pts, &w.profile);
    let placement = Placement::all_on_cluster0(&program);
    for (fid, f) in program.functions.iter() {
        for (bid, block) in f.blocks.iter() {
            if block.ops.is_empty() {
                continue;
            }
            let est = RegionEstimator::new(&program, fid, &[bid], &access, &machine);
            let e = est.estimate_single_cluster();
            let s = schedule_block(&program, fid, bid, &placement, &machine, &access);
            let diff = (e as i64 - s.length as i64).unsigned_abs();
            assert!(
                diff <= 3,
                "{fid}/{bid} ({} ops): estimate {e} vs schedule {}",
                block.ops.len(),
                s.length
            );
        }
    }
}

/// Estimates are monotone in machine generosity: a 1-cycle network
/// never estimates slower than a 10-cycle network for the same split
/// assignment.
#[test]
fn estimator_monotone_in_move_latency() {
    let w = mcpart::workloads::by_name("fft").unwrap();
    let program = w.profile.apply_heap_sizes(&w.program);
    let pts = PointsTo::compute(&program);
    let access = AccessInfo::compute(&program, &pts, &w.profile);
    let fid = program.entry;
    let f = &program.functions[fid];
    let (bid, _) = f.blocks.iter().max_by_key(|(_, b)| b.ops.len()).expect("nonempty function");
    let fast = Machine::paper_2cluster(1);
    let slow = Machine::paper_2cluster(10);
    let est_fast = RegionEstimator::new(&program, fid, &[bid], &access, &fast);
    let est_slow = RegionEstimator::new(&program, fid, &[bid], &access, &slow);
    let assign: Vec<u16> = (0..est_fast.len()).map(|i| (i % 2) as u16).collect();
    assert!(
        est_fast.estimate(&assign) <= est_slow.estimate(&assign),
        "lower latency should never estimate slower"
    );
}

/// Golden digest of the estimator's values: `estimate()` and
/// `resource_peak()` over every block (and every whole function as one
/// multi-block region) of the 22 paper programs, under seeded random
/// assignments, on the paper machine and on a 4-cluster coherent-cache
/// machine whose regions also carry live-in homes, memory homes and
/// occasional locks. Any change to the simulation that alters a single
/// value changes the digest; speed-ups must leave it as it is.
#[test]
fn estimator_values_match_the_golden_digest() {
    let machines = [
        (Machine::paper_2cluster(5), false),
        (Machine::homogeneous(4, 3).with_coherent_cache(7), true),
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u32| {
        for b in v.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut values = 0usize;
    let mut infeasible = 0usize;
    for w in mcpart::workloads::all() {
        let program = w.profile.apply_heap_sizes(&w.program);
        let pts = PointsTo::compute(&program);
        let access = AccessInfo::compute(&program, &pts, &w.profile);
        for (mi, (machine, annotate)) in machines.iter().enumerate() {
            let nclusters = machine.num_clusters() as u16;
            let mut rng = SmallRng::seed_from_u64(0x5eed ^ ((mi as u64) << 32) ^ values as u64);
            for (fid, f) in program.functions.iter() {
                let mut regions: Vec<Vec<mcpart::ir::BlockId>> =
                    f.blocks.iter().map(|(bid, _)| vec![bid]).collect();
                if f.blocks.len() > 1 {
                    regions.push(f.blocks.iter().map(|(bid, _)| bid).collect());
                }
                for blocks in regions {
                    let mut est = RegionEstimator::new(&program, fid, &blocks, &access, machine);
                    let n = est.len();
                    if *annotate {
                        for i in 0..n {
                            let op = &f.ops[est.dg.ops[i]];
                            if op.opcode.is_memory() && rng.gen_range(0..2u32) == 0 {
                                let home = ClusterId::new(rng.gen_range(0..nclusters) as usize);
                                est.set_mem_home(i, home, 7);
                            }
                            if rng.gen_range(0..4u32) == 0 {
                                let home = ClusterId::new(rng.gen_range(0..nclusters) as usize);
                                est.add_live_in_home(i, home);
                            }
                        }
                        if n > 0 && rng.gen_range(0..3u32) == 0 {
                            let node = rng.gen_range(0..n);
                            est.lock(node, ClusterId::new(rng.gen_range(0..nclusters) as usize));
                        }
                    }
                    let mut assigns = vec![vec![0u16; n]];
                    for _ in 0..8 {
                        assigns.push((0..n).map(|_| rng.gen_range(0..nclusters)).collect());
                    }
                    for assign in &assigns {
                        let e = est.estimate(assign);
                        infeasible += usize::from(e == INFEASIBLE);
                        fold(e);
                        fold(est.resource_peak(assign));
                        values += 1;
                    }
                }
            }
        }
    }
    assert_eq!((values, infeasible, digest), (8748, 984, 0x7a92_6c1e_71f1_95ef));
}

/// Golden digest of RHOP's work and output: for every `(program,
/// method)` pair of the 22 paper programs and of a 3,000-op synthetic
/// program on the paper machine, the `RhopStats` work counters and the
/// cluster of every operation RHOP placed. The estimator answers
/// RHOP's probes; a probe speed-up that changed one answer, one pruning
/// decision or one accepted move changes the digest.
#[test]
fn rhop_work_and_placements_match_the_golden_digest() {
    use mcpart::core::{
        gdp_partition, naive_partition, profile_max_partition, rhop_partition, unified_partition,
        Method, ObjectGroups, PipelineConfig,
    };
    let machine = Machine::paper_2cluster(5);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut workloads = mcpart::workloads::all();
    workloads.push(mcpart::workloads::resolve("ops=3000,seed=3").expect("valid synth spec"));
    let (mut runs, mut ops, mut estimator_calls) = (0usize, 0usize, 0u64);
    for w in &workloads {
        let program = w.profile.apply_heap_sizes(&w.program);
        let pts = PointsTo::compute(&program);
        let access = AccessInfo::compute(&program, &pts, &w.profile);
        let groups = ObjectGroups::compute(&program, &access);
        for method in Method::ALL {
            let cfg = PipelineConfig::new(method);
            let (placement, stats) = match method {
                Method::Gdp => {
                    let dp =
                        gdp_partition(&program, &w.profile, &access, &groups, &machine, &cfg.gdp)
                            .expect("gdp");
                    rhop_partition(
                        &program,
                        &access,
                        &w.profile,
                        &machine,
                        &dp.object_home,
                        &cfg.rhop,
                    )
                }
                Method::ProfileMax => profile_max_partition(
                    &program,
                    &access,
                    &w.profile,
                    &machine,
                    &groups,
                    &cfg.rhop,
                    cfg.profile_max_balance,
                ),
                Method::Naive => {
                    naive_partition(&program, &access, &w.profile, &machine, &groups, &cfg.rhop)
                }
                Method::Unified => {
                    unified_partition(&program, &access, &w.profile, &machine, &cfg.rhop)
                }
            }
            .expect("rhop");
            for v in [
                stats.estimator_calls,
                stats.full_evals,
                stats.pruned_evals,
                stats.pruned_lock,
                stats.pruned_bound,
                stats.moves_accepted,
                stats.regions as u64,
            ] {
                fold(v);
            }
            for clusters in placement.op_cluster.values() {
                for c in clusters.values() {
                    fold(c.index() as u64);
                    ops += 1;
                }
            }
            estimator_calls += stats.estimator_calls;
            runs += 1;
        }
    }
    assert_eq!((runs, ops, estimator_calls, digest), (92, 39312, 497_789, 0x4025_90dc_0b3b_5621));
}
