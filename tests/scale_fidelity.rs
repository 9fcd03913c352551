//! Fidelity suite for the flat (CSR) data layouts: the production
//! `ProgramDfg` and the triple-vector `GraphBuilder` must agree with
//! straightforward hash-map reference implementations on every
//! workload, and `--jobs N` must stay bit-identical to `--jobs 1`
//! through the whole GDP stage.

use mcpart::analysis::{AccessInfo, PointsTo};
use mcpart::core::{gdp_partition, GdpConfig, ObjectGroups, ProgramDfg};
use mcpart::ir::{DefUse, Opcode, Profile, Program, Terminator};
use mcpart::machine::Machine;
use mcpart::metis::GraphBuilder;
use std::collections::HashMap;

/// The seed implementation's edge fold: a hash map keyed by node-index
/// pairs with a max-combine, sorted at the end.
fn reference_dfg_edges(program: &Program, profile: &Profile) -> Vec<(usize, usize, u64)> {
    // Node order is (function, op), the same as ProgramDfg.
    let mut index = HashMap::new();
    let mut node_freq = Vec::new();
    for (fid, func) in program.functions.iter() {
        for (oid, _) in func.ops.iter() {
            index.insert((fid, oid), node_freq.len());
            node_freq.push(profile.op_freq(program, fid, oid));
        }
    }
    let mut edge_set: HashMap<(usize, usize), u64> = HashMap::new();
    let add_edge = |from: usize, to: usize, w: u64, set: &mut HashMap<(usize, usize), u64>| {
        let e = set.entry((from, to)).or_insert(0);
        *e = (*e).max(w);
    };
    for (fid, func) in program.functions.iter() {
        let du = DefUse::compute(func);
        for v in 0..func.num_vregs {
            let v = mcpart::ir::VReg(v as u32);
            for &def in &du.defs[v] {
                for &usage in &du.uses[v] {
                    if def == usage {
                        continue;
                    }
                    let from = index[&(fid, def)];
                    let to = index[&(fid, usage)];
                    add_edge(from, to, node_freq[to].max(1), &mut edge_set);
                }
            }
        }
        for (oid, op) in func.ops.iter() {
            if let Opcode::Call(callee) = op.opcode {
                let call_idx = index[&(fid, oid)];
                let cf = &program.functions[callee];
                let cdu = DefUse::compute(cf);
                for &param in &cf.params {
                    for &usage in &cdu.uses[param] {
                        let to = index[&(callee, usage)];
                        add_edge(call_idx, to, node_freq[to].max(1), &mut edge_set);
                    }
                }
                for block in cf.blocks.values() {
                    if let Some(Terminator::Return(Some(v))) = &block.term {
                        for &def in &cdu.defs[*v] {
                            let from = index[&(callee, def)];
                            add_edge(from, call_idx, node_freq[call_idx].max(1), &mut edge_set);
                        }
                    }
                }
            }
        }
    }
    let mut edges: Vec<(usize, usize, u64)> =
        edge_set.into_iter().map(|((f, t), w)| (f, t, w)).collect();
    edges.sort_unstable();
    edges
}

/// Every workload's CSR DFG matches the hash-map reference edge fold,
/// at jobs 1 and jobs 4.
#[test]
fn csr_dfg_matches_reference_on_all_workloads() {
    for w in mcpart::workloads::all() {
        let reference = reference_dfg_edges(&w.program, &w.profile);
        for jobs in [1usize, 4] {
            let dfg = ProgramDfg::build_with_jobs(&w.program, &w.profile, jobs);
            let got: Vec<(usize, usize, u64)> = dfg.edges().collect();
            assert_eq!(got, reference, "{} (jobs={jobs})", w.name);
            assert_eq!(dfg.num_edges(), reference.len(), "{}", w.name);
            // index_of agrees with node order.
            for (i, node) in dfg.nodes.iter().enumerate() {
                assert_eq!(dfg.index_of(node.func, node.op), i, "{}", w.name);
            }
        }
    }
}

/// The triple-vector GraphBuilder matches a hash-map reference
/// (sum-combined undirected edges) on randomized inputs, for every jobs
/// level.
#[test]
fn graph_builder_matches_reference_merge() {
    let mut state = 0x5ca1ab1eu64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for case in 0..8 {
        let n = 40 + (next() % 160) as usize;
        let edges: Vec<(u32, u32, u64)> = (0..(next() % 2000))
            .map(|_| (next() as u32 % n as u32, next() as u32 % n as u32, next() % 50))
            .collect();
        // Reference: canonicalized key, sum combine, skip self-loops
        // and zero weights — the documented GraphBuilder semantics.
        let mut reference: HashMap<(u32, u32), u64> = HashMap::new();
        for &(a, b, w) in &edges {
            if a != b && w > 0 {
                *reference.entry((a.min(b), a.max(b))).or_insert(0) += w;
            }
        }
        for jobs in [1usize, 2, 4] {
            let mut b = GraphBuilder::new(1);
            for _ in 0..n {
                b.add_vertex(&[1]);
            }
            for &(x, y, w) in &edges {
                b.add_edge(x, y, w);
            }
            let g = b.build_with_jobs(jobs);
            let mut got: HashMap<(u32, u32), u64> = HashMap::new();
            for v in 0..n as u32 {
                for (u, w) in g.neighbors(v) {
                    if u > v {
                        got.insert((v, u), w);
                    }
                }
            }
            assert_eq!(got, reference, "case {case} jobs {jobs}");
        }
    }
}

/// Flat `part_weights` agrees with a per-part recount from the
/// assignment.
#[test]
fn flat_part_weights_match_recount() {
    let w = mcpart::workloads::by_name("fir").expect("workload");
    let dfg = ProgramDfg::build(&w.program, &w.profile);
    let mut b = GraphBuilder::new(1);
    for i in 0..dfg.len() {
        b.add_vertex(&[dfg.node_freq[i].max(1)]);
    }
    for (from, to, weight) in dfg.edges() {
        b.add_edge(from as u32, to as u32, weight);
    }
    let g = b.build();
    let assignment: Vec<u32> = (0..dfg.len() as u32).map(|v| v % 3).collect();
    let pw = g.part_weights(&assignment, 3);
    assert_eq!(pw.len(), 3);
    for p in 0..3u32 {
        let expected: u64 =
            (0..dfg.len()).filter(|&v| assignment[v] == p).map(|v| dfg.node_freq[v].max(1)).sum();
        assert_eq!(pw[p as usize], expected, "part {p}");
    }
}

/// GDP end-to-end: `--jobs 4` produces the bit-identical DataPartition
/// of `--jobs 1` on every workload (the PR 2 determinism contract
/// extended through the sharded coarsener and parallel DFG build).
#[test]
fn gdp_jobs_identity_on_all_workloads() {
    let machine = Machine::paper_2cluster(5);
    for w in mcpart::workloads::all() {
        let pts = PointsTo::compute(&w.program);
        let access = AccessInfo::compute(&w.program, &pts, &w.profile);
        let groups = ObjectGroups::compute(&w.program, &access);
        let run = |jobs: usize| {
            let cfg = GdpConfig { jobs, ..GdpConfig::default() };
            gdp_partition(&w.program, &w.profile, &access, &groups, &machine, &cfg)
                .expect("gdp partition")
        };
        let seq = run(1);
        assert_eq!(run(4), seq, "{}: jobs=4 diverged from jobs=1", w.name);
    }
}

/// A mid-sized synthetic program also survives the jobs-identity check
/// (its graph crosses the parallel sort and sharded-matching
/// thresholds, unlike the paper workloads).
#[test]
fn gdp_jobs_identity_on_synth() {
    let w = mcpart::workloads::resolve("ops=20000,trips=16,seed=42").expect("synth");
    let machine = Machine::paper_2cluster(5);
    let pts = PointsTo::compute(&w.program);
    let access = AccessInfo::compute(&w.program, &pts, &w.profile);
    let groups = ObjectGroups::compute(&w.program, &access);
    let run = |jobs: usize| {
        let cfg = GdpConfig { jobs, ..GdpConfig::default() };
        gdp_partition(&w.program, &w.profile, &access, &groups, &machine, &cfg)
            .expect("gdp partition")
    };
    let seq = run(1);
    for jobs in [2usize, 4, 8] {
        assert_eq!(run(jobs), seq, "jobs={jobs} diverged");
    }
}
