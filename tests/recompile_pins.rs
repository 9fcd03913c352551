//! Golden pins of the layers an edit recompile runs besides RHOP: the
//! IR printer and the content hashes read through it, the dependence
//! graphs, and the list scheduler behind `evaluate`.
//!
//! Each test folds every value it covers into one FNV-1a digest. A
//! speed-up of these layers must leave every digest as it is:
//! checkpoints written earlier stay valid baselines only while
//! `program_fingerprint` and every `function_content_hash` keep their
//! values, and RHOP's estimator and both estimator digests depend on
//! the exact order of the dependence edges.

use mcpart::analysis::{AccessInfo, PointsTo};
use mcpart::core::repartition::function_content_hash;
use mcpart::core::{program_fingerprint, run_pipeline, Method, PipelineConfig, PipelineResult};
use mcpart::ir::{program_to_string, BlockId, Program};
use mcpart::machine::{Interconnect, Machine, Topology};
use mcpart::sched::{evaluate, DepGraph, DepKind, PerfReport};
use mcpart::workloads::Workload;

/// FNV-1a over little-endian values.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The 22 paper programs and a 3,000-op synthetic program.
fn workloads() -> Vec<Workload> {
    let mut all = mcpart::workloads::all();
    all.push(mcpart::workloads::resolve("ops=3000,seed=3").expect("valid synth spec"));
    all
}

fn access_of(program: &Program, w: &Workload) -> AccessInfo {
    AccessInfo::compute(program, &PointsTo::compute(program), &w.profile)
}

/// GDP's program after move insertion at 5-cycle moves.
fn moved(w: &Workload) -> PipelineResult {
    run_pipeline(
        &w.program,
        &w.profile,
        &Machine::paper_2cluster(5),
        &PipelineConfig::new(Method::Gdp),
    )
    .expect("pipeline")
}

/// The printer's bytes, the program fingerprint and every function's
/// content hash, over the 23 programs and one post-move program.
#[test]
fn printed_text_and_content_hashes_are_pinned() {
    let mut fold = Fold::new();
    let mut programs: Vec<(Program, &Workload)> = Vec::new();
    let ws = workloads();
    for w in &ws {
        programs.push((w.program.clone(), w));
    }
    let cjpeg = ws.iter().find(|w| w.name == "cjpeg").expect("cjpeg");
    programs.push((moved(cjpeg).program, cjpeg));
    let (mut bytes, mut funcs) = (0usize, 0usize);
    for (program, w) in &programs {
        let text = program_to_string(program);
        fold.bytes(text.as_bytes());
        bytes += text.len();
        fold.u64(program_fingerprint(program));
        let access = access_of(program, w);
        for fid in program.functions.keys() {
            fold.u64(function_content_hash(program, &access, fid));
            funcs += 1;
        }
    }
    assert_eq!((programs.len(), funcs, bytes, fold.0), (24, 51, 296_968, 0x9d96_a74b_72a7_20e2));
}

/// Every edge of every block graph and of every function-wide region
/// graph, in order: from, to, latency and kind.
#[test]
fn dependence_edges_are_pinned() {
    let machine = Machine::paper_2cluster(5);
    let mut fold = Fold::new();
    let (mut graphs, mut edges) = (0usize, 0usize);
    let ws = workloads();
    let cjpeg = ws.iter().find(|w| w.name == "cjpeg").expect("cjpeg");
    let moved_cjpeg = moved(cjpeg).program;
    let programs = ws.iter().map(|w| (&w.program, w)).chain([(&moved_cjpeg, cjpeg)]);
    for (program, w) in programs {
        let access = access_of(program, w);
        for (fid, f) in program.functions.iter() {
            let lat = |op| machine.latency.of(f.ops[op].opcode);
            let blocks: Vec<BlockId> = f.blocks.keys().collect();
            let mut dgs: Vec<DepGraph> = blocks
                .iter()
                .map(|&b| DepGraph::for_block(program, fid, b, &access, &lat))
                .collect();
            dgs.push(DepGraph::for_region(program, fid, &blocks, &access, &lat));
            for dg in &dgs {
                fold.u64(dg.len() as u64);
                for d in &dg.deps {
                    let kind = match d.kind {
                        DepKind::Flow => 0,
                        DepKind::Anti => 1,
                        DepKind::Output => 2,
                        DepKind::MemFlow => 3,
                        DepKind::MemAnti => 4,
                        DepKind::MemOutput => 5,
                        DepKind::Side => 6,
                    };
                    for v in [d.from, d.to, d.latency, kind] {
                        fold.u64(u64::from(v));
                    }
                }
                edges += dg.deps.len();
                graphs += 1;
            }
        }
    }
    assert_eq!((graphs, edges, fold.0), (642, 25_168, 0x68f3_c010_4bd8_a435));
}

fn fold_report(fold: &mut Fold, report: &PerfReport) -> usize {
    let mut blocks = 0;
    for per_block in report.schedules.values() {
        for s in per_block.values() {
            fold.u64(s.issue.len() as u64);
            for &c in &s.issue {
                fold.u64(u64::from(c));
            }
            for v in [s.length, s.intercluster_moves, s.remote_accesses] {
                fold.u64(u64::from(v));
            }
            fold.u64(s.transfer_latency);
            blocks += 1;
        }
    }
    for v in
        [report.total_cycles, report.dynamic_moves, report.stall_cycles, report.transfer_cycles]
    {
        fold.u64(v);
    }
    blocks
}

/// `evaluate`'s per-block schedules over the 92 `(program, method)`
/// runs at 5-cycle moves; then each GDP placement rescheduled at 1- and
/// 10-cycle moves and on a 4-cluster coherent-cache ring, so that the
/// network, hop-scaled moves and coherence penalties are covered too.
#[test]
fn block_schedules_are_pinned() {
    let machine = Machine::paper_2cluster(5);
    let others = [
        Machine::paper_2cluster(1),
        Machine::paper_2cluster(10),
        Machine::homogeneous(4, 3)
            .with_interconnect(Interconnect::bus(3).with_topology(Topology::Ring))
            .with_coherent_cache(7),
    ];
    let mut fold = Fold::new();
    let (mut runs, mut blocks) = (0usize, 0usize);
    for w in &workloads() {
        for method in Method::ALL {
            let result =
                run_pipeline(&w.program, &w.profile, &machine, &PipelineConfig::new(method))
                    .expect("pipeline");
            blocks += fold_report(&mut fold, &result.report);
            runs += 1;
            if method != Method::Gdp {
                continue;
            }
            let access = access_of(&result.program, w);
            for m in &others {
                let report = evaluate(&result.program, &result.placement, m, &w.profile, &access);
                blocks += fold_report(&mut fold, &report);
            }
        }
    }
    assert_eq!((runs, blocks, fold.0), (92, 3_962, 0xe5be_00cb_b3c8_0de0));
}
