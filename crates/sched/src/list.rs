//! List scheduling of basic blocks on a clustered VLIW: per-(cluster,
//! unit kind) and network issue limits, height priority, event-driven
//! (see [`schedule_block_with_homes`]).

use crate::depgraph::DepGraph;
use crate::moves::{is_intercluster_move, vreg_homes};
use crate::placement::Placement;
use mcpart_analysis::AccessInfo;
use mcpart_ir::{BlockId, EntityMap, FuKind, FuncId, OpId, Program};
use mcpart_machine::Machine;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The schedule of one basic block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockSchedule {
    /// Operations in node order of the block's dependence graph.
    pub ops: Vec<OpId>,
    /// Issue cycle of each operation (same indexing as `ops`).
    pub issue: Vec<u32>,
    /// Schedule length in cycles: the maximum completion cycle (issue
    /// plus latency), and at least 1 for non-empty blocks.
    pub length: u32,
    /// Number of intercluster moves in the block (static).
    pub intercluster_moves: u32,
    /// Summed per-move network latency of the block's intercluster
    /// moves (static). On a bus this is `intercluster_moves ×
    /// move_latency`; ring and mesh topologies scale each move by its
    /// hop distance, so the performance model charges transfers from
    /// this sum rather than from the flat count.
    pub transfer_latency: u64,
    /// Number of remote memory accesses under the coherent-cache model
    /// (static; always 0 for unified/partitioned memory).
    pub remote_accesses: u32,
}

/// Effective latency of an operation under a placement: intercluster
/// moves take the network latency between the source register's home
/// cluster and the move's cluster (hop-scaled under ring/mesh
/// topologies), everything else takes its function-unit latency.
pub fn effective_latency(
    program: &Program,
    func: FuncId,
    op: OpId,
    placement: &Placement,
    homes: &EntityMap<mcpart_ir::VReg, mcpart_ir::ClusterId>,
    machine: &Machine,
) -> u32 {
    if is_intercluster_move(program, func, op, placement, homes) {
        let src = homes[program.functions[func].ops[op].srcs[0]];
        machine.move_latency_between(src, placement.cluster_of(func, op))
    } else {
        machine.latency.of(program.functions[func].ops[op].opcode)
    }
}

/// List-schedules one basic block.
///
/// * Each operation issues on a function unit of its kind on its
///   assigned cluster; per-cluster, per-kind unit counts bound the
///   number of same-kind issues per cycle.
/// * Intercluster moves issue on the shared network instead
///   (`moves_per_cycle` machine-wide) and take the network latency.
/// * Control operations (`brc`/`jmp`/`ret`) issue after every other
///   operation has issued, modeling the branch ending the block.
/// * Priority is the dependence height (critical path to any sink),
///   ties going to the earlier operation.
pub fn schedule_block(
    program: &Program,
    func: FuncId,
    block: BlockId,
    placement: &Placement,
    machine: &Machine,
    access: &AccessInfo,
) -> BlockSchedule {
    let homes = vreg_homes(program, func, placement);
    schedule_block_with_homes(program, func, block, placement, &homes, machine, access)
}

/// [`schedule_block`] with the function's register homes
/// ([`vreg_homes`]) computed once by the caller.
///
/// The scheduler is event-driven, with no per-cycle scan over the
/// block: an operation whose predecessors have all issued waits in a
/// queue keyed by the cycle it becomes ready, then joins one ready heap
/// per (cluster, unit kind), or the network's heap for an intercluster
/// move, keyed by (height, earliest operation first). Each cycle pops
/// at most as many operations from each heap as it has units — exactly
/// the operations a scan in priority order over every ready operation
/// would issue, since units of one heap never serve another.
pub(crate) fn schedule_block_with_homes(
    program: &Program,
    func: FuncId,
    block: BlockId,
    placement: &Placement,
    homes: &EntityMap<mcpart_ir::VReg, mcpart_ir::ClusterId>,
    machine: &Machine,
    access: &AccessInfo,
) -> BlockSchedule {
    // Coherent caches: a memory op on a cluster other than its object's
    // home pays the coherence penalty on top of its latency.
    let mut coherence_extra: HashMap<OpId, u32> = HashMap::new();
    let mut remote_accesses = 0u32;
    if let Some(penalty) = machine.memory.coherence_penalty() {
        for &op in &program.functions[func].blocks[block].ops {
            if !program.functions[func].ops[op].opcode.is_memory() {
                continue;
            }
            let site = mcpart_analysis::AccessSite { func, op };
            let Some(objs) = access.site_objects.get(&site) else { continue };
            let cluster = placement.cluster_of(func, op);
            if objs.iter().any(|&o| placement.object_home[o].map(|h| h != cluster).unwrap_or(false))
            {
                coherence_extra.insert(op, penalty);
                remote_accesses += 1;
            }
        }
    }
    let lat = |op: OpId| {
        effective_latency(program, func, op, placement, homes, machine)
            + coherence_extra.get(&op).copied().unwrap_or(0)
    };
    let dg = DepGraph::for_block(program, func, block, access, &lat);
    let n = dg.len();
    if n == 0 {
        return BlockSchedule {
            ops: Vec::new(),
            issue: Vec::new(),
            length: 0,
            intercluster_moves: 0,
            transfer_latency: 0,
            remote_accesses: 0,
        };
    }
    let f = &program.functions[func];
    let latency: Vec<u32> = dg.ops.iter().map(|&op| lat(op)).collect();

    // Height priority: longest latency path from the node to a sink.
    let mut height = vec![0u64; n];
    for i in (0..n).rev() {
        height[i] = latency[i].max(1) as u64;
        for &di in &dg.succs[i] {
            let d = dg.deps[di as usize];
            height[i] = height[i].max(d.latency as u64 + height[d.to as usize]);
        }
    }

    let is_control: Vec<bool> = dg
        .ops
        .iter()
        .map(|&op| {
            matches!(
                f.ops[op].opcode,
                mcpart_ir::Opcode::BranchCond | mcpart_ir::Opcode::Jump | mcpart_ir::Opcode::Ret
            )
        })
        .collect();
    let is_ic_move: Vec<bool> = dg
        .ops
        .iter()
        .map(|&op| is_intercluster_move(program, func, op, placement, homes))
        .collect();

    // Ready heaps: (cluster, kind) at `cluster * 4 + kind`, then the
    // network; each with its units per cycle.
    let nclusters = machine.num_clusters();
    let network = nclusters * FuKind::ALL.len();
    let mut units: Vec<usize> = Vec::with_capacity(network + 1);
    for c in machine.cluster_ids() {
        units.extend(FuKind::ALL.iter().map(|&k| machine.fu_count(c, k)));
    }
    units.push(machine.interconnect.moves_per_cycle as usize);
    let heap_of: Vec<usize> = (0..n)
        .map(|i| {
            if is_ic_move[i] {
                network
            } else {
                let op = dg.ops[i];
                placement.cluster_of(func, op).index() * FuKind::ALL.len()
                    + f.ops[op].opcode.fu_kind().index()
            }
        })
        .collect();
    let mut ready: Vec<BinaryHeap<(u64, Reverse<u32>)>> = vec![BinaryHeap::new(); network + 1];
    let mut in_ready = 0usize;
    // Operations whose predecessors have all issued, by the cycle they
    // become ready; control operations that are ready but must wait
    // for the rest of the block.
    let mut pending: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut held: Vec<u32> = Vec::new();

    let mut issue = vec![u32::MAX; n];
    let mut ready_cycle = vec![0u32; n];
    let mut unissued_preds: Vec<usize> = dg.preds.iter().map(Vec::len).collect();
    let mut issued_count = 0usize;
    let mut non_control_left = is_control.iter().filter(|&&c| !c).count();
    pending.extend(
        (0..n as u32).filter(|&i| unissued_preds[i as usize] == 0).map(|i| Reverse((0, i))),
    );

    let mut cycle = 0u32;
    let mut max_completion = 0u32;
    // Safety bound: every op issues within n * (max latency + n) cycles.
    // Under ring/mesh topologies a single move can take several hops, so
    // the bound uses the worst pairwise latency, not the flat bus one.
    let max_move_latency = machine
        .cluster_ids()
        .flat_map(|a| machine.cluster_ids().map(move |b| (a, b)))
        .map(|(a, b)| machine.move_latency_between(a, b))
        .max()
        .unwrap_or(0);
    let bound = (n as u32 + 2) * (max_move_latency.max(16) + 2);
    while issued_count < n && cycle <= bound {
        while let Some(&Reverse((at, i))) = pending.peek() {
            if at > cycle {
                break;
            }
            pending.pop();
            if is_control[i as usize] && non_control_left > 0 {
                held.push(i);
            } else {
                ready[heap_of[i as usize]].push((height[i as usize], Reverse(i)));
                in_ready += 1;
            }
        }
        if non_control_left == 0 {
            for i in held.drain(..) {
                ready[heap_of[i as usize]].push((height[i as usize], Reverse(i)));
                in_ready += 1;
            }
        }
        // Operations that become ready now join next cycle's heaps, so
        // the issues below all belong to this cycle's ready set.
        for (heap, &units) in ready.iter_mut().zip(&units) {
            for _ in 0..units {
                let Some((_, Reverse(i))) = heap.pop() else { break };
                in_ready -= 1;
                let i = i as usize;
                issue[i] = cycle;
                issued_count += 1;
                if !is_control[i] {
                    non_control_left -= 1;
                }
                max_completion = max_completion.max(cycle + latency[i].max(1));
                for &di in &dg.succs[i] {
                    let d = dg.deps[di as usize];
                    let t = d.to as usize;
                    unissued_preds[t] -= 1;
                    ready_cycle[t] = ready_cycle[t].max(cycle + d.latency);
                    if unissued_preds[t] == 0 {
                        pending.push(Reverse((ready_cycle[t].max(cycle + 1), t as u32)));
                    }
                }
            }
        }
        // Skip cycles in which nothing can issue; stop once nothing
        // ever can.
        cycle = if in_ready > 0 || (non_control_left == 0 && !held.is_empty()) {
            cycle + 1
        } else if let Some(&Reverse((at, _))) = pending.peek() {
            at.max(cycle + 1)
        } else {
            break;
        };
    }
    debug_assert_eq!(issued_count, n, "scheduler failed to issue all operations");

    let intercluster_moves = is_ic_move.iter().filter(|&&b| b).count() as u32;
    // A move is no memory op, so its latency carries no coherence term.
    let transfer_latency: u64 = (0..n).filter(|&i| is_ic_move[i]).map(|i| latency[i] as u64).sum();
    BlockSchedule {
        ops: dg.ops,
        issue,
        length: max_completion.max(1),
        intercluster_moves,
        transfer_latency,
        remote_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_analysis::PointsTo;
    use mcpart_ir::{ClusterId, DataObject, FunctionBuilder, MemWidth, Profile};

    fn access_of(p: &Program) -> AccessInfo {
        let pts = PointsTo::compute(p);
        AccessInfo::compute(p, &pts, &Profile::uniform(p, 1))
    }

    #[test]
    fn serial_chain_takes_sum_of_latencies() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(1); // 1 cycle
        let y = b.add(x, x); // 1
        let z = b.mul(y, y); // 3
        b.ret(Some(z)); // 1, issues last
        let access = access_of(&p);
        let pl = Placement::all_on_cluster0(&p);
        let m = Machine::paper_2cluster(5);
        let s = schedule_block(&p, p.entry, p.entry_function().entry, &pl, &m, &access);
        // iconst@0, add@1, mul@2 completes at 5, ret waits for z: @5, done 6.
        assert_eq!(s.length, 6, "{s:?}");
        assert_eq!(s.intercluster_moves, 0);
    }

    #[test]
    fn int_unit_saturation_limits_parallelism() {
        // 6 independent iconsts on one cluster with 2 int units -> 3 cycles
        // (+ ret after them).
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        for i in 0..6 {
            b.iconst(i);
        }
        b.ret(None);
        let access = access_of(&p);
        let pl = Placement::all_on_cluster0(&p);
        let m = Machine::paper_2cluster(5);
        let s = schedule_block(&p, p.entry, p.entry_function().entry, &pl, &m, &access);
        // consts occupy cycles 0,0,1,1,2,2; ret at 3 (after all issued).
        assert_eq!(s.length, 4, "{s:?}");
    }

    #[test]
    fn two_clusters_double_throughput() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        for i in 0..8 {
            b.iconst(i);
        }
        b.ret(None);
        let access = access_of(&p);
        let m = Machine::paper_2cluster(5);
        let mut pl = Placement::all_on_cluster0(&p);
        let f = p.entry;
        let func = p.entry_function();
        for (i, &op) in func.blocks[func.entry].ops.iter().enumerate() {
            if i % 2 == 1 && i < 8 {
                pl.set_cluster(f, op, ClusterId::new(1));
            }
        }
        let s = schedule_block(&p, f, func.entry, &pl, &m, &access);
        // 4 consts per cluster / 2 int units = 2 cycles, ret at 2.
        assert_eq!(s.length, 3, "{s:?}");
    }

    #[test]
    fn intercluster_move_latency_charged() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(1);
        let y = b.mov(x); // will become the consumer on cluster 1 via placement
        let z = b.add(y, y);
        b.ret(Some(z));
        let access = access_of(&p);
        let m = Machine::paper_2cluster(5);
        let mut pl = Placement::all_on_cluster0(&p);
        let f = p.entry;
        let func = p.entry_function();
        let mov = func.blocks[func.entry].ops[1];
        let add = func.blocks[func.entry].ops[2];
        // The mov reads x (home c0) and executes on c1: intercluster.
        pl.set_cluster(f, mov, ClusterId::new(1));
        pl.set_cluster(f, add, ClusterId::new(1));
        let s = schedule_block(&p, f, func.entry, &pl, &m, &access);
        assert_eq!(s.intercluster_moves, 1);
        // iconst@0, move@1 (5 cycles, done 6), add@6 (done 7), ret@7 -> 8.
        assert_eq!(s.length, 8, "{s:?}");
    }

    #[test]
    fn network_bandwidth_serializes_moves() {
        // Two values each needing a move to cluster 1; bandwidth 1/cycle
        // forces the second move a cycle later.
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(1);
        let y = b.iconst(2);
        let mx = b.mov(x);
        let my = b.mov(y);
        let z = b.add(mx, my);
        b.ret(Some(z));
        let access = access_of(&p);
        let m = Machine::paper_2cluster(5);
        let mut pl = Placement::all_on_cluster0(&p);
        let f = p.entry;
        let func = p.entry_function();
        let ops = func.blocks[func.entry].ops.clone();
        pl.set_cluster(f, ops[2], ClusterId::new(1));
        pl.set_cluster(f, ops[3], ClusterId::new(1));
        pl.set_cluster(f, ops[4], ClusterId::new(1));
        let s = schedule_block(&p, f, func.entry, &pl, &m, &access);
        assert_eq!(s.intercluster_moves, 2);
        // consts@0, moves@1 and @2 (bandwidth 1), add@7 (done 8), ret@8 -> 9.
        assert_eq!(s.length, 9, "{s:?}");
    }

    #[test]
    fn ring_topology_scales_move_latency_by_hops() {
        use mcpart_machine::{Interconnect, Topology};
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(1);
        let y = b.mov(x); // becomes an intercluster move via placement
        let z = b.add(y, y);
        b.ret(Some(z));
        let access = access_of(&p);
        let f = p.entry;
        let func = p.entry_function();
        let mov = func.blocks[func.entry].ops[1];
        let add = func.blocks[func.entry].ops[2];
        let mut pl = Placement::all_on_cluster0(&p);
        // x homed on c0; the move and its consumer on c2 (2 hops away on
        // a 4-cluster ring).
        pl.set_cluster(f, mov, ClusterId::new(2));
        pl.set_cluster(f, add, ClusterId::new(2));
        let ring = Machine::homogeneous(4, 5)
            .with_interconnect(Interconnect::bus(5).with_topology(Topology::Ring));
        let s = schedule_block(&p, f, func.entry, &pl, &ring, &access);
        assert_eq!(s.intercluster_moves, 1);
        assert_eq!(s.transfer_latency, 10, "2 hops x 5 cycles");
        // iconst@0, move@1 (10 cycles, done 11), add@11 (done 12), ret@12.
        assert_eq!(s.length, 13, "{s:?}");
        // The same placement on a bus keeps the paper's flat latency.
        let bus = Machine::homogeneous(4, 5);
        let s = schedule_block(&p, f, func.entry, &pl, &bus, &access);
        assert_eq!(s.transfer_latency, 5);
        assert_eq!(s.length, 8, "{s:?}");
    }

    #[test]
    fn load_store_ordering_respected() {
        let mut p = Program::new("t");
        let obj = p.add_object(DataObject::global("g", 8));
        let mut b = FunctionBuilder::entry(&mut p);
        let a = b.addrof(obj);
        let v = b.iconst(3);
        b.store(MemWidth::B4, a, v);
        let w = b.load(MemWidth::B4, a);
        b.ret(Some(w));
        let access = access_of(&p);
        let pl = Placement::all_on_cluster0(&p);
        let m = Machine::paper_2cluster(1);
        let s = schedule_block(&p, p.entry, p.entry_function().entry, &pl, &m, &access);
        // Find issue cycles of store (idx 2) and load (idx 3).
        assert!(s.issue[3] > s.issue[2], "load must follow store: {s:?}");
    }

    #[test]
    fn empty_block_schedules_to_zero() {
        let mut p = Program::new("t");
        let f = &mut p.functions[p.entry];
        let empty = f.add_block("empty");
        f.blocks[empty].term = Some(mcpart_ir::Terminator::Return(None));
        f.blocks[f.entry].term = Some(mcpart_ir::Terminator::Jump(empty));
        let access = access_of(&p);
        let pl = Placement::all_on_cluster0(&p);
        let m = Machine::paper_2cluster(5);
        let s = schedule_block(&p, p.entry, empty, &pl, &m, &access);
        assert_eq!(s.length, 0);
    }
}
