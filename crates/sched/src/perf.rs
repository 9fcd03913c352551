//! Whole-program performance evaluation: profile-weighted schedule
//! cycles and dynamic intercluster move counts.

use crate::list::{schedule_block_with_homes, BlockSchedule};
use crate::moves::vreg_homes;
use crate::placement::Placement;
use mcpart_analysis::AccessInfo;
use mcpart_ir::{BlockId, EntityMap, FuncId, Profile, Program};
use mcpart_machine::Machine;

/// Performance of a scheduled program under a profile.
///
/// Cycle counts follow the paper's methodology: partitioned caches with
/// a 100% hit rate, so the execution time of a block is its static
/// schedule length, and total cycles are
/// `Σ_blocks schedule_length × execution_frequency`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PerfReport {
    /// Total dynamic cycles.
    pub total_cycles: u64,
    /// Total dynamic intercluster move operations.
    pub dynamic_moves: u64,
    /// Static intercluster move count.
    pub static_moves: u64,
    /// Dynamic remote memory accesses (coherent-cache model only).
    pub dynamic_remote_accesses: u64,
    /// Dynamic cycles in which no operation issued (schedule bubbles
    /// from dependence latency and transfer waits), profile-weighted.
    pub stall_cycles: u64,
    /// Dynamic cycles spent on the interconnect: each intercluster
    /// move's network latency (hop-scaled under ring/mesh topologies),
    /// profile-weighted. Overlapping transfers each count in full, so
    /// this is occupancy, not elapsed time.
    pub transfer_cycles: u64,
    /// Per-function, per-block schedules (for inspection).
    pub schedules: EntityMap<FuncId, EntityMap<BlockId, BlockSchedule>>,
}

/// Schedules every block of every function under `placement` and
/// aggregates profile-weighted cycles and intercluster move counts.
///
/// The placement must already be normalized and have moves inserted
/// (see [`crate::normalize_placement`] and [`crate::insert_moves`]);
/// this function only schedules and accounts.
pub fn evaluate(
    program: &Program,
    placement: &Placement,
    machine: &Machine,
    profile: &Profile,
    access: &AccessInfo,
) -> PerfReport {
    let mut total_cycles = 0u64;
    let mut dynamic_moves = 0u64;
    let mut static_moves = 0u64;
    let mut dynamic_remote_accesses = 0u64;
    let mut stall_cycles = 0u64;
    let mut transfer_cycles = 0u64;
    let mut schedules: EntityMap<FuncId, EntityMap<BlockId, BlockSchedule>> = EntityMap::new();
    for (fid, func) in program.functions.iter() {
        let homes = vreg_homes(program, fid, placement);
        let mut per_block: EntityMap<BlockId, BlockSchedule> = EntityMap::new();
        for (bid, _) in func.blocks.iter() {
            let schedule =
                schedule_block_with_homes(program, fid, bid, placement, &homes, machine, access);
            let freq = profile.block_freq(fid, bid);
            total_cycles += schedule.length as u64 * freq;
            dynamic_moves += schedule.intercluster_moves as u64 * freq;
            static_moves += schedule.intercluster_moves as u64;
            dynamic_remote_accesses += schedule.remote_accesses as u64 * freq;
            // Stall cycles: schedule length minus the cycles in which
            // at least one operation issued.
            let mut busy: Vec<u32> = schedule.issue.clone();
            busy.sort_unstable();
            busy.dedup();
            stall_cycles += (schedule.length as u64).saturating_sub(busy.len() as u64) * freq;
            transfer_cycles += schedule.transfer_latency * freq;
            per_block.push(schedule);
        }
        schedules.push(per_block);
    }
    PerfReport {
        total_cycles,
        dynamic_moves,
        static_moves,
        dynamic_remote_accesses,
        stall_cycles,
        transfer_cycles,
        schedules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_analysis::PointsTo;
    use mcpart_ir::{ClusterId, FunctionBuilder};

    #[test]
    fn cycles_weighted_by_frequency() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let body = b.block("body");
        let done = b.block("done");
        let x = b.iconst(10);
        b.jump(body);
        b.switch_to(body);
        let y = b.add(x, x);
        let _z = b.add(y, y);
        b.jump(done);
        b.switch_to(done);
        b.ret(None);
        let pts = PointsTo::compute(&p);
        let mut profile = Profile::uniform(&p, 1);
        profile.funcs[p.entry].block_freq[body] = 100;
        let access = AccessInfo::compute(&p, &pts, &profile);
        let pl = Placement::all_on_cluster0(&p);
        let m = Machine::paper_2cluster(5);
        let report = evaluate(&p, &pl, &m, &profile, &access);
        let body_len = report.schedules[p.entry][body].length as u64;
        assert!(report.total_cycles >= 100 * body_len);
        assert_eq!(report.dynamic_moves, 0);
        assert_eq!(report.transfer_cycles, 0, "no moves, no transfer occupancy");
    }

    #[test]
    fn dynamic_moves_scale_with_frequency() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(1);
        let y = b.mov(x);
        let z = b.add(y, y);
        b.ret(Some(z));
        let f = p.entry;
        let func = p.entry_function();
        let entry = func.entry;
        let ops = func.blocks[entry].ops.clone();
        let mut pl = Placement::all_on_cluster0(&p);
        pl.set_cluster(f, ops[1], ClusterId::new(1));
        pl.set_cluster(f, ops[2], ClusterId::new(1));
        let pts = PointsTo::compute(&p);
        let mut profile = Profile::uniform(&p, 7);
        profile.funcs[f].block_freq[entry] = 7;
        let access = AccessInfo::compute(&p, &pts, &profile);
        let m = Machine::paper_2cluster(5);
        let report = evaluate(&p, &pl, &m, &profile, &access);
        assert_eq!(report.static_moves, 1);
        assert_eq!(report.dynamic_moves, 7);
        // One move per iteration at latency 5, frequency 7.
        assert_eq!(report.transfer_cycles, 7 * 5);
        // The move's latency opens bubbles the single block cannot fill.
        assert!(report.stall_cycles > 0, "a cut critical edge must stall");
    }
}
