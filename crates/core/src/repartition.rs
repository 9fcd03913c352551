//! Incremental re-partitioning: the dirty-cone computation over a
//! checkpoint [`Manifest`].
//!
//! A production service sees *edits*, not fresh programs. Because RHOP
//! places each function from a pure set of inputs — the function's own
//! IR, the objects its access sites may touch, the GDP homes of those
//! objects, the machine, and a seed derived from the function *index* —
//! a function whose inputs are unchanged since a baseline run must
//! produce a byte-identical result, and can therefore *replay* the
//! baseline's recorded output instead of re-running the partitioner.
//!
//! ## Dirty rules
//!
//! A function is **dirty** (must re-run) iff any of:
//!
//! 1. its own content hash changed — the hash covers the textual IR
//!    *and* the object names its memory ops may touch, so a points-to
//!    change caused by an edit elsewhere still dirties it;
//! 2. an object group it accesses changed content or home: the group's
//!    content hash is absent from the baseline, or the baseline home
//!    differs from the home the fresh GDP pass assigns (GDP itself is
//!    always re-run — it is the cheap global pass);
//! 3. it is within the merge radius GDP uses of a dirty function: when
//!    `merge_dependent_ops` is on, dirt propagates one call-graph hop
//!    (callers and callees).
//!
//! Rule 3 is conservative padding, not a correctness requirement —
//! byte-identity already follows from RHOP's per-function purity. The
//! hard contract (pinned by `tests/incremental_fidelity.rs`) is that
//! an incremental run's placements, pinned trace and stdout are
//! byte-identical to a from-scratch run at every `--jobs` count.

use crate::checkpoint::{Manifest, ManifestFunc};
use crate::gdp::DataPartition;
use crate::groups::ObjectGroups;
use crate::rhop::{FuncPartitionOutcome, ReuseEntry, RhopStats};
use mcpart_analysis::{AccessInfo, AccessSite, CallGraph, ObjectSet};
use mcpart_ir::{EntityId, FuncId, Function, Program};
use mcpart_obs::durable::{fnv1a, Fnv1a};
use mcpart_sched::Placement;
use std::collections::HashMap;

/// Dirty-cone statistics of one incremental run, surfaced as the
/// `repartition/{dirty_funcs,replayed_funcs,cone_frac_x1000}` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepartitionStats {
    /// Functions that re-ran the partitioner (the dirty cone).
    pub dirty_funcs: usize,
    /// Functions replayed byte-identically from the baseline manifest.
    pub replayed_funcs: usize,
    /// Total functions in the program.
    pub total_funcs: usize,
}

impl RepartitionStats {
    /// Dirty-cone fraction in permille (`1000` = full recompute).
    pub fn cone_frac_x1000(&self) -> u64 {
        if self.total_funcs == 0 {
            return 1000;
        }
        (self.dirty_funcs as u64 * 1000).div_ceil(self.total_funcs as u64)
    }

    /// The stats of a run with no usable baseline: everything dirty.
    pub fn all_dirty(total_funcs: usize) -> RepartitionStats {
        RepartitionStats { dirty_funcs: total_funcs, replayed_funcs: 0, total_funcs }
    }
}

/// Content hash of one function: FNV-1a of its textual IR followed by
/// `\0` and the name of each object each of its access sites may
/// touch, in op order (object sets are `BTreeSet`s, so the fold is
/// deterministic). The text is streamed into the hash, never built.
pub fn function_content_hash(program: &Program, access: &AccessInfo, fid: FuncId) -> u64 {
    let func = &program.functions[fid];
    let mut hash = Fnv1a::default();
    // Hashing cannot fail.
    let _ = mcpart_ir::write_function(&mut hash, func);
    for objs in site_object_sets(access, fid, func) {
        for &obj in objs {
            hash.update(b"\0");
            hash.update(program.objects[obj].name.as_bytes());
        }
    }
    hash.finish()
}

/// The object sets of `func`'s access sites, in op order. Only memory
/// operations are access sites.
fn site_object_sets<'a>(
    access: &'a AccessInfo,
    fid: FuncId,
    func: &'a Function,
) -> impl Iterator<Item = &'a ObjectSet> + 'a {
    func.ops
        .iter()
        .filter(|(_, op)| op.opcode.is_memory())
        .filter_map(move |(op, _)| access.site_objects.get(&AccessSite { func: fid, op }))
}

/// Content hash of one object group: FNV-1a over the sorted
/// `name:size` entries of its members, so the hash is stable under
/// object-id renumbering but changes when membership or sizes do.
pub fn group_content_hash(program: &Program, groups: &ObjectGroups, group: usize) -> u64 {
    let mut entries: Vec<String> = groups.groups[group]
        .iter()
        .map(|&o| format!("{}:{}", program.objects[o].name, program.objects[o].size))
        .collect();
    entries.sort_unstable();
    let mut text = String::new();
    for e in &entries {
        text.push_str(e);
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Sorted, deduplicated content hashes of the groups `fid` accesses.
fn accessed_group_hashes(
    program: &Program,
    access: &AccessInfo,
    groups: &ObjectGroups,
    group_hashes: &[u64],
    fid: FuncId,
) -> Vec<u64> {
    let mut out: Vec<u64> = site_object_sets(access, fid, &program.functions[fid])
        .flatten()
        .map(|&obj| group_hashes[groups.group_of[obj]])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Content hash of every group (dead groups included, so indexing by
/// `group_of` is always in bounds).
fn all_group_hashes(program: &Program, groups: &ObjectGroups) -> Vec<u64> {
    (0..groups.len()).map(|g| group_content_hash(program, groups, g)).collect()
}

/// Builds the manifest of a finished GDP→RHOP run: per-function and
/// per-group content hashes, the pre-normalization op clusters, and
/// the per-function RHOP stats a clean function replays from. The
/// `unit` field is left empty; [`crate::checkpoint::run_unit_full`]
/// fills it in.
pub fn build_manifest(
    program: &Program,
    access: &AccessInfo,
    groups: &ObjectGroups,
    dp: &DataPartition,
    placement: &Placement,
    outcomes: &[Option<FuncPartitionOutcome>],
) -> Manifest {
    let group_hashes = all_group_hashes(program, groups);
    let mut funcs = Vec::with_capacity(program.functions.len());
    for (i, fid) in program.functions.keys().enumerate() {
        let (stats, retries) = match outcomes.get(i).and_then(Option::as_ref) {
            Some(o) => (
                [
                    o.stats.regions as u64,
                    o.stats.estimator_calls,
                    o.stats.moves_accepted,
                    o.stats.full_evals,
                    o.stats.pruned_evals,
                    o.stats.pruned_lock,
                    o.stats.pruned_bound,
                ],
                o.retries,
            ),
            // Quarantined: the fallback placement is not a pure
            // function of this function's inputs, so never replayable.
            None => ([0; 7], u64::MAX),
        };
        let op_cluster = if retries == 0 {
            placement.op_cluster[fid].values().map(|c| c.index() as u32).collect()
        } else {
            Vec::new()
        };
        funcs.push(ManifestFunc {
            name: program.functions[fid].name.clone(),
            hash: function_content_hash(program, access, fid),
            groups: accessed_group_hashes(program, access, groups, &group_hashes, fid),
            op_cluster,
            stats,
            retries,
        });
    }
    let mut group_entries: Vec<(u64, i64)> = groups
        .live_groups()
        .into_iter()
        .map(|g| (group_hashes[g], dp.group_cluster[g].index() as i64))
        .collect();
    group_entries.sort_unstable();
    group_entries.dedup();
    Manifest { unit: String::new(), funcs, groups: group_entries }
}

/// Computes the dirty cone and the per-function replay table for an
/// incremental run: `reuse[i]` is `Some` iff function `i` is clean and
/// the baseline carries a replayable result for it. `dp` is the home
/// assignment of the *fresh* GDP pass on the edited program.
pub fn compute_reuse(
    program: &Program,
    access: &AccessInfo,
    groups: &ObjectGroups,
    dp: &DataPartition,
    merge_radius: bool,
    baseline: &Manifest,
) -> (Vec<Option<ReuseEntry>>, RepartitionStats) {
    let n = program.functions.len();
    let group_hashes = all_group_hashes(program, groups);
    // Baseline group home by content hash; a (pathological) hash
    // collision with conflicting homes poisons the entry so every
    // function touching it goes dirty.
    let mut baseline_home: HashMap<u64, i64> = HashMap::new();
    for &(hash, home) in &baseline.groups {
        match baseline_home.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if *e.get() != home {
                    e.insert(i64::MIN);
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(home);
            }
        }
    }
    let mut dirty = vec![false; n];
    for (i, fid) in program.functions.keys().enumerate() {
        let base = baseline.funcs.get(i);
        // Rule 1: identity is positional (the per-function RNG seed
        // derives from the index), so both name and hash must match
        // the entry at the same index.
        let same = base.is_some_and(|b| {
            b.name == program.functions[fid].name
                && b.hash == function_content_hash(program, access, fid)
        });
        if !same {
            dirty[i] = true;
            continue;
        }
        // Rule 2: every accessed group must exist in the baseline with
        // the same home the fresh GDP pass assigns.
        dirty[i] = site_object_sets(access, fid, &program.functions[fid]).flatten().any(|&obj| {
            let g = groups.group_of[obj];
            let home = dp.group_cluster[g].index() as i64;
            baseline_home.get(&group_hashes[g]) != Some(&home)
        });
    }
    // Rule 3: dirt propagates one call-graph hop (callers + callees)
    // when GDP merges dependent ops across that radius.
    if merge_radius && dirty.iter().any(|&d| d) {
        let cg = CallGraph::compute(program);
        let seeds: Vec<FuncId> = program
            .functions
            .keys()
            .enumerate()
            .filter(|&(i, _)| dirty[i])
            .map(|(_, fid)| fid)
            .collect();
        for fid in seeds {
            for &neighbor in cg.callees[fid].iter().chain(&cg.callers[fid]) {
                dirty[neighbor.index()] = true;
            }
        }
    }
    let mut reuse: Vec<Option<ReuseEntry>> = Vec::with_capacity(n);
    for (i, fid) in program.functions.keys().enumerate() {
        let entry = (!dirty[i])
            .then(|| baseline.funcs.get(i))
            .flatten()
            .filter(|b| b.replayable())
            .filter(|b| b.op_cluster.len() == program.functions[fid].num_ops())
            .map(|b| ReuseEntry {
                op_cluster: b.op_cluster.clone(),
                stats: RhopStats {
                    regions: b.stats[0] as usize,
                    estimator_calls: b.stats[1],
                    moves_accepted: b.stats[2],
                    full_evals: b.stats[3],
                    pruned_evals: b.stats[4],
                    pruned_lock: b.stats[5],
                    pruned_bound: b.stats[6],
                    ..RhopStats::default()
                },
            });
        reuse.push(entry);
    }
    let replayed_funcs = reuse.iter().filter(|e| e.is_some()).count();
    let stats =
        RepartitionStats { dirty_funcs: n - replayed_funcs, replayed_funcs, total_funcs: n };
    (reuse, stats)
}
