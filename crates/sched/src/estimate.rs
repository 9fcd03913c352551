//! The RHOP schedule-length estimator.
//!
//! RHOP's key idea (Chu, Fan & Mahlke, PLDI'03) is to judge candidate
//! cluster assignments *without scheduling*: a cheap estimate combines a
//! resource bound (operations per function-unit kind per cluster), an
//! intercluster-bandwidth bound, and a dependence critical path in which
//! every *cut* register edge is stretched by the move latency.
//!
//! The CGO'06 extension is the `locked` table: memory operations whose
//! data object has a home cluster are infeasible anywhere else, so the
//! estimator returns [`INFEASIBLE`] for any assignment displacing them.
//! An assignment that puts a node on a cluster with no unit of its kind
//! is infeasible the same way.
//!
//! ## The simulation
//!
//! [`RegionEstimator::estimate`] runs a greedy list schedule. Ready
//! nodes wait in one list per (cluster, unit kind), ordered by a key
//! fixed when the node is woken: height rank (tallest first), then the
//! cycle the node arrived (latest first), then the order of wake-ups.
//! Each cycle issues at most `units` heads per list, in key order, so a
//! node blocked on a busy unit costs nothing while it waits. This is the
//! order of a walk that re-sorts every waiting node each cycle and
//! re-tickets the blocked ones, with one refinement: a node woken for
//! the next cycle over a zero-latency edge from a node of the same
//! height (an `Anti` or `MemAnti` edge) takes its waker's place in the
//! list, not a fresh arrival's.
//!
//! ## Probes
//!
//! [`IncrementalEstimator`] answers RHOP's candidate moves. A probe is
//! rejected by a displaced lock, by the resource bound, by a cut-aware
//! critical path recomputed only from the first moved node onwards, or
//! by the simulation's running bound; every rejection is exact.

use crate::depgraph::{DepGraph, DepKind};
use mcpart_analysis::AccessInfo;
use mcpart_ir::{BlockId, ClusterId, FuKind, FuncId, OpId, Program};
use mcpart_machine::Machine;
use std::cmp::Reverse;

/// Estimate value representing an infeasible assignment (a locked
/// operation displaced from its home cluster, or a node on a cluster
/// without a unit of its kind).
pub const INFEASIBLE: u32 = u32::MAX;

/// One dependence edge as seen from one end. The estimator stores each
/// node's successor and predecessor edges contiguously (compressed
/// sparse rows), so the simulation and the path bound walk them without
/// going through the dependence graph's edge-index lists.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// The other end: the consumer in a successor row, the producer in
    /// a predecessor row.
    node: u32,
    latency: u32,
    kind: DepKind,
}

/// Schedule-length estimator for one region under candidate cluster
/// assignments.
#[derive(Clone, Debug)]
pub struct RegionEstimator {
    /// The region dependence graph (node order = program order).
    pub dg: DepGraph,
    /// Function-unit kind per node.
    fu_kind: Vec<FuKind>,
    /// Base operation latency per node.
    base_lat: Vec<u32>,
    /// Cluster locks per node ([`None`] = free).
    locked: Vec<Option<ClusterId>>,
    /// `(node, home cluster)` per live-in operand: consuming one from a
    /// different cluster delays the node by the move latency.
    live_in_homes: Vec<(u32, u16)>,
    /// Coherent-cache model: per memory node, its object's home cluster
    /// and the penalty for executing elsewhere.
    mem_home_penalty: Vec<Option<(u16, u32)>>,
    /// Per-cluster, per-kind unit counts.
    fu_counts: Vec<[u32; 4]>,
    /// The same per ready list: `units[cluster * 4 + kind]`.
    units: Vec<u32>,
    /// Some cluster has no unit of some kind.
    missing_units: bool,
    /// Dependence-height issue priority per node. Assignment-independent
    /// (base latencies only), so it is computed once here instead of per
    /// [`RegionEstimator::estimate`] call.
    height: Vec<u64>,
    /// Dense rank of each node's height among the region's distinct
    /// heights (0 = tallest): the primary key of the issue order.
    height_rank: Vec<u32>,
    /// Distinct heights in the region.
    nranks: usize,
    /// Nodes by descending height, ties by node index: the bounded
    /// simulation's tallest-unissued cursor walks this order.
    by_height: Vec<u32>,
    /// The nodes without predecessors, in `by_height` order: the order
    /// the simulation wakes them in.
    roots: Vec<u32>,
    /// Successor edges in CSR form: node `i`'s are
    /// `succs[succ_start[i]..succ_start[i + 1]]`, in edge order.
    succ_start: Vec<u32>,
    succs: Vec<Edge>,
    /// Predecessor edges in CSR form, like `succs`.
    pred_start: Vec<u32>,
    preds: Vec<Edge>,
    /// Incoming edge count per node.
    pred_count: Vec<u32>,
    /// `sum(max(1, base latency))`: the serial upper bound returned when
    /// the simulation horizon runs out.
    serial: u32,
    move_latency: u32,
    moves_per_cycle: u32,
}

/// The incumbent a bounded simulation must beat, plus the trial's
/// occupancy counts that seed its resource bound.
struct Limit<'a> {
    bound: u32,
    peak: u32,
    peak_bound: u32,
    counts: &'a [[u32; 4]],
}

impl Limit<'_> {
    /// RHOP's acceptance test, negated: an estimate of at least `lb`
    /// cannot be accepted against the incumbent.
    fn rejects(&self, lb: u64) -> bool {
        lb > u64::from(self.bound) || (lb == u64::from(self.bound) && self.peak >= self.peak_bound)
    }
}

/// `rows[start[i]..start[i + 1]]` for every node `i`, from per-node
/// edge-index lists.
fn csr(lists: &[Vec<u32>], edge: impl Fn(u32) -> Edge) -> (Vec<u32>, Vec<Edge>) {
    let mut start = Vec::with_capacity(lists.len() + 1);
    let mut rows = Vec::new();
    for list in lists {
        start.push(rows.len() as u32);
        rows.extend(list.iter().map(|&di| edge(di)));
    }
    start.push(rows.len() as u32);
    (start, rows)
}

impl RegionEstimator {
    /// Builds an estimator for the given region blocks.
    pub fn new(
        program: &Program,
        func: FuncId,
        blocks: &[BlockId],
        access: &AccessInfo,
        machine: &Machine,
    ) -> Self {
        let lat = |op: OpId| machine.latency.of(program.functions[func].ops[op].opcode);
        let dg = DepGraph::for_region(program, func, blocks, access, &lat);
        let f = &program.functions[func];
        let fu_kind: Vec<FuKind> = dg.ops.iter().map(|&o| f.ops[o].opcode.fu_kind()).collect();
        let base_lat: Vec<u32> = dg.ops.iter().map(|&o| lat(o)).collect();
        Self::from_graph(dg, fu_kind, base_lat, machine)
    }

    /// An estimator over a ready-made dependence graph with the given
    /// per-node unit kinds and latencies.
    fn from_graph(
        dg: DepGraph,
        fu_kind: Vec<FuKind>,
        base_lat: Vec<u32>,
        machine: &Machine,
    ) -> Self {
        let n = dg.len();
        let fu_counts: Vec<[u32; 4]> = machine
            .cluster_ids()
            .map(|c| {
                let mut counts = [0u32; 4];
                for kind in FuKind::ALL {
                    counts[kind.index()] = machine.fu_count(c, kind) as u32;
                }
                counts
            })
            .collect();
        let missing_units = fu_counts.iter().any(|units| units.contains(&0));
        let units = fu_counts.iter().flatten().copied().collect();
        let (succ_start, succs) = csr(&dg.succs, |di| {
            let d = dg.deps[di as usize];
            Edge { node: d.to, latency: d.latency, kind: d.kind }
        });
        let (pred_start, preds) = csr(&dg.preds, |di| {
            let d = dg.deps[di as usize];
            Edge { node: d.from, latency: d.latency, kind: d.kind }
        });
        let mut height = vec![0u64; n];
        for i in (0..n).rev() {
            height[i] = base_lat[i].max(1) as u64;
            for s in &succs[succ_start[i] as usize..succ_start[i + 1] as usize] {
                height[i] = height[i].max(s.latency as u64 + height[s.node as usize]);
            }
        }
        let mut by_height: Vec<u32> = (0..n as u32).collect();
        by_height.sort_by_key(|&i| Reverse(height[i as usize]));
        let mut height_rank = vec![0u32; n];
        for w in 1..n {
            let (prev, v) = (by_height[w - 1] as usize, by_height[w] as usize);
            height_rank[v] = height_rank[prev] + u32::from(height[v] != height[prev]);
        }
        let nranks = height_rank.iter().max().map_or(0, |&r| r as usize + 1);
        let pred_count: Vec<u32> = pred_start.windows(2).map(|w| w[1] - w[0]).collect();
        let roots = by_height.iter().copied().filter(|&i| pred_count[i as usize] == 0).collect();
        RegionEstimator {
            fu_kind,
            serial: base_lat.iter().map(|&l| l.max(1)).sum(),
            base_lat,
            locked: vec![None; n],
            live_in_homes: Vec::new(),
            mem_home_penalty: vec![None; n],
            fu_counts,
            units,
            missing_units,
            height,
            height_rank,
            nranks,
            by_height,
            roots,
            succ_start,
            succs,
            pred_start,
            preds,
            pred_count,
            move_latency: machine.move_latency(),
            moves_per_cycle: machine.interconnect.moves_per_cycle.max(1),
            dg,
        }
    }

    /// Number of nodes (operations) in the region.
    pub fn len(&self) -> usize {
        self.dg.len()
    }

    /// Returns `true` for an empty region.
    pub fn is_empty(&self) -> bool {
        self.dg.is_empty()
    }

    /// Locks a node to a cluster (used for memory operations whose
    /// object has a home, and for calls pinned to cluster 0).
    pub fn lock(&mut self, node: usize, cluster: ClusterId) {
        self.locked[node] = Some(cluster);
    }

    /// The lock of a node, if any.
    pub fn lock_of(&self, node: usize) -> Option<ClusterId> {
        self.locked[node]
    }

    /// Whether `cluster` has a unit of `node`'s kind (a node anywhere
    /// else makes the estimate [`INFEASIBLE`]).
    pub fn has_unit(&self, node: usize, cluster: u16) -> bool {
        self.fu_counts[cluster as usize][self.fu_kind[node].index()] > 0
    }

    /// Declares that `node` consumes a region live-in value homed on
    /// `cluster`; if the node is assigned elsewhere, the estimator
    /// delays it by the intercluster move latency. Used by the second
    /// RHOP sweep to coordinate placement across blocks.
    pub fn add_live_in_home(&mut self, node: usize, cluster: ClusterId) {
        self.live_in_homes.push((node as u32, cluster.index() as u16));
    }

    /// Clears all live-in annotations.
    pub fn clear_live_in_homes(&mut self) {
        self.live_in_homes.clear();
    }

    /// Declares that memory node `node` accesses an object homed on
    /// `cluster` under a coherent-cache model with the given remote
    /// penalty: executing the node elsewhere stretches its latency.
    pub fn set_mem_home(&mut self, node: usize, cluster: ClusterId, penalty: u32) {
        self.mem_home_penalty[node] = Some((cluster.index() as u16, penalty));
    }

    /// Estimates the schedule length of the region under `assign`
    /// (cluster index per node) by running a lightweight greedy list
    /// schedule: function units per cluster and the intercluster
    /// network bandwidth are honored, and every *cut* register edge
    /// inserts a virtual transfer (deduplicated per producer and
    /// destination cluster) that occupies a network slot and delays its
    /// consumers by the move latency.
    ///
    /// This plays the role of RHOP's wand-histogram estimator: cheap
    /// enough to call per candidate move, and faithful enough that
    /// refinement decisions agree with the real scheduler.
    ///
    /// Returns [`INFEASIBLE`] when a locked node is displaced, or when a
    /// node sits on a cluster with no function unit of its kind.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len()` differs from the node count.
    pub fn estimate(&self, assign: &[u16]) -> u32 {
        let mut ws = EstimateWorkspace::default();
        self.estimate_with(assign, &mut ws)
    }

    /// [`RegionEstimator::estimate`] with caller-provided scratch
    /// buffers. One [`EstimateWorkspace`] can serve any sequence of
    /// calls (across estimators of different sizes too); reusing it
    /// removes every per-call heap allocation from RHOP's inner loop.
    pub fn estimate_with(&self, assign: &[u16], ws: &mut EstimateWorkspace) -> u32 {
        assert_eq!(assign.len(), self.len());
        let displaced = self
            .locked
            .iter()
            .zip(assign)
            .any(|(lock, &c)| lock.is_some_and(|l| l.index() != c as usize));
        let unitless = self.missing_units
            && assign
                .iter()
                .zip(&self.fu_kind)
                .any(|(&c, k)| self.fu_counts[c as usize][k.index()] == 0);
        if displaced || unitless {
            INFEASIBLE
        } else if self.is_empty() {
            0
        } else {
            self.simulate(assign, ws, None).expect("an unbounded simulation always completes")
        }
    }

    fn succs_of(&self, node: usize) -> &[Edge] {
        &self.succs[self.succ_start[node] as usize..self.succ_start[node + 1] as usize]
    }

    fn preds_of(&self, node: usize) -> &[Edge] {
        &self.preds[self.pred_start[node] as usize..self.pred_start[node + 1] as usize]
    }

    /// The coherent-cache penalty `node` pays on cluster `c`.
    fn coherence(&self, node: usize, c: u16) -> u32 {
        match self.mem_home_penalty[node] {
            Some((home, penalty)) if home != c => penalty,
            _ => 0,
        }
    }

    /// The list-schedule simulation behind [`RegionEstimator::estimate`]
    /// (`assign` feasible, region non-empty).
    ///
    /// With a `limit`, every cycle starts by computing a lower bound on
    /// the final estimate — the latest completion so far, the tallest
    /// unissued node's height from this cycle, and per (cluster, kind)
    /// the cycles its unissued nodes still need on its units — and
    /// returns [`None`] as soon as that bound fails `limit`. A run that
    /// is not stopped does exactly the work of an unbounded one.
    fn simulate(
        &self,
        assign: &[u16],
        ws: &mut EstimateWorkspace,
        limit: Option<&Limit<'_>>,
    ) -> Option<u32> {
        let n = self.len();
        let nclusters = self.fu_counts.len();
        let horizon = (n as u32 + 4) * (self.move_latency.max(8) + 4);

        // Reset the workspace. Only the buckets the previous run could
        // have left filled are cleared, so the reset is O(schedule
        // length), not O(horizon).
        let EstimateWorkspace {
            unresolved,
            ready_cycle,
            issued,
            wakeup,
            lists,
            issuing,
            ties,
            transfers,
            transfer_requested,
            need,
            spare,
        } = ws;
        wakeup.reset(horizon as usize + 2);
        transfers.reset(horizon as usize + 2);
        transfer_requested.clear();
        transfer_requested.resize(n * nclusters, false);
        unresolved.clear();
        unresolved.extend_from_slice(&self.pred_count);
        ready_cycle.clear();
        ready_cycle.resize(n, 0);
        for &(i, home) in &self.live_in_homes {
            if home != assign[i as usize] {
                ready_cycle[i as usize] = self.move_latency;
            }
        }
        issued.clear();
        issued.resize(n, false);
        lists.prepare(nclusters * 4, self.nranks, n);
        ties.reset(n);
        need.clear();
        spare.clear();
        if let Some(limit) = limit {
            for (&count, &units) in limit.counts.iter().flatten().zip(&self.units) {
                let cycles = if count > 0 { count.div_ceil(units) } else { 0 };
                need.push(cycles);
                spare.push(cycles * units - count);
            }
        }
        for &i in &self.roots {
            let iu = i as usize;
            wakeup.push(ready_cycle[iu].min(horizon), self.height_rank[iu], i);
        }

        let mut issued_count = 0usize;
        let mut max_completion = 0u32;
        let mut cycle = 0u32;
        let mut tallest = 0usize;
        let mut stopped = false;
        while issued_count < n && cycle <= horizon {
            if let Some(limit) = limit {
                // Every unissued node issues at `cycle` or later and
                // finishes no earlier than its height after that; a
                // (cluster, kind) with `r` unissued nodes on `u` units
                // needs `ceil(r / u)` more cycles. A run that exhausts
                // the horizon returns at least `serial`, so the bound is
                // capped there.
                while tallest < n && issued[self.by_height[tallest] as usize] {
                    tallest += 1;
                }
                let height = self.by_height.get(tallest).map_or(0, |&v| self.height[v as usize]);
                let busiest = need.iter().copied().max().unwrap_or(0);
                let lb = u64::from(cycle) + height.max(u64::from(busiest));
                let lb = u64::from(max_completion).max(lb.min(u64::from(self.serial)));
                if limit.rejects(lb) {
                    stopped = true;
                    break;
                }
            }
            let mut net_free = self.moves_per_cycle;
            // Issue pending transfers first (they unblock consumers).
            transfers.open(cycle);
            while net_free > 0 {
                match transfers.pop() {
                    Some((u, destc)) => {
                        net_free -= 1;
                        let done = cycle + self.move_latency;
                        let from_c = assign[u as usize];
                        for s in self.succs_of(u as usize) {
                            let t = s.node as usize;
                            if s.kind == DepKind::Flow && assign[t] == destc && from_c != destc {
                                unresolved[t] -= 1;
                                ready_cycle[t] = ready_cycle[t].max(done);
                                if unresolved[t] == 0 {
                                    let at = ready_cycle[t].max(cycle + 1).min(horizon);
                                    wakeup.push(at, self.height_rank[t], s.node);
                                }
                            }
                        }
                        max_completion = max_completion.max(done);
                    }
                    None => break,
                }
            }
            // This cycle's arrivals join their lists (latest wake-up
            // first, so each lands in front of the earlier ones of its
            // rank); then each list issues at most one node per unit,
            // in key order.
            for r in wakeup.buckets.slots[cycle as usize].drain(..).rev() {
                let iu = r.node as usize;
                let li = assign[iu] as usize * 4 + self.fu_kind[iu].index();
                lists.insert(li, self.height_rank[iu], r, ties);
            }
            issuing.clear();
            let mut a = 0;
            while a < lists.active.len() {
                let li = lists.active[a] as usize;
                let units = self.units[li];
                let mut free = units;
                while free > 0 {
                    let Some(r) = lists.pop(li) else { break };
                    if ready_cycle[r.node as usize] > cycle {
                        // Only in the horizon's clamped bucket: every
                        // other wake-up lands at or after the node's
                        // ready cycle, and the run ends with this cycle.
                        debug_assert_eq!(cycle, horizon);
                        continue;
                    }
                    issuing.push(r);
                    free -= 1;
                }
                if limit.is_some() && free < units {
                    // The list's unissued nodes need one cycle less
                    // once its units have issued that many more.
                    spare[li] += units - free;
                    if spare[li] >= units {
                        spare[li] -= units;
                        need[li] -= 1;
                    }
                }
                if lists.len[li] == 0 {
                    lists.active.swap_remove(a);
                } else {
                    a += 1;
                }
            }
            // Issue in key order: it fixes the wake-up order of the
            // successors these nodes release.
            for i in 1..issuing.len() {
                let x = issuing[i];
                let mut j = i;
                while j > 0 && precedes(&x, &issuing[j - 1], ties) {
                    issuing[j] = issuing[j - 1];
                    j -= 1;
                }
                issuing[j] = x;
            }
            for &r in issuing.iter() {
                let i = r.node;
                let iu = i as usize;
                debug_assert!(!issued[iu] && unresolved[iu] == 0);
                issued[iu] = true;
                issued_count += 1;
                let coherence = self.coherence(iu, assign[iu]);
                let finish = cycle + (self.base_lat[iu] + coherence).max(1);
                max_completion = max_completion.max(finish);
                // Wake successors / request transfers.
                for (e, s) in self.succs_of(iu).iter().enumerate() {
                    let t = s.node as usize;
                    if s.kind == DepKind::Flow && assign[t] != assign[iu] {
                        let slot = iu * nclusters + assign[t] as usize;
                        // A transfer available after the horizon could
                        // never issue: the run ends first.
                        if !transfer_requested[slot] {
                            transfer_requested[slot] = true;
                            if finish <= horizon {
                                transfers.due.push(finish, (i, assign[t]));
                            }
                        }
                        // The consumer is unblocked when the transfer
                        // lands (handled above).
                    } else {
                        unresolved[t] -= 1;
                        // Value-carrying edges stretch with the
                        // producer's coherence penalty (its result lands
                        // later); pure ordering edges do not.
                        let extra = match s.kind {
                            DepKind::Flow | DepKind::MemFlow => coherence,
                            _ => 0,
                        };
                        ready_cycle[t] = ready_cycle[t].max(cycle + s.latency + extra);
                        if unresolved[t] == 0 {
                            // Wake no earlier than the next cycle: this
                            // cycle's lists have been popped. A wake-up
                            // for the next cycle joins its list at once.
                            let at = ready_cycle[t].max(cycle + 1).min(horizon);
                            let rank = self.height_rank[t];
                            if at != cycle + 1 {
                                wakeup.push(at, rank, s.node);
                                continue;
                            }
                            let woken = if rank == self.height_rank[iu] {
                                // An equal-height wake-up takes its
                                // waker's place, after the waker's
                                // earlier such wake-ups.
                                ties.inherit(s.node, i, e as u32);
                                Ready { node: s.node, ..r }
                            } else {
                                wakeup.ticket(at, rank, s.node)
                            };
                            let li = assign[t] as usize * 4 + self.fu_kind[t].index();
                            lists.insert(li, rank, woken, ties);
                        }
                    }
                }
            }
            cycle += 1;
        }
        let first_live = if stopped { cycle } else { cycle.saturating_sub(1) };
        wakeup.buckets.finish(first_live);
        transfers.due.finish(first_live);
        lists.clear();
        if stopped {
            None
        } else if issued_count < n {
            // Horizon exhausted (pathological contention): fall back to
            // the serial upper bound rather than underestimating.
            debug_assert!(false, "estimator failed to issue all nodes");
            Some(self.serial.max(max_completion))
        } else {
            Some(max_completion.max(1))
        }
    }

    /// The peak per-(cluster, unit-kind) occupancy of an assignment:
    /// `max ceil(ops / units)`. Used by RHOP refinement as a tie-breaker
    /// — an equal-length estimate that lowers the resource peak leaves
    /// more slack for the real scheduler.
    pub fn resource_peak(&self, assign: &[u16]) -> u32 {
        let nclusters = self.fu_counts.len();
        let mut counts = vec![[0u32; 4]; nclusters];
        for (i, &kind) in self.fu_kind.iter().enumerate() {
            counts[assign[i] as usize][kind.index()] += 1;
        }
        peak_of(&counts, &self.fu_counts)
    }
}

/// `max ceil(count / units)` over the (cluster, kind) pairs in use.
fn peak_of(counts: &[[u32; 4]], fu_counts: &[[u32; 4]]) -> u32 {
    let mut peak = 0u32;
    for (kinds, units) in counts.iter().zip(fu_counts) {
        for (&count, &u) in kinds.iter().zip(units) {
            if count > 0 {
                peak = peak.max(count.div_ceil(u.max(1)));
            }
        }
    }
    peak
}

/// A node in the simulation's ready structures. Its place in the issue
/// order is fixed when it is woken: `(key, seq)` ascending, then its
/// tie-break path (see [`Ties`]).
#[derive(Clone, Copy, Debug)]
struct Ready {
    /// Height rank (high half, tallest first) and `u32::MAX` minus the
    /// arrival cycle (low half, latest arrival first).
    key: u64,
    /// Wake-up order.
    seq: u32,
    node: u32,
}

/// Whether `a` issues before `b`.
#[inline]
fn precedes(a: &Ready, b: &Ready, ties: &Ties) -> bool {
    if a.key != b.key {
        a.key < b.key
    } else if a.seq != b.seq {
        a.seq < b.seq
    } else {
        ties.path(a.node) < ties.path(b.node)
    }
}

/// Tie-break paths of equal-height wake-ups. Such a node inherits its
/// waker's `(key, seq)`, and its path is the waker's path extended by
/// the edge's position among the waker's successors. Nodes sharing a
/// `(key, seq)` descend from one fresh arrival, and comparing their
/// paths orders them as a walk that re-ticketed every waiting node each
/// cycle would: a wake-up sorts right after its waker's earlier ones.
/// A fresh arrival's path is empty.
#[derive(Clone, Debug, Default)]
struct Ties {
    /// Per node: its path's index in `paths` (0 = the empty path).
    /// Only the nodes in `owners` have another.
    path_of: Vec<u32>,
    paths: Vec<Vec<u32>>,
    owners: Vec<u32>,
}

impl Ties {
    fn reset(&mut self, n: usize) {
        for &node in &self.owners {
            self.path_of[node as usize] = 0;
        }
        self.owners.clear();
        if self.path_of.len() < n {
            self.path_of.resize(n, 0);
        }
        self.paths.truncate(1);
        if self.paths.is_empty() {
            self.paths.push(Vec::new());
        }
    }

    fn path(&self, node: u32) -> &[u32] {
        &self.paths[self.path_of[node as usize] as usize]
    }

    /// Gives `node` the path of `waker` extended by `edge`.
    fn inherit(&mut self, node: u32, waker: u32, edge: u32) {
        let mut path = self.path(waker).to_vec();
        path.push(edge);
        self.path_of[node as usize] = self.paths.len() as u32;
        self.paths.push(path);
        self.owners.push(node);
    }
}

const NONE: u32 = u32::MAX;

/// The ready nodes of every (cluster, kind) list. A list keeps one
/// chain per height rank, linked through the nodes, and a bitset of
/// its non-empty chains, so inserting and popping cost O(1) however
/// many nodes wait. Within a chain, nodes are in issue order; a fresh
/// arrival (the latest arrival cycle) joins at the front. Between runs
/// every chain is empty.
#[derive(Clone, Debug, Default)]
struct ReadyLists {
    nranks: usize,
    /// Bitset words per list.
    words: usize,
    /// First node of each `(list, rank)` chain ([`NONE`] = empty).
    head: Vec<u32>,
    /// Per node: the next node of its chain.
    next: Vec<u32>,
    /// Per node: its entry while listed.
    entry: Vec<Ready>,
    /// Per list: one bit per rank whose chain is non-empty.
    bits: Vec<u64>,
    /// Per list: every bitset word below this one is zero.
    low: Vec<u32>,
    /// Per list: nodes listed.
    len: Vec<u32>,
    /// The lists with listed nodes, in no particular order.
    active: Vec<u32>,
}

impl ReadyLists {
    /// Sizes the lists for a run over `n` nodes.
    fn prepare(&mut self, nlists: usize, nranks: usize, n: usize) {
        if self.nranks != nranks || self.len.len() != nlists {
            self.nranks = nranks;
            self.words = nranks.div_ceil(64);
            self.head = vec![NONE; nlists * nranks];
            self.bits = vec![0; nlists * self.words];
            self.low = vec![self.words as u32; nlists];
            self.len = vec![0; nlists];
        }
        if self.next.len() < n {
            self.next.resize(n, NONE);
            self.entry.resize(n, Ready { key: 0, seq: 0, node: 0 });
        }
    }

    #[inline]
    fn insert(&mut self, list: usize, rank: u32, r: Ready, ties: &Ties) {
        let node = r.node as usize;
        let slot = list * self.nranks + rank as usize;
        self.entry[node] = r;
        if self.len[list] == 0 {
            self.active.push(list as u32);
        }
        self.len[list] += 1;
        let first = self.head[slot];
        if first == NONE || precedes(&r, &self.entry[first as usize], ties) {
            if first == NONE {
                let w = rank as usize / 64;
                self.bits[list * self.words + w] |= 1 << (rank % 64);
                self.low[list] = self.low[list].min(w as u32);
            }
            self.next[node] = first;
            self.head[slot] = r.node;
            return;
        }
        // Behind the front: a wake-up after earlier ones of this cycle,
        // or an equal-height wake-up.
        let mut prev = first as usize;
        while self.next[prev] != NONE && precedes(&self.entry[self.next[prev] as usize], &r, ties) {
            prev = self.next[prev] as usize;
        }
        self.next[node] = self.next[prev];
        self.next[prev] = r.node;
    }

    fn pop(&mut self, list: usize) -> Option<Ready> {
        let bits = &mut self.bits[list * self.words..(list + 1) * self.words];
        let low = &mut self.low[list];
        while (*low as usize) < bits.len() && bits[*low as usize] == 0 {
            *low += 1;
        }
        let w = *low as usize;
        let word = *bits.get(w)?;
        let rank = w * 64 + word.trailing_zeros() as usize;
        let slot = list * self.nranks + rank;
        let node = self.head[slot] as usize;
        self.head[slot] = self.next[node];
        if self.head[slot] == NONE {
            bits[w] &= word - 1;
        }
        self.len[list] -= 1;
        Some(self.entry[node])
    }

    /// Empties every list.
    fn clear(&mut self) {
        for &list in &self.active {
            let list = list as usize;
            let words = list * self.words..(list + 1) * self.words;
            for (w, word) in self.bits[words].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let rank = w * 64 + bits.trailing_zeros() as usize;
                    self.head[list * self.nranks + rank] = NONE;
                    bits &= bits - 1;
                }
            }
            self.low[list] = self.words as u32;
            self.len[list] = 0;
        }
        self.active.clear();
    }
}

/// Sorts by `key` (keys are unique, so the order is total). Most
/// per-cycle runs hold a handful of entries, where an inline insertion
/// sort beats a call into the general sort.
fn sort_run<T: Copy, K: Ord>(v: &mut [T], key: impl Fn(&T) -> K) {
    if v.len() > 32 {
        v.sort_unstable_by_key(key);
        return;
    }
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && key(&x) < key(&v[j - 1]) {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// One run's items filed by cycle. A reset clears only the buckets the
/// previous run may have left filled, so it costs O(schedule length),
/// not O(horizon).
#[derive(Clone, Debug)]
struct Buckets<T> {
    slots: Vec<Vec<T>>,
    /// Buckets `stale.0..stale.1` may still hold items from the last
    /// run: everything below was drained, nothing above was filled.
    stale: (usize, usize),
    filled_to: usize,
}

impl<T> Default for Buckets<T> {
    fn default() -> Self {
        Buckets { slots: Vec::new(), stale: (0, 0), filled_to: 0 }
    }
}

impl<T> Buckets<T> {
    fn reset(&mut self, len: usize) {
        let (lo, hi) = self.stale;
        for slot in self.slots.iter_mut().take(hi).skip(lo) {
            slot.clear();
        }
        if self.slots.len() < len {
            self.slots.resize_with(len, Vec::new);
        }
        self.filled_to = 0;
    }

    fn push(&mut self, at: u32, item: T) {
        self.slots[at as usize].push(item);
        self.filled_to = self.filled_to.max(at as usize + 1);
    }

    /// Records that every bucket below `first_live` has been drained.
    fn finish(&mut self, first_live: u32) {
        self.stale = (first_live as usize, self.filled_to);
    }
}

/// Wake-up buckets: nodes that become ready at a given cycle, in
/// wake-up order.
#[derive(Clone, Debug, Default)]
struct Wakeup {
    buckets: Buckets<Ready>,
    seq: u32,
}

impl Wakeup {
    fn reset(&mut self, len: usize) {
        self.buckets.reset(len);
        self.seq = 0;
    }

    /// The entry of `node` (of height rank `rank`) woken now as a fresh
    /// arrival at cycle `at`.
    fn ticket(&mut self, at: u32, rank: u32, node: u32) -> Ready {
        self.seq += 1;
        let key = (u64::from(rank) << 32) | u64::from(u32::MAX - at);
        Ready { key, seq: self.seq, node }
    }

    /// Files `node` as a fresh arrival at cycle `at`.
    fn push(&mut self, at: u32, rank: u32, node: u32) {
        let r = self.ticket(at, rank, node);
        self.buckets.push(at, r);
    }
}

/// Requested transfers, issued in `(available cycle, producer,
/// destination cluster)` order: requests are filed by the cycle their
/// value becomes available, and each cycle appends its bucket, sorted,
/// to a queue that already holds every earlier request not yet issued.
#[derive(Clone, Debug, Default)]
struct Transfers {
    due: Buckets<(u32, u16)>,
    queue: Vec<(u32, u16)>,
    head: usize,
}

impl Transfers {
    fn reset(&mut self, len: usize) {
        self.due.reset(len);
        self.queue.clear();
        self.head = 0;
    }

    /// Queues everything that becomes available at `cycle`.
    fn open(&mut self, cycle: u32) {
        let due = &mut self.due.slots[cycle as usize];
        if !due.is_empty() {
            sort_run(due, |&t| t);
            self.queue.extend_from_slice(due);
            due.clear();
        }
    }

    fn pop(&mut self) -> Option<(u32, u16)> {
        let next = self.queue.get(self.head).copied();
        self.head += usize::from(next.is_some());
        next
    }
}

/// Reusable scratch buffers for [`RegionEstimator::estimate_with`].
///
/// The estimator's list-schedule simulation needs a dozen growable
/// buffers; allocating them per call dominated RHOP refinement, which
/// evaluates thousands of candidate assignments per region. A single
/// workspace amortizes those allocations across all calls.
///
/// A run resets the per-node counters with one pass each (a pass over
/// a region's nodes is cheaper than tracking which ones the run
/// touched), and everything else only where the last run left state:
/// the wake-up and transfer buckets it filled, the ready chains still
/// holding nodes when it stopped, and the nodes it gave a tie-break
/// path.
#[derive(Clone, Debug, Default)]
pub struct EstimateWorkspace {
    /// Per node: predecessors not yet resolved (issued, or their
    /// transfer landed).
    unresolved: Vec<u32>,
    ready_cycle: Vec<u32>,
    issued: Vec<bool>,
    wakeup: Wakeup,
    /// One ready list per (cluster, kind): list `cluster * 4 + kind`.
    lists: ReadyLists,
    /// This cycle's issue order.
    issuing: Vec<Ready>,
    ties: Ties,
    transfers: Transfers,
    /// Per (producer, destination cluster): a transfer was requested.
    transfer_requested: Vec<bool>,
    /// Bounded runs, per list: the cycles its unissued nodes still
    /// need on its units (`ceil(unissued / units)`), and the spare
    /// slots in the last of those cycles.
    need: Vec<u32>,
    spare: Vec<u32>,
}

/// Incremental candidate-move evaluation on top of a [`RegionEstimator`].
///
/// RHOP refinement probes every unlocked group against every other
/// cluster; evaluating each probe with [`RegionEstimator::estimate`]
/// used to clone the whole node assignment and re-walk the region from
/// scratch. This wrapper keeps the candidate state incremental:
///
/// * one scratch node assignment mutated in place by
///   [`IncrementalEstimator::try_move`] and restored by
///   [`IncrementalEstimator::rollback`] — no per-probe clone,
/// * per-(cluster, kind) occupancy buckets and a count of displaced
///   locks, updated only for the moved nodes, so
///   [`IncrementalEstimator::resource_peak`], the resource lower bound
///   and the feasibility checks cost O(clusters × kinds) instead of
///   O(nodes),
/// * a cut-aware critical path (no heap or sort) kept for the committed
///   assignment: region node order is topological, so a probe
///   recomputes it only from its first moved node onwards,
/// * a bounded simulation for the probes that pass those checks: it
///   keeps a running lower bound on the estimate and stops as soon as
///   the bound rules the probe out, so most rejected probes never
///   simulate to the end,
/// * a persistent [`EstimateWorkspace`] for the simulations.
///
/// Pruning is **exact**: a probe is answered [`None`] only when a lower
/// bound already rules out improving on the incumbent `(estimate,
/// peak)` pair, so refinement accepts exactly the same moves — and
/// produces bit-identical placements — as full evaluation of every
/// probe.
#[derive(Clone, Debug)]
pub struct IncrementalEstimator<'a> {
    est: &'a RegionEstimator,
    assign: Vec<u16>,
    /// Per-(cluster, kind) node counts for the current `assign`.
    counts: Vec<[u32; 4]>,
    /// Locked nodes of the current `assign` that sit off their lock.
    displaced: u32,
    /// Undo log of the uncommitted moves: (node, previous cluster).
    trial: Vec<(u32, u16)>,
    ws: EstimateWorkspace,
    /// Per node: the home every live-in entry of the node names
    /// ([`NO_LIVE_IN`] = none, [`MIXED_LIVE_IN`] = several different
    /// ones, so the node waits for a transfer wherever it sits).
    live_in: Vec<u32>,
    /// The committed assignment's ASAP issue cycle per node under the
    /// path bound's effective latencies, and the cycle each node
    /// completes by.
    asap: Vec<u64>,
    done: Vec<u64>,
    /// `lb_before[i]`: the largest `done` over nodes `< i` of the
    /// committed assignment (`n + 1` entries).
    lb_before: Vec<u64>,
    /// The probe's ASAP values, valid where `stamp` is this probe's.
    trial_asap: Vec<u64>,
    /// Per node: `2 * probe` when the probe must recompute the node (a
    /// predecessor's value or cluster changed), `2 * probe + 1` when the
    /// probe moved it.
    stamp: Vec<u32>,
    probe: u32,
    /// Probes whose simulation ran to the end.
    pub full_evals: u64,
    /// Probes answered without a complete simulation
    /// (`pruned_lock + pruned_bound`).
    pub pruned_evals: u64,
    /// Probes rejected because a trial move displaced a locked node.
    pub pruned_lock: u64,
    /// Probes rejected by the resource/critical-path lower bound before
    /// simulating, or stopped by the simulation's running bound.
    pub pruned_bound: u64,
}

const NO_LIVE_IN: u32 = u32::MAX;
const MIXED_LIVE_IN: u32 = u32::MAX - 1;

impl<'a> IncrementalEstimator<'a> {
    /// A fresh evaluator with every node on cluster 0.
    pub fn new(est: &'a RegionEstimator) -> Self {
        Self::with_workspace(est, EstimateWorkspace::default())
    }

    /// [`IncrementalEstimator::new`] simulating in `ws`, a workspace
    /// handed back by [`IncrementalEstimator::into_workspace`] of an
    /// evaluator over any region: its buffers are reused, not regrown.
    pub fn with_workspace(est: &'a RegionEstimator, ws: EstimateWorkspace) -> Self {
        let n = est.len();
        let mut live_in = vec![NO_LIVE_IN; n];
        for &(i, home) in &est.live_in_homes {
            let entry = &mut live_in[i as usize];
            *entry = match *entry {
                NO_LIVE_IN => u32::from(home),
                h if h == u32::from(home) => h,
                _ => MIXED_LIVE_IN,
            };
        }
        let mut inc = IncrementalEstimator {
            est,
            assign: vec![0u16; n],
            counts: vec![[0u32; 4]; est.fu_counts.len()],
            displaced: 0,
            trial: Vec::new(),
            ws,
            live_in,
            asap: vec![0; n],
            done: vec![0; n],
            lb_before: vec![0; n + 1],
            trial_asap: vec![0; n],
            stamp: vec![0; n],
            probe: 0,
            full_evals: 0,
            pruned_evals: 0,
            pruned_lock: 0,
            pruned_bound: 0,
        };
        inc.rebuild();
        inc
    }

    /// The simulation workspace, for the next region's evaluator.
    pub fn into_workspace(self) -> EstimateWorkspace {
        self.ws
    }

    /// Loads a node-level assignment, discarding any uncommitted moves.
    pub fn load(&mut self, assign: &[u16]) {
        assert_eq!(assign.len(), self.est.len());
        self.trial.clear();
        self.assign.copy_from_slice(assign);
        self.rebuild();
    }

    /// Loads a group-level assignment: node `m` gets
    /// `group_assign[g]` for each `m` in `members[g]`. Replaces the
    /// per-probe `expand` allocation RHOP previously performed.
    pub fn load_groups(&mut self, members: &[Vec<u32>], group_assign: &[u16]) {
        self.trial.clear();
        for (g, ms) in members.iter().enumerate() {
            for &m in ms {
                self.assign[m as usize] = group_assign[g];
            }
        }
        self.rebuild();
    }

    /// Recomputes everything derived from a freshly loaded assignment.
    fn rebuild(&mut self) {
        for c in &mut self.counts {
            *c = [0u32; 4];
        }
        for (i, &kind) in self.est.fu_kind.iter().enumerate() {
            self.counts[self.assign[i] as usize][kind.index()] += 1;
        }
        self.displaced = (0..self.assign.len()).map(|i| u32::from(self.is_displaced(i))).sum();
        self.refresh_path(0);
    }

    fn is_displaced(&self, node: usize) -> bool {
        self.est.locked[node].is_some_and(|l| l.index() != self.assign[node] as usize)
    }

    /// The current (trial) node assignment.
    pub fn assign(&self) -> &[u16] {
        &self.assign
    }

    /// Moves `node` to cluster `to`, keeping the counts current.
    fn place(&mut self, node: usize, to: u16) {
        let from = self.assign[node];
        let k = self.est.fu_kind[node].index();
        self.counts[from as usize][k] -= 1;
        self.counts[to as usize][k] += 1;
        self.displaced -= u32::from(self.is_displaced(node));
        self.assign[node] = to;
        self.displaced += u32::from(self.is_displaced(node));
    }

    /// Tentatively moves `nodes` to cluster `to`, updating the
    /// occupancy buckets for just those nodes. Stacks until
    /// [`IncrementalEstimator::commit`] or
    /// [`IncrementalEstimator::rollback`].
    pub fn try_move(&mut self, nodes: &[u32], to: u16) {
        for &m in nodes {
            self.trial.push((m, self.assign[m as usize]));
            self.place(m as usize, to);
        }
    }

    /// Reverts all uncommitted moves.
    pub fn rollback(&mut self) {
        while let Some((m, from)) = self.trial.pop() {
            self.place(m as usize, from);
        }
    }

    /// Accepts all uncommitted moves as the new baseline.
    pub fn commit(&mut self) {
        if let Some(first) = self.first_moved() {
            self.refresh_path(first);
        }
        self.trial.clear();
    }

    /// The lowest node index the uncommitted moves touch.
    fn first_moved(&self) -> Option<usize> {
        self.trial.iter().map(|&(m, _)| m as usize).min()
    }

    /// The peak per-(cluster, kind) occupancy of the current
    /// assignment, maintained incrementally; exactly
    /// [`RegionEstimator::resource_peak`].
    pub fn resource_peak(&self) -> u32 {
        peak_of(&self.counts, &self.est.fu_counts)
    }

    /// Full schedule-length estimate of the current assignment, exactly
    /// [`RegionEstimator::estimate`] but allocation-free.
    pub fn estimate(&mut self) -> u32 {
        self.full_evals += 1;
        self.est.estimate_with(&self.assign, &mut self.ws)
    }

    /// Evaluates the current (trial) assignment against the incumbent
    /// `(bound, peak_bound)`: returns `Some((estimate, peak))`, exactly
    /// the values of [`RegionEstimator::estimate`] and
    /// [`RegionEstimator::resource_peak`], when the trial *could*
    /// improve on the incumbent, and `None` when it provably cannot.
    ///
    /// `None` is exact, never heuristic: it is returned only when a
    /// displaced lock makes the trial infeasible, or when a lower bound
    /// shows the trial's estimate `e` satisfies `e > bound`, or
    /// `e >= bound` while its peak ties or worsens `peak_bound` — the
    /// exact cases RHOP's acceptance test `e < bound || (e == bound &&
    /// peak < peak_bound)` rejects. The bounds are, in order: the
    /// resource bound and the cut-aware critical path, checked before
    /// simulating; then the simulation's running bound, checked at the
    /// top of every simulated cycle.
    pub fn estimate_unless_worse(&mut self, bound: u32, peak_bound: u32) -> Option<(u32, u32)> {
        if self.trial.iter().any(|&(m, _)| self.is_displaced(m as usize)) {
            self.pruned_evals += 1;
            self.pruned_lock += 1;
            return None;
        }
        let peak = self.resource_peak();
        // The schedule cannot be shorter than the busiest unit's
        // occupancy, nor than the cut-aware critical path; a node off
        // its lock, or on a cluster without a unit of its kind, cannot
        // be scheduled at all.
        let infeasible = self.displaced > 0 || self.lacks_units();
        let lb = if infeasible {
            u64::from(INFEASIBLE)
        } else {
            u64::from(peak).max(self.path_lower_bound())
        };
        let limit = Limit { bound, peak, peak_bound, counts: &self.counts };
        let probe = if limit.rejects(lb) {
            None
        } else if infeasible {
            Some(INFEASIBLE)
        } else if self.est.is_empty() {
            Some(0)
        } else {
            self.est.simulate(&self.assign, &mut self.ws, Some(&limit))
        };
        match probe {
            Some(e) => {
                self.full_evals += 1;
                Some((e, peak))
            }
            None => {
                self.pruned_evals += 1;
                self.pruned_bound += 1;
                None
            }
        }
    }

    /// Whether some node of the current assignment sits on a cluster
    /// with no unit of its kind, read off the occupancy counts.
    fn lacks_units(&self) -> bool {
        self.est.missing_units
            && self
                .counts
                .iter()
                .zip(&self.est.fu_counts)
                .any(|(counts, units)| counts.iter().zip(units).any(|(&c, &u)| c > 0 && u == 0))
    }

    /// Node `i`'s ASAP issue cycle under the current assignment, given
    /// its predecessors' ASAP cycles, and the cycle it completes by.
    ///
    /// Soundness per edge `u -> i`:
    /// * a cut `Flow` edge forces a transfer that lands no earlier than
    ///   `issue(u) + d.latency + move_latency` (the transfer waits for
    ///   `finish(u) >= issue(u) + d.latency`, then takes
    ///   `move_latency`; `u`'s coherence penalty is deliberately *not*
    ///   added — `finish` includes it, but `d.latency` alone is the
    ///   only portion guaranteed on every path through the simulator),
    /// * an uncut value edge (`Flow`/`MemFlow`) delays `i` by
    ///   `d.latency` plus `u`'s coherence penalty,
    /// * ordering edges delay by `d.latency`.
    ///
    /// The node then completes no earlier than
    /// `asap + max(1, base_lat + coherence)`, and live-in values homed
    /// off-cluster hold it until `move_latency`.
    fn node_asap(&self, i: usize, asap_of: impl Fn(usize) -> u64) -> (u64, u64) {
        let est = self.est;
        let assign = &self.assign;
        let ci = assign[i];
        let home = self.live_in[i];
        let mut ready = if home != NO_LIVE_IN && home != u32::from(ci) {
            u64::from(est.move_latency)
        } else {
            0
        };
        for p in est.preds_of(i) {
            let u = p.node as usize;
            let cu = assign[u];
            let eff = if p.kind == DepKind::Flow && cu != ci {
                u64::from(p.latency) + u64::from(est.move_latency)
            } else {
                u64::from(p.latency)
                    + match p.kind {
                        DepKind::Flow | DepKind::MemFlow => u64::from(est.coherence(u, cu)),
                        _ => 0,
                    }
            };
            ready = ready.max(asap_of(u) + eff);
        }
        let done = ready + (u64::from(est.base_lat[i]) + u64::from(est.coherence(i, ci))).max(1);
        (ready, done)
    }

    /// Recomputes the committed assignment's path-bound cache from node
    /// `from` onwards (entries below `from` are unchanged, because their
    /// predecessors all come before them).
    fn refresh_path(&mut self, from: usize) {
        for i in from..self.assign.len() {
            let (ready, done) = self.node_asap(i, |u| self.asap[u]);
            self.asap[i] = ready;
            self.done[i] = done;
            self.lb_before[i + 1] = self.lb_before[i].max(done);
        }
    }

    /// A lower bound on [`RegionEstimator::estimate`] for the current
    /// assignment: the latest completion of an ASAP pass in node order
    /// (valid because region dep graphs are topologically ordered by
    /// program order) using *effective* latencies, see
    /// [`IncrementalEstimator::node_asap`]. Every term also bounds the
    /// simulation from below, so `path_lower_bound() <= estimate()`
    /// always. A node keeps the committed assignment's values unless it
    /// moved or a predecessor's value or cluster changed, so only the
    /// moved nodes' cone is recomputed, and nodes before the first moved
    /// one are not visited at all.
    fn path_lower_bound(&mut self) -> u64 {
        let n = self.assign.len();
        let first = self.first_moved().unwrap_or(n);
        if self.probe == u32::MAX / 2 {
            self.stamp.fill(0);
            self.probe = 0;
        }
        self.probe += 1;
        let (dirty, moved) = (2 * self.probe, 2 * self.probe + 1);
        for &(m, _) in &self.trial {
            self.stamp[m as usize] = moved;
        }
        let mut lb = self.lb_before[first];
        for i in first..n {
            let stamp = self.stamp[i];
            if stamp < dirty {
                lb = lb.max(self.done[i]);
                continue;
            }
            let (ready, done) = self.node_asap(i, |u| {
                if self.stamp[u] >= dirty {
                    self.trial_asap[u]
                } else {
                    self.asap[u]
                }
            });
            self.trial_asap[i] = ready;
            lb = lb.max(done);
            if stamp == moved || ready != self.asap[i] {
                for s in self.est.succs_of(i) {
                    let t = s.node as usize;
                    self.stamp[t] = self.stamp[t].max(dirty);
                }
            }
        }
        lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_analysis::PointsTo;
    use mcpart_ir::{FunctionBuilder, Profile};

    fn setup(build: impl FnOnce(&mut FunctionBuilder<'_>)) -> (Program, AccessInfo) {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        build(&mut b);
        let pts = PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        (p, access)
    }

    #[test]
    fn resource_bound_dominates_wide_blocks() {
        // 12 independent consts: 2 int units on one cluster -> >= 6;
        // split across two clusters -> >= 3.
        let (p, access) = setup(|b| {
            for i in 0..12 {
                b.iconst(i);
            }
            b.ret(None);
        });
        let m = Machine::paper_2cluster(5);
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        let all0 = est.estimate(&vec![0; est.len()]);
        let mut split = vec![0u16; est.len()];
        for (i, s) in split.iter_mut().enumerate() {
            if i % 2 == 1 {
                *s = 1;
            }
        }
        let balanced = est.estimate(&split);
        assert!(all0 >= 6, "all0 = {all0}");
        assert!(balanced < all0, "balanced {balanced} vs {all0}");
    }

    #[test]
    fn cut_critical_edge_costs_move_latency() {
        let (p, access) = setup(|b| {
            let x = b.iconst(1);
            let y = b.add(x, x);
            let z = b.add(y, y);
            b.ret(Some(z));
        });
        let m = Machine::paper_2cluster(5);
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        let same = est.estimate(&vec![0; est.len()]);
        // Cut between the two adds.
        let mut assign = vec![0u16; est.len()];
        assign[2] = 1; // second add on the other cluster
        assign[3] = 1; // ret follows it
        let cut = est.estimate(&assign);
        assert!(cut >= same + 5, "cut {cut} vs same {same}");
    }

    #[test]
    fn locked_node_infeasible_elsewhere() {
        let (p, access) = setup(|b| {
            let v = b.iconst(1);
            b.ret(Some(v));
        });
        let m = Machine::paper_2cluster(5);
        let mut est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        est.lock(0, ClusterId::new(1));
        assert_eq!(est.estimate(&[0, 0]), INFEASIBLE);
        assert_ne!(est.estimate(&[1, 0]), INFEASIBLE);
        assert_eq!(est.lock_of(0), Some(ClusterId::new(1)));
    }

    #[test]
    fn live_in_home_delays_remote_consumers() {
        // Region = the second block only, so `x` is a live-in value.
        let mut p = Program::new("t");
        let mut b = mcpart_ir::FunctionBuilder::entry(&mut p);
        let x = b.iconst(1);
        let b2 = b.block("b2");
        b.jump(b2);
        b.switch_to(b2);
        let y = b.add(x, x);
        b.ret(Some(y));
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let m = Machine::paper_2cluster(5);
        let mut est = RegionEstimator::new(&p, p.entry, &[b2], &access, &m);
        assert_eq!(est.len(), 2); // add + ret
        let local = est.estimate(&[0, 0]);
        // x lives on cluster 1: consuming it on cluster 0 is delayed by
        // the move latency.
        est.add_live_in_home(0, ClusterId::new(1));
        let remote = est.estimate(&[0, 0]);
        assert!(remote >= local + 5, "remote {remote} vs local {local}");
        // Consuming it on its home cluster avoids the delay entirely.
        let at_home = est.estimate(&[1, 1]);
        assert_eq!(at_home, local, "at_home {at_home} vs local {local}");
        est.clear_live_in_homes();
        assert_eq!(est.estimate(&[0, 0]), local);
    }

    #[test]
    fn coherent_mem_home_penalty_applies_off_cluster() {
        let mut p = Program::new("t");
        let obj = p.add_object(mcpart_ir::DataObject::global("g", 16));
        let mut b = mcpart_ir::FunctionBuilder::entry(&mut p);
        let a = b.addrof(obj);
        let v = b.load(mcpart_ir::MemWidth::B4, a);
        b.ret(Some(v));
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let m = Machine::paper_2cluster(5).with_coherent_cache(9);
        let mut est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        let local = est.estimate(&[0, 0, 0]);
        est.set_mem_home(1, ClusterId::new(1), 9);
        let remote = est.estimate(&[0, 0, 0]);
        assert!(remote >= local + 9, "remote {remote} vs local {local}");
        // On the home cluster the penalty vanishes (modulo operand
        // transfer for the address).
        let at_home = est.estimate(&[0, 1, 1]);
        assert!(at_home < remote, "at_home {at_home} vs remote {remote}");
    }

    // A mixed region exercising locks, live-ins, memory homes, cut
    // edges and FU contention, for the incremental-vs-full checks.
    fn mixed_estimator() -> (Program, Machine) {
        let mut p = Program::new("t");
        let obj = p.add_object(mcpart_ir::DataObject::global("g", 16));
        let mut b = mcpart_ir::FunctionBuilder::entry(&mut p);
        let a = b.addrof(obj);
        let v = b.load(mcpart_ir::MemWidth::B4, a);
        let mut accum = v;
        for i in 0..6 {
            let c = b.iconst(i);
            accum = b.add(accum, c);
        }
        let w = b.mul(accum, accum);
        b.store(mcpart_ir::MemWidth::B4, a, w);
        b.ret(Some(w));
        let m = Machine::paper_2cluster(5).with_coherent_cache(9);
        (p, m)
    }

    #[test]
    fn incremental_matches_full_evaluation() {
        let (p, m) = mixed_estimator();
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let mut est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        est.set_mem_home(1, ClusterId::new(1), 9);
        est.add_live_in_home(2, ClusterId::new(1));
        let n = est.len();
        let mut inc = IncrementalEstimator::new(&est);
        // Walk through a deterministic pseudo-random sequence of
        // assignments via try_move, checking estimate and peak against
        // the from-scratch evaluator at every step.
        let mut state = 0x1234_5678_9abc_def0u64;
        for step in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = (state >> 33) as usize % n;
            let to = ((state >> 17) & 1) as u16;
            inc.try_move(&[node as u32], to);
            if step % 3 == 0 {
                inc.rollback();
            } else {
                inc.commit();
            }
            let expect_e = est.estimate(inc.assign());
            let expect_p = est.resource_peak(inc.assign());
            assert_eq!(inc.estimate(), expect_e, "step {step}");
            assert_eq!(inc.resource_peak(), expect_p, "step {step}");
        }
    }

    #[test]
    fn path_lower_bound_never_exceeds_estimate() {
        let (p, m) = mixed_estimator();
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let mut est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        est.set_mem_home(1, ClusterId::new(1), 9);
        est.add_live_in_home(2, ClusterId::new(1));
        let n = est.len();
        let mut inc = IncrementalEstimator::new(&est);
        let mut state = 0xdead_beef_cafe_f00du64;
        for _ in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = (state >> 33) as usize % n;
            inc.try_move(&[node as u32], ((state >> 17) & 1) as u16);
            inc.commit();
            let lb = (inc.resource_peak() as u64).max(inc.path_lower_bound());
            let e = est.estimate(inc.assign());
            assert!(lb <= e as u64, "lb {lb} > estimate {e}");
        }
    }

    #[test]
    fn estimate_unless_worse_prunes_exactly() {
        let (p, m) = mixed_estimator();
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        let n = est.len();
        let mut inc = IncrementalEstimator::new(&est);
        let bound = inc.estimate();
        let peak_bound = inc.resource_peak();
        let mut pruned = 0usize;
        for node in 0..n {
            inc.try_move(&[node as u32], 1);
            match inc.estimate_unless_worse(bound, peak_bound) {
                Some((e, peak)) => {
                    assert_eq!(e, est.estimate(inc.assign()));
                    assert_eq!(peak, est.resource_peak(inc.assign()));
                }
                None => {
                    // Pruned: the probe must genuinely fail RHOP's
                    // acceptance test against (bound, peak_bound).
                    let e = est.estimate(inc.assign());
                    let peak = est.resource_peak(inc.assign());
                    let improves = e < bound || (e == bound && peak < peak_bound);
                    assert!(!improves, "pruned an improving move: e={e} peak={peak}");
                    pruned += 1;
                }
            }
            inc.rollback();
        }
        assert_eq!(inc.pruned_evals as usize, pruned);
        // The workspace path and the allocating path agree after reuse.
        assert_eq!(inc.estimate(), bound);
    }

    #[test]
    fn load_groups_expands_group_assignments() {
        let (p, m) = mixed_estimator();
        let pts = mcpart_analysis::PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        let n = est.len();
        // Two groups: even nodes and odd nodes.
        let members: Vec<Vec<u32>> = vec![
            (0..n as u32).filter(|i| i % 2 == 0).collect(),
            (0..n as u32).filter(|i| i % 2 == 1).collect(),
        ];
        let mut inc = IncrementalEstimator::new(&est);
        inc.load_groups(&members, &[0, 1]);
        let expect: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        assert_eq!(inc.assign(), &expect[..]);
        assert_eq!(inc.estimate(), est.estimate(&expect));
        assert_eq!(inc.resource_peak(), est.resource_peak(&expect));
    }

    /// A 2-cluster machine whose cluster 1 has no float unit (legal:
    /// `Machine::validate` accepts it) and an `fconst`/`fadd`/`ret`
    /// block.
    fn floatless_cluster() -> (Program, AccessInfo, Machine) {
        let (p, access) = setup(|b| {
            let x = b.fconst(1.5);
            let y = b.fadd(x, x);
            b.ret(Some(y));
        });
        let mut m = Machine::homogeneous(2, 5);
        m.clusters[1].fu = mcpart_machine::FuMix::new(1, 0, 1, 1);
        assert_eq!(m.validate(), Ok(()));
        (p, access, m)
    }

    #[test]
    fn node_on_a_cluster_without_its_unit_is_infeasible() {
        let (p, access, m) = floatless_cluster();
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        assert_eq!(est.len(), 3);
        let all0 = est.estimate(&[0, 0, 0]);
        assert!(all0 < INFEASIBLE);
        // The fadd on the float-less cluster, or the fconst: no unit to
        // issue on. The ret alone may move (branch units on both).
        assert_eq!(est.estimate(&[0, 1, 0]), INFEASIBLE);
        assert_eq!(est.estimate(&[1, 0, 0]), INFEASIBLE);
        assert!(est.estimate(&[0, 0, 1]) < INFEASIBLE);
        // The incremental probe agrees, from its occupancy counts.
        let mut inc = IncrementalEstimator::new(&est);
        let bound = inc.estimate();
        let peak_bound = inc.resource_peak();
        assert_eq!(bound, all0);
        inc.try_move(&[1], 1);
        assert_eq!(inc.estimate_unless_worse(bound, peak_bound), None);
        assert_eq!(inc.estimate_unless_worse(INFEASIBLE, u32::MAX), Some((INFEASIBLE, 1)));
        assert_eq!(inc.estimate(), INFEASIBLE);
        inc.rollback();
        assert_eq!(inc.estimate(), all0);
    }

    /// Seeded random regions with heavy unit contention, cut edges,
    /// live-ins and memory homes: the bounded probe must answer exactly
    /// what the full estimate implies for every incumbent around it,
    /// ties included, and its running bound must stop some simulations
    /// that the static pre-check let through.
    #[test]
    fn bounded_probe_is_exact_around_the_full_estimate() {
        use mcpart_rng::rngs::SmallRng;
        use mcpart_rng::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut stopped_by_running_bound = 0usize;
        let mut probes = 0usize;
        for round in 0..24 {
            let mut p = Program::new("t");
            let obj = p.add_object(mcpart_ir::DataObject::global("g", 64));
            let mut b = FunctionBuilder::entry(&mut p);
            let a = b.addrof(obj);
            let mut vals = vec![b.load(mcpart_ir::MemWidth::B4, a)];
            for _ in 0..20 + round {
                let x = vals[rng.gen_range(0..vals.len())];
                let y = vals[rng.gen_range(0..vals.len())];
                let v = match rng.gen_range(0..5u32) {
                    0 => b.iconst(rng.gen_range(0..9)),
                    1 => b.mul(x, y),
                    2 => b.load(mcpart_ir::MemWidth::B4, a),
                    _ => b.add(x, y),
                };
                vals.push(v);
            }
            b.store(mcpart_ir::MemWidth::B4, a, vals[vals.len() - 1]);
            b.ret(None);
            let pts = mcpart_analysis::PointsTo::compute(&p);
            let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
            let m = if round % 2 == 0 {
                Machine::paper_2cluster(1 + round as u32 % 5)
            } else {
                Machine::homogeneous(3, 2).with_coherent_cache(4)
            };
            let k = m.num_clusters() as u16;
            let mut est =
                RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
            let n = est.len();
            for i in 0..n {
                if rng.gen_range(0..6u32) == 0 {
                    est.add_live_in_home(i, ClusterId::new(rng.gen_range(0..k) as usize));
                }
            }
            if round % 2 == 1 {
                est.set_mem_home(1, ClusterId::new(2), 4);
            }
            let mut inc = IncrementalEstimator::new(&est);
            let start: Vec<u16> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            inc.load(&start);
            for _ in 0..12 {
                let moved: Vec<u32> =
                    (0..rng.gen_range(1..4u32)).map(|_| rng.gen_range(0..n as u32)).collect();
                inc.try_move(&moved, rng.gen_range(0..k));
                let e = est.estimate(inc.assign());
                let peak = est.resource_peak(inc.assign());
                let static_lb = (peak as u64).max(inc.path_lower_bound());
                for bound in [e.saturating_sub(2), e - 1, e, e + 1] {
                    for peak_bound in [peak.saturating_sub(1), peak, peak + 1] {
                        let improves = e < bound || (e == bound && peak < peak_bound);
                        let full_before = inc.full_evals;
                        match inc.estimate_unless_worse(bound, peak_bound) {
                            Some(got) => assert_eq!(got, (e, peak), "bound {bound}/{peak_bound}"),
                            None => {
                                assert!(!improves, "rejected an improving probe: e={e} peak={peak} vs {bound}/{peak_bound}");
                                let static_rejects = static_lb > bound as u64
                                    || (static_lb == bound as u64 && peak >= peak_bound);
                                if !static_rejects {
                                    stopped_by_running_bound += 1;
                                }
                            }
                        }
                        assert!(inc.full_evals - full_before <= 1);
                        probes += 1;
                    }
                }
                if rng.gen_range(0..2u32) == 0 {
                    inc.commit();
                } else {
                    inc.rollback();
                }
            }
        }
        assert!(probes > 3000);
        assert!(stopped_by_running_bound > 100, "running bound stopped {stopped_by_running_bound}");
    }

    #[test]
    fn bandwidth_bound_counts_unique_transfers() {
        // One producer feeding many consumers on the other cluster is a
        // single transfer; many producers are many transfers.
        let (p, access) = setup(|b| {
            let x = b.iconst(1);
            for _ in 0..6 {
                b.add(x, x);
            }
            b.ret(None);
        });
        let m = Machine::paper_2cluster(1);
        let est = RegionEstimator::new(&p, p.entry, &[p.entry_function().entry], &access, &m);
        // x on 0, all adds on 1: one unique (producer, cluster) pair.
        let mut assign = vec![1u16; est.len()];
        assign[0] = 0;
        let e = est.estimate(&assign);
        assert!(e < INFEASIBLE);
        // The estimate should not balloon with consumer count.
        assert!(e <= 10, "e = {e}");
    }

    /// The simulation as it was before keyed ready lists: every cycle
    /// merges its wake-ups with last cycle's blocked nodes and walks the
    /// result in (height rank, ticket) order, re-ticketing each node
    /// that stays blocked. Kept as the reference the production
    /// simulation must reproduce value for value.
    mod reference {
        use super::super::*;

        #[derive(Clone, Copy, Debug)]
        struct Cand {
            rank: u32,
            node: u32,
            seq: u64,
        }

        impl Cand {
            fn key(&self) -> (u32, u64) {
                (self.rank, self.seq)
            }
        }

        #[derive(Default)]
        struct Wakeup {
            buckets: Buckets<Cand>,
            seq: u64,
        }

        impl Wakeup {
            fn ticket(&mut self, rank: u32, node: u32) -> Cand {
                self.seq += 1;
                Cand { rank, node, seq: self.seq }
            }

            fn push(&mut self, at: u32, rank: u32, node: u32) {
                let cand = self.ticket(rank, node);
                self.buckets.push(at, cand);
            }

            /// Moves bucket `at`, sorted, merged with the sorted run
            /// `carry`, into `out`; leaves the bucket and `carry` empty.
            fn take_sorted(&mut self, at: usize, carry: &mut Vec<Cand>, out: &mut Vec<Cand>) {
                let arrivals = &mut self.buckets.slots[at];
                out.clear();
                sort_run(arrivals, Cand::key);
                let (mut a, mut b) = (0, 0);
                while a < carry.len() && b < arrivals.len() {
                    if carry[a].key() < arrivals[b].key() {
                        out.push(carry[a]);
                        a += 1;
                    } else {
                        out.push(arrivals[b]);
                        b += 1;
                    }
                }
                out.extend_from_slice(&carry[a..]);
                out.extend_from_slice(&arrivals[b..]);
                carry.clear();
                arrivals.clear();
            }
        }

        impl RegionEstimator {
            /// The reference simulation (`assign` feasible, region
            /// non-empty), with the production simulation's contract.
            pub(in super::super) fn simulate_reference(
                &self,
                assign: &[u16],
                limit: Option<&Limit<'_>>,
            ) -> Option<u32> {
                let n = self.len();
                let nclusters = self.fu_counts.len();
                let horizon = (n as u32 + 4) * (self.move_latency.max(8) + 4);
                let mut wakeup = Wakeup::default();
                let mut transfers = Transfers::default();
                wakeup.buckets.reset(horizon as usize + 2);
                transfers.reset(horizon as usize + 2);
                let mut transfer_requested = vec![false; n * nclusters];
                let mut unissued_preds = self.pred_count.clone();
                let mut ready_cycle = vec![0u32; n];
                for &(i, home) in &self.live_in_homes {
                    if home != assign[i as usize] {
                        ready_cycle[i as usize] = self.move_latency;
                    }
                }
                let mut issued = vec![false; n];
                let mut fu_free = vec![[0u32; 4]; nclusters];
                let mut need = Vec::new();
                let mut spare = Vec::new();
                if let Some(limit) = limit {
                    for (counts, units) in limit.counts.iter().zip(&self.fu_counts) {
                        let mut cycles = [0u32; 4];
                        let mut left = [0u32; 4];
                        for k in 0..4 {
                            if counts[k] > 0 {
                                cycles[k] = counts[k].div_ceil(units[k]);
                                left[k] = cycles[k] * units[k] - counts[k];
                            }
                        }
                        need.push(cycles);
                        spare.push(left);
                    }
                }
                let mut candidates = Vec::new();
                let mut carry = Vec::new();
                for &i in &self.by_height {
                    let iu = i as usize;
                    if self.pred_count[iu] == 0 {
                        wakeup.push(ready_cycle[iu].min(horizon), self.height_rank[iu], i);
                    }
                }
                let mut issued_count = 0usize;
                let mut max_completion = 0u32;
                let mut cycle = 0u32;
                let mut tallest = 0usize;
                while issued_count < n && cycle <= horizon {
                    if let Some(limit) = limit {
                        while tallest < n && issued[self.by_height[tallest] as usize] {
                            tallest += 1;
                        }
                        let height =
                            self.by_height.get(tallest).map_or(0, |&v| self.height[v as usize]);
                        let busiest = need.iter().flatten().copied().max().unwrap_or(0);
                        let lb = u64::from(cycle) + height.max(u64::from(busiest));
                        let lb = u64::from(max_completion).max(lb.min(u64::from(self.serial)));
                        if limit.rejects(lb) {
                            return None;
                        }
                    }
                    for (free, units) in fu_free.iter_mut().zip(&self.fu_counts) {
                        *free = *units;
                    }
                    let mut net_free = self.moves_per_cycle;
                    transfers.open(cycle);
                    while net_free > 0 {
                        match transfers.pop() {
                            Some((u, destc)) => {
                                net_free -= 1;
                                let done = cycle + self.move_latency;
                                let from_c = assign[u as usize];
                                for s in self.succs_of(u as usize) {
                                    let t = s.node as usize;
                                    if s.kind == DepKind::Flow
                                        && assign[t] == destc
                                        && from_c != destc
                                    {
                                        unissued_preds[t] -= 1;
                                        ready_cycle[t] = ready_cycle[t].max(done);
                                        if unissued_preds[t] == 0 {
                                            let at = ready_cycle[t].max(cycle + 1).min(horizon);
                                            wakeup.push(at, self.height_rank[t], s.node);
                                        }
                                    }
                                }
                                max_completion = max_completion.max(done);
                            }
                            None => break,
                        }
                    }
                    wakeup.take_sorted(cycle as usize, &mut carry, &mut candidates);
                    for &cand in candidates.iter() {
                        let i = cand.node;
                        let iu = i as usize;
                        let c = assign[iu] as usize;
                        let k = self.fu_kind[iu].index();
                        if fu_free[c][k] == 0 {
                            carry.push(wakeup.ticket(cand.rank, i));
                            continue;
                        }
                        if ready_cycle[iu] > cycle {
                            wakeup.push(ready_cycle[iu].min(horizon), cand.rank, i);
                            continue;
                        }
                        fu_free[c][k] -= 1;
                        if limit.is_some() {
                            spare[c][k] += 1;
                            if spare[c][k] == self.fu_counts[c][k] {
                                need[c][k] -= 1;
                                spare[c][k] = 0;
                            }
                        }
                        issued[iu] = true;
                        issued_count += 1;
                        let coherence = self.coherence(iu, assign[iu]);
                        let finish = cycle + (self.base_lat[iu] + coherence).max(1);
                        max_completion = max_completion.max(finish);
                        for s in self.succs_of(iu) {
                            let t = s.node as usize;
                            if s.kind == DepKind::Flow && assign[t] != assign[iu] {
                                let slot = iu * nclusters + assign[t] as usize;
                                if !transfer_requested[slot] {
                                    transfer_requested[slot] = true;
                                    if finish <= horizon {
                                        transfers.due.push(finish, (i, assign[t]));
                                    }
                                }
                            } else {
                                unissued_preds[t] -= 1;
                                let extra = match s.kind {
                                    DepKind::Flow | DepKind::MemFlow => coherence,
                                    _ => 0,
                                };
                                ready_cycle[t] = ready_cycle[t].max(cycle + s.latency + extra);
                                if unissued_preds[t] == 0 {
                                    let at = ready_cycle[t].max(cycle + 1).min(horizon);
                                    wakeup.push(at, self.height_rank[t], s.node);
                                }
                            }
                        }
                    }
                    cycle += 1;
                }
                if issued_count < n {
                    return Some(self.serial.max(max_completion));
                }
                Some(max_completion.max(1))
            }
        }
    }

    /// A seeded random region DAG of 2–39 nodes on a seeded random
    /// machine (1–4 clusters, sometimes one without some unit kind, 1–2
    /// moves per cycle), with live-in homes and coherent-memory
    /// penalties. Besides random register and memory edges it carries
    /// zero-latency `Anti` and `MemAnti` edges between nodes of equal
    /// height.
    fn random_region(rng: &mut mcpart_rng::rngs::SmallRng, nclusters: usize) -> RegionEstimator {
        use crate::depgraph::Dep;
        use mcpart_ir::EntityId;
        use mcpart_rng::Rng;
        let mut machine = Machine::homogeneous(nclusters, rng.gen_range(1..6));
        machine.interconnect.moves_per_cycle = rng.gen_range(1..3);
        if nclusters > 1 && rng.gen_range(0..3u32) == 0 {
            let c = rng.gen_range(0..nclusters);
            machine.clusters[c].fu = match rng.gen_range(0..3u32) {
                0 => mcpart_machine::FuMix::new(2, 0, 1, 1),
                1 => mcpart_machine::FuMix::new(1, 1, 0, 1),
                _ => mcpart_machine::FuMix::new(0, 1, 1, 1),
            };
        }
        let n = rng.gen_range(2..40usize);
        let fu_kind: Vec<FuKind> = (0..n).map(|_| FuKind::ALL[rng.gen_range(0..4)]).collect();
        let base_lat: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let mut deps: Vec<Dep> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(n..3 * n) {
            let a = rng.gen_range(0..n - 1);
            let b = rng.gen_range(a + 1..n);
            if seen.insert((a, b)) {
                let kind = [DepKind::Flow, DepKind::Flow, DepKind::MemFlow, DepKind::Output]
                    [rng.gen_range(0..4)];
                let latency = if kind == DepKind::Output { 1 } else { base_lat[a] };
                deps.push(Dep { from: a as u32, to: b as u32, latency, kind });
            }
        }
        let heights = |deps: &[Dep]| {
            let mut h = vec![0u64; n];
            for i in (0..n).rev() {
                h[i] = u64::from(base_lat[i].max(1));
                for d in deps.iter().filter(|d| d.from as usize == i) {
                    h[i] = h[i].max(u64::from(d.latency) + h[d.to as usize]);
                }
            }
            h
        };
        for _ in 0..rng.gen_range(1..n) {
            // A zero-latency edge a -> b never changes b's height, and
            // makes a exactly as tall when a is not taller already.
            let h = heights(&deps);
            let a = rng.gen_range(0..n - 1);
            let b = rng.gen_range(a + 1..n);
            if h[a] <= h[b] && seen.insert((a, b)) {
                let kind =
                    if rng.gen_range(0..2u32) == 0 { DepKind::Anti } else { DepKind::MemAnti };
                deps.push(Dep { from: a as u32, to: b as u32, latency: 0, kind });
            }
        }
        let mut dg = DepGraph {
            ops: (0..n).map(OpId::new).collect(),
            deps,
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
            func: FuncId::new(0),
        };
        for (di, d) in dg.deps.iter().enumerate() {
            dg.succs[d.from as usize].push(di as u32);
            dg.preds[d.to as usize].push(di as u32);
        }
        let mut est = RegionEstimator::from_graph(dg, fu_kind, base_lat, &machine);
        for i in 0..n {
            if rng.gen_range(0..5u32) == 0 {
                est.add_live_in_home(i, ClusterId::new(rng.gen_range(0..nclusters)));
            }
            if est.fu_kind[i] == FuKind::Mem && rng.gen_range(0..2u32) == 0 {
                let home = ClusterId::new(rng.gen_range(0..nclusters));
                est.set_mem_home(i, home, rng.gen_range(1..8));
            }
        }
        est
    }

    /// Seeded random region DAGs ([`random_region`]): the keyed ready
    /// lists must give exactly the reference simulation's values, for
    /// unbounded runs and for bounded runs at bounds `e - 1 ..= e + 1`
    /// and peak bounds `peak - 1 ..= peak + 1` around the estimate `e`.
    #[test]
    fn keyed_ready_lists_match_the_reference_simulation() {
        use mcpart_rng::rngs::SmallRng;
        use mcpart_rng::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        let (mut compared, mut equal_height_edges, mut stopped) = (0usize, 0usize, 0usize);
        // One workspace serves every region, as RHOP lends one to each
        // region of a function in turn.
        let mut ws = EstimateWorkspace::default();
        for round in 0..400 {
            let nclusters = 1 + round % 4;
            let est = random_region(&mut rng, nclusters);
            let n = est.len();
            let k = nclusters as u16;
            equal_height_edges += est
                .dg
                .deps
                .iter()
                .filter(|d| {
                    d.latency == 0 && est.height[d.from as usize] == est.height[d.to as usize]
                })
                .count();
            for _ in 0..6 {
                let assign: Vec<u16> = (0..n).map(|_| rng.gen_range(0..k)).collect();
                if (0..n).any(|i| !est.has_unit(i, assign[i])) {
                    continue;
                }
                let e = est.simulate(&assign, &mut ws, None);
                assert_eq!(e, est.simulate_reference(&assign, None), "round {round}");
                let e = e.expect("unbounded");
                let mut counts = vec![[0u32; 4]; nclusters];
                for (i, kind) in est.fu_kind.iter().enumerate() {
                    counts[assign[i] as usize][kind.index()] += 1;
                }
                let peak = est.resource_peak(&assign);
                for bound in [e.saturating_sub(1), e, e + 1] {
                    for peak_bound in [peak.saturating_sub(1), peak, peak + 1] {
                        let limit = Limit { bound, peak, peak_bound, counts: &counts };
                        let got = est.simulate(&assign, &mut ws, Some(&limit));
                        let want = est.simulate_reference(&assign, Some(&limit));
                        assert_eq!(got, want, "round {round}, bound {bound}/{peak_bound}");
                        stopped += usize::from(got.is_none());
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 10_000, "compared {compared}");
        assert!(equal_height_edges > 500, "equal-height edges {equal_height_edges}");
        assert!(stopped > 1_000, "stopped {stopped}");
    }

    /// The full ASAP pass the incremental path bound must reproduce.
    fn path_lower_bound_reference(est: &RegionEstimator, assign: &[u16]) -> u64 {
        let mut asap = vec![0u64; est.len()];
        for &(i, home) in &est.live_in_homes {
            if home != assign[i as usize] {
                asap[i as usize] = u64::from(est.move_latency);
            }
        }
        let mut lb = 0u64;
        for (i, &ci) in assign.iter().enumerate() {
            let coherence = u64::from(est.coherence(i, ci));
            lb = lb.max(asap[i] + (u64::from(est.base_lat[i]) + coherence).max(1));
            for s in est.succs_of(i) {
                let t = s.node as usize;
                let eff = if s.kind == DepKind::Flow && assign[t] != ci {
                    u64::from(s.latency) + u64::from(est.move_latency)
                } else {
                    u64::from(s.latency)
                        + match s.kind {
                            DepKind::Flow | DepKind::MemFlow => coherence,
                            _ => 0,
                        }
                };
                asap[t] = asap[t].max(asap[i] + eff);
            }
        }
        lb
    }

    /// Through random move, commit and rollback sequences, the path
    /// bound recomputed only over the moved nodes' cone equals a full
    /// pass over the region.
    #[test]
    fn incremental_path_bound_matches_a_full_pass() {
        use mcpart_rng::rngs::SmallRng;
        use mcpart_rng::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(29);
        let mut checked = 0usize;
        for round in 0..200 {
            let nclusters = 1 + round % 4;
            let est = random_region(&mut rng, nclusters);
            let n = est.len();
            let k = nclusters as u16;
            let mut inc = IncrementalEstimator::new(&est);
            let start: Vec<u16> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            inc.load(&start);
            for _ in 0..20 {
                let moved: Vec<u32> =
                    (0..rng.gen_range(1..4u32)).map(|_| rng.gen_range(0..n as u32)).collect();
                inc.try_move(&moved, rng.gen_range(0..k));
                let want = path_lower_bound_reference(&est, inc.assign());
                assert_eq!(inc.path_lower_bound(), want, "round {round}");
                checked += 1;
                if rng.gen_range(0..2u32) == 0 {
                    inc.commit();
                } else {
                    inc.rollback();
                }
                assert_eq!(
                    inc.path_lower_bound(),
                    path_lower_bound_reference(&est, inc.assign()),
                    "round {round}, committed"
                );
            }
        }
        assert!(checked > 3000);
    }
}
