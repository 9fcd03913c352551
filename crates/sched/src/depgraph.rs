//! Dependence graphs over operations, for scheduling and estimation.
//!
//! A graph's nodes are a block's or region's operations in program
//! order; its edges come in a fixed order (register edges by consumer,
//! then memory and call-ordering edges by consumer), which the RHOP
//! estimator's successor order depends on. Building one uses no hash
//! map: register state lives in per-thread tables indexed by `VReg`
//! with a sparse reset, and a repeated `(from, to)` pair is found
//! through the latest edge out of `from` (see `EdgeSet`).

use mcpart_analysis::{AccessInfo, AccessSite, KnownRange, ObjectSet};
use mcpart_ir::{BlockId, EntityId, FuncId, OpId, Opcode, Program, VReg};
use std::cell::RefCell;

/// The kind of a dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Register true dependence (def → use). Latency = producer latency;
    /// an intercluster move is charged on top by the consumer.
    Flow,
    /// Register anti dependence (use → redefinition). Zero latency: a
    /// read and a write of the same register may share a cycle (reads
    /// happen at issue).
    Anti,
    /// Register output dependence (def → redefinition).
    Output,
    /// Memory true dependence (store/malloc → load on a possibly-equal
    /// address).
    MemFlow,
    /// Memory anti dependence (load → store).
    MemAnti,
    /// Memory output dependence (store → store).
    MemOutput,
    /// Ordering around calls (side effects).
    Side,
}

/// A dependence edge between node indices of a [`DepGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dep {
    /// Producer node index.
    pub from: u32,
    /// Consumer node index.
    pub to: u32,
    /// Minimum issue-cycle distance (`issue(to) >= issue(from) +
    /// latency`).
    pub latency: u32,
    /// Edge kind.
    pub kind: DepKind,
}

/// "No node / no edge / no use" in the builder's tables.
const NONE: u32 = u32::MAX;

/// The edge list under construction, with at most one edge per
/// `(from, to)` pair: a repeated pair keeps its first position and
/// takes the larger latency (with that edge's kind).
///
/// Every edge into node `to` is added while `to` is the node being
/// processed, so the latest edge out of `from` is the only one a
/// repeat can hit: `latest` stands in for a map keyed by the pair.
struct EdgeSet {
    deps: Vec<Dep>,
    /// Per node: the index of the latest edge out of it, or [`NONE`].
    latest: Vec<u32>,
}

impl EdgeSet {
    fn add(&mut self, from: u32, to: u32, latency: u32, kind: DepKind) {
        if from == to {
            return;
        }
        debug_assert!(from < to, "dependence must follow program order");
        let at = self.latest[from as usize];
        match self.deps.get_mut(at as usize) {
            Some(d) if d.from == from && d.to == to => {
                if latency > d.latency {
                    d.latency = latency;
                    d.kind = kind;
                }
            }
            _ => {
                self.latest[from as usize] = self.deps.len() as u32;
                self.deps.push(Dep { from, to, latency, kind });
            }
        }
    }
}

/// Per-register state of the register pass, indexed by `VReg`. One
/// table per thread serves every build: a build first clears the
/// registers the previous build touched (even one that unwound
/// mid-way), then grows the table to its function if needed, so its
/// cost follows the region, not the function.
#[derive(Default)]
struct RegTables {
    /// The node that last defined each register, or [`NONE`].
    last_def: Vec<u32>,
    /// Each register's uses since its last definition, as a list
    /// through `uses` from `use_head` to `use_tail` ([`NONE`] = empty).
    use_head: Vec<u32>,
    use_tail: Vec<u32>,
    /// `(node, next)` entries of the use lists.
    uses: Vec<(u32, u32)>,
    /// Registers whose entries the last build set.
    touched: Vec<VReg>,
}

thread_local! {
    static REG_TABLES: RefCell<RegTables> = RefCell::new(RegTables::default());
}

impl RegTables {
    /// Makes room for `num_vregs` registers (every entry is clear).
    fn fit(&mut self, num_vregs: usize) {
        if self.last_def.len() < num_vregs {
            self.last_def.resize(num_vregs, NONE);
            self.use_head.resize(num_vregs, NONE);
            self.use_tail.resize(num_vregs, NONE);
        }
    }

    fn touch(&mut self, r: VReg) {
        if self.last_def[r.index()] == NONE && self.use_head[r.index()] == NONE {
            self.touched.push(r);
        }
    }

    /// Appends node `i` to `r`'s use list.
    fn push_use(&mut self, r: VReg, i: u32) {
        self.touch(r);
        let at = self.uses.len() as u32;
        self.uses.push((i, NONE));
        match self.use_tail[r.index()] {
            NONE => self.use_head[r.index()] = at,
            tail => self.uses[tail as usize].1 = at,
        }
        self.use_tail[r.index()] = at;
    }

    /// Node `i` defines `r`: it becomes the last definition and `r`'s
    /// use list empties.
    fn define(&mut self, r: VReg, i: u32) {
        self.touch(r);
        self.last_def[r.index()] = i;
        self.use_head[r.index()] = NONE;
        self.use_tail[r.index()] = NONE;
    }

    /// Clears the entries the last build set.
    fn reset(&mut self) {
        for r in self.touched.drain(..) {
            self.last_def[r.index()] = NONE;
            self.use_head[r.index()] = NONE;
            self.use_tail[r.index()] = NONE;
        }
        self.uses.clear();
    }
}

/// A memory operation of the region, with what disambiguates it.
struct MemNode<'a> {
    node: u32,
    /// Stores and mallocs write; loads only read.
    writes: bool,
    /// The objects it may access (`None`: not analyzed).
    objects: Option<&'a ObjectSet>,
    /// The bytes it accesses, when its address is known.
    range: Option<KnownRange>,
}

impl MemNode<'_> {
    /// Whether the two operations may touch the same bytes: constant
    /// offsets can prove independence even when the object-granular
    /// sets intersect; an empty or missing set is conservative.
    fn may_alias(&self, other: &MemNode<'_>) -> bool {
        if let (Some(a), Some(b)) = (&self.range, &other.range) {
            if a.disjoint(b) {
                return false;
            }
        }
        match (self.objects, other.objects) {
            (Some(sa), Some(sb)) => {
                sa.is_empty() || sb.is_empty() || sa.iter().any(|o| sb.contains(o))
            }
            _ => true,
        }
    }
}

/// A dependence DAG over a block's or region's operations.
///
/// Nodes are indexed densely in program order, which is a topological
/// order by construction (for regions, loop back-edges are dropped — the
/// region graph is an acyclic schedule *estimate*, exactly as in RHOP).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepGraph {
    /// Node index → operation id.
    pub ops: Vec<OpId>,
    /// All edges.
    pub deps: Vec<Dep>,
    /// Incoming edge indices per node.
    pub preds: Vec<Vec<u32>>,
    /// Outgoing edge indices per node.
    pub succs: Vec<Vec<u32>>,
    /// Containing function (for convenience).
    pub func: FuncId,
}

impl DepGraph {
    /// Builds the dependence graph of a single block.
    ///
    /// `op_latency` supplies per-operation latencies (it sees the op id,
    /// so callers can special-case intercluster moves). `access`
    /// disambiguates memory references: two memory operations conflict
    /// when their points-to object sets intersect (or when either set is
    /// empty, conservatively).
    pub fn for_block(
        program: &Program,
        func: FuncId,
        block: BlockId,
        access: &AccessInfo,
        op_latency: &dyn Fn(OpId) -> u32,
    ) -> Self {
        let blocks = [block];
        Self::build(program, func, &blocks, access, op_latency)
    }

    /// Builds the flow-centric dependence graph of a multi-block region
    /// (used by the RHOP schedule estimator). Cross-block register flow
    /// is included when the definition precedes the use in region order.
    pub fn for_region(
        program: &Program,
        func: FuncId,
        blocks: &[BlockId],
        access: &AccessInfo,
        op_latency: &dyn Fn(OpId) -> u32,
    ) -> Self {
        Self::build(program, func, blocks, access, op_latency)
    }

    fn build(
        program: &Program,
        func: FuncId,
        blocks: &[BlockId],
        access: &AccessInfo,
        op_latency: &dyn Fn(OpId) -> u32,
    ) -> Self {
        let f = &program.functions[func];
        let ops: Vec<OpId> = blocks.iter().flat_map(|&b| f.blocks[b].ops.iter().copied()).collect();
        let n = ops.len();
        let mut edges = EdgeSet { deps: Vec::new(), latest: vec![NONE; n] };

        // Register dependences. `reg_first[i]..reg_first[i + 1]` are the
        // edges into node `i`: this pass adds them in node order.
        let mut reg_first: Vec<u32> = Vec::with_capacity(n + 1);
        REG_TABLES.with(|tables| {
            let regs = &mut *tables.borrow_mut();
            regs.reset();
            regs.fit(f.num_vregs);
            for (i, &op_id) in ops.iter().enumerate() {
                reg_first.push(edges.deps.len() as u32);
                let i = i as u32;
                let op = &f.ops[op_id];
                for &s in &op.srcs {
                    let d = regs.last_def[s.index()];
                    if d != NONE {
                        edges.add(d, i, op_latency(ops[d as usize]), DepKind::Flow);
                    }
                    regs.push_use(s, i);
                }
                for &d in &op.dsts {
                    let prev = regs.last_def[d.index()];
                    if prev != NONE {
                        edges.add(prev, i, 1, DepKind::Output);
                    }
                    let mut u = regs.use_head[d.index()];
                    while u != NONE {
                        let (user, next) = regs.uses[u as usize];
                        if user < i {
                            edges.add(user, i, 0, DepKind::Anti);
                        }
                        u = next;
                    }
                    regs.define(d, i);
                }
            }
        });
        reg_first.push(edges.deps.len() as u32);

        // Memory and side-effect ordering (within the whole region, in
        // program order). Each memory op's object set and known byte
        // range are looked up once, not once per pair.
        let mut mem_ops: Vec<MemNode<'_>> = Vec::new();
        let mut call_ops: Vec<u32> = Vec::new();
        for (i, &op_id) in ops.iter().enumerate() {
            let i = i as u32;
            let opcode = f.ops[op_id].opcode;
            if !(opcode.is_memory() || matches!(opcode, Opcode::Call(_))) {
                continue;
            }
            // Point every predecessor at its register edge into `i`, so
            // a memory edge over the same pair folds into it.
            for e in reg_first[i as usize]..reg_first[i as usize + 1] {
                edges.latest[edges.deps[e as usize].from as usize] = e;
            }
            if let Opcode::Call(_) = opcode {
                for j in mem_ops.iter().map(|m| m.node).chain(call_ops.iter().copied()) {
                    edges.add(j, i, 1, DepKind::Side);
                }
                call_ops.push(i);
                continue;
            }
            let me = MemNode {
                node: i,
                writes: !opcode.is_load(),
                objects: access.site_objects.get(&AccessSite { func, op: op_id }),
                range: access.addresses.known_range(program, func, op_id),
            };
            for j in &mem_ops {
                if !(me.writes || j.writes) || !j.may_alias(&me) {
                    continue;
                }
                let (kind, latency) = match (j.writes, me.writes) {
                    (true, false) => (DepKind::MemFlow, op_latency(ops[j.node as usize])),
                    (false, true) => (DepKind::MemAnti, 0),
                    (true, true) => (DepKind::MemOutput, 1),
                    (false, false) => unreachable!(),
                };
                edges.add(j.node, i, latency, kind);
            }
            for &c in &call_ops {
                edges.add(c, i, 1, DepKind::Side);
            }
            mem_ops.push(me);
        }

        let deps = edges.deps;
        let mut in_degree = vec![0usize; n];
        let mut out_degree = vec![0usize; n];
        for d in &deps {
            in_degree[d.to as usize] += 1;
            out_degree[d.from as usize] += 1;
        }
        let mut preds: Vec<Vec<u32>> = in_degree.into_iter().map(Vec::with_capacity).collect();
        let mut succs: Vec<Vec<u32>> = out_degree.into_iter().map(Vec::with_capacity).collect();
        for (di, d) in deps.iter().enumerate() {
            preds[d.to as usize].push(di as u32);
            succs[d.from as usize].push(di as u32);
        }
        DepGraph { ops, deps, preds, succs, func }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Earliest issue cycles honoring dependences (resources ignored).
    pub fn asap(&self) -> Vec<u32> {
        let mut asap = vec![0u32; self.len()];
        for i in 0..self.len() {
            for &di in &self.preds[i] {
                let d = self.deps[di as usize];
                asap[i] = asap[i].max(asap[d.from as usize] + d.latency);
            }
        }
        asap
    }

    /// Latest issue cycles for a given schedule horizon.
    pub fn alap(&self, horizon: u32) -> Vec<u32> {
        let mut alap = vec![horizon; self.len()];
        for i in (0..self.len()).rev() {
            for &di in &self.succs[i] {
                let d = self.deps[di as usize];
                alap[i] = alap[i].min(alap[d.to as usize].saturating_sub(d.latency));
            }
        }
        alap
    }

    /// Per-node slack = ALAP − ASAP for the dependence-only horizon.
    pub fn slack(&self) -> Vec<u32> {
        let asap = self.asap();
        let horizon = asap
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let out: u32 =
                    self.succs[i].iter().map(|&d| self.deps[d as usize].latency).max().unwrap_or(0);
                a + out
            })
            .max()
            .unwrap_or(0);
        let alap = self.alap(horizon);
        asap.iter().zip(&alap).map(|(&a, &l)| l.saturating_sub(a)).collect()
    }

    /// Slack of an edge: how many cycles the edge could stretch without
    /// lengthening the dependence-only schedule.
    pub fn edge_slacks(&self) -> Vec<u32> {
        let asap = self.asap();
        let horizon = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let out: u32 =
                    self.succs[i].iter().map(|&d| self.deps[d as usize].latency).max().unwrap_or(0);
                asap[i] + out
            })
            .max()
            .unwrap_or(0);
        let alap = self.alap(horizon);
        self.deps
            .iter()
            .map(|d| alap[d.to as usize].saturating_sub(asap[d.from as usize] + d.latency))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_analysis::PointsTo;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth, Profile};

    fn setup(build: impl FnOnce(&mut FunctionBuilder<'_>)) -> (Program, AccessInfo) {
        let mut p = Program::new("t");
        p.add_object(DataObject::global("a", 64));
        p.add_object(DataObject::global("b", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        build(&mut b);
        let pts = PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        (p, access)
    }

    fn unit_latency(_: OpId) -> u32 {
        1
    }

    #[test]
    fn flow_dependence_chain() {
        let (p, access) = setup(|b| {
            let x = b.iconst(1);
            let y = b.add(x, x);
            let z = b.add(y, y);
            b.ret(Some(z));
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert_eq!(g.len(), 4);
        let asap = g.asap();
        assert_eq!(asap, vec![0, 1, 2, 3]);
        assert!(g.deps.iter().any(|d| d.kind == DepKind::Flow));
    }

    #[test]
    fn independent_loads_have_no_mem_edge() {
        let (p, access) = setup(|b| {
            let a = b.addrof(mcpart_ir::ObjectId(0));
            let c = b.addrof(mcpart_ir::ObjectId(1));
            let _v = b.load(MemWidth::B4, a);
            let _w = b.load(MemWidth::B4, c);
            b.ret(None);
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert!(!g
            .deps
            .iter()
            .any(|d| matches!(d.kind, DepKind::MemFlow | DepKind::MemAnti | DepKind::MemOutput)));
    }

    #[test]
    fn store_load_same_object_ordered() {
        let (p, access) = setup(|b| {
            let a = b.addrof(mcpart_ir::ObjectId(0));
            let v = b.iconst(7);
            b.store(MemWidth::B4, a, v);
            let _w = b.load(MemWidth::B4, a);
            b.ret(None);
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert!(g.deps.iter().any(|d| d.kind == DepKind::MemFlow));
    }

    #[test]
    fn store_to_different_objects_unordered() {
        let (p, access) = setup(|b| {
            let a = b.addrof(mcpart_ir::ObjectId(0));
            let c = b.addrof(mcpart_ir::ObjectId(1));
            let v = b.iconst(7);
            b.store(MemWidth::B4, a, v);
            b.store(MemWidth::B4, c, v);
            b.ret(None);
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert!(!g.deps.iter().any(|d| d.kind == DepKind::MemOutput));
    }

    #[test]
    fn anti_dependence_on_redefinition() {
        let (p, access) = setup(|b| {
            let x = b.iconst(1);
            let _y = b.add(x, x); // uses x
            let z = b.iconst(5);
            b.mov_to(x, z); // redefines x -> anti edge from the add
            b.ret(None);
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert!(g.deps.iter().any(|d| d.kind == DepKind::Anti));
        assert!(g.deps.iter().any(|d| d.kind == DepKind::Output));
    }

    #[test]
    fn region_graph_spans_blocks() {
        let mut p = Program::new("t");
        p.add_object(DataObject::global("a", 8));
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.iconst(5);
        let b2 = b.block("b2");
        b.jump(b2);
        b.switch_to(b2);
        let y = b.add(x, x); // cross-block flow from entry
        b.ret(Some(y));
        let pts = PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let entry = p.entry_function().entry;
        let g = DepGraph::for_region(&p, p.entry, &[entry, b2], &access, &unit_latency);
        let x = p.entry_function().blocks[entry].ops[0];
        let xi = g.ops.iter().position(|&op| op == x).expect("x is a node") as u32;
        assert!(g.deps.iter().any(|d| d.from == xi && d.kind == DepKind::Flow));
    }

    #[test]
    fn slack_zero_on_critical_path() {
        let (p, access) = setup(|b| {
            let x = b.iconst(1);
            let y = b.add(x, x);
            let _z = b.iconst(9); // fully slack op
            b.ret(Some(y));
        });
        let entry = p.entry_function().entry;
        let g = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        let slack = g.slack();
        // iconst on the chain has zero slack; the free iconst has plenty.
        assert_eq!(slack[0], 0);
        assert!(slack[2] > 0);
    }

    #[test]
    fn calls_serialize_memory() {
        let mut p = Program::new("t");
        let g_obj = p.add_object(DataObject::global("g", 8));
        let callee = {
            let mut cb = FunctionBuilder::new_function(&mut p, "c");
            cb.ret(None);
            cb.func_id()
        };
        let mut b = FunctionBuilder::entry(&mut p);
        let a = b.addrof(g_obj);
        let v = b.load(MemWidth::B4, a);
        b.call(callee, vec![], 0);
        let _w = b.load(MemWidth::B4, a);
        b.ret(Some(v));
        let pts = PointsTo::compute(&p);
        let access = AccessInfo::compute(&p, &pts, &Profile::uniform(&p, 1));
        let entry = p.entry_function().entry;
        let dg = DepGraph::for_block(&p, p.entry, entry, &access, &unit_latency);
        assert!(dg.deps.iter().filter(|d| d.kind == DepKind::Side).count() >= 2);
    }
}
