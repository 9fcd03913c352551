//! Constant-offset address analysis for memory disambiguation.
//!
//! Object-granular points-to sets order *all* accesses to one object,
//! which over-serializes structures (the ADPCM coder's `state.valprev`
//! at offset 0 and `state.index` at offset 4 never alias). This
//! analysis tracks, per function, which registers hold
//! `&object + constant` addresses, letting the scheduler prove that two
//! accesses with disjoint `[offset, offset+width)` ranges into the same
//! single object are independent.

use mcpart_ir::{EntityMap, FuncId, ObjectId, OpId, Opcode, Program, VReg};
use std::collections::HashMap;

/// A statically-known address: one object at a constant byte offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KnownAddress {
    /// The single object the address points into.
    pub object: ObjectId,
    /// Constant byte offset from the object base.
    pub offset: i64,
}

/// Per-function constant-address information for memory operations.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AddressInfo {
    /// Memory operations (loads/stores) whose address is statically a
    /// single object plus a constant offset.
    pub known: HashMap<(FuncId, OpId), KnownAddress>,
}

impl AddressInfo {
    /// Computes constant addresses with a simple forward pass per
    /// function: `addrof` seeds `(object, 0)`; adding/subtracting a
    /// single-def constant shifts the offset; `mov` copies it. Multi-def
    /// registers are excluded (their value is path-dependent).
    pub fn compute(program: &Program) -> Self {
        let mut known = HashMap::new();
        for (fid, func) in program.functions.iter() {
            let du = mcpart_ir::DefUse::compute(func);
            let single_def = |v: VReg| du.defs[v].len() == 1;
            // Per-register lattice entries (single-def registers only).
            let mut consts: EntityMap<VReg, Option<i64>> =
                EntityMap::with_default(func.num_vregs, None);
            let mut addrs: EntityMap<VReg, Option<KnownAddress>> =
                EntityMap::with_default(func.num_vregs, None);
            // Ops in id order: ids are assigned in construction order,
            // which dominates uses for single-def registers built
            // through the builder API; a second pass catches stragglers.
            for _ in 0..2 {
                for (oid, op) in func.ops.iter() {
                    let _ = oid;
                    let Some(&dst) = op.dsts.first() else { continue };
                    if !single_def(dst) {
                        continue;
                    }
                    match op.opcode {
                        Opcode::ConstInt(v) => consts[dst] = Some(v),
                        Opcode::AddrOf(object) => {
                            addrs[dst] = Some(KnownAddress { object, offset: 0 })
                        }
                        Opcode::Move => {
                            let s = op.srcs[0];
                            if single_def(s) {
                                consts[dst] = consts[s];
                                addrs[dst] = addrs[s];
                            }
                        }
                        Opcode::IntBin(mcpart_ir::IntBinOp::Add) => {
                            let (a, b) = (op.srcs[0], op.srcs[1]);
                            addrs[dst] = match (addrs[a], consts[b], addrs[b], consts[a]) {
                                (Some(ka), Some(c), _, _) => {
                                    Some(KnownAddress { object: ka.object, offset: ka.offset + c })
                                }
                                (_, _, Some(kb), Some(c)) => {
                                    Some(KnownAddress { object: kb.object, offset: kb.offset + c })
                                }
                                _ => None,
                            };
                            if let (Some(x), Some(y)) = (consts[a], consts[b]) {
                                consts[dst] = Some(x.wrapping_add(y));
                            }
                        }
                        Opcode::IntBin(mcpart_ir::IntBinOp::Sub) => {
                            if let (Some(ka), Some(c)) = (addrs[op.srcs[0]], consts[op.srcs[1]]) {
                                addrs[dst] =
                                    Some(KnownAddress { object: ka.object, offset: ka.offset - c });
                            }
                            if let (Some(x), Some(y)) = (consts[op.srcs[0]], consts[op.srcs[1]]) {
                                consts[dst] = Some(x.wrapping_sub(y));
                            }
                        }
                        _ => {}
                    }
                }
            }
            for (oid, op) in func.ops.iter() {
                let addr_reg = match op.opcode {
                    Opcode::Load(_) | Opcode::Store(_) => op.srcs[0],
                    _ => continue,
                };
                if let Some(ka) = addrs[addr_reg] {
                    known.insert((fid, oid), ka);
                }
            }
        }
        AddressInfo { known }
    }

    /// The bytes memory operation `op` of `func` accesses, when its
    /// address is statically known.
    pub fn known_range(&self, program: &Program, func: FuncId, op: OpId) -> Option<KnownRange> {
        let known = self.known.get(&(func, op))?;
        let width = match program.functions[func].ops[op].opcode {
            Opcode::Load(w) | Opcode::Store(w) => w.bytes() as i64,
            _ => 0,
        };
        Some(KnownRange { object: known.object, offset: known.offset, width })
    }
}

/// The byte range `[offset, offset + width)` of one object a memory
/// operation with a [`KnownAddress`] accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KnownRange {
    /// The object accessed.
    pub object: ObjectId,
    /// First byte, from the object base.
    pub offset: i64,
    /// Bytes accessed (0 for a `malloc`).
    pub width: i64,
}

impl KnownRange {
    /// Whether the two ranges share no byte: different objects, or
    /// non-overlapping ranges of one object.
    pub fn disjoint(&self, other: &KnownRange) -> bool {
        self.object != other.object
            || self.offset + self.width <= other.offset
            || other.offset + other.width <= self.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::{DataObject, FunctionBuilder, MemWidth};

    /// Both addresses known and their byte ranges disjoint.
    fn disjoint(info: &AddressInfo, p: &Program, a: OpId, b: OpId) -> bool {
        let range = |op| info.known_range(p, p.entry, op);
        range(a).zip(range(b)).is_some_and(|(ra, rb)| ra.disjoint(&rb))
    }

    #[test]
    fn struct_fields_are_disjoint() {
        let mut p = Program::new("t");
        let state = p.add_object(DataObject::global("state", 8));
        let mut b = FunctionBuilder::entry(&mut p);
        let base = b.addrof(state);
        let four = b.iconst(4);
        let f1 = b.add(base, four);
        let v = b.iconst(1);
        b.store(MemWidth::B4, base, v); // offset 0
        b.store(MemWidth::B4, f1, v); // offset 4
        b.ret(None);
        let info = AddressInfo::compute(&p);
        let func = p.entry_function();
        let s0 = func.blocks[func.entry].ops[4];
        let s1 = func.blocks[func.entry].ops[5];
        assert!(disjoint(&info, &p, s0, s1));
        assert!(!disjoint(&info, &p, s0, s0));
    }

    #[test]
    fn overlapping_ranges_are_not_disjoint() {
        let mut p = Program::new("t");
        let g = p.add_object(DataObject::global("g", 16));
        let mut b = FunctionBuilder::entry(&mut p);
        let base = b.addrof(g);
        let two = b.iconst(2);
        let mid = b.add(base, two);
        let v = b.iconst(9);
        b.store(MemWidth::B4, base, v); // [0,4)
        b.store(MemWidth::B4, mid, v); // [2,6) overlaps
        b.ret(None);
        let info = AddressInfo::compute(&p);
        let func = p.entry_function();
        let s0 = func.blocks[func.entry].ops[4];
        let s1 = func.blocks[func.entry].ops[5];
        assert!(!disjoint(&info, &p, s0, s1));
    }

    #[test]
    fn dynamic_addresses_are_unknown() {
        let mut p = Program::new("t");
        let g = p.add_object(DataObject::global("g", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        let i = b.param();
        let base = b.addrof(g);
        let addr = b.add(base, i); // dynamic offset
        let v = b.load(MemWidth::B4, addr);
        b.store(MemWidth::B4, base, v);
        b.ret(None);
        let info = AddressInfo::compute(&p);
        let func = p.entry_function();
        let load = func.blocks[func.entry].ops[2];
        let store = func.blocks[func.entry].ops[3];
        assert!(!disjoint(&info, &p, load, store));
        // The store's address (plain addrof) *is* known.
        assert!(info.known.contains_key(&(p.entry, store)));
        assert!(!info.known.contains_key(&(p.entry, load)));
    }

    #[test]
    fn different_objects_are_disjoint() {
        let mut p = Program::new("t");
        let a = p.add_object(DataObject::global("a", 8));
        let c = p.add_object(DataObject::global("c", 8));
        let mut b = FunctionBuilder::entry(&mut p);
        let aa = b.addrof(a);
        let ac = b.addrof(c);
        let v = b.iconst(1);
        b.store(MemWidth::B4, aa, v);
        b.store(MemWidth::B4, ac, v);
        b.ret(None);
        let info = AddressInfo::compute(&p);
        let func = p.entry_function();
        let s0 = func.blocks[func.entry].ops[3];
        let s1 = func.blocks[func.entry].ops[4];
        assert!(disjoint(&info, &p, s0, s1));
    }

    #[test]
    fn multi_def_registers_are_excluded() {
        let mut p = Program::new("t");
        let g = p.add_object(DataObject::global("g", 64));
        let h = p.add_object(DataObject::global("h", 64));
        let mut b = FunctionBuilder::entry(&mut p);
        let ptr = b.addrof(g);
        let other = b.addrof(h);
        b.mov_to(ptr, other); // ptr now multi-def
        let v = b.iconst(1);
        b.store(MemWidth::B4, ptr, v);
        b.ret(None);
        let info = AddressInfo::compute(&p);
        let func = p.entry_function();
        let store = func.blocks[func.entry].ops[4];
        assert!(!info.known.contains_key(&(p.entry, store)));
    }
}
