//! Def-use information over a function.

use crate::func::Function;
use crate::ids::{EntityMap, OpId, VReg};

/// Definition and use sites of every virtual register in a function.
///
/// The IR is not SSA: loop-carried registers may have several
/// definitions. Consumers that need a single placement per value (the
/// cluster partitioners) group all definitions of a register into one
/// unit; see `mcpart-core`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DefUse {
    /// All operations defining each register, in op-id order.
    pub defs: EntityMap<VReg, Vec<OpId>>,
    /// All operations using each register, in op-id order.
    pub uses: EntityMap<VReg, Vec<OpId>>,
}

impl DefUse {
    /// Computes def-use information for `func`.
    pub fn compute(func: &Function) -> Self {
        let n = func.num_vregs;
        let mut defs: EntityMap<VReg, Vec<OpId>> = EntityMap::with_default(n, Vec::new());
        let mut uses: EntityMap<VReg, Vec<OpId>> = EntityMap::with_default(n, Vec::new());
        for (id, op) in func.ops.iter() {
            for &d in &op.dsts {
                defs[d].push(id);
            }
            for &s in &op.srcs {
                uses[s].push(id);
            }
        }
        DefUse { defs, uses }
    }

    /// The unique definition of `v`, if it has exactly one.
    pub fn single_def(&self, v: VReg) -> Option<OpId> {
        match self.defs[v].as_slice() {
            [d] => Some(*d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::opcode::MemWidth;
    use crate::program::Program;

    #[test]
    fn defuse_tracks_defs_and_uses() {
        let mut p = Program::new("t");
        let obj = p.add_object(crate::object::DataObject::global("g", 16));
        let mut b = FunctionBuilder::entry(&mut p);
        let base = b.addrof(obj);
        let v = b.load(MemWidth::B4, base);
        let w = b.add(v, v);
        b.store(MemWidth::B4, base, w);
        b.ret(None);
        let f = p.entry_function();
        let du = DefUse::compute(f);
        // base: defined once, used by load and store
        assert_eq!(du.defs[base].len(), 1);
        assert_eq!(du.uses[base].len(), 2);
        // v: used twice by the same add
        assert_eq!(du.uses[v].len(), 2);
        assert!(du.single_def(w).is_some());
    }

    #[test]
    fn params_are_undefined() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let x = b.param();
        b.ret(Some(x));
        let du = DefUse::compute(p.entry_function());
        assert!(du.defs[x].is_empty());
        assert_eq!(du.uses[x].len(), 1);
    }

    #[test]
    fn loop_carried_register_has_two_defs() {
        let mut p = Program::new("t");
        let mut b = FunctionBuilder::entry(&mut p);
        let i = b.iconst(0);
        let body = b.block("body");
        b.jump(body);
        b.switch_to(body);
        let one = b.iconst(1);
        let next = b.add(i, one);
        b.mov_to(i, next);
        b.ret(None);
        let du = DefUse::compute(p.entry_function());
        assert_eq!(du.defs[i].len(), 2);
        assert!(du.single_def(i).is_none());
    }
}
