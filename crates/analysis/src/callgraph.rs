//! Call graph construction.

use mcpart_ir::{EntityMap, FuncId, Opcode, Program};

/// The static call graph of a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CallGraph {
    /// Callees of each function (deduplicated, in call order).
    pub callees: EntityMap<FuncId, Vec<FuncId>>,
    /// Callers of each function.
    pub callers: EntityMap<FuncId, Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph.
    pub fn compute(program: &Program) -> Self {
        let n = program.functions.len();
        let mut callees: EntityMap<FuncId, Vec<FuncId>> = EntityMap::with_default(n, Vec::new());
        let mut callers: EntityMap<FuncId, Vec<FuncId>> = EntityMap::with_default(n, Vec::new());
        for (fid, func) in program.functions.iter() {
            for op in func.ops.values() {
                if let Opcode::Call(callee) = op.opcode {
                    if !callees[fid].contains(&callee) {
                        callees[fid].push(callee);
                    }
                    if !callers[callee].contains(&fid) {
                        callers[callee].push(fid);
                    }
                }
            }
        }
        CallGraph { callees, callers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpart_ir::FunctionBuilder;

    #[test]
    fn callgraph_dedups_callees_and_callers() {
        let mut p = Program::new("t");
        let leaf = {
            let mut b = FunctionBuilder::new_function(&mut p, "leaf");
            b.ret(None);
            b.func_id()
        };
        let unreached = {
            let mut b = FunctionBuilder::new_function(&mut p, "dead");
            b.ret(None);
            b.func_id()
        };
        let mut b = FunctionBuilder::entry(&mut p);
        b.call(leaf, vec![], 0);
        b.call(leaf, vec![], 0);
        b.ret(None);
        let cg = CallGraph::compute(&p);
        assert_eq!(cg.callees[p.entry], vec![leaf]);
        assert_eq!(cg.callers[leaf], vec![p.entry]);
        assert!(cg.callers[unreached].is_empty());
    }
}
