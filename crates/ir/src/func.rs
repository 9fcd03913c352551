//! Functions: CFG + operation arena + regions.

use crate::block::{Block, Terminator};
use crate::ids::{BlockId, EntityMap, OpId, RegionId, VReg};
use crate::op::Op;

/// A partitioning/scheduling region: a group of basic blocks whose
/// operations the computation partitioner considers jointly (the paper's
/// RHOP operates region by region — typically a loop body or hyperblock).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// Member blocks, in program order.
    pub blocks: Vec<BlockId>,
    /// Human-readable name for diagnostics.
    pub name: String,
}

/// A function: an operation arena, a CFG of basic blocks, and a region
/// decomposition.
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Operation arena. Blocks reference ops by id.
    pub ops: EntityMap<OpId, Op>,
    /// Basic blocks.
    pub blocks: EntityMap<BlockId, Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of virtual registers in use.
    pub num_vregs: usize,
    /// Registers holding incoming arguments (defined on entry).
    pub params: Vec<VReg>,
    /// Region decomposition covering every block exactly once. If empty,
    /// each block is implicitly its own region.
    pub regions: EntityMap<RegionId, Region>,
}

impl Function {
    /// Creates an empty function with a fresh entry block.
    pub fn new(name: impl Into<String>) -> Self {
        let mut blocks = EntityMap::new();
        let entry = blocks.push(Block::new("entry"));
        Function {
            name: name.into(),
            ops: EntityMap::new(),
            blocks,
            entry,
            num_vregs: 0,
            params: Vec::new(),
            regions: EntityMap::new(),
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg(self.num_vregs as u32);
        self.num_vregs += 1;
        v
    }

    /// Appends `op` to `block`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn append_op(&mut self, block: BlockId, mut op: Op) -> OpId {
        assert!(self.blocks[block].term.is_none(), "appending to terminated block {block}");
        op.block = block;
        let id = self.ops.push(op);
        self.blocks[block].ops.push(id);
        id
    }

    /// Creates a new empty block.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        self.blocks.push(Block::new(label))
    }

    /// Sets the terminator of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn terminate(&mut self, block: BlockId, term: Terminator) {
        assert!(self.blocks[block].term.is_none(), "block {block} already terminated");
        self.blocks[block].term = Some(term);
    }

    /// The region decomposition, synthesizing one-region-per-block when
    /// none was declared.
    pub fn effective_regions(&self) -> Vec<Region> {
        if self.regions.is_empty() {
            self.blocks
                .iter()
                .map(|(b, blk)| Region { blocks: vec![b], name: blk.label.clone() })
                .collect()
        } else {
            self.regions.values().cloned().collect()
        }
    }

    /// Declares a region over `blocks`.
    pub fn add_region(&mut self, name: impl Into<String>, blocks: Vec<BlockId>) -> RegionId {
        self.regions.push(Region { blocks, name: name.into() })
    }

    /// Total number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("main");
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.entry, BlockId(0));
        assert_eq!(f.num_ops(), 0);
    }

    #[test]
    fn append_op_records_block() {
        let mut f = Function::new("main");
        let v = f.new_vreg();
        let id = f.append_op(f.entry, Op::new(Opcode::ConstInt(7), vec![v], vec![]));
        assert_eq!(f.ops[id].block, f.entry);
        assert_eq!(f.blocks[f.entry].ops, vec![id]);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn append_after_terminate_panics() {
        let mut f = Function::new("main");
        f.terminate(f.entry, Terminator::Return(None));
        let v = f.new_vreg();
        f.append_op(f.entry, Op::new(Opcode::ConstInt(0), vec![v], vec![]));
    }

    #[test]
    fn effective_regions_default_to_blocks() {
        let mut f = Function::new("main");
        let b1 = f.add_block("loop");
        f.terminate(f.entry, Terminator::Jump(b1));
        f.terminate(b1, Terminator::Return(None));
        let regions = f.effective_regions();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].blocks, vec![f.entry]);
    }

    #[test]
    fn declared_regions_override_default() {
        let mut f = Function::new("main");
        let b1 = f.add_block("body");
        f.add_region("all", vec![f.entry, b1]);
        let regions = f.effective_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].blocks.len(), 2);
    }
}
