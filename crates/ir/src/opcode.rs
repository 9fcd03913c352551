//! Operation opcodes and their static properties.

use crate::ids::ObjectId;
use std::fmt;

/// Width of a memory access in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum MemWidth {
    /// 1-byte access.
    B1,
    /// 2-byte access.
    B2,
    /// 4-byte access.
    B4,
    /// 8-byte access.
    B8,
}

impl MemWidth {
    /// Number of bytes covered by an access of this width.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// The function-unit class an operation executes on.
///
/// Clusters provision a number of units of each kind; the scheduler's
/// resource tables are indexed by this enum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FuKind {
    /// Integer ALU.
    Int,
    /// Floating-point unit.
    Float,
    /// Memory (load/store) unit.
    Mem,
    /// Branch unit.
    Branch,
}

impl FuKind {
    /// All function-unit kinds, in a fixed order usable for indexing.
    pub const ALL: [FuKind; 4] = [FuKind::Int, FuKind::Float, FuKind::Mem, FuKind::Branch];

    /// Dense index of this kind within [`FuKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            FuKind::Int => 0,
            FuKind::Float => 1,
            FuKind::Mem => 2,
            FuKind::Branch => 3,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::Int => "int",
            FuKind::Float => "float",
            FuKind::Mem => "mem",
            FuKind::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Integer comparison predicate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Binary integer arithmetic/logic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (traps on zero in the interpreter).
    Div,
    /// Signed remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl fmt::Display for IntBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntBinOp::Add => "add",
            IntBinOp::Sub => "sub",
            IntBinOp::Mul => "mul",
            IntBinOp::Div => "div",
            IntBinOp::Rem => "rem",
            IntBinOp::And => "and",
            IntBinOp::Or => "or",
            IntBinOp::Xor => "xor",
            IntBinOp::Shl => "shl",
            IntBinOp::Shr => "shr",
            IntBinOp::Min => "min",
            IntBinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Binary floating-point operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FloatBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for FloatBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FloatBinOp::Add => "fadd",
            FloatBinOp::Sub => "fsub",
            FloatBinOp::Mul => "fmul",
            FloatBinOp::Div => "fdiv",
        };
        f.write_str(s)
    }
}

/// An IR operation code.
///
/// Operand/result arity conventions are documented per variant; the
/// [`crate::verify_program`] function enforces them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// `dst = imm`. No sources. Executes on an integer unit.
    ConstInt(i64),
    /// `dst = imm` (bit pattern of an `f64`). No sources. Float unit.
    ConstFloat(u64),
    /// `dst = &object` — materializes the base address of a static data
    /// object. No sources. Integer unit.
    AddrOf(ObjectId),
    /// `dst = op(src0, src1)` integer arithmetic. Integer unit.
    IntBin(IntBinOp),
    /// `dst = cmp(src0, src1)` producing 0/1. Integer unit.
    IntCmp(Cmp),
    /// `dst = select(src0 != 0 ? src1 : src2)`. Integer unit.
    Select,
    /// `dst = fop(src0, src1)` float arithmetic. Float unit.
    FloatBin(FloatBinOp),
    /// `dst = fcmp(src0, src1)` producing integer 0/1. Float unit.
    FloatCmp(Cmp),
    /// `dst = int-to-float(src0)`. Float unit.
    IntToFloat,
    /// `dst = float-to-int(src0)` (truncating). Float unit.
    FloatToInt,
    /// `dst = load [src0]`; `src0` is an address. Memory unit.
    Load(MemWidth),
    /// `store [src0] = src1`; `src0` is an address, `src1` the value.
    /// No destinations. Memory unit.
    Store(MemWidth),
    /// `dst = malloc(src0 bytes)` from the allocation site `ObjectId`.
    /// Memory unit (models the call overhead as a memory operation).
    Malloc(ObjectId),
    /// `dst = src0` register copy. Integer unit. The partitioner also
    /// uses `Move` for intercluster transfers; those are scheduled on the
    /// intercluster network rather than an integer unit.
    Move,
    /// Branch condition evaluation feeding the block terminator:
    /// consumes `src0`, no destination. Branch unit.
    BranchCond,
    /// Unconditional control transfer placeholder scheduled on the
    /// branch unit (one per block with a jump terminator). No operands.
    Jump,
    /// Call to another function: `dsts = call fn(srcs)`. Branch unit.
    Call(crate::ids::FuncId),
    /// Function return: consumes optional `src0`. Branch unit.
    Ret,
}

impl Opcode {
    /// The function-unit class this opcode occupies.
    pub fn fu_kind(self) -> FuKind {
        match self {
            Opcode::ConstInt(_)
            | Opcode::AddrOf(_)
            | Opcode::IntBin(_)
            | Opcode::IntCmp(_)
            | Opcode::Select
            | Opcode::Move => FuKind::Int,
            Opcode::ConstFloat(_)
            | Opcode::FloatBin(_)
            | Opcode::FloatCmp(_)
            | Opcode::IntToFloat
            | Opcode::FloatToInt => FuKind::Float,
            Opcode::Load(_) | Opcode::Store(_) | Opcode::Malloc(_) => FuKind::Mem,
            Opcode::BranchCond | Opcode::Jump | Opcode::Call(_) | Opcode::Ret => FuKind::Branch,
        }
    }

    /// Returns `true` for loads, stores and mallocs — the operations the
    /// data partitioner anchors to data objects.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load(_) | Opcode::Store(_) | Opcode::Malloc(_))
    }

    /// Returns `true` if this opcode reads data memory.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load(_))
    }

    /// Returns `true` for control-flow opcodes (branch unit).
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::BranchCond | Opcode::Jump | Opcode::Call(_) | Opcode::Ret)
    }

    /// Expected number of destination registers, or `None` if variable
    /// (calls).
    pub fn num_dsts(self) -> Option<usize> {
        match self {
            Opcode::Store(_) | Opcode::BranchCond | Opcode::Jump | Opcode::Ret => Some(0),
            Opcode::Call(_) => None,
            _ => Some(1),
        }
    }

    /// Expected number of source registers, or `None` if variable
    /// (calls, ret).
    pub fn num_srcs(self) -> Option<usize> {
        match self {
            Opcode::ConstInt(_) | Opcode::ConstFloat(_) | Opcode::AddrOf(_) | Opcode::Jump => {
                Some(0)
            }
            Opcode::IntBin(_)
            | Opcode::IntCmp(_)
            | Opcode::FloatBin(_)
            | Opcode::FloatCmp(_)
            | Opcode::Store(_) => Some(2),
            Opcode::Select => Some(3),
            Opcode::IntToFloat
            | Opcode::FloatToInt
            | Opcode::Load(_)
            | Opcode::Malloc(_)
            | Opcode::Move
            | Opcode::BranchCond => Some(1),
            Opcode::Call(_) | Opcode::Ret => None,
        }
    }
}

/// The printed mnemonic, with any immediate operand: `iconst 3`,
/// `load.4`, `call fn2`.
impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Opcode::ConstInt(v) => write!(f, "iconst {v}"),
            Opcode::ConstFloat(bits) => write!(f, "fconst {}", f64::from_bits(bits)),
            Opcode::AddrOf(o) => write!(f, "addrof {o}"),
            Opcode::IntBin(op) => fmt::Display::fmt(&op, f),
            Opcode::IntCmp(c) => write!(f, "icmp.{c}"),
            Opcode::Select => f.write_str("select"),
            Opcode::FloatBin(op) => fmt::Display::fmt(&op, f),
            Opcode::FloatCmp(c) => write!(f, "fcmp.{c}"),
            Opcode::IntToFloat => f.write_str("itof"),
            Opcode::FloatToInt => f.write_str("ftoi"),
            Opcode::Load(w) => write!(f, "load.{w}"),
            Opcode::Store(w) => write!(f, "store.{w}"),
            Opcode::Malloc(o) => write!(f, "malloc {o}"),
            Opcode::Move => f.write_str("mov"),
            Opcode::BranchCond => f.write_str("brc"),
            Opcode::Jump => f.write_str("jmp"),
            Opcode::Call(func) => write!(f, "call {func}"),
            Opcode::Ret => f.write_str("ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_kind_classification() {
        assert_eq!(Opcode::IntBin(IntBinOp::Add).fu_kind(), FuKind::Int);
        assert_eq!(Opcode::FloatBin(FloatBinOp::Mul).fu_kind(), FuKind::Float);
        assert_eq!(Opcode::Load(MemWidth::B4).fu_kind(), FuKind::Mem);
        assert_eq!(Opcode::Ret.fu_kind(), FuKind::Branch);
    }

    #[test]
    fn memory_predicates() {
        assert!(Opcode::Load(MemWidth::B1).is_memory());
        assert!(Opcode::Store(MemWidth::B8).is_memory());
        assert!(Opcode::Malloc(ObjectId(0)).is_memory());
        assert!(!Opcode::Move.is_memory());
        assert!(Opcode::Load(MemWidth::B1).is_load());
    }

    #[test]
    fn arity_conventions() {
        assert_eq!(Opcode::Store(MemWidth::B4).num_dsts(), Some(0));
        assert_eq!(Opcode::Store(MemWidth::B4).num_srcs(), Some(2));
        assert_eq!(Opcode::Select.num_srcs(), Some(3));
        assert_eq!(Opcode::Call(crate::ids::FuncId(0)).num_srcs(), None);
    }

    #[test]
    fn fu_kind_index_matches_all() {
        for (i, k) in FuKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn mnemonics_are_nonempty() {
        let ops = [
            Opcode::ConstInt(3),
            Opcode::ConstFloat(1.5f64.to_bits()),
            Opcode::AddrOf(ObjectId(1)),
            Opcode::Select,
            Opcode::Jump,
        ];
        for op in ops {
            assert!(!op.to_string().is_empty());
        }
        assert_eq!(Opcode::ConstInt(-3).to_string(), "iconst -3");
        assert_eq!(Opcode::Store(MemWidth::B2).to_string(), "store.2");
        assert_eq!(Opcode::IntCmp(Cmp::Le).to_string(), "icmp.le");
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B2.bytes(), 2);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }
}
