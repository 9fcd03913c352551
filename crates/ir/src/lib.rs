//! # mcpart-ir — compiler IR for multicluster data/computation partitioning
//!
//! This crate defines the intermediate representation shared by every
//! other crate in the `mcpart` workspace, a reproduction of Chu & Mahlke,
//! *Compiler-directed Data Partitioning for Multicluster Processors*
//! (CGO 2006).
//!
//! The IR is a register-based, non-SSA representation close to
//! Trimaran's Elcor IR at the point where the paper's partitioners run:
//!
//! * [`Program`] — functions plus a table of [`DataObject`]s (static
//!   globals and `malloc` call sites), the entities the *data*
//!   partitioner distributes across cluster memories;
//! * [`Function`] — a CFG of [`Block`]s over an operation arena, with an
//!   optional [`Region`] decomposition used by the region-based
//!   *computation* partitioner;
//! * [`Op`]/[`Opcode`] — operations with explicit virtual-register
//!   operands; constants are materialized so every data dependence is a
//!   register edge;
//! * [`Profile`] — block execution frequencies and heap-site sizes.
//!
//! ## Example
//!
//! ```
//! use mcpart_ir::{Program, DataObject, FunctionBuilder, MemWidth, verify_program};
//!
//! let mut program = Program::new("quickstart");
//! let table = program.add_object(DataObject::global("table", 128));
//! let mut b = FunctionBuilder::entry(&mut program);
//! let base = b.addrof(table);
//! let v = b.load(MemWidth::B4, base);
//! let doubled = b.add(v, v);
//! b.store(MemWidth::B4, base, doubled);
//! b.ret(None);
//! verify_program(&program)?;
//! # Ok::<(), mcpart_ir::VerifyError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod block;
mod builder;
mod dfg;
mod func;
mod ids;
mod object;
mod op;
mod opcode;
mod parse;
mod print;
mod profile;
mod program;
mod transform;
mod verify;

pub use block::{Block, Terminator};
pub use builder::FunctionBuilder;
pub use dfg::DefUse;
pub use func::{Function, Region};
pub use ids::{BlockId, ClusterId, EntityId, EntityMap, FuncId, ObjectId, OpId, RegionId, VReg};
pub use object::{DataObject, ObjectKind};
pub use op::{Op, OpRef};
pub use opcode::{Cmp, FloatBinOp, FuKind, IntBinOp, MemWidth, Opcode};
pub use parse::{parse_program, ParseError};
pub use print::{function_to_string, program_to_string, write_function, write_program};
pub use profile::{FuncProfile, Profile};
pub use program::Program;
pub use transform::{
    copy_propagation, dce_function, fold_constants, lvn_function, optimize, OptStats,
};
pub use verify::{verify_program, VerifyError};
