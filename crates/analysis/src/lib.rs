//! # mcpart-analysis — prepartitioning program analyses
//!
//! The analyses the paper runs before partitioning (§3.2):
//!
//! * [`PointsTo`] — interprocedural, flow-insensitive points-to analysis
//!   assigning each load/store the set of data objects it can access and
//!   relating `malloc()` call sites to accesses on their heap data;
//! * [`AccessInfo`] — the data access relationship graph between memory
//!   access operations and objects, weighted by profile frequency;
//! * [`CallGraph`] — static call graph and entry reachability;
//! * [`Dominators`]/[`LoopForest`] — dominator tree and natural-loop
//!   detection, used to form loop-nest partitioning regions.
//!
//! ```
//! use mcpart_ir::{Program, DataObject, FunctionBuilder, MemWidth, Profile};
//! use mcpart_analysis::{PointsTo, AccessInfo};
//!
//! let mut program = Program::new("demo");
//! let table = program.add_object(DataObject::global("table", 64));
//! let mut b = FunctionBuilder::entry(&mut program);
//! let addr = b.addrof(table);
//! let v = b.load(MemWidth::B4, addr);
//! b.ret(Some(v));
//!
//! let pts = PointsTo::compute(&program);
//! let info = AccessInfo::compute(&program, &pts, &Profile::uniform(&program, 100));
//! assert_eq!(info.object_freq[table], 100);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod access;
mod callgraph;
mod error;
mod liveness;
mod loops;
mod offsets;
mod pointsto;

pub use access::{AccessInfo, AccessSite};
pub use callgraph::CallGraph;
pub use error::{validate_profile, AnalysisError};
pub use liveness::{Liveness, RegSet};
pub use loops::{loop_regions, Dominators, LoopForest, NaturalLoop};
pub use offsets::{AddressInfo, KnownAddress, KnownRange};
pub use pointsto::{ObjectSet, PointsTo};
