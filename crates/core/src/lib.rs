//! # mcpart-core — Global Data Partitioning for multicluster processors
//!
//! The primary contribution of Chu & Mahlke, *Compiler-directed Data
//! Partitioning for Multicluster Processors* (CGO 2006), plus the three
//! baselines it is evaluated against:
//!
//! * **GDP** ([`gdp_partition`]) — first pass: the whole-program
//!   data-flow graph ([`ProgramDfg`]) is coarsened by access-pattern
//!   merging ([`ObjectGroups`]) and split by a multilevel graph
//!   partitioner balancing data bytes per cluster memory;
//! * **RHOP** ([`rhop_partition`]) — second pass: region-based
//!   hierarchical operation partitioning with memory operations locked
//!   to their object's home cluster;
//! * **Baselines** — [`unified_partition`], [`naive_partition`],
//!   [`profile_max_partition`] (Table 1);
//! * **Pipeline** ([`run_pipeline`]) — analyses, partitioning,
//!   normalization, intercluster move insertion, scheduling, and the
//!   cycle/move accounting behind every figure of the paper;
//! * **Exhaustive search** ([`exhaustive_search`]) — Figure 9's sweep of
//!   all object mappings.
//!
//! ```
//! use mcpart_ir::{Program, DataObject, FunctionBuilder, MemWidth, Profile};
//! use mcpart_machine::Machine;
//! use mcpart_core::{run_pipeline, Method, PipelineConfig};
//!
//! let mut program = Program::new("demo");
//! let table = program.add_object(DataObject::global("table", 64));
//! let mut b = FunctionBuilder::entry(&mut program);
//! let base = b.addrof(table);
//! let v = b.load(MemWidth::B4, base);
//! let w = b.add(v, v);
//! b.store(MemWidth::B4, base, w);
//! b.ret(None);
//!
//! let machine = Machine::paper_2cluster(5);
//! let profile = Profile::uniform(&program, 100);
//! let result = run_pipeline(&program, &profile, &machine, &PipelineConfig::new(Method::Gdp))
//!     .expect("pipeline");
//! assert!(result.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod baselines;
mod chaos;
mod checkpoint;
mod dfg;
mod error;
mod exhaustive;
mod gdp;
mod groups;
mod oracle;
mod pipeline;
pub mod repartition;
mod rhop;
mod serve;

pub use baselines::{
    group_cluster_frequencies, naive_partition, profile_max_partition, unified_partition,
};
pub use chaos::{
    run_chaos, run_scenario, ChaosConfig, ChaosError, ChaosSummary, Scenario, ScenarioResult,
    ScenarioVerdict,
};
pub use checkpoint::{
    load_checkpoint, load_checkpoint_any, method_slug, parse_checkpoint, program_fingerprint,
    run_unit, run_unit_full, Checkpoint, CheckpointError, CheckpointHeader, CheckpointWriter,
    Manifest, ManifestFunc, PinnedEvent, UnitRecord, UnitRun, CHECKPOINT_VERSION, MANIFEST_KEY,
};
pub use dfg::{ProgramDfg, ProgramNode};
pub use error::{
    Downgrade, GdpError, McpartError, PipelineError, PipelineErrorKind, RhopError, Stage,
};
pub use exhaustive::{
    evaluate_mapping, exhaustive_search, ExhaustiveError, ExhaustivePoint, TooManyGroups,
};
pub use gdp::{data_partition_from_mapping, gdp_partition, DataPartition, GdpConfig};
pub use groups::ObjectGroups;
pub use oracle::{check_result, OracleCheck, OracleReport};
pub use pipeline::{run_pipeline, Method, PipelineConfig, PipelineResult};
pub use repartition::{build_manifest, compute_reuse, RepartitionStats};
pub use rhop::{
    rhop_partition, rhop_partition_detailed, FuncPartitionOutcome, RegionScope, ReuseEntry,
    RhopConfig, RhopStats,
};
pub use serve::{
    cache_key, parse_job, render_cache_entry, serve, verify_cache_entry, JobSpec, ServeConfig,
    ServeError, ServeSummary, JOB_VERSION,
};
