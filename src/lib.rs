//! # mcpart — compiler-directed data partitioning for multicluster processors
//!
//! A full reproduction of Chu & Mahlke, *Compiler-directed Data
//! Partitioning for Multicluster Processors* (CGO 2006), as a Rust
//! workspace. This facade crate re-exports the public API of every
//! subsystem:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`ir`] | `mcpart-ir` | compiler IR: programs, functions, blocks, operations, data objects, profiles |
//! | [`analysis`] | `mcpart-analysis` | points-to analysis, access relationships, call graph |
//! | [`metis`] | `mcpart-metis` | multilevel k-way graph partitioner (METIS-style) |
//! | [`machine`] | `mcpart-machine` | clustered-VLIW machine model |
//! | [`sched`] | `mcpart-sched` | list scheduler, move insertion, RHOP estimator, cycle accounting |
//! | [`sim`] | `mcpart-sim` | functional interpreter, profiling, semantic validation |
//! | [`obs`] | `mcpart-obs` | observability: spans, counters, Chrome trace export/decoding, metrics tables |
//! | [`rng`] | `mcpart-rng` | small deterministic PRNG used by the partitioners and tests |
//! | [`core`] | `mcpart-core` | GDP, RHOP, baselines, pipeline, exhaustive search |
//! | [`workloads`] | `mcpart-workloads` | synthetic Mediabench / DSP benchmark generators |
//!
//! ## Quickstart
//!
//! ```
//! use mcpart::core::{run_pipeline, Method, PipelineConfig};
//! use mcpart::machine::Machine;
//!
//! let workload = mcpart::workloads::by_name("rawcaudio").expect("known benchmark");
//! let machine = Machine::paper_2cluster(5);
//! let gdp = run_pipeline(
//!     &workload.program,
//!     &workload.profile,
//!     &machine,
//!     &PipelineConfig::new(Method::Gdp),
//! )
//! .expect("pipeline");
//! let unified = run_pipeline(
//!     &workload.program,
//!     &workload.profile,
//!     &machine,
//!     &PipelineConfig::new(Method::Unified),
//! )
//! .expect("pipeline");
//! let relative = unified.cycles() as f64 / gdp.cycles() as f64;
//! assert!(relative > 0.5, "GDP should be in the unified ballpark");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcpart_analysis as analysis;
pub use mcpart_core as core;
pub use mcpart_ir as ir;
pub use mcpart_machine as machine;
pub use mcpart_metis as metis;
pub use mcpart_obs as obs;
pub use mcpart_par as par;
pub use mcpart_rng as rng;
pub use mcpart_sched as sched;
pub use mcpart_sim as sim;
pub use mcpart_workloads as workloads;
