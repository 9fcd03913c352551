//! # mcpart-machine — clustered VLIW machine model
//!
//! Describes the multicluster processors targeted by the partitioners:
//! a set of clusters, each with its own register file, function units and
//! (optionally) its own data memory, connected by an intercluster
//! communication network with fixed bandwidth and latency.
//!
//! The default configuration, [`Machine::paper_2cluster`], matches the
//! evaluation machine of Chu & Mahlke (CGO 2006): a 2-cluster VLIW with
//! 2 integer, 1 float, 1 memory and 1 branch unit per cluster,
//! Itanium-like operation latencies, fully partitioned single-ported
//! memories with a 100% hit rate, and an intercluster network carrying
//! one move per cycle with a latency of 1, 5 or 10 cycles.
//!
//! ```
//! use mcpart_machine::Machine;
//!
//! let machine = Machine::paper_2cluster(5);
//! assert_eq!(machine.num_clusters(), 2);
//! assert_eq!(machine.interconnect.move_latency, 5);
//! assert!(machine.memory.is_partitioned());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]

mod cluster;
mod error;
mod latency;
mod model;
mod network;
mod sweep;

pub use cluster::{Cluster, FuMix};
pub use error::MachineError;
pub use latency::LatencyTable;
pub use model::{Machine, MemoryModel};
pub use network::{Interconnect, Topology};
pub use sweep::{SweepError, SweepMatrix, SweepPoint, DEFAULT_SWEEP, MAX_SWEEP_CLUSTERS};

/// The most clusters a machine may have: cluster ids are `u16`, so a
/// larger count would alias ids instead of adding clusters.
pub const MAX_CLUSTERS: usize = u16::MAX as usize;
