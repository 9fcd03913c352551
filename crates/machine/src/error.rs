//! Typed validation failures of a machine description.

use mcpart_ir::FuKind;
use std::fmt;

/// Why a [`crate::Machine`] is unusable.
///
/// Construction stays infallible (builders compose freely, sweep
/// generators may enumerate nonsense), but every entry point that is
/// about to *run* something on a machine calls
/// [`crate::Machine::validate`] first and surfaces one of these instead
/// of panicking or underflowing deep inside a partitioner or scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// The machine has no clusters at all (`homogeneous(0)`, an empty
    /// `clusters` vec): there is nowhere to place an operation.
    NoClusters,
    /// A cluster provisions zero units of a kind every program needs.
    /// Integer, memory and branch units are mandatory (every block ends
    /// in a branch, every function has integer ops, memory operations
    /// are pinned to their object's home cluster); float units may be
    /// zero — a legal degenerate mix for integer-only codes.
    MissingUnits {
        /// Index of the offending cluster.
        cluster: usize,
        /// The unit kind with zero provision.
        kind: FuKind,
    },
    /// A cluster has a zero-entry register file: no value could ever be
    /// produced there.
    NoRegisters {
        /// Index of the offending cluster.
        cluster: usize,
    },
    /// Every cluster has memory weight 0 under partitioned memory: the
    /// data partitioner's balance targets would divide by zero.
    NoMemoryCapacity,
    /// The interconnect admits zero moves per cycle on a multicluster
    /// machine: any placement needing one transfer deadlocks the
    /// scheduler.
    NoBandwidth,
    /// More clusters than a [`mcpart_ir::ClusterId`]-indexed partitioner
    /// can name ([`crate::MAX_CLUSTERS`]).
    TooManyClusters(usize),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoClusters => f.write_str("machine has no clusters"),
            MachineError::MissingUnits { cluster, kind } => {
                let k = match kind {
                    FuKind::Int => "integer",
                    FuKind::Float => "float",
                    FuKind::Mem => "memory",
                    FuKind::Branch => "branch",
                };
                write!(f, "cluster {cluster} has no {k} units")
            }
            MachineError::NoRegisters { cluster } => {
                write!(f, "cluster {cluster} has a zero-entry register file")
            }
            MachineError::NoMemoryCapacity => {
                f.write_str("all clusters have memory weight 0 under partitioned memory")
            }
            MachineError::NoBandwidth => {
                f.write_str("interconnect admits 0 moves per cycle on a multicluster machine")
            }
            MachineError::TooManyClusters(n) => {
                write!(f, "{n} clusters exceed the limit of {}", crate::MAX_CLUSTERS)
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = MachineError::MissingUnits { cluster: 3, kind: FuKind::Branch };
        assert_eq!(e.to_string(), "cluster 3 has no branch units");
        assert!(MachineError::NoClusters.to_string().contains("no clusters"));
        assert!(MachineError::NoBandwidth.to_string().contains("0 moves"));
    }
}
