//! The complete machine description.

use crate::cluster::{Cluster, FuMix};
use crate::error::MachineError;
use crate::latency::LatencyTable;
use crate::network::Interconnect;
use mcpart_ir::{ClusterId, FuKind};

/// How data memory is organized across clusters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemoryModel {
    /// A single multiported memory reachable from every cluster at the
    /// ordinary load latency, with no intercluster transfer required for
    /// data. This is the paper's upper-bound configuration.
    Unified,
    /// Fully partitioned per-cluster memories (scratchpad-like, 100% hit
    /// rate). Every data object has exactly one home cluster; accesses
    /// must execute on the home cluster's memory unit.
    Partitioned,
    /// The paper's "middle ground" (§2) and future-work direction:
    /// coherent per-cluster caches. Objects still have a home cluster,
    /// but any cluster may access any object — a remote access simply
    /// pays `remote_penalty` extra cycles (coherence transfer) and is
    /// counted as coherence traffic.
    CoherentCache {
        /// Extra cycles for accessing an object homed on another
        /// cluster.
        remote_penalty: u32,
    },
}

impl MemoryModel {
    /// Returns `true` for the partitioned model.
    pub fn is_partitioned(self) -> bool {
        matches!(self, MemoryModel::Partitioned)
    }

    /// The remote-access penalty of the coherent-cache model, if this
    /// is one.
    pub fn coherence_penalty(self) -> Option<u32> {
        match self {
            MemoryModel::CoherentCache { remote_penalty } => Some(remote_penalty),
            _ => None,
        }
    }
}

/// The one memory-model grammar — `partitioned`, `unified` or
/// `coherent:<penalty>` — shared by `--memory`, job files, checkpoint
/// headers, sweep files and chaos repros.
impl std::str::FromStr for MemoryModel {
    type Err = String;

    fn from_str(slug: &str) -> Result<Self, String> {
        match slug {
            "partitioned" => Ok(MemoryModel::Partitioned),
            "unified" => Ok(MemoryModel::Unified),
            _ => match slug.strip_prefix("coherent:") {
                Some(p) => p
                    .parse()
                    .map(|remote_penalty| MemoryModel::CoherentCache { remote_penalty })
                    .map_err(|_| {
                        format!("memory `coherent:{p}`: penalty must be a non-negative integer")
                    }),
                None => Err(format!(
                    "unknown memory model `{slug}` (partitioned|unified|coherent:<penalty>)"
                )),
            },
        }
    }
}

/// The stable slug, inverse of the [`FromStr`](std::str::FromStr) impl.
impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryModel::Partitioned => f.write_str("partitioned"),
            MemoryModel::Unified => f.write_str("unified"),
            MemoryModel::CoherentCache { remote_penalty } => write!(f, "coherent:{remote_penalty}"),
        }
    }
}

/// A multicluster VLIW machine description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Machine {
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// Intercluster network.
    pub interconnect: Interconnect,
    /// Memory organization.
    pub memory: MemoryModel,
    /// Operation latencies.
    pub latency: LatencyTable,
}

impl Machine {
    /// The paper's evaluation machine: two homogeneous clusters with
    /// 2 integer / 1 float / 1 memory / 1 branch unit each, partitioned
    /// memories, Itanium-like latencies, and an intercluster bus of the
    /// given move latency (1, 5 or 10 in the paper; 5 is the default).
    pub fn paper_2cluster(move_latency: u32) -> Self {
        Machine {
            clusters: vec![Cluster::new("c0", FuMix::paper()), Cluster::new("c1", FuMix::paper())],
            interconnect: Interconnect::bus(move_latency),
            memory: MemoryModel::Partitioned,
            latency: LatencyTable::itanium_like(),
        }
    }

    /// A homogeneous machine with `n` paper-mix clusters.
    pub fn homogeneous(n: usize, move_latency: u32) -> Self {
        Machine {
            clusters: (0..n).map(|i| Cluster::new(format!("c{i}"), FuMix::paper())).collect(),
            interconnect: Interconnect::bus(move_latency),
            memory: MemoryModel::Partitioned,
            latency: LatencyTable::itanium_like(),
        }
    }

    /// Switches this machine to the unified (single multiported memory)
    /// model.
    pub fn with_unified_memory(mut self) -> Self {
        self.memory = MemoryModel::Unified;
        self
    }

    /// Switches this machine to coherent per-cluster caches with the
    /// given remote-access penalty.
    pub fn with_coherent_cache(mut self, remote_penalty: u32) -> Self {
        self.memory = MemoryModel::CoherentCache { remote_penalty };
        self
    }

    /// Replaces the interconnect.
    pub fn with_interconnect(mut self, interconnect: Interconnect) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Iterates over cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters.len()).map(ClusterId::new)
    }

    /// Function-unit count of `kind` on `cluster`.
    pub fn fu_count(&self, cluster: ClusterId, kind: FuKind) -> usize {
        self.clusters[cluster.index()].fu.count(kind)
    }

    /// Relative memory capacity weights per cluster, used as balance
    /// targets by the data partitioner.
    pub fn memory_weights(&self) -> Vec<u32> {
        self.clusters.iter().map(|c| c.memory_weight).collect()
    }

    /// Intercluster move latency in cycles (one hop; the paper's bus
    /// makes every pair one hop apart).
    pub fn move_latency(&self) -> u32 {
        self.interconnect.move_latency
    }

    /// Intercluster move latency between two specific clusters under
    /// this machine's topology: `move_latency × hops(a, b)`. Equals
    /// [`Machine::move_latency`] for distinct clusters on a bus or
    /// crossbar.
    pub fn move_latency_between(&self, a: ClusterId, b: ClusterId) -> u32 {
        self.interconnect.latency_between(a.index(), b.index(), self.num_clusters())
    }

    /// Checks that this machine can execute *any* program, returning a
    /// typed [`MachineError`] for degenerate descriptions that would
    /// otherwise surface as panics or underflow deep inside the
    /// partitioners or the scheduler. Construction stays infallible so
    /// builders and sweep generators compose freely; every CLI and
    /// config entry point calls this before running.
    ///
    /// Float units may legitimately be zero (integer-only machines);
    /// integer, memory and branch units are mandatory on every cluster.
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.clusters.is_empty() {
            return Err(MachineError::NoClusters);
        }
        for (i, c) in self.clusters.iter().enumerate() {
            for kind in [FuKind::Int, FuKind::Mem, FuKind::Branch] {
                if c.fu.count(kind) == 0 {
                    return Err(MachineError::MissingUnits { cluster: i, kind });
                }
            }
            if c.regfile_size == 0 {
                return Err(MachineError::NoRegisters { cluster: i });
            }
        }
        if self.memory.is_partitioned() && self.clusters.iter().all(|c| c.memory_weight == 0) {
            return Err(MachineError::NoMemoryCapacity);
        }
        if self.clusters.len() > 1 && self.interconnect.moves_per_cycle == 0 {
            return Err(MachineError::NoBandwidth);
        }
        Ok(())
    }
}

impl Default for Machine {
    /// The paper's default machine (2 clusters, 5-cycle moves).
    fn default() -> Self {
        Machine::paper_2cluster(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shape() {
        let m = Machine::paper_2cluster(5);
        assert_eq!(m.num_clusters(), 2);
        assert_eq!(m.fu_count(ClusterId::new(0), FuKind::Int), 2);
        assert_eq!(m.fu_count(ClusterId::new(1), FuKind::Mem), 1);
        assert!(m.memory.is_partitioned());
        assert_eq!(m.move_latency(), 5);
    }

    #[test]
    fn unified_switch() {
        let m = Machine::paper_2cluster(1).with_unified_memory();
        assert!(!m.memory.is_partitioned());
    }

    #[test]
    fn coherent_cache_penalty() {
        let m = Machine::paper_2cluster(5).with_coherent_cache(7);
        assert!(!m.memory.is_partitioned());
        assert_eq!(m.memory.coherence_penalty(), Some(7));
        assert_eq!(MemoryModel::Unified.coherence_penalty(), None);
    }

    #[test]
    fn memory_model_slug_roundtrip() {
        for slug in ["partitioned", "unified", "coherent:7"] {
            assert_eq!(slug.parse::<MemoryModel>().expect("parses").to_string(), slug);
        }
        for bad in ["coherent:-1", "coherent:", "fast", "Unified"] {
            assert!(bad.parse::<MemoryModel>().is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn validate_accepts_the_paper_machines() {
        assert_eq!(Machine::paper_2cluster(5).validate(), Ok(()));
        assert_eq!(Machine::homogeneous(8, 1).validate(), Ok(()));
        // Degenerate-but-legal: no float units.
        let mut m = Machine::homogeneous(2, 5);
        m.clusters[1].fu = FuMix::new(1, 0, 1, 1);
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_degenerate_machines() {
        assert_eq!(Machine::homogeneous(0, 5).validate(), Err(MachineError::NoClusters));
        let mut m = Machine::homogeneous(2, 5);
        m.clusters[1].fu = FuMix::new(1, 1, 0, 1);
        assert_eq!(m.validate(), Err(MachineError::MissingUnits { cluster: 1, kind: FuKind::Mem }));
        let mut m = Machine::homogeneous(2, 5);
        m.clusters[0].fu = FuMix::new(0, 1, 1, 1);
        assert_eq!(m.validate(), Err(MachineError::MissingUnits { cluster: 0, kind: FuKind::Int }));
        let mut m = Machine::homogeneous(1, 5);
        m.clusters[0].regfile_size = 0;
        assert_eq!(m.validate(), Err(MachineError::NoRegisters { cluster: 0 }));
        let mut m = Machine::homogeneous(2, 5);
        for c in &mut m.clusters {
            c.memory_weight = 0;
        }
        assert_eq!(m.validate(), Err(MachineError::NoMemoryCapacity));
        // Weight 0 is fine under unified memory (no balance targets).
        assert_eq!(m.clone().with_unified_memory().validate(), Ok(()));
        let m =
            Machine::homogeneous(2, 5).with_interconnect(Interconnect::bus(5).with_bandwidth(0));
        assert_eq!(m.validate(), Err(MachineError::NoBandwidth));
        // A single cluster never moves, so bandwidth 0 is harmless.
        let m =
            Machine::homogeneous(1, 5).with_interconnect(Interconnect::bus(5).with_bandwidth(0));
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn topology_latency_reaches_the_machine_api() {
        use crate::network::Topology;
        let m = Machine::homogeneous(8, 5)
            .with_interconnect(Interconnect::bus(5).with_topology(Topology::Ring));
        assert_eq!(m.move_latency_between(ClusterId::new(0), ClusterId::new(4)), 20);
        assert_eq!(m.move_latency_between(ClusterId::new(0), ClusterId::new(7)), 5);
        let bus = Machine::homogeneous(8, 5);
        assert_eq!(bus.move_latency_between(ClusterId::new(0), ClusterId::new(4)), 5);
    }

    #[test]
    fn homogeneous_scales() {
        let m = Machine::homogeneous(4, 10);
        assert_eq!(m.num_clusters(), 4);
        assert_eq!(m.cluster_ids().count(), 4);
        assert_eq!(m.memory_weights(), vec![1, 1, 1, 1]);
    }
}
