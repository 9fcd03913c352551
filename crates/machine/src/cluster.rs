//! Per-cluster resources.

use mcpart_ir::FuKind;
use std::fmt;

/// The function-unit mix of a cluster: how many units of each
/// [`FuKind`] it provisions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FuMix {
    counts: [u8; 4],
}

impl FuMix {
    /// Creates a mix with the given unit counts.
    pub fn new(int: u8, float: u8, mem: u8, branch: u8) -> Self {
        FuMix { counts: [int, float, mem, branch] }
    }

    /// The paper's per-cluster mix: 2 integer, 1 float, 1 memory,
    /// 1 branch unit.
    pub fn paper() -> Self {
        FuMix::new(2, 1, 1, 1)
    }

    /// Number of units of `kind`.
    pub fn count(&self, kind: FuKind) -> usize {
        self.counts[kind.index()] as usize
    }

    /// Parses a mix written as `int/float/mem/branch` counts, with or
    /// without the `Display` letter suffixes: `2/1/1/1` and
    /// `2I/1F/1M/1B` both parse to [`FuMix::paper`]'s mix.
    pub fn parse(s: &str) -> Result<FuMix, String> {
        let parts: Vec<&str> = s.split('/').collect();
        if parts.len() != 4 {
            return Err(format!("expected 4 `/`-separated unit counts, got {}", parts.len()));
        }
        let mut counts = [0u8; 4];
        for (i, (part, suffix)) in parts.iter().zip(["I", "F", "M", "B"]).enumerate() {
            let digits = part.strip_suffix(suffix).unwrap_or(part);
            counts[i] = digits.parse::<u8>().map_err(|_| {
                format!("bad unit count `{part}` (expected e.g. `2` or `2{suffix}`)")
            })?;
        }
        Ok(FuMix { counts: [counts[0], counts[1], counts[2], counts[3]] })
    }
}

impl fmt::Display for FuMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}I/{}F/{}M/{}B", self.counts[0], self.counts[1], self.counts[2], self.counts[3])
    }
}

/// A single cluster: a register file plus a set of function units, and
/// optionally a private data memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cluster {
    /// Human-readable name.
    pub name: String,
    /// Function-unit provision.
    pub fu: FuMix,
    /// Relative capacity weight of this cluster's data memory. The data
    /// partitioner balances total object bytes proportionally to this
    /// weight (all 1 for homogeneous machines; the paper notes the
    /// balance "is parameterized in the case where the memory within one
    /// cluster is significantly larger than the other").
    pub memory_weight: u32,
    /// Register-file capacity. Clustering exists to keep register files
    /// small (the paper's motivation); the optional pressure model
    /// charges spill traffic when a block needs more live registers
    /// than this on one cluster.
    pub regfile_size: u32,
}

impl Cluster {
    /// Creates a cluster with unit memory weight and a 64-entry
    /// register file.
    pub fn new(name: impl Into<String>, fu: FuMix) -> Self {
        Cluster { name: name.into(), fu, memory_weight: 1, regfile_size: 64 }
    }

    /// Sets the relative memory capacity weight.
    pub fn with_memory_weight(mut self, weight: u32) -> Self {
        self.memory_weight = weight;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_counts() {
        let m = FuMix::paper();
        assert_eq!(m.count(FuKind::Int), 2);
        assert_eq!(m.count(FuKind::Float), 1);
        assert_eq!(m.count(FuKind::Mem), 1);
        assert_eq!(m.count(FuKind::Branch), 1);
        assert_eq!(m.to_string(), "2I/1F/1M/1B");
    }

    #[test]
    fn mix_parse_roundtrips() {
        assert_eq!(FuMix::parse("2/1/1/1"), Ok(FuMix::paper()));
        assert_eq!(FuMix::parse("2I/1F/1M/1B"), Ok(FuMix::paper()));
        assert_eq!(FuMix::parse(&FuMix::new(4, 0, 2, 1).to_string()), Ok(FuMix::new(4, 0, 2, 1)));
        assert!(FuMix::parse("2/1/1").is_err());
        assert!(FuMix::parse("2/x/1/1").is_err());
    }

    #[test]
    fn memory_weight_builder() {
        let c = Cluster::new("c0", FuMix::paper()).with_memory_weight(3);
        assert_eq!(c.memory_weight, 3);
        assert_eq!(c.regfile_size, 64);
    }
}
