//! The k-cluster machine sweep matrix.
//!
//! One TOML-ish file describes a cartesian sweep over machine axes —
//! cluster count, intercluster move latency, network [`Topology`],
//! function-unit [`FuMix`] and memory model:
//!
//! ```text
//! # axes may appear in any order; missing axes default to the paper
//! # machine's value for that axis.
//! clusters = [1, 2, 4, 8]
//! latency  = [1, 5, 10]
//! topology = ["bus", "ring", "mesh", "crossbar"]
//! mix      = ["2/1/1/1", "1/0/1/1"]
//! memory   = ["partitioned", "unified", "coherent:5"]
//! ```
//!
//! [`SweepMatrix::parse`] rejects malformed files with a line- and
//! column-carrying [`SweepError`], and rejects axis values that could
//! never validate (a mix with no memory units, cluster counts outside
//! 1..=8) so that every machine of [`SweepMatrix::expand`] passes
//! [`Machine::validate`]. Expansion order is deterministic (clusters,
//! then latency, topology, mix, memory — each in file order), which the
//! chaos harness relies on to keep scenario sampling reproducible.

use crate::cluster::{Cluster, FuMix};
use crate::error::MachineError;
use crate::latency::LatencyTable;
use crate::model::{Machine, MemoryModel};
use crate::network::{Interconnect, Topology};
use mcpart_ir::FuKind;
use std::fmt;

/// Largest cluster count the sweep matrix admits (the ROADMAP's
/// "k-cluster" item calls for 1..8).
pub const MAX_SWEEP_CLUSTERS: usize = 8;

/// A malformed sweep file: where (1-based line and column) and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep line {}, column {}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for SweepError {}

/// One cell of the sweep matrix: a complete machine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SweepPoint {
    /// Number of (homogeneous) clusters.
    pub clusters: usize,
    /// Per-hop intercluster move latency.
    pub latency: u32,
    /// Network topology.
    pub topology: Topology,
    /// Function-unit mix, identical on every cluster.
    pub mix: FuMix,
    /// Memory organization.
    pub memory: MemoryModel,
}

impl SweepPoint {
    /// The paper's default configuration (2 clusters, 5-cycle bus,
    /// paper mix, partitioned memory).
    pub fn paper() -> Self {
        SweepPoint {
            clusters: 2,
            latency: 5,
            topology: Topology::Bus,
            mix: FuMix::paper(),
            memory: MemoryModel::Partitioned,
        }
    }

    /// Builds the machine this point describes.
    pub fn machine(&self) -> Machine {
        let clusters =
            (0..self.clusters).map(|i| Cluster::new(format!("c{i}"), self.mix)).collect();
        Machine {
            clusters,
            interconnect: Interconnect::bus(self.latency).with_topology(self.topology),
            memory: self.memory,
            latency: LatencyTable::itanium_like(),
        }
    }

    /// Parses the `Display` rendering back into a point (the chaos
    /// repro-file grammar). Missing keys default to [`SweepPoint::paper`].
    pub fn parse(s: &str) -> Result<SweepPoint, String> {
        let mut point = SweepPoint::paper();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            match key.trim() {
                "clusters" => {
                    point.clusters =
                        value.trim().parse().map_err(|_| format!("bad cluster count `{value}`"))?;
                }
                "latency" => {
                    point.latency =
                        value.trim().parse().map_err(|_| format!("bad latency `{value}`"))?;
                }
                "topology" => point.topology = Topology::parse(value.trim())?,
                "mix" => point.mix = FuMix::parse(value.trim())?,
                "memory" => point.memory = value.trim().parse()?,
                other => return Err(format!("unknown machine key `{other}`")),
            }
        }
        validate_point(&point)?;
        Ok(point)
    }
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clusters={},latency={},topology={},mix={},memory={}",
            self.clusters, self.latency, self.topology, self.mix, self.memory
        )
    }
}

/// Rejects points whose machine could never validate, so every expanded
/// machine passes [`Machine::validate`] by construction.
fn validate_point(p: &SweepPoint) -> Result<(), String> {
    if p.clusters == 0 || p.clusters > MAX_SWEEP_CLUSTERS {
        return Err(format!(
            "cluster count {} outside the sweep range 1..={MAX_SWEEP_CLUSTERS}",
            p.clusters
        ));
    }
    if p.latency == 0 {
        return Err("move latency must be at least 1".to_string());
    }
    for kind in [FuKind::Int, FuKind::Mem, FuKind::Branch] {
        if p.mix.count(kind) == 0 {
            let m = p.machine();
            let e = m.validate().expect_err("a mix missing mandatory units cannot validate");
            return Err(format!("unusable mix {}: {e}", p.mix));
        }
    }
    debug_assert_eq!(p.machine().validate(), Ok(()));
    Ok(())
}

/// A parsed sweep matrix: one list of values per machine axis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepMatrix {
    /// Cluster counts to sweep (1..=8).
    pub clusters: Vec<usize>,
    /// Per-hop move latencies to sweep.
    pub latency: Vec<u32>,
    /// Topologies to sweep.
    pub topology: Vec<Topology>,
    /// Function-unit mixes to sweep.
    pub mix: Vec<FuMix>,
    /// Memory models to sweep.
    pub memory: Vec<MemoryModel>,
}

/// The built-in sweep matrix: cluster counts across 1..=8, the paper's
/// three bus latencies, all four topologies, degenerate and rich unit
/// mixes, and all three memory models — 540 machines.
pub const DEFAULT_SWEEP: &str = "\
# mcpart built-in machine sweep matrix
clusters = [1, 2, 3, 4, 8]
latency  = [1, 5, 10]
topology = [\"bus\", \"ring\", \"mesh\", \"crossbar\"]
mix      = [\"2/1/1/1\", \"1/0/1/1\", \"4/2/2/2\"]
memory   = [\"partitioned\", \"unified\", \"coherent:5\"]
";

impl SweepMatrix {
    /// The built-in matrix ([`DEFAULT_SWEEP`]).
    pub fn builtin() -> SweepMatrix {
        match SweepMatrix::parse(DEFAULT_SWEEP) {
            Ok(m) => m,
            Err(e) => unreachable!("built-in sweep matrix must parse: {e}"),
        }
    }

    /// Parses a sweep file. Unknown keys, malformed lists, out-of-range
    /// values and unusable mixes are rejected with the 1-based line and
    /// column of the offending token.
    pub fn parse(text: &str) -> Result<SweepMatrix, SweepError> {
        let paper = SweepPoint::paper();
        let mut matrix = SweepMatrix {
            clusters: vec![paper.clusters],
            latency: vec![paper.latency],
            topology: vec![paper.topology],
            mix: vec![paper.mix],
            memory: vec![paper.memory],
        };
        let mut seen: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let content = strip_comment(raw);
            if content.trim().is_empty() {
                continue;
            }
            let eq = match content.find('=') {
                Some(i) => i,
                None => {
                    return Err(err(line, 1, "expected `key = [values]`"));
                }
            };
            let key = content[..eq].trim();
            let key_col = 1 + content[..eq].len() - content[..eq].trim_start().len();
            if key.is_empty() {
                return Err(err(line, 1, "missing key before `=`"));
            }
            if seen.iter().any(|k| k == key) {
                return Err(err(line, key_col, &format!("duplicate key `{key}`")));
            }
            let items = parse_list(&content[eq + 1..], line, eq + 2)?;
            if items.is_empty() {
                let col = eq + 2 + trailing_ws(&content[eq + 1..]);
                return Err(err(line, col, &format!("axis `{key}` has no values")));
            }
            match key {
                "clusters" => {
                    matrix.clusters = items
                        .iter()
                        .map(|it| it.integer(line).and_then(|v| cluster_count(v, it, line)))
                        .collect::<Result<_, _>>()?;
                }
                "latency" => {
                    matrix.latency = items
                        .iter()
                        .map(|it| {
                            let v = it.integer(line)?;
                            if v == 0 || v > 1_000_000 {
                                return Err(err(
                                    line,
                                    it.column,
                                    &format!("latency {v} outside 1..=1000000"),
                                ));
                            }
                            Ok(v as u32)
                        })
                        .collect::<Result<_, _>>()?;
                }
                "topology" => {
                    matrix.topology = items
                        .iter()
                        .map(|it| {
                            Topology::parse(it.string(line)?).map_err(|m| err(line, it.column, &m))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "mix" => {
                    matrix.mix = items
                        .iter()
                        .map(|it| {
                            let mix = FuMix::parse(it.string(line)?)
                                .map_err(|m| err(line, it.column, &m))?;
                            for kind in [FuKind::Int, FuKind::Mem, FuKind::Branch] {
                                if mix.count(kind) == 0 {
                                    let p = SweepPoint { mix, ..SweepPoint::paper() };
                                    let reason = validate_point(&p)
                                        .expect_err("mix missing mandatory units");
                                    return Err(err(line, it.column, &reason));
                                }
                            }
                            Ok(mix)
                        })
                        .collect::<Result<_, _>>()?;
                }
                "memory" => {
                    matrix.memory = items
                        .iter()
                        .map(|it| {
                            it.string(line)?.parse().map_err(|m: String| err(line, it.column, &m))
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => {
                    return Err(err(
                        line,
                        key_col,
                        &format!(
                            "unknown axis `{other}` (clusters, latency, topology, mix, memory)"
                        ),
                    ));
                }
            }
            seen.push(key.to_string());
        }
        Ok(matrix)
    }

    /// Every machine configuration of the sweep, in deterministic
    /// nested order (clusters outermost, memory innermost). Each point
    /// builds a machine that passes [`Machine::validate`].
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(
            self.clusters.len()
                * self.latency.len()
                * self.topology.len()
                * self.mix.len()
                * self.memory.len(),
        );
        for &clusters in &self.clusters {
            for &latency in &self.latency {
                for &topology in &self.topology {
                    for &mix in &self.mix {
                        for &memory in &self.memory {
                            points.push(SweepPoint { clusters, latency, topology, mix, memory });
                        }
                    }
                }
            }
        }
        points
    }

    /// Sanity hook for entry points: validates every expanded machine,
    /// returning the first failure (cannot happen for matrices built by
    /// [`SweepMatrix::parse`]; useful for hand-assembled ones).
    pub fn validate(&self) -> Result<(), MachineError> {
        for p in self.expand() {
            p.machine().validate()?;
        }
        Ok(())
    }
}

impl Default for SweepMatrix {
    fn default() -> Self {
        SweepMatrix::builtin()
    }
}

fn err(line: usize, column: usize, message: &str) -> SweepError {
    SweepError { line, column, message: message.to_string() }
}

fn cluster_count(v: u64, it: &Item<'_>, line: usize) -> Result<usize, SweepError> {
    if v == 0 || v as usize > MAX_SWEEP_CLUSTERS {
        return Err(err(
            line,
            it.column,
            &format!("cluster count {v} outside the sweep range 1..={MAX_SWEEP_CLUSTERS}"),
        ));
    }
    Ok(v as usize)
}

/// Strips a `#` comment (quotes-aware) without changing byte offsets
/// before the comment.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn trailing_ws(s: &str) -> usize {
    s.len() - s.trim_start().len()
}

/// One list item with the 1-based column it starts at.
struct Item<'a> {
    text: &'a str,
    quoted: bool,
    column: usize,
}

impl Item<'_> {
    fn integer(&self, line: usize) -> Result<u64, SweepError> {
        if self.quoted {
            return Err(err(line, self.column, "expected a bare integer, got a string"));
        }
        self.text
            .parse::<u64>()
            .map_err(|_| err(line, self.column, &format!("bad integer `{}`", self.text)))
    }

    fn string(&self, line: usize) -> Result<&str, SweepError> {
        if !self.quoted {
            return Err(err(
                line,
                self.column,
                &format!("expected a quoted string, got `{}`", self.text),
            ));
        }
        Ok(self.text)
    }
}

/// Parses `[a, b, c]` after the `=`. `base_col` is the 1-based column
/// of `rest`'s first byte within the line.
fn parse_list(rest: &str, line: usize, base_col: usize) -> Result<Vec<Item<'_>>, SweepError> {
    let open_off = trailing_ws(rest);
    let after_ws = &rest[open_off..];
    if !after_ws.starts_with('[') {
        return Err(err(line, base_col + open_off, "expected `[` starting the value list"));
    }
    let close_off = match after_ws.rfind(']') {
        Some(i) => open_off + i,
        None => return Err(err(line, base_col + open_off, "unclosed `[` in value list")),
    };
    if !rest[close_off + 1..].trim().is_empty() {
        return Err(err(line, base_col + close_off + 1, "trailing text after `]`"));
    }
    let inner = &rest[open_off + 1..close_off];
    let mut items = Vec::new();
    let mut offset = 0usize;
    for piece in inner.split(',') {
        let lead = trailing_ws(piece);
        let text = piece.trim();
        let column = base_col + open_off + 1 + offset + lead;
        offset += piece.len() + 1;
        if text.is_empty() {
            if inner.trim().is_empty() && items.is_empty() {
                break; // `[]`: reported as an empty axis by the caller.
            }
            return Err(err(line, column, "empty list item"));
        }
        if let Some(stripped) = text.strip_prefix('"') {
            match stripped.strip_suffix('"') {
                Some(s) if !s.contains('"') => {
                    items.push(Item { text: s, quoted: true, column });
                }
                _ => return Err(err(line, column, "unterminated string")),
            }
        } else if text.contains('"') {
            return Err(err(line, column, "stray `\"` in bare item"));
        } else {
            items.push(Item { text, quoted: false, column });
        }
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_matrix_expands_and_validates() {
        let m = SweepMatrix::builtin();
        let points = m.expand();
        assert_eq!(points.len(), 5 * 3 * 4 * 3 * 3);
        assert_eq!(m.validate(), Ok(()));
        for p in &points {
            assert_eq!(p.machine().validate(), Ok(()), "{p}");
        }
        // Deterministic order: first point is the outermost-first combo.
        assert_eq!(points[0].clusters, 1);
        assert_eq!(points[0].latency, 1);
        assert_eq!(points[0].topology, Topology::Bus);
    }

    #[test]
    fn missing_axes_default_to_the_paper_machine() {
        let m = SweepMatrix::parse("clusters = [4]\n").expect("parse");
        let points = m.expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0], SweepPoint { clusters: 4, ..SweepPoint::paper() });
    }

    #[test]
    fn point_display_roundtrips() {
        for p in SweepMatrix::builtin().expand() {
            assert_eq!(SweepPoint::parse(&p.to_string()), Ok(p), "{p}");
        }
        assert!(SweepPoint::parse("clusters=0").is_err());
        assert!(SweepPoint::parse("mix=0/1/1/1").is_err());
        assert!(SweepPoint::parse("warp=9").is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let e = SweepMatrix::parse("clusters = [1, 9]\n").expect_err("out of range");
        assert_eq!((e.line, e.column), (1, 16));
        assert!(e.to_string().contains("line 1, column 16"), "{e}");

        let e = SweepMatrix::parse("\nwarp = [1]\n").expect_err("unknown key");
        assert_eq!((e.line, e.column), (2, 1));

        let e = SweepMatrix::parse("topology = [\"bus\", \"torus\"]\n").expect_err("bad topo");
        assert_eq!(e.line, 1);
        assert_eq!(e.column, 20);
        assert!(e.message.contains("torus"));

        let e = SweepMatrix::parse("latency = 5\n").expect_err("not a list");
        assert!(e.message.contains('['));

        let e = SweepMatrix::parse("mix = [\"1/1/0/1\"]\n").expect_err("no mem units");
        assert!(e.message.contains("memory units"), "{}", e.message);

        let e = SweepMatrix::parse("clusters = []\n").expect_err("empty axis");
        assert!(e.message.contains("no values"));

        let e = SweepMatrix::parse("clusters = [1]\nclusters = [2]\n").expect_err("dup");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));

        let e = SweepMatrix::parse("latency = [1] extra\n").expect_err("trailing");
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nclusters = [2] # two of them\nlatency = [1, 10]\n";
        let m = SweepMatrix::parse(text).expect("parse");
        assert_eq!(m.clusters, vec![2]);
        assert_eq!(m.latency, vec![1, 10]);
        assert_eq!(m.expand().len(), 2);
    }

    #[test]
    fn quoted_items_keep_hashes_and_reject_strays() {
        assert!(SweepMatrix::parse("topology = [bus]\n")
            .expect_err("unquoted string")
            .message
            .contains("quoted"));
        assert!(SweepMatrix::parse("clusters = [\"2\"]\n")
            .expect_err("quoted integer")
            .message
            .contains("bare integer"));
    }
}
