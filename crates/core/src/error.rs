//! Typed failures of the partitioning pipeline.
//!
//! Every stage of [`crate::run_pipeline`] reports failure through
//! [`PipelineError`], which names the program, the method, and the
//! stage that failed alongside the stage-specific cause. Callers can
//! match on [`PipelineErrorKind`] to distinguish unusable inputs
//! (verification, profile shape) from partitioning failures (budget
//! exhaustion, invalid placements) — the latter are *recoverable* and
//! drive the pipeline's graceful-degradation ladder.

use crate::pipeline::Method;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// The pipeline stage in which a failure occurred.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// Structural verification of the input program.
    Verify,
    /// Prepartitioning analyses (profile validation, points-to, access
    /// relationship, object grouping).
    Analysis,
    /// Global Data Partitioning (first pass).
    DataPartition,
    /// RHOP computation partitioning (second pass).
    ComputationPartition,
    /// Placement normalization.
    Normalize,
    /// Intercluster move insertion.
    MoveInsertion,
    /// Post-move placement validation against the machine's rules.
    PlacementValidation,
    /// Semantic equivalence check of original vs. transformed program.
    SemanticValidation,
    /// Schedule construction and cycle accounting.
    Evaluation,
    /// The supervision layer itself: a caught worker panic whose
    /// failing stage is unknown (the unwind crossed stage boundaries).
    Supervision,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Verify => "verify",
            Stage::Analysis => "analysis",
            Stage::DataPartition => "data partition",
            Stage::ComputationPartition => "computation partition",
            Stage::Normalize => "normalize",
            Stage::MoveInsertion => "move insertion",
            Stage::PlacementValidation => "placement validation",
            Stage::SemanticValidation => "semantic validation",
            Stage::Evaluation => "evaluation",
            Stage::Supervision => "supervision",
        };
        f.write_str(s)
    }
}

/// A failure of the Global Data Partitioning pass.
#[derive(Clone, PartialEq, Debug)]
pub enum GdpError {
    /// The underlying multilevel graph partitioner failed (bad
    /// configuration or exhausted refinement budget).
    Metis(mcpart_metis::MetisError),
    /// The target machine has no clusters to partition onto.
    NoClusters,
    /// An internal invariant of graph construction broke (e.g. a live
    /// object group without a supernode) — indicates corrupted analysis
    /// results rather than a bad configuration.
    Internal {
        /// Which invariant broke.
        message: String,
    },
}

impl fmt::Display for GdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdpError::Metis(e) => write!(f, "graph partitioner failed: {e}"),
            GdpError::NoClusters => f.write_str("machine has no clusters"),
            GdpError::Internal { message } => write!(f, "internal invariant broken: {message}"),
        }
    }
}

impl Error for GdpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GdpError::Metis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mcpart_metis::MetisError> for GdpError {
    fn from(e: mcpart_metis::MetisError) -> Self {
        GdpError::Metis(e)
    }
}

/// A failure of the RHOP computation partitioner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RhopError {
    /// The schedule-estimator call budget
    /// ([`crate::RhopConfig::max_estimator_calls`]) ran out before the
    /// hierarchical passes converged.
    EstimatorBudgetExceeded {
        /// The configured budget.
        limit: u64,
    },
    /// An internal invariant of the hierarchical partitioner broke.
    Internal {
        /// Which invariant broke.
        message: String,
    },
    /// The unit watchdog fired: the partition exceeded its wall-clock
    /// ceiling and the shared budget refused further fuel charges.
    Aborted,
}

impl fmt::Display for RhopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RhopError::EstimatorBudgetExceeded { limit } => {
                write!(f, "estimator call budget of {limit} exhausted")
            }
            RhopError::Internal { message } => {
                write!(f, "internal invariant broken: {message}")
            }
            RhopError::Aborted => {
                f.write_str("unit watchdog aborted the partition (wall-clock ceiling exceeded)")
            }
        }
    }
}

impl Error for RhopError {}

/// The stage-specific cause of a [`PipelineError`].
#[derive(Clone, PartialEq, Debug)]
pub enum PipelineErrorKind {
    /// The input program failed structural verification.
    Verify(mcpart_ir::VerifyError),
    /// The profile does not fit the program.
    Profile(mcpart_analysis::AnalysisError),
    /// The machine description is unusable (e.g. zero clusters).
    Machine {
        /// What is wrong with it.
        message: String,
    },
    /// Global Data Partitioning failed.
    Gdp(GdpError),
    /// RHOP failed.
    Rhop(RhopError),
    /// The final placement violates the machine's execution rules.
    Placement(mcpart_sched::PlacementError),
    /// A validation run of the interpreter failed on either program
    /// variant (including exceeding its step budget).
    Exec(mcpart_sim::ExecError),
    /// The transformed program behaves differently from the original.
    SemanticsChanged,
    /// The attempt's wall-clock ceiling (`--unit-timeout`,
    /// [`crate::PipelineConfig::unit_timeout`]) fired: its watchdog
    /// aborted the attempt, which stopped at the next stage boundary.
    Timeout {
        /// The configured ceiling.
        ceiling: Duration,
    },
    /// A supervised worker panicked while running this method; the
    /// panic was caught (panic isolation), its obs events were
    /// withheld, and the payload preserved here.
    WorkerPanic {
        /// The rendered panic payload.
        payload: String,
    },
}

impl fmt::Display for PipelineErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineErrorKind::Verify(e) => write!(f, "program does not verify: {e}"),
            PipelineErrorKind::Profile(e) => write!(f, "{e}"),
            PipelineErrorKind::Machine { message } => write!(f, "unusable machine: {message}"),
            PipelineErrorKind::Gdp(e) => write!(f, "{e}"),
            PipelineErrorKind::Rhop(e) => write!(f, "{e}"),
            PipelineErrorKind::Placement(e) => write!(f, "invalid placement: {e}"),
            PipelineErrorKind::Exec(e) => write!(f, "validation run failed: {e}"),
            PipelineErrorKind::SemanticsChanged => {
                f.write_str("transformed program behaves differently from the original")
            }
            PipelineErrorKind::Timeout { ceiling } => write!(
                f,
                "attempt exceeded its {:.1} ms --unit-timeout ceiling",
                ceiling.as_secs_f64() * 1e3
            ),
            PipelineErrorKind::WorkerPanic { payload } => {
                write!(f, "worker panicked: {payload}")
            }
        }
    }
}

/// A pipeline failure with full provenance: which program, which
/// method, which stage, and why.
#[derive(Clone, PartialEq, Debug)]
pub struct PipelineError {
    /// Name of the program being compiled.
    pub program: String,
    /// The method that was running when the failure occurred (after a
    /// downgrade this is the fallback method, not the requested one).
    pub method: Method,
    /// The stage that failed.
    pub stage: Stage,
    /// The stage-specific cause.
    pub kind: PipelineErrorKind,
}

impl PipelineError {
    /// Whether the pipeline's degradation ladder may retry with a
    /// simpler method. Partitioning failures (budget exhaustion,
    /// invalid or semantics-breaking placements, stage timeouts) are
    /// recoverable; unusable *inputs* (verification, profile shape,
    /// machine description, interpreter failures on the original
    /// program) are not — a simpler method would fail the same way.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self.kind,
            PipelineErrorKind::Gdp(_)
                | PipelineErrorKind::Rhop(_)
                | PipelineErrorKind::Placement(_)
                | PipelineErrorKind::SemanticsChanged
                | PipelineErrorKind::Timeout { .. }
                | PipelineErrorKind::WorkerPanic { .. }
        )
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pipeline failed on `{}` during {}: {}",
            self.method, self.program, self.stage, self.kind
        )
    }
}

impl Error for PipelineError {}

/// One rung of the graceful-degradation ladder: the pipeline abandoned
/// `from` and retried with `to`.
#[derive(Clone, PartialEq, Debug)]
pub struct Downgrade {
    /// The method that failed.
    pub from: Method,
    /// The simpler method tried next.
    pub to: Method,
    /// Why `from` was abandoned (the rendered [`PipelineError`]).
    pub reason: String,
}

impl fmt::Display for Downgrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: PipelineErrorKind) -> PipelineError {
        PipelineError {
            program: "demo".into(),
            method: Method::Gdp,
            stage: Stage::DataPartition,
            kind,
        }
    }

    #[test]
    fn partitioning_failures_are_recoverable() {
        let e = sample(PipelineErrorKind::Gdp(GdpError::Metis(
            mcpart_metis::MetisError::BudgetExceeded { limit: 3 },
        )));
        assert!(e.is_recoverable());
        let e = sample(PipelineErrorKind::Timeout { ceiling: Duration::from_millis(1) });
        assert!(e.is_recoverable());
        assert!(
            e.to_string().ends_with("attempt exceeded its 1.0 ms --unit-timeout ceiling"),
            "{e}"
        );
    }

    #[test]
    fn input_failures_are_not_recoverable() {
        let e =
            sample(PipelineErrorKind::Profile(mcpart_analysis::AnalysisError::ProfileMismatch {
                message: "x".into(),
            }));
        assert!(!e.is_recoverable());
        let e = sample(PipelineErrorKind::Exec(mcpart_sim::ExecError::StepLimit));
        assert!(!e.is_recoverable());
    }

    #[test]
    fn worker_panics_are_recoverable() {
        let e = sample(PipelineErrorKind::WorkerPanic { payload: "boom".into() });
        assert!(e.is_recoverable(), "panics must feed the degradation ladder");
    }

    #[test]
    fn watchdog_abort_renders_and_recovers() {
        let e = sample(PipelineErrorKind::Rhop(RhopError::Aborted));
        assert!(e.is_recoverable());
        assert!(e.to_string().contains("watchdog"), "{e}");
    }

    #[test]
    fn errors_render_with_provenance() {
        let e = sample(PipelineErrorKind::Gdp(GdpError::NoClusters));
        let s = e.to_string();
        assert!(s.contains("GDP"), "{s}");
        assert!(s.contains("demo"), "{s}");
        assert!(s.contains("data partition"), "{s}");
    }
}
