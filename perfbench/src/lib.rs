//! # mcpart-perfbench — the repository benchmark
//!
//! Three workloads measure the compiler end to end with tracing off,
//! and a separate traced run splits the same work into layers by
//! calling each layer's public function itself, in `run_pipeline`'s
//! order, with a span from this crate around every call. See
//! `WORKLOADS.md` next to this crate for why each workload exists and
//! which layer metric should move which end-to-end metric.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod report;
pub mod stages;
pub mod trace;
pub mod workloads;
