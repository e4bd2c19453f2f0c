//! End-to-end and per-layer benchmark of the PQS-DA serving path.
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! timing basis of each workload.

pub mod cpu;
pub mod kernel;
pub mod meter;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;
