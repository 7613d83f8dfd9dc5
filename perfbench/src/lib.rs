//! The darms benchmark: seeded cluster workloads driven through the
//! simulator's public front door, with end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one. See README.md
//! for the workloads, the metrics and what each layer should move.

mod assemble;
pub mod instance;
pub mod report;
mod script;
pub mod workload;
