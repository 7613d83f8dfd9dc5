//! # darms-experiments — the paper's evaluation, regenerated
//!
//! One scenario function per figure of §IV, each runnable standalone
//! (`cargo run -p darms-experiments --bin fig7a` etc.) and shared by the
//! tests and `perf_report`. All scenarios run on the paper-calibrated cost
//! models and average over multiple seeded trials, mirroring the paper's
//! "average over 10 trials".

#![warn(missing_docs)]

pub mod chaos;
pub mod datacenter;
pub mod extended;
pub mod fabric;
pub mod figures;
pub mod golden;
pub mod hostmem;
pub mod invariants;
pub mod replay;
pub mod runner;
pub mod soak;

pub use chaos::{run_chaos, run_chaos_checked};
pub use datacenter::{run_datacenter, DatacenterConfig, DatacenterOutcome};
pub use fabric::{dispatch_latency_trial, fabric_sweep, mixed_fabric_traced, FabricLatencyRow};
pub use figures::{fig7a, fig7b, fig8, fig9, Fig7Row, Fig8Row, Fig9Row, TRIALS};
pub use replay::{replay, replay_swf, ReplayConfig, ReplayOutcome};
pub use soak::{
    matrix, replay_bundle, run_cell, run_cell_checked, write_triage_bundle, BundleReplay,
    CellOutcome, FaultClass, SoakCell, WorkloadClass,
};
