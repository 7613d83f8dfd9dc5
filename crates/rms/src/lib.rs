//! # darms-rms — a TORQUE-like resource management system
//!
//! The substrate half of the paper's contribution: a batch-system resource
//! manager with a head-node server ([`PbsServer`]) and per-host moms
//! ([`PbsMom`]), extended exactly as §III describes:
//!
//! - the `acpn` job attribute requesting network-attached accelerators;
//! - `pbs_dynget` / `pbs_dynfree` IFL calls for runtime (de)allocation;
//! - a `dynqueued` job state and *serial* server-side servicing of
//!   dynamic requests (the behaviour behind Fig. 9);
//! - `DYNJOIN_JOB` / `DISJOIN_JOB` mom protocols for dynamic
//!   (dis)association of hosts with a running job, including database
//!   updates at the existing sister moms;
//! - mother-superior-driven accelerator daemon startup via the
//!   [`AcDaemonStarter`] hook (implemented by `darms-dac`), keeping the
//!   RMS accelerator-architecture agnostic.
//!
//! The scheduler (Maui analogue) lives in `darms-sched` and talks to the
//! server through the messages in [`proto`].

#![warn(missing_docs)]

pub mod cost;
pub mod fs;
pub mod ifl;
pub mod job;
pub mod mom;
pub mod monitor;
pub mod nodes;
pub mod proto;
pub mod server;

pub use cost::RmsCostModel;
pub use fs::PseudoFs;
pub use job::{script, ClientId, DynSet, JobId, JobScript, JobSpec, JobState, JobStatus};
pub use mom::{AcDaemonStarter, JobCtx, PbsMom, StaticDaemonRequest};
pub use monitor::{HealthMonitor, MonitorConfig};
pub use nodes::{NodeDb, NodeRecord, NodeRole};
pub use proto::DeviceClass;
pub use server::PbsServer;

use std::collections::BTreeMap;

use darms_net::{ports, Address, HostId};

/// `map.remove(key)`, freeing the map's last B-tree leaf once it empties.
/// A `BTreeMap` keeps its root leaf allocated after its last entry goes,
/// so a per-host map would hold one for the rest of the run on every
/// host that was ever busy (DESIGN.md §14, "Memory per host").
pub(crate) fn remove_compact<K: Ord, V>(map: &mut BTreeMap<K, V>, key: &K) -> Option<V> {
    let v = map.remove(key);
    if map.is_empty() {
        *map = BTreeMap::new();
    }
    v
}

/// The server's well-known address on the head node.
pub fn server_addr(head: HostId) -> Address {
    Address::new(head, ports::PBS_SERVER)
}

/// A mom's well-known address on its host.
pub fn mom_addr(host: HostId) -> Address {
    Address::new(host, ports::PBS_MOM)
}

/// The scheduler's well-known address on the head node.
pub fn sched_addr(head: HostId) -> Address {
    Address::new(head, ports::SCHEDULER)
}

/// The health monitor's well-known address on the head node.
pub fn monitor_addr(head: HostId) -> Address {
    Address::new(head, ports::MONITOR)
}
