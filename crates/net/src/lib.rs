//! # darms-net — the simulated cluster interconnect
//!
//! Models the hardware substrate of the paper's testbed: a set of hosts
//! (head node, compute nodes, network-attached accelerators) joined by an
//! interconnect with configurable latency, bandwidth and jitter
//! ([`LatencyModel`]), a service registry mapping `(host, port)` addresses
//! to simulation endpoints, and fault injection (host failures, packet
//! loss) for robustness tests.
//!
//! Everything above this crate (the MPI runtime, TORQUE-like RMS, the
//! accelerator daemons) communicates exclusively through [`Network`],
//! which schedules deliveries on the [`darms_sim`] event queue.
//!
//! ```
//! use darms_net::{Address, HostKind, LatencyModel, Network, Port};
//! use darms_sim::Engine;
//!
//! let mut sim = Engine::with_seed(1);
//! let net = Network::new(LatencyModel::ideal(), 1);
//! let h1 = net.add_host("cn01", HostKind::Compute);
//! let h2 = net.add_host("ac01", HostKind::Accelerator);
//! let rx = sim.spawn_process("service", |p| async move {
//!     let (n, _) = p.recv_as::<u32>().await;
//!     assert_eq!(n, 7);
//! });
//! let addr = Address::new(h2, Port(9000));
//! net.bind(addr, rx.into());
//! let n2 = net.clone();
//! sim.spawn_process("client", move |p| async move {
//!     assert!(n2.send_from_proc(&p, h1, addr, 7u32, 64).is_sent());
//! });
//! let stats = sim.run();
//! assert_eq!(stats.process_panics, 0);
//! ```

#![warn(missing_docs)]

mod dense;
mod fault;
mod host;
mod latency;
mod network;

pub use dense::{BitSet, HostSlots};
pub use fault::{Admit, FaultPlan, LinkFaults, Outage, Partition, ReplyCache, RetryPolicy};
pub use host::{ports, Address, Host, HostId, HostKind, Port};
pub use latency::LatencyModel;
pub use network::{NetStats, Network, SendOutcome};
