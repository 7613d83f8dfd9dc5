//! # darms — Dynamic Resource Management for Network-Attached Accelerator Clusters
//!
//! A from-scratch, fully simulated reproduction of the ICPP 2013 paper
//! *"A Dynamic Resource Management System for Network-Attached Accelerator
//! Clusters"* (Prabhakaran, Iqbal, Rinke, Wolf): a TORQUE/Maui-style batch
//! system extended to allocate network-attached accelerators to jobs both
//! **statically** at submission time (`-l nodes=k:acpn=x`) and
//! **dynamically** at application runtime (`AC_Get`/`AC_Free` backed by
//! `pbs_dynget`/`pbs_dynfree`), on top of the Dynamic Accelerator-Cluster
//! architecture.
//!
//! This crate is the facade: [`Cluster`] wires together
//!
//! - [`darms_sim`] — deterministic process-oriented discrete-event engine,
//! - [`darms_net`] — hosts + interconnect model,
//! - [`darms_mpi`] — MPI-like runtime with MPI-2 dynamic process management,
//! - [`darms_rms`] — the TORQUE-like server/moms with the paper's extensions,
//! - [`darms_sched`] — the Maui-like scheduler with top-priority dynamic
//!   requests, priority/fairshare/backfill policies,
//! - [`darms_dac`] — accelerator devices, back-end daemons, the
//!   computation API and the resource-management library.
//!
//! ## Quickstart
//!
//! ```
//! use darms::prelude::*;
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let mut cluster = Cluster::build(ClusterConfig::fast(42).with_split(1, 2));
//! let dac = cluster.dac.clone();
//! let sum = Arc::new(Mutex::new(0.0));
//! let out = sum.clone();
//! let spec = JobSpec::synthetic("demo", SimDuration::from_secs(1))
//!     .acpn(2)
//!     .script(script(move |jc| {
//!         let dac = dac.clone();
//!         let out = out.clone();
//!         async move {
//!             // AC_Init: connect to the two statically allocated accelerators.
//!             let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
//!             let h = handles[0];
//!             let a = ses.mem_alloc(h, 16).await.unwrap();
//!             let b = ses.mem_alloc(h, 16).await.unwrap();
//!             let c = ses.mem_alloc(h, 16).await.unwrap();
//!             ses.mem_write(h, a, f64s_to_bytes(&[1.0, 2.0])).await.unwrap();
//!             ses.mem_write(h, b, f64s_to_bytes(&[10.0, 20.0])).await.unwrap();
//!             ses.kernel_run(h, "vector_add", KernelArgs::new(1, 2, vec![
//!                 Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(2),
//!             ])).await.unwrap();
//!             let r = as_f64s(&ses.mem_read(h, c, 16).await.unwrap());
//!             *out.lock() = r.iter().sum();
//!             ses.finalize();
//!         }
//!     }));
//! cluster.qsub(spec);
//! cluster.run();
//! assert_eq!(*sum.lock(), 33.0);
//! ```

#![warn(missing_docs)]

mod cluster;
mod config;
pub mod conformance;

pub use cluster::{ClientCtx, Cluster};
pub use config::{ClusterConfig, FabricConfig};

/// Everything a scenario or example typically needs.
pub mod prelude {
    pub use crate::{ClientCtx, Cluster, ClusterConfig, FabricConfig};
    pub use darms_dac::{
        as_f64s, f64s_to_bytes, AcHandle, AcSession, AcSet, DacError, DevPtr, KernelArgs, Param,
        TaskComm,
    };
    pub use darms_net::{FaultPlan, LinkFaults, Outage, Partition, RetryPolicy};
    pub use darms_rms::{
        script, ClientId, DeviceClass, JobCtx, JobId, JobSpec, JobState, JobStatus,
    };
    pub use darms_sim::{
        to_chrome_trace, to_json_lines, write_chrome_trace, write_json_lines, HistogramSummary,
        MetricsRegistry, SimDuration, SimStats, SimTime, TraceEvent, TraceEventKind, TraceSource,
        Tracer,
    };
}
