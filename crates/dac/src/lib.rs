//! # darms-dac — the Dynamic Accelerator-Cluster architecture
//!
//! The accelerator half of the paper: network-attached accelerators
//! (host CPU + GPU-like device, Fig. 1(b)) exposed to compute nodes
//! through a transparent offload stack (Fig. 3):
//!
//! - [`AccDevice`]: the device model — real byte buffers, a bounds-checked
//!   allocator, and bandwidth/FLOP parameters for timing;
//! - [`KernelRegistry`]: named compute kernels with a cost model *and* a
//!   functional body, so offloaded work produces verifiable results;
//! - the **back-end daemon** ([`DAEMON_EXE`]): runs on each
//!   accelerator, executes computation requests arriving over MPI;
//! - [`AcSession`]: the compute-node front-end — the computation API
//!   (`mem_alloc`/`mem_write`/`kernel_run`/...) and the
//!   resource-management API (`AC_Init`/`AC_Get`/`AC_Free`/`AC_Finalize`)
//!   built on MPI-2 dynamic process management exactly as §III describes;
//! - [`DacStarter`]: the mother superior's hook for starting static
//!   daemon sets.

#![warn(missing_docs)]

pub mod backend;
pub mod collective;
pub mod cost;
pub mod device;
pub mod frontend;
pub mod kernel;
pub mod runtime;
pub mod starter;

pub use backend::{Backend, SliceId};
pub use collective::TaskComm;
pub use cost::DacCostModel;
pub use device::{as_f64s, f64s_to_bytes, AccDevice, DevError, DevPtr, DeviceProps};
pub use frontend::{AcHandle, AcSession, AcSet, DacError, Launch};
pub use kernel::{register_builtins, Kernel, KernelArgs, KernelRegistry, Param};
pub use runtime::{DacRuntime, FabricHostSpec, DAEMON_EXE};
pub use starter::DacStarter;
