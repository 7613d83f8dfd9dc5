//! # darms-sim — deterministic process-oriented discrete-event simulation
//!
//! The substrate every other `darms` crate runs on. It provides:
//!
//! - a virtual clock ([`SimTime`], [`SimDuration`]);
//! - an event heap ordered by `(time, sequence)` for deterministic
//!   simultaneous-event handling;
//! - **reactive actors** ([`Actor`]) — state machines dispatched inline,
//!   used for daemons such as `pbs_server`, `pbs_mom` and the scheduler;
//! - **stackless processes** ([`Proc`]) — `async` bodies with awaitable
//!   `sleep`/`recv`, used for sequential logic such as user applications
//!   and MPI ranks. The bodies are futures polled one at a time by a
//!   purpose-built single-threaded executor inside the engine (no OS
//!   threads, no `Send` bounds), so runs are bit-for-bit reproducible
//!   for a given seed;
//! - a seeded RNG, an optional event trace, and a [`Recorder`] for
//!   collecting experiment measurements;
//! - an observability layer: a structured event stream ([`Tracer`],
//!   exported as JSON-lines or Chrome `trace_event` via [`export`]), a
//!   [`MetricsRegistry`] of counters / gauges / time-weighted gauges /
//!   histograms, and engine profiling counters in [`SimStats`].
//!
//! ## Example
//!
//! ```
//! use darms_sim::{Engine, SimDuration};
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let mut sim = Engine::with_seed(7);
//! let out = Arc::new(Mutex::new(0u32));
//! let o = out.clone();
//! let server = sim.spawn_process("server", |p| async move {
//!     let (n, src) = p.recv_as::<u32>().await;
//!     p.send(src.unwrap(), n + 1, SimDuration::from_millis(1));
//! });
//! sim.spawn_process("client", move |p| async move {
//!     p.send(server.into(), 41u32, SimDuration::from_millis(1));
//!     let (n, _) = p.recv_as::<u32>().await;
//!     *o.lock() = n;
//! });
//! sim.run();
//! assert_eq!(*out.lock(), 42);
//! ```

#![warn(missing_docs)]

mod actor;
mod engine;
mod envelope;
pub mod export;
mod kernel;
pub mod metrics;
mod process;
mod queue;
mod recorder;
mod time;
pub mod trace;

pub use actor::{Actor, Ctx};
pub use engine::Engine;
pub use envelope::{ActorId, Endpoint, Envelope, ProcessId};
pub use export::{to_chrome_trace, to_json_lines, write_chrome_trace, write_json_lines};
pub use kernel::{Kernel, PollWaiter, SimConfig, SimStats};
pub use metrics::{
    exact_quantile, Counter, HistogramSummary, MetricsRegistry, QuantileEstimator, SloSummary,
};
pub use process::{Proc, ProcFuture};
pub use recorder::{percentile, Recorder, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceEventKind, TraceSource, Tracer};
