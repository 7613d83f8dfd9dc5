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
//! - a seeded RNG and an optional event trace;
//! - an observability layer: a structured event stream ([`Tracer`],
//!   exported as JSON-lines or Chrome `trace_event` via [`export`]), a
//!   [`MetricsRegistry`] of counters / gauges / time-weighted gauges /
//!   histograms — the one store of experiment measurements — and engine
//!   profiling counters in [`SimStats`].
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
mod time;
pub mod trace;

pub use actor::{Actor, Ctx};
pub use engine::Engine;
pub use envelope::{ActorId, Endpoint, Envelope, ProcessId};
pub use export::{to_chrome_trace, to_json_lines, write_chrome_trace, write_json_lines};
pub use kernel::{Kernel, PollWaiter, SimConfig, SimStats};
pub use metrics::{
    exact_quantile, percentile, Counter, HistogramSummary, MetricsRegistry, SloSummary,
};
pub use process::{Proc, ProcFuture};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceEventKind, TraceSource, Tracer};

/// The old name of the sample store, kept only because the frozen
/// `perfbench/` package still builds one; it goes with ROADMAP item 2.
pub type Recorder = MetricsRegistry;

/// What the frozen `perfbench/` package relies on: a [`Recorder`] is a
/// registry whose histograms record and summarise samples.
#[cfg(test)]
mod recorder {
    mod tests {
        use crate::{Recorder, SimDuration};

        #[test]
        fn record_and_summarise() {
            let r = Recorder::new();
            for v in [1.0, 2.0, 3.0, 4.0] {
                r.observe("x", v);
            }
            let s = r.histogram("x").unwrap();
            assert_eq!(s.count, 4);
            assert!((s.mean - 2.5).abs() < 1e-12);
            assert_eq!(s.min, 1.0);
            assert_eq!(s.max, 4.0);
            assert!((s.p50 - 2.5).abs() < 1e-12);
        }

        #[test]
        fn empty_series_has_no_summary() {
            let r = Recorder::new();
            assert!(r.histogram("missing").is_none());
            assert!(r.histogram_samples("missing").is_empty());
        }

        #[test]
        fn durations_stored_as_seconds() {
            let r = Recorder::new();
            r.observe_duration("d", SimDuration::from_millis(250));
            assert_eq!(r.histogram_samples("d"), vec![0.25]);
        }
    }
}
