//! Processing-time constants for the DAC software stack.

use darms_sim::SimDuration;

/// Costs of the accelerator daemons and the front-end library.
#[derive(Clone, Debug)]
pub struct DacCostModel {
    /// Daemon startup on an accelerator node: process launch, device
    /// context creation, `MPI_Init`. Dominates the waiting portion of
    /// `AC_Init()` in the paper's Fig. 7(a).
    pub daemon_startup: SimDuration,
    /// Stagger between consecutive daemon starts of one set (the mother
    /// superior starts them sequentially) — the per-accelerator growth of
    /// Fig. 7(a).
    pub daemon_stagger: SimDuration,
    /// Relative jitter on daemon startup (process creation and device
    /// context initialisation vary run to run on real nodes; this is the
    /// trial-to-trial variance visible in the paper's averaged bars).
    pub startup_jitter: f64,
    /// Interval at which `AC_Init()` polls for the port file: it sees
    /// the file at the first tick after the daemon root writes it. The
    /// wait itself costs no events (`Proc::poll_until`).
    pub port_poll: SimDuration,
    /// Daemon-side handling of one computation request.
    pub request_overhead: SimDuration,
    /// Front-end per-request bookkeeping.
    pub frontend_overhead: SimDuration,
    /// Chunk size of the pipelined transfer protocol (\[7\]).
    pub chunk_bytes: u64,
    /// Overlap device copies with the wire transfer (the pipelined
    /// protocol of \[7\]); disabled by the transfer ablation study.
    pub pipelined: bool,
    /// How long the front end waits for a daemon reply before declaring
    /// the accelerator lost (fault tolerance; the paper's future work).
    pub request_timeout: SimDuration,
    /// Wire size modelled for small control requests.
    pub ctl_bytes: u64,
    /// One-time setup cost of a hardware-multicast broadcast (rank-fabric
    /// replication programming). A multicast-capable backend pays this
    /// once per broadcast regardless of fan-out; a unicast backend
    /// instead serialises a device read-back per peer.
    pub multicast_setup: SimDuration,
}

impl DacCostModel {
    /// Calibrated against the paper's testbed.
    pub fn paper_testbed() -> Self {
        DacCostModel {
            daemon_startup: SimDuration::from_millis(110),
            daemon_stagger: SimDuration::from_millis(28),
            startup_jitter: 0.12,
            port_poll: SimDuration::from_millis(2),
            request_overhead: SimDuration::from_micros(50),
            frontend_overhead: SimDuration::from_micros(20),
            chunk_bytes: 1 << 20,
            pipelined: true,
            request_timeout: SimDuration::from_secs(5),
            ctl_bytes: 128,
            multicast_setup: SimDuration::from_micros(80),
        }
    }

    /// Near-zero costs for logic-focused tests.
    pub fn instant() -> Self {
        DacCostModel {
            daemon_startup: SimDuration::ZERO,
            daemon_stagger: SimDuration::ZERO,
            startup_jitter: 0.0,
            port_poll: SimDuration::from_micros(100),
            request_overhead: SimDuration::ZERO,
            frontend_overhead: SimDuration::ZERO,
            chunk_bytes: 1 << 20,
            pipelined: true,
            request_timeout: SimDuration::from_secs(5),
            ctl_bytes: 0,
            multicast_setup: SimDuration::ZERO,
        }
    }
}

impl Default for DacCostModel {
    fn default() -> Self {
        DacCostModel::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = DacCostModel::paper_testbed();
        assert!(p.daemon_startup > p.daemon_stagger);
        assert!(p.port_poll < p.daemon_stagger);
        assert!(DacCostModel::instant().daemon_startup.is_zero());
    }
}
