//! SWF trace replay as a library scenario.
//!
//! Extracted from the `swf_replay` binary so the perf-regression
//! harness and the trial sweeps can drive the same code path: generate
//! (or accept) a Standard Workload Format trace, push every job through
//! the batch system with a synthetic accelerator-demand overlay, and
//! summarise waits, turnaround and pool utilisation.

use darms::prelude::*;
use darms_workload::{
    overlay_accelerator_demand, parse_swf, to_swf, Dist, JobOutcome, WorkloadConfig, WorkloadReport,
};

use crate::invariants::Audit;

/// Parameters of one replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Jobs generated for the bundled trace (ignored when an external
    /// SWF text is supplied to [`replay_swf`]).
    pub jobs: usize,
    /// Seed for trace generation and the cluster run.
    pub seed: u64,
    /// Compute nodes in the testbed split.
    pub compute_nodes: usize,
    /// Accelerator pool size in the testbed split.
    pub pool: usize,
    /// Cores per compute node.
    pub cores_per_node: u32,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { jobs: 30, seed: 4242, compute_nodes: 3, pool: 4, cores_per_node: 8 }
    }
}

/// Result of one replay run.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Workload-level summary (waits, turnaround, makespan, pool use).
    pub report: WorkloadReport,
    /// Engine statistics of the run.
    pub stats: SimStats,
    /// Total jobs replayed.
    pub jobs: usize,
    /// Jobs carrying accelerator demand after the overlay.
    pub acc_jobs: usize,
    /// Accelerator pool size used.
    pub pool: usize,
}

/// The bundled demo trace for `cfg`: a generated workload exported to
/// SWF, round-tripping through the printer/parser exactly like a real
/// Parallel Workloads Archive trace would.
pub fn bundled_trace(cfg: &ReplayConfig) -> String {
    let mut jobs = WorkloadConfig::cpu_only().generate(cfg.jobs, cfg.seed);
    for j in &mut jobs {
        j.nodes = j.nodes.min(cfg.compute_nodes);
        j.ppn = j.ppn.min(cfg.cores_per_node);
    }
    to_swf(&jobs, cfg.cores_per_node)
}

/// Replay the bundled trace for `cfg`.
pub fn replay(cfg: &ReplayConfig) -> ReplayOutcome {
    replay_swf(&bundled_trace(cfg), cfg)
}

/// [`replay`] with structured tracing enabled; returns the drained
/// event stream alongside the outcome (for the golden-trace
/// determinism test).
pub fn replay_traced(cfg: &ReplayConfig) -> (ReplayOutcome, Vec<TraceEvent>) {
    replay_swf_run(&bundled_trace(cfg), cfg, true)
}

/// Replay an SWF `text` through the batch system under `cfg`.
///
/// SWF predates network-attached accelerators, so 40% of the jobs get a
/// synthetic accelerator-demand overlay (1–2 accelerators per node,
/// fixed overlay seed) to exercise the DAC path.
pub fn replay_swf(text: &str, cfg: &ReplayConfig) -> ReplayOutcome {
    replay_swf_run(text, cfg, false).0
}

fn replay_swf_run(text: &str, cfg: &ReplayConfig, trace: bool) -> (ReplayOutcome, Vec<TraceEvent>) {
    let mut jobs = parse_swf(text, cfg.cores_per_node).expect("valid SWF");
    overlay_accelerator_demand(&mut jobs, 0.4, &Dist::Choice(vec![(2.0, 1.0), (1.0, 2.0)]), 7);

    let mut cluster_cfg =
        ClusterConfig::paper_testbed(cfg.seed).with_split(cfg.compute_nodes, cfg.pool);
    if trace {
        cluster_cfg = cluster_cfg.with_trace();
    }
    let mut cluster = Cluster::build(cluster_cfg);
    let dac = cluster.dac.clone();
    let pool = cluster.accs.len();
    let n_jobs = jobs.len();
    let acc_jobs = jobs.iter().filter(|j| j.acpn > 0).count();

    for (i, t) in jobs.iter().enumerate() {
        let nodes = t.nodes.min(cfg.compute_nodes);
        let acpn = t.acpn.min((pool / nodes) as u32);
        let runtime = t.runtime;
        let d = dac.clone();
        let spec = JobSpec::synthetic(format!("swf{i:03}"), runtime)
            .owner(&t.owner)
            .nodes(nodes)
            .ppn(t.ppn.min(cfg.cores_per_node))
            .acpn(acpn)
            .walltime(t.walltime_estimate)
            .script(script(move |mut jc| {
                let d = d.clone();
                async move {
                    let (ses, handles) = AcSession::init(&jc, &d, None).await;
                    assert_eq!(handles.len(), jc.acc_hosts.len());
                    let _ = jc.sleep_interruptible(runtime).await;
                    ses.finalize();
                }
            }));
        cluster.qsub_after(t.arrival, spec);
    }

    let audit =
        Audit::watch(&mut cluster, n_jobs, SimDuration::from_secs(1), SimDuration::from_secs(30));
    let (stats, audited) = audit.run(&mut cluster);
    audited.assert_clean("replay");
    let events = cluster.sim.take_events();

    let outcomes: Vec<JobOutcome> = audited
        .statuses
        .iter()
        .map(|s| JobOutcome {
            submitted: s.submitted,
            started: s.started,
            completed: s.completed,
            nodes: s.compute_hosts.len(),
            accs: s.static_accs.iter().map(Vec::len).sum(),
        })
        .collect();
    let report = WorkloadReport::from_outcomes(&outcomes).expect("jobs completed");
    (ReplayOutcome { report, stats, jobs: n_jobs, acc_jobs, pool }, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_is_deterministic() {
        let cfg = ReplayConfig { jobs: 6, seed: 99, ..ReplayConfig::default() };
        let a = replay(&cfg);
        let b = replay(&cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.report, b.report);
        assert_eq!(a.jobs, 6);
        assert!(a.report.finished > 0);
    }
}
