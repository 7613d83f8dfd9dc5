//! Seeded job streams for the four benchmark workloads.
//!
//! Every workload uses the datacenter job shapes: diurnal arrivals,
//! 1/2/4-node jobs, static `acpn` 0–2 and log-normal runtimes, on a
//! cluster whose accelerator pool is a quarter of its hosts. The
//! workloads differ in host count, job volume, the share of jobs that
//! call `AC_Get`/`AC_Free`, and how many times they call it.

use darms_experiments::datacenter::diurnal_arrivals;
use darms_sim::SimDuration;
use darms_workload::Dist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1k hosts, thousands of static jobs queued at the peak.
    DeepQueue,
    /// Every job loops `AC_Get`/`AC_Free`; the pool saturates.
    DynChurn,
    /// 10k hosts, the standard mix at moderate volume.
    Wide10k,
    /// Every job dynamic, offered load beyond the pool.
    Overload,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::DeepQueue, Workload::DynChurn, Workload::Wide10k, Workload::Overload];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepQueue => "deep_queue",
            Workload::DynChurn => "dyn_churn",
            Workload::Wide10k => "wide_10k",
            Workload::Overload => "overload",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The full-size shape of this workload.
    pub fn shape(self) -> Shape {
        match self {
            // Static jobs, plus a light probe of single AC_Gets that
            // measures the dynamic-request wait while Maui is busy with a
            // deep queue (the paper's Fig. 8 effect). The probe jobs'
            // walltime covers that wait, so the probe never turns this
            // workload into an overload one.
            Workload::DeepQueue => Shape {
                hosts: 1000,
                jobs: 8000,
                dyn_share: 0.03,
                gets: 1,
                dyn_walltime_slack_s: 4 * 3600,
                horizon_s: 8 * 3600,
                instances: 12,
            },
            Workload::DynChurn => Shape {
                hosts: 600,
                jobs: 1200,
                dyn_share: 1.0,
                gets: 4,
                dyn_walltime_slack_s: 0,
                horizon_s: 6 * 3600,
                instances: 16,
            },
            Workload::Wide10k => Shape {
                hosts: 10_000,
                jobs: 2000,
                dyn_share: 0.25,
                gets: 1,
                dyn_walltime_slack_s: 0,
                horizon_s: 6 * 3600,
                instances: 12,
            },
            Workload::Overload => Shape {
                hosts: 1000,
                jobs: 2500,
                dyn_share: 1.0,
                gets: 4,
                dyn_walltime_slack_s: 0,
                horizon_s: 4500,
                instances: 10,
            },
        }
    }
}

/// Size and mix of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Compute plus accelerator hosts; a quarter form the pool.
    pub hosts: usize,
    /// Jobs submitted over one diurnal day.
    pub jobs: usize,
    /// Share of jobs whose mother superior calls `AC_Get`.
    pub dyn_share: f64,
    /// `AC_Get`/`AC_Free` loops per dynamic job.
    pub gets: u32,
    /// Extra walltime given to dynamic jobs (s).
    pub dyn_walltime_slack_s: u64,
    /// Simulated-time horizon; a run still busy there ends there.
    pub horizon_s: u64,
    /// Instances (sub-seeds) one benchmark run measures.
    pub instances: usize,
}

impl Shape {
    /// Accelerator pool size.
    pub fn pool(&self) -> usize {
        (self.hosts / 4).max(1)
    }

    /// Compute-node count.
    pub fn compute(&self) -> usize {
        (self.hosts - self.pool()).max(1)
    }
}

/// Length of the compressed diurnal day the arrivals follow.
pub const DAY: SimDuration = SimDuration::from_secs(3600);
/// Cores per compute node.
pub const CORES_PER_NODE: u32 = 8;
/// Fairshare owners, assigned round-robin.
const OWNERS: [&str; 4] = ["ops", "sim", "ml", "cfd"];

/// One generated job.
#[derive(Clone, Debug)]
pub struct JobPlan {
    /// Scheduled arrival at the front door.
    pub arrival: SimDuration,
    /// Fairshare owner.
    pub owner: &'static str,
    /// Compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub ppn: u32,
    /// Static accelerators per node.
    pub acpn: u32,
    /// Run time of the script's sleeps.
    pub runtime: SimDuration,
    /// Walltime estimate given to the batch system.
    pub walltime: SimDuration,
    /// `AC_Get`/`AC_Free` loops of the mother superior (0 = static job).
    pub gets: u32,
    /// Accelerators asked for by each `AC_Get`.
    pub get_count: u32,
}

/// A generated instance: cluster shape plus job stream.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload shape.
    pub shape: Shape,
    /// Jobs in arrival order.
    pub jobs: Vec<JobPlan>,
}

impl Plan {
    /// Generate the job stream of `shape` from `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Plan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbe9c_4d0c);
        let arrivals = diurnal_arrivals(shape.jobs, DAY, &mut rng);
        let nodes_dist = Dist::Choice(vec![(6.0, 1.0), (3.0, 2.0), (1.0, 4.0)]);
        let ppn_dist = Dist::Choice(vec![(1.0, 2.0), (1.0, 4.0), (2.0, 8.0)]);
        let acpn_dist = Dist::Choice(vec![(7.0, 0.0), (2.0, 1.0), (1.0, 2.0)]);
        let runtime_dist = Dist::LogNormal { mu: 5.0, sigma: 0.6 };
        let (compute, pool) = (shape.compute(), shape.pool());
        let jobs = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let nodes = (nodes_dist.sample_int(&mut rng, 1) as usize).min(compute);
                let ppn = (ppn_dist.sample_int(&mut rng, 1) as u32).min(CORES_PER_NODE);
                let acpn = (acpn_dist.sample_int(&mut rng, 0) as u32).min((pool / nodes) as u32);
                let runtime_s = runtime_dist.sample(&mut rng).clamp(45.0, 900.0);
                let dynamic = rng.gen_bool(shape.dyn_share);
                let get_count = 1 + u32::from(rng.gen_bool(0.3));
                JobPlan {
                    arrival,
                    owner: OWNERS[i % OWNERS.len()],
                    nodes,
                    ppn,
                    acpn,
                    runtime: SimDuration::from_secs_f64(runtime_s),
                    walltime: SimDuration::from_secs_f64(
                        runtime_s * 2.0
                            + 120.0
                            + if dynamic { shape.dyn_walltime_slack_s as f64 } else { 0.0 },
                    ),
                    gets: if dynamic { shape.gets } else { 0 },
                    get_count,
                }
            })
            .collect();
        Plan { shape, jobs }
    }
}
