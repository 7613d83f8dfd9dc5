//! Datacenter-scale scenario: a synthetic front door drives a
//! 1k/10k-host cluster with a diurnal load curve of qsub submissions
//! plus dynamic `AC_Get`/`AC_Free` traffic, and the run goes to
//! quiescence. This is the macro benchmark behind the `datacenter` row
//! of `BENCH_sim.json` — it measures the whole stack (kernel hot path,
//! server indexes, scheduler free-pools) at a scale where any O(hosts)
//! or O(jobs) scan left on a per-event path dominates immediately.
//!
//! Scale discipline: the front-door volume is *fixed* across scales
//! (same diurnal job curve at 1k and 10k hosts), so the 10k-vs-1k
//! per-event wall ratio isolates the cost of **hosts** — snapshots,
//! free-pool maintenance, node indexes — which `perf_report` prints as
//! a number, not a gate. Scaling the job count instead is a *load*
//! knob: a Maui-style scheduler rescans its queue every iteration, so
//! deeper queues grow both the per-iteration work and the iteration
//! count, quadratically in load at any cluster size.
//! No health monitor and no fault plan: the cluster quiesces on its
//! own once the last job drains. Every run is audited
//! ([`crate::invariants::Audit`]); a run still busy at the [`HORIZON`]
//! is wedged, and fails its audit with a stuck-run summary.

use darms::prelude::*;
use darms_workload::Dist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::invariants::Audit;

/// Parameters of one datacenter run.
#[derive(Clone, Copy, Debug)]
pub struct DatacenterConfig {
    /// Total hosts (compute + accelerator, excluding the head node).
    /// A quarter of them form the accelerator pool.
    pub hosts: usize,
    /// Seed for workload generation and the cluster run.
    pub seed: u64,
    /// Jobs submitted over one diurnal period. The default is a fixed
    /// volume (2000) independent of `hosts`: see the module docs for
    /// why the scale comparison holds the workload constant.
    pub jobs: usize,
    /// The compressed "day": arrivals follow one full sine period of
    /// this length (trough at both ends, peak mid-day).
    pub day: SimDuration,
}

impl DatacenterConfig {
    /// Scenario at `hosts` total hosts with the standard fixed
    /// front-door volume.
    pub fn at_scale(hosts: usize, seed: u64) -> Self {
        DatacenterConfig { hosts, seed, jobs: 2000, day: SimDuration::from_secs(3600) }
    }

    /// Accelerator pool size (a quarter of the hosts).
    pub fn pool(&self) -> usize {
        (self.hosts / 4).max(1)
    }

    /// Compute-node count (the remaining hosts).
    pub fn compute_nodes(&self) -> usize {
        (self.hosts - self.pool()).max(1)
    }
}

/// Result of one datacenter run.
#[derive(Clone, Debug)]
pub struct DatacenterOutcome {
    /// Engine statistics of the run.
    pub stats: SimStats,
    /// Messages the network delivered over the run (duplicates count).
    pub messages: u64,
    /// Jobs submitted.
    pub jobs: usize,
    /// Processes still running when the engine stopped.
    pub still_running: u64,
    /// Jobs that issued a dynamic `AC_Get` mid-run.
    pub dyn_jobs: usize,
    /// Compute-node count.
    pub compute_nodes: usize,
    /// Accelerator pool size.
    pub pool: usize,
}

/// Simulated-time horizon of a run, as for the benchmark's workloads: a
/// run that has not quiesced by then is wedged.
pub const HORIZON: SimDuration = SimDuration::from_secs(6 * 3600);

/// Number of slices the diurnal curve is discretized into.
const SLICES: usize = 48;

/// Distribute `n` arrivals over one `day` following a diurnal curve:
/// per-slice weights `1 + 0.85·sin(2π·x − π/2)` (quiet at the day's
/// edges, peak mid-day), integer counts by largest remainder, uniform
/// seeded jitter within each slice. Returned sorted ascending.
pub fn diurnal_arrivals(n: usize, day: SimDuration, rng: &mut SmallRng) -> Vec<SimDuration> {
    let weights: Vec<f64> = (0..SLICES)
        .map(|s| {
            let x = (s as f64 + 0.5) / SLICES as f64;
            1.0 + 0.85 * (std::f64::consts::TAU * x - std::f64::consts::FRAC_PI_2).sin()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    // Largest-remainder apportionment of n jobs to slices.
    let mut counts: Vec<usize> = Vec::with_capacity(SLICES);
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(SLICES);
    let mut assigned = 0usize;
    for (s, w) in weights.iter().enumerate() {
        let exact = n as f64 * w / total;
        let base = exact.floor() as usize;
        counts.push(base);
        assigned += base;
        remainders.push((s, exact - base as f64));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    for &(s, _) in remainders.iter().take(n - assigned) {
        counts[s] += 1;
    }
    let slice_secs = day.as_secs_f64() / SLICES as f64;
    let mut out = Vec::with_capacity(n);
    for (s, &c) in counts.iter().enumerate() {
        let start = s as f64 * slice_secs;
        let mut in_slice: Vec<f64> =
            (0..c).map(|_| start + rng.gen::<f64>() * slice_secs).collect();
        in_slice.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out.extend(in_slice.into_iter().map(SimDuration::from_secs_f64));
    }
    out
}

/// Run the datacenter scenario to quiescence.
pub fn run_datacenter(cfg: &DatacenterConfig) -> DatacenterOutcome {
    let compute_nodes = cfg.compute_nodes();
    let pool = cfg.pool();
    let cores_per_node = 8u32;

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xdc_0dc0);
    let arrivals = diurnal_arrivals(cfg.jobs, cfg.day, &mut rng);

    // Job-shape distributions: mostly small jobs, a tail of wider ones;
    // runtimes of minutes so several diurnal phases overlap in flight.
    let nodes_dist = Dist::Choice(vec![(6.0, 1.0), (3.0, 2.0), (1.0, 4.0)]);
    let ppn_dist = Dist::Choice(vec![(1.0, 2.0), (1.0, 4.0), (2.0, 8.0)]);
    let acpn_dist = Dist::Choice(vec![(7.0, 0.0), (2.0, 1.0), (1.0, 2.0)]);
    let runtime_dist = Dist::LogNormal { mu: 5.0, sigma: 0.6 };

    let mut cluster_cfg = ClusterConfig::paper_testbed(cfg.seed).with_split(compute_nodes, pool);
    cluster_cfg.cores_per_node = cores_per_node;
    // One poll chain, not one per wake-up: without coalescing, every
    // event-driven scheduler wake spawns another 10s poll chain and the
    // scheduler degenerates into a busy loop of O(hosts) snapshots.
    cluster_cfg.sched.poll_coalesce = true;
    cluster_cfg.sched.incremental_snapshots = true;
    cluster_cfg.sim.horizon = SimTime::ZERO + HORIZON;
    let mut cluster = Cluster::build(cluster_cfg);
    let dac = cluster.dac.clone();

    let mut dyn_jobs = 0usize;
    for (i, arrival) in arrivals.iter().enumerate() {
        let nodes = (nodes_dist.sample_int(&mut rng, 1) as usize).min(compute_nodes);
        let ppn = (ppn_dist.sample_int(&mut rng, 1) as u32).min(cores_per_node);
        let acpn = (acpn_dist.sample_int(&mut rng, 0) as u32).min((pool / nodes) as u32);
        let runtime_s = runtime_dist.sample(&mut rng).clamp(45.0, 900.0);
        let runtime = SimDuration::from_secs_f64(runtime_s);
        let walltime = SimDuration::from_secs_f64(runtime_s * 2.0 + 120.0);
        // A quarter of the jobs exercise the dynamic path: AC_Get a
        // couple of accelerators mid-run, AC_Free before exiting.
        let dynamic = rng.gen_bool(0.25);
        let dyn_count = 1 + u32::from(rng.gen_bool(0.3));
        dyn_jobs += usize::from(dynamic);

        let d = dac.clone();
        let spec = JobSpec::synthetic(format!("dc{i:05}"), runtime)
            .owner(["ops", "sim", "ml", "cfd"][i % 4])
            .nodes(nodes)
            .ppn(ppn)
            .acpn(acpn)
            .walltime(walltime)
            .script(script(move |mut jc| {
                let d = d.clone();
                async move {
                    let (mut ses, handles) = AcSession::init(&jc, &d, None).await;
                    assert_eq!(handles.len(), jc.acc_hosts.len());
                    if dynamic {
                        let _ = jc.sleep_interruptible(runtime / 4).await;
                        // Front doors take "no" for an answer: a busy
                        // pool rejects (§III-E, no reservations).
                        if let Ok(set) = ses.ac_get(dyn_count).await {
                            let _ = jc.sleep_interruptible(runtime / 2).await;
                            let _ = ses.ac_free(&set).await;
                        }
                        let _ = jc.sleep_interruptible(runtime / 4).await;
                    } else {
                        let _ = jc.sleep_interruptible(runtime).await;
                    }
                    ses.finalize();
                }
            }));
        cluster.qsub_after(*arrival, spec);
    }

    // The auditor's watcher polls coarsely, so it contributes
    // negligible traffic next to the workload.
    let audit =
        Audit::watch(&mut cluster, cfg.jobs, SimDuration::from_secs(5), SimDuration::from_secs(60));
    let (stats, report) = audit.run(&mut cluster);
    report.assert_clean("datacenter run");
    DatacenterOutcome {
        stats,
        messages: cluster.net.stats().messages,
        jobs: cfg.jobs,
        still_running: report.still_running,
        dyn_jobs,
        compute_nodes,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_arrivals_are_sorted_and_shaped() {
        let mut rng = SmallRng::seed_from_u64(7);
        let day = SimDuration::from_secs(3600);
        let arr = diurnal_arrivals(480, day, &mut rng);
        assert_eq!(arr.len(), 480);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(*arr.last().unwrap() <= day);
        // Mid-day third must carry more arrivals than the first third.
        let third = day.as_nanos() / 3;
        let first = arr.iter().filter(|a| a.as_nanos() < third).count();
        let mid = arr.iter().filter(|a| (third..2 * third).contains(&a.as_nanos())).count();
        assert!(mid > 2 * first, "diurnal peak mid-day: first={first} mid={mid}");
    }

    #[test]
    fn small_datacenter_runs_clean_and_deterministic() {
        // Tiny instance of the same scenario shape (the bench runs 1k
        // and 10k hosts; 40 suffices to validate the harness).
        let cfg = DatacenterConfig { jobs: 16, ..DatacenterConfig::at_scale(40, 11) };
        let a = run_datacenter(&cfg);
        let b = run_datacenter(&cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.still_running, 0);
        assert!(a.dyn_jobs > 0, "dynamic path exercised: {a:?}");
        assert!(a.stats.events > 1_000, "non-trivial event count: {}", a.stats.events);
    }

    /// The 1k-host, 2000-job cell of `BENCH_sim.json`'s `datacenter`
    /// row, in legacy mode: its audit is clean (the run panics
    /// otherwise), no process is left running, and its counts are the
    /// ones `make bench-check` gates.
    #[test]
    fn audited_datacenter_cell_matches_the_bench_counts() {
        let o = run_datacenter(&DatacenterConfig::at_scale(1000, 42));
        assert_eq!(o.still_running, 0);
        assert_eq!(o.stats.events, 108_560);
        assert_eq!(o.messages, 66_909);
        assert_eq!(o.stats.context_switches, 35_055);
    }

    /// The overload wedge of DESIGN.md §11's known-wrong `DynPhase` rows:
    /// at 4000 jobs on 1000 hosts,
    /// timed-out jobs come back to life and the run never quiesces. The
    /// audit turns the wedge into a failure with a stuck-run summary
    /// (`cargo test --release -p darms-experiments -- --ignored wedge`).
    #[test]
    #[ignore = "slow: simulates the 6 h horizon at 1000 hosts"]
    #[should_panic(expected = "not quiescent")]
    fn overloaded_datacenter_wedge_fails_at_the_horizon() {
        run_datacenter(&DatacenterConfig { jobs: 4000, ..DatacenterConfig::at_scale(1000, 42) });
    }
}
