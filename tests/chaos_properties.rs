//! Property-based fault-injection tests: for arbitrary (bounded) fault
//! plans — lossy/duplicating/reordering links with drop < 1.0 and
//! partitions shorter than the retry budget — every dynamic accelerator
//! request must resolve to a grant or an explicit error (never hang),
//! every job must reach a terminal state before the horizon, and the
//! node database must conserve the pool.

use darms::prelude::*;
use darms_experiments::invariants::Audit;
use darms_rms::MonitorConfig;
use proptest::prelude::*;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

const HORIZON_SECS: u64 = 300;

#[derive(Clone, Debug)]
struct CJob {
    nodes: usize,
    ppn: u32,
    runtime_ms: u64,
    arrival_ms: u64,
    dyn_rounds: u32,
}

fn cjob() -> impl Strategy<Value = CJob> {
    (1usize..=2, 1u32..=2, 1_000u64..6_000, 0u64..40_000, 0u32..=2).prop_map(
        |(nodes, ppn, runtime_ms, arrival_ms, dyn_rounds)| CJob {
            nodes,
            ppn,
            runtime_ms,
            arrival_ms,
            dyn_rounds,
        },
    )
}

/// Bounded fault-plan parameters. Drop stays strictly below 1.0 and
/// partitions stay shorter than the standard retry budget, so progress
/// is always *possible* — the property is that the system then actually
/// makes it.
#[derive(Clone, Debug)]
struct FaultParams {
    drop_pct: u32,      // 0..80 → 0.0..0.8
    duplicate_pct: u32, // 0..30
    jitter_ms: u64,
    reorder_pct: u32, // 0..30
    partitions: Vec<(u64, u64)>,
    plan_seed: u64,
}

fn fault_params() -> impl Strategy<Value = FaultParams> {
    (
        0u32..80,
        0u32..30,
        0u64..=25,
        0u32..30,
        prop::collection::vec((20u64..70, 5u64..=12), 0..3),
        0u64..u64::MAX,
    )
        .prop_map(
            |(drop_pct, duplicate_pct, jitter_ms, reorder_pct, partitions, plan_seed)| {
                FaultParams {
                    drop_pct,
                    duplicate_pct,
                    jitter_ms,
                    reorder_pct,
                    partitions,
                    plan_seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn faulty_links_never_wedge_the_control_plane(
        jobs in prop::collection::vec(cjob(), 1..5),
        fp in fault_params(),
        seed in 0u64..1000,
    ) {
        let horizon = SimTime::ZERO + secs(HORIZON_SECS);
        let mc = MonitorConfig { interval: secs(2), miss_threshold: 5, ctl_bytes: 64 };
        let config = ClusterConfig::fast(seed)
            .with_split(2, 3)
            .with_monitor(mc, horizon)
            .with_retry(RetryPolicy::standard());
        let mut cluster = Cluster::build(config);

        let lf = LinkFaults {
            drop: f64::from(fp.drop_pct) / 100.0,
            duplicate: f64::from(fp.duplicate_pct) / 100.0,
            jitter: SimDuration::from_millis(fp.jitter_ms),
            reorder: f64::from(fp.reorder_pct) / 100.0,
            reorder_window: SimDuration::from_millis(50),
        };
        let mut plan = FaultPlan::new(fp.plan_seed).with_default_link(lf);
        let others: Vec<_> =
            cluster.compute.iter().chain(cluster.accs.iter()).copied().collect();
        for (i, (from_s, len_s)) in fp.partitions.iter().enumerate() {
            let from = SimTime::ZERO + secs(*from_s);
            let host = others[i % others.len()];
            plan = plan.with_partition(vec![host], from, from + secs(*len_s));
        }
        cluster.net.install_fault_plan(plan);

        // Every dynget a script issues is counted when started and again
        // when it resolves (grant or explicit error). Each script
        // instance checks its own tally at script end: a dynget that
        // hung would keep the script from ever reaching that line (and
        // the job from going terminal).
        let n_jobs = jobs.len();
        for (i, j) in jobs.iter().enumerate() {
            let jc_cfg = j.clone();
            let spec = JobSpec::synthetic(format!("cp{i}"), SimDuration::from_millis(j.runtime_ms))
                .nodes(j.nodes)
                .ppn(j.ppn)
                .walltime(secs(120))
                .script(script(move |mut jc| {
                    let jc_cfg = jc_cfg.clone();
                    async move {
                        let mut started_local = 0u32;
                        let mut resolved_local = 0u32;
                        if jc.node_index == 0 {
                            for _ in 0..jc_cfg.dyn_rounds {
                                started_local += 1;
                                match jc.dynget(1).await {
                                    Ok(grant) => {
                                        resolved_local += 1;
                                        jc.proc.sleep(secs(1)).await;
                                        let _ = jc.dynfree(grant.client_id).await;
                                    }
                                    Err(_) => {
                                        // Rejected or timed out: explicit
                                        // resolution, not a hang.
                                        resolved_local += 1;
                                    }
                                }
                            }
                        }
                        let _ = jc
                            .sleep_interruptible(SimDuration::from_millis(jc_cfg.runtime_ms))
                            .await;
                        assert_eq!(
                            started_local, resolved_local,
                            "a dynget is still pending at script end"
                        );
                    }
                }));
            cluster.qsub_after(SimDuration::from_millis(j.arrival_ms), spec);
        }

        // The shared auditor (darms-experiments::invariants): the same
        // watcher and end-of-run pass the chaos harness and the
        // darms-soak matrix run. A job still live near the horizon is a
        // "not quiescent" violation.
        let audit = Audit::watch(&mut cluster, n_jobs, secs(15), secs(10));
        let (_, report) = audit.run(&mut cluster);
        prop_assert!(report.clean(), "invariant violations: {:#?}", report.violations);
    }
}
