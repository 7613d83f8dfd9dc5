//! Self-test of the benchmark: at a small size, two runs of one seed
//! give identical counts, and the traced assembly reproduces the
//! untraced run exactly.

use darms_perfbench::instance;
use darms_perfbench::workload::{Shape, Workload};

fn small() -> Shape {
    Shape {
        hosts: 40,
        jobs: 24,
        dyn_share: 0.5,
        gets: 2,
        dyn_walltime_slack_s: 0,
        horizon_s: 3 * 3600,
        instances: 1,
    }
}

#[test]
fn two_runs_of_one_seed_give_identical_counts() {
    let a = instance::run(small(), 7, false).expect("run is correct");
    let b = instance::run(small(), 7, false).expect("run is correct");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.sim, b.sim);
    assert_eq!(a.sim.submitted, 24);
    assert_eq!(a.sim.complete, 24, "a small cluster finishes every job");
    assert!(a.sim.acget_issued > 0, "the dynamic path is exercised");
    assert_eq!(a.sim.qstat_calls, 1, "the watcher polls qstat once when all scripts are done");
}

#[test]
fn traced_run_reproduces_the_untraced_run() {
    let plain = instance::run(small(), 11, false).expect("run is correct");
    let traced = instance::run(small(), 11, true).expect("run is correct");
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(plain.sim, traced.sim);
    let layers = traced.layers.expect("traced runs time their layers");
    assert!(layers.server.iter().map(|c| c.1).sum::<u64>() > 0);
    assert!(layers.sched.1 > 0 && layers.moms.1 > 0 && layers.scripts.1 > 0);
    assert!(plain.layers.is_none());
}

#[test]
fn seeds_change_the_inputs() {
    let a = instance::run(small(), 1, false).expect("run is correct");
    let b = instance::run(small(), 2, false).expect("run is correct");
    assert_ne!(a.sim.qsub_to_run_s, b.sim.qsub_to_run_s);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}
