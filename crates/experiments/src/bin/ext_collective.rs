//! EXT-6: collective vs individual `AC_Get` for a multi-compute-node job
//! (§III-D). Individual requests are serviced serially by the server —
//! later compute nodes wait (the Fig. 9 effect *within one job*) but a
//! partial outcome is possible; the collective call is a single request —
//! faster and atomic, at the price of all-or-nothing semantics.

use std::sync::Arc;

use darms::prelude::*;
use darms_experiments::invariants::Audit;
use darms_workload::{secs as fmt_secs, Table};
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Returns (per-node batch latencies, granted-node count).
fn run(seed: u64, collective: bool, pool: usize) -> (Vec<f64>, usize) {
    let nodes = 3usize;
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(seed).with_split(nodes, pool));
    let dac = cluster.dac.clone();
    let lat = Arc::new(Mutex::new(Vec::new()));
    let granted = Arc::new(Mutex::new(0usize));

    let l = lat.clone();
    let g = granted.clone();
    let spec = JobSpec::synthetic("multi", secs(30)).nodes(nodes).script(script(move |jc| {
        let dac = dac.clone();
        let l = l.clone();
        let g = g.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let tc = TaskComm::establish(&jc).await;
            // Align all nodes at the same instant.
            let target = SimTime::ZERO + secs(5);
            let now = jc.proc.now();
            if target > now {
                jc.proc.sleep(target - now).await;
            }
            let t0 = jc.proc.now();
            if collective {
                match ses.ac_get_collective(&jc, &tc, 2).await {
                    Ok(set) => {
                        *g.lock() += 1;
                        l.lock().push((jc.proc.now() - t0).as_secs_f64());
                        jc.proc.sleep(secs(10)).await; // hold the grant through the phase
                        ses.ac_free_collective(&jc, &tc, &set).await.unwrap();
                    }
                    Err(_) => {
                        l.lock().push((jc.proc.now() - t0).as_secs_f64());
                        // still must participate in nothing further
                    }
                }
            } else {
                match ses.ac_get(2).await {
                    Ok(set) => {
                        *g.lock() += 1;
                        l.lock().push((jc.proc.now() - t0).as_secs_f64());
                        jc.proc.sleep(secs(10)).await; // hold the grant through the phase
                        ses.ac_free(&set).await.unwrap();
                    }
                    Err(_) => {
                        l.lock().push((jc.proc.now() - t0).as_secs_f64());
                    }
                }
            }
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    Audit::end_of_run().run(&mut cluster).1.assert_clean("EXT-6 run");
    let mut v = lat.lock().clone();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let g = *granted.lock();
    (v, g)
}

fn main() {
    // Plenty of accelerators: compare latency profiles.
    let (ind, gi) = run(11000, false, 6);
    let (col, gc) = run(11000, true, 6);
    let mut t = Table::new(
        "EXT-6: collective vs individual AC_Get, 3-CN job, 2 accelerators per node, pool 6",
        &["mode", "granted_nodes", "min[s]", "max[s]"],
    );
    t.row(vec!["individual".into(), gi.to_string(), fmt_secs(ind[0]), fmt_secs(ind[2])]);
    t.row(vec!["collective".into(), gc.to_string(), fmt_secs(col[0]), fmt_secs(col[2])]);
    println!("{}", t.render());
    assert_eq!(gi, 3);
    assert_eq!(gc, 3);
    // Serial servicing spreads the individual latencies; the collective
    // completes everyone at (nearly) the same time and no later than the
    // slowest individual.
    assert!(ind[2] - ind[0] > 0.2, "individual requests serialise: {ind:?}");
    assert!(col[2] < ind[2], "collective beats the last individual: {col:?} vs {ind:?}");

    // Scarce pool: 3×2 = 6 needed, only 4 free. Individual: partial
    // success; collective: atomic rejection.
    let (_, gi) = run(12000, false, 4);
    let (_, gc) = run(12000, true, 4);
    let mut t = Table::new("scarce pool (4 free, 6 wanted)", &["mode", "granted_nodes"]);
    t.row(vec!["individual".into(), gi.to_string()]);
    t.row(vec!["collective".into(), gc.to_string()]);
    println!("{}", t.render());
    assert!((1..3).contains(&gi), "individual: partial success ({gi})");
    assert_eq!(gc, 0, "collective: all-or-nothing");
    println!("collective AC_Get: one request, atomic outcome; individual: serialised, partial outcomes possible");
}
