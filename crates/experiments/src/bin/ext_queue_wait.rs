//! EXT-8: ablation of the paper's no-reservation design choice (§III-E:
//! "neither is a dynamic request guaranteed to be satisfied nor will it
//! wait in the queue"). Compare immediate rejection against bounded
//! queueing of dynamic requests on a churny accelerator pool: queueing
//! converts rejections into grants at the cost of blocking the
//! application inside `AC_Get`.

use std::sync::Arc;

use darms::prelude::*;
use darms_experiments::invariants::Audit;
use darms_sched::SchedConfig;
use darms_workload::Table;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

struct Outcome {
    granted: usize,
    rejected: usize,
    mean_wait_s: f64,
}

fn run(seed: u64, queue_wait: Option<SimDuration>) -> Outcome {
    let mut sched = SchedConfig::paper_testbed();
    sched.dyn_queue_wait = queue_wait;
    sched.dyn_retry = SimDuration::from_millis(300);
    let mut cluster =
        Cluster::build(ClusterConfig::paper_testbed(seed).with_split(3, 3).with_sched(sched));
    let dac = cluster.dac.clone();
    let granted = Arc::new(Mutex::new(0usize));
    let rejected = Arc::new(Mutex::new(0usize));
    let waits = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3 {
        let d = dac.clone();
        let (g, r, w) = (granted.clone(), rejected.clone(), waits.clone());
        let spec =
            JobSpec::synthetic(format!("j{i}"), secs(120)).ppn(2).script(script(move |jc| {
                let d = d.clone();
                let (g, r, w) = (g.clone(), r.clone(), w.clone());
                async move {
                    let (mut ses, _) = AcSession::init(&jc, &d, None).await;
                    for b in 0..4u64 {
                        jc.proc.sleep(secs(2 + b)).await;
                        let t0 = jc.proc.now();
                        match ses.ac_get(2).await {
                            Ok(set) => {
                                w.lock().push((jc.proc.now() - t0).as_secs_f64());
                                *g.lock() += 1;
                                jc.proc.sleep(secs(6)).await;
                                ses.ac_free(&set).await.unwrap();
                            }
                            Err(_) => {
                                w.lock().push((jc.proc.now() - t0).as_secs_f64());
                                *r.lock() += 1;
                                jc.proc.sleep(secs(2)).await;
                            }
                        }
                    }
                    ses.finalize();
                }
            }));
        cluster.qsub_after(secs(i as u64), spec);
    }
    Audit::end_of_run().run(&mut cluster).1.assert_clean("EXT-8 run");
    let w = waits.lock().clone();
    let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
    let (g, r) = (*granted.lock(), *rejected.lock());
    Outcome { granted: g, rejected: r, mean_wait_s: mean }
}

fn main() {
    let trials = 5;
    let policies: [(&str, Option<SimDuration>); 3] =
        [("reject (paper)", None), ("wait ≤ 5 s", Some(secs(5))), ("wait ≤ 30 s", Some(secs(30)))];
    let mut table = Table::new(
        format!("EXT-8: immediate reject vs bounded queueing of dynamic requests (3 jobs × 4 bursts of 2, pool 3, mean of {trials} trials)"),
        &["policy", "granted", "rejected", "mean_AC_Get_latency[s]"],
    );
    let mut results = Vec::new();
    for (name, qw) in policies {
        let mut acc = (0usize, 0usize, 0.0f64);
        for t in 0..trials {
            let o = run(14000 + t as u64, qw);
            acc = (acc.0 + o.granted, acc.1 + o.rejected, acc.2 + o.mean_wait_s);
        }
        let n = trials as f64;
        table.row(vec![
            name.into(),
            format!("{:.1}", acc.0 as f64 / n),
            format!("{:.1}", acc.1 as f64 / n),
            format!("{:.2}", acc.2 / n),
        ]);
        results.push(acc);
    }
    println!("{}", table.render());
    assert!(results[2].1 <= results[0].1, "longer waits reject no more than the paper policy");
    assert!(results[2].2 >= results[0].2, "queueing trades latency for success");
    println!("queueing dynamic requests converts rejections into grants at the price of AC_Get latency —");
    println!("the paper's immediate-reject choice keeps applications responsive and pushes the retry decision to them");
}
