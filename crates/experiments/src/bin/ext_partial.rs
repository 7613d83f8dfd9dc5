//! EXT-7: partial grants — the policy the paper names as future work
//! ("allocating less number of accelerators in the case where enough
//! accelerators were not available during a dynamic request", §VI).
//! Burst-heavy jobs request 4 accelerators accepting ≥1; under the strict
//! policy the same requests are all-or-nothing. Partial grants turn
//! rejections into smaller grants, lifting pool utilisation.

use std::sync::Arc;

use darms::prelude::*;
use darms_experiments::invariants::Audit;
use darms_workload::Table;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

struct Outcome {
    granted: usize,
    rejected: usize,
    accs_served: usize,
}

fn run(seed: u64, partial: bool) -> Outcome {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(seed).with_split(2, 5));
    let dac = cluster.dac.clone();
    let granted = Arc::new(Mutex::new(0usize));
    let rejected = Arc::new(Mutex::new(0usize));
    let served = Arc::new(Mutex::new(0usize));
    for i in 0..6 {
        let d = dac.clone();
        let (g, r, sv) = (granted.clone(), rejected.clone(), served.clone());
        let spec = JobSpec::synthetic(format!("j{i}"), secs(80)).ppn(2).script(script(move |jc| {
            let d = d.clone();
            let (g, r, sv) = (g.clone(), r.clone(), sv.clone());
            async move {
                let (mut ses, _) = AcSession::init(&jc, &d, None).await;
                for b in 0..2u64 {
                    jc.proc.sleep(secs(4 + 3 * b)).await;
                    let res =
                        if partial { ses.ac_get_range(4, 1).await } else { ses.ac_get(4).await };
                    match res {
                        Ok(set) => {
                            *g.lock() += 1;
                            *sv.lock() += set.handles.len();
                            jc.proc.sleep(secs(8)).await;
                            ses.ac_free(&set).await.unwrap();
                        }
                        Err(_) => *r.lock() += 1,
                    }
                }
                ses.finalize();
            }
        }));
        cluster.qsub_after(secs(2 * i as u64), spec);
    }
    Audit::end_of_run().run(&mut cluster).1.assert_clean("EXT-7 run");
    let (g, r, sv) = (*granted.lock(), *rejected.lock(), *served.lock());
    Outcome { granted: g, rejected: r, accs_served: sv }
}

fn main() {
    let trials = 5;
    let mut strict = (0usize, 0usize, 0usize);
    let mut partial = (0usize, 0usize, 0usize);
    for t in 0..trials {
        let s = run(13000 + t as u64, false);
        strict = (strict.0 + s.granted, strict.1 + s.rejected, strict.2 + s.accs_served);
        let p = run(13000 + t as u64, true);
        partial = (partial.0 + p.granted, partial.1 + p.rejected, partial.2 + p.accs_served);
    }
    let n = trials as f64;
    let mut t = Table::new(
        format!("EXT-7: strict vs partial grants (6 jobs × 2 bursts of 'want 4', pool 5, mean of {trials} trials)"),
        &["policy", "granted", "rejected", "accelerator_grants_total"],
    );
    t.row(vec![
        "strict (paper)".into(),
        format!("{:.1}", strict.0 as f64 / n),
        format!("{:.1}", strict.1 as f64 / n),
        format!("{:.1}", strict.2 as f64 / n),
    ]);
    t.row(vec![
        "partial (min 1)".into(),
        format!("{:.1}", partial.0 as f64 / n),
        format!("{:.1}", partial.1 as f64 / n),
        format!("{:.1}", partial.2 as f64 / n),
    ]);
    println!("{}", t.render());
    assert!(partial.1 < strict.1, "partial grants reject less");
    assert!(partial.0 > strict.0, "partial grants serve more bursts");
    println!("partial grants convert rejections into smaller allocations — fewer stranded bursts");
}
