//! The whole stack is a deterministic simulation: identical seeds must
//! produce bit-identical event traces, including across the full DAC
//! scenario (batch system + MPI + daemons + jitter).

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

fn scenario(seed: u64) -> (Vec<TraceEvent>, Vec<f64>) {
    let mut cluster =
        Cluster::build(ClusterConfig::paper_testbed(seed).with_split(2, 4).with_trace());
    let dac = cluster.dac.clone();
    let lat = Arc::new(Mutex::new(Vec::new()));
    for i in 0..2 {
        let d = dac.clone();
        let l = lat.clone();
        let spec = JobSpec::synthetic(format!("j{i}"), SimDuration::from_secs(2)).acpn(1).script(
            script(move |jc| {
                let d = d.clone();
                let l = l.clone();
                async move {
                    let (mut ses, handles) = AcSession::init(&jc, &d, None).await;
                    let h = handles[0];
                    let p = ses.mem_alloc(h, 64).await.unwrap();
                    ses.mem_write(h, p, vec![7u8; 64]).await.unwrap();
                    let t0 = jc.proc.now();
                    if let Ok(set) = ses.ac_get(1).await {
                        ses.ac_free(&set).await.unwrap();
                    }
                    l.lock().push((jc.proc.now() - t0).as_secs_f64());
                    ses.finalize();
                }
            }),
        );
        cluster.qsub_after(SimDuration::from_millis(10 * i), spec);
    }
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let trace = cluster.sim.take_events();
    let lat = lat.lock().clone();
    (trace, lat)
}

/// Run a small traced scenario and serialize the structured event
/// stream with both exporters.
fn scenario_serialized(seed: u64) -> (String, String) {
    let mut cluster =
        Cluster::build(ClusterConfig::paper_testbed(seed).with_split(2, 2).with_trace());
    let dac = cluster.dac.clone();
    let spec =
        JobSpec::synthetic("traced", SimDuration::from_secs(1)).acpn(1).script(script(move |jc| {
            let dac = dac.clone();
            async move {
                let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
                let h = handles[0];
                let p = ses.mem_alloc(h, 32).await.unwrap();
                ses.mem_write(h, p, vec![1u8; 32]).await.unwrap();
                if let Ok(set) = ses.ac_get(1).await {
                    ses.ac_free(&set).await.unwrap();
                }
                ses.finalize();
            }
        }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let events = cluster.sim.take_events();
    assert!(!events.is_empty(), "tracing was enabled");
    (to_json_lines(&events), to_chrome_trace(&events))
}

#[test]
fn same_seed_byte_identical_serialized_trace() {
    let (jl1, ct1) = scenario_serialized(99);
    let (jl2, ct2) = scenario_serialized(99);
    assert_eq!(jl1, jl2, "JSON-lines export must be byte-identical");
    assert_eq!(ct1, ct2, "Chrome trace export must be byte-identical");
}

#[test]
fn different_seed_different_serialized_trace() {
    let (jl1, _) = scenario_serialized(5);
    let (jl2, _) = scenario_serialized(6);
    assert_ne!(jl1, jl2, "seeded jitter must show up in the event stream");
}

#[test]
fn chrome_trace_is_wellformed() {
    let (_, ct) = scenario_serialized(42);
    assert!(ct.starts_with("{\"traceEvents\":["));
    assert!(ct.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    assert!(ct.contains("\"thread_name\""), "lane metadata present");
    // Balanced span edges: every B has a matching E.
    let begins = ct.matches("\"ph\":\"B\"").count();
    let ends = ct.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "span begin/end balance");
}

#[test]
fn same_seed_same_trace() {
    let (t1, l1) = scenario(123);
    let (t2, l2) = scenario(123);
    assert!(!t1.is_empty());
    assert_eq!(t1.len(), t2.len());
    assert_eq!(t1, t2);
    assert_eq!(l1, l2);
}

#[test]
fn different_seed_different_timings() {
    // Jitter is seeded: different seeds shift the sub-millisecond timing
    // of at least some events (the logical event sequence may coincide).
    let (t1, _) = scenario(1);
    let (t2, _) = scenario(2);
    let times1: Vec<u64> = t1.iter().map(|ev| ev.time.as_nanos()).collect();
    let times2: Vec<u64> = t2.iter().map(|ev| ev.time.as_nanos()).collect();
    assert_ne!(times1, times2, "seeded jitter must influence timings");
}
