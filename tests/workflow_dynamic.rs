//! Integration: the dynamic allocation workflow of the paper's Fig. 6 —
//! `AC_Get()` → `pbs_dynget` → top-priority scheduling → `DYNJOIN_JOB` →
//! `MPI_Comm_spawn` + merge; and the release path `AC_Free()` →
//! disconnect → `pbs_dynfree` → `DISJOIN_JOB`.

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[test]
fn ac_get_grants_and_new_accelerators_compute() {
    // 1 static + pool for 2 more.
    let mut cluster = Cluster::build(ClusterConfig::fast(10).with_split(1, 3));
    let dac = cluster.dac.clone();
    let results = Arc::new(Mutex::new(Vec::new()));
    let out = results.clone();

    let spec = JobSpec::synthetic("dyn", secs(1)).acpn(1).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, statics) = AcSession::init(&jc, &dac, None).await;
            assert_eq!(statics.len(), 1);
            let set = ses.ac_get(2).await.expect("pool has 2 free accelerators");
            assert_eq!(set.handles.len(), 2);
            assert_eq!(ses.live_count(), 3);
            // Old handle still works, new handles work too.
            for &h in statics.iter().chain(set.handles.iter()) {
                let x = ses.mem_alloc(h, 24).await.unwrap();
                let o = ses.mem_alloc(h, 8).await.unwrap();
                ses.mem_write(h, x, f64s_to_bytes(&[1.0, 2.0, 4.0])).await.unwrap();
                ses.kernel_run(
                    h,
                    "reduce_sum",
                    KernelArgs::new(1, 3, vec![Param::Ptr(x), Param::Ptr(o), Param::U64(3)]),
                )
                .await
                .unwrap();
                out.lock().push(as_f64s(&ses.mem_read(h, o, 8).await.unwrap())[0]);
            }
            ses.ac_free(&set).await.unwrap();
            assert_eq!(ses.live_count(), 1);
            // Static accelerator still reachable after the shrink.
            let h = statics[0];
            let x = ses.mem_alloc(h, 16).await.unwrap();
            ses.mem_write(h, x, f64s_to_bytes(&[2.0, 3.0])).await.unwrap();
            ses.kernel_run(
                h,
                "scale",
                KernelArgs::new(1, 2, vec![Param::Ptr(x), Param::U64(2), Param::F64(10.0)]),
            )
            .await
            .unwrap();
            out.lock().push(as_f64s(&ses.mem_read(h, x, 16).await.unwrap())[1]);
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    assert_eq!(*results.lock(), vec![7.0, 7.0, 7.0, 30.0]);
}

#[test]
fn ac_get_rejected_when_pool_exhausted_and_app_continues() {
    let mut cluster = Cluster::build(ClusterConfig::fast(11).with_split(1, 2));
    let dac = cluster.dac.clone();
    let outcome = Arc::new(Mutex::new(Vec::new()));
    let out = outcome.clone();

    // Job takes both accelerators statically; the dynamic request must be
    // rejected immediately (no reservation, §III-E).
    let spec = JobSpec::synthetic("greedy", secs(1)).acpn(2).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, statics) = AcSession::init(&jc, &dac, None).await;
            match ses.ac_get(1).await {
                Err(DacError::Rejected(_)) => out.lock().push("rejected"),
                other => panic!("expected rejection, got {other:?}"),
            }
            // Application continues with its existing accelerators.
            assert_eq!(ses.live_count(), 2);
            let h = statics[0];
            let p = ses.mem_alloc(h, 8).await.unwrap();
            ses.mem_write(h, p, f64s_to_bytes(&[1.0])).await.unwrap();
            out.lock().push("continued");
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    assert_eq!(*outcome.lock(), vec!["rejected", "continued"]);
}

#[test]
fn released_set_becomes_available_to_other_jobs() {
    // Job A grabs both accelerators dynamically, releases them; job B's
    // dynamic request (issued while A holds them) is rejected, but a
    // retry after the release succeeds.
    let mut cluster = Cluster::build(ClusterConfig::fast(12).with_split(2, 2));
    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::new()));

    let l1 = log.clone();
    let d1 = dac.clone();
    let spec_a = JobSpec::synthetic("a", secs(30)).script(script(move |jc| {
        let d1 = d1.clone();
        let l1 = l1.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &d1, None).await;
            let set = ses.ac_get(2).await.expect("both accelerators free");
            l1.lock().push(("a-got", jc.proc.now()));
            jc.proc.sleep(secs(10)).await;
            ses.ac_free(&set).await.unwrap();
            l1.lock().push(("a-freed", jc.proc.now()));
            jc.proc.sleep(secs(5)).await;
            ses.finalize();
        }
    }));

    let l2 = log.clone();
    let spec_b = JobSpec::synthetic("b", secs(30)).script(script(move |jc| {
        let dac = dac.clone();
        let l2 = l2.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            jc.proc.sleep(secs(5)).await; // A holds both
            assert!(matches!(ses.ac_get(1).await, Err(DacError::Rejected(_))));
            l2.lock().push(("b-rejected", jc.proc.now()));
            jc.proc.sleep(secs(10)).await; // past A's release
            let set = ses.ac_get(1).await.expect("freed by A");
            l2.lock().push(("b-got", jc.proc.now()));
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));

    cluster.qsub(spec_a);
    cluster.qsub(spec_b);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let log = log.lock().clone();
    let names: Vec<&str> = log.iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"a-got"));
    assert!(names.contains(&"b-rejected"));
    assert!(names.contains(&"b-got"));
    let freed = log.iter().find(|(n, _)| *n == "a-freed").unwrap().1;
    let got = log.iter().find(|(n, _)| *n == "b-got").unwrap().1;
    assert!(got > freed, "B's grant only after A's release");
}

#[test]
fn dynfree_reply_is_immediate_while_disassociation_continues() {
    // With the paper cost model, pbs_dynfree returns long before the
    // DISJOIN round-trip completes (§III-D).
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(13).with_split(1, 3));
    let dac = cluster.dac.clone();
    let timing = Arc::new(Mutex::new(None));
    let out = timing.clone();

    let spec = JobSpec::synthetic("freefast", secs(5)).acpn(1).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let set = ses.ac_get(2).await.expect("two free");
            let t0 = jc.proc.now();
            ses.ac_free(&set).await.unwrap();
            let t1 = jc.proc.now();
            *out.lock() = Some(t1 - t0);
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let free_latency = timing.lock().unwrap();
    // The client-visible latency is the shrink + one request/response,
    // well under the full disjoin handling of multiple moms.
    assert!(
        free_latency < SimDuration::from_millis(100),
        "AC_Free returned in {free_latency}, expected well under 100ms"
    );
}

#[test]
fn serial_dynamic_servicing_produces_staircase() {
    // Three single-CN jobs issue AC_Get(1) at the same instant; the
    // server's serial processing makes their batch-system latencies a
    // staircase (the paper's Fig. 9).
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(14).with_split(3, 4));
    let dac = cluster.dac.clone();
    let latencies = Arc::new(Mutex::new(Vec::new()));

    for i in 0..3 {
        let d = dac.clone();
        let l = latencies.clone();
        let spec = JobSpec::synthetic(format!("cn{i}"), secs(20)).script(script(move |jc| {
            let d = d.clone();
            let l = l.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &d, None).await;
                // Align the three requests at the same virtual instant.
                let now = jc.proc.now();
                let target = SimTime::ZERO + secs(5);
                if target > now {
                    jc.proc.sleep(target - now).await;
                }
                let t0 = jc.proc.now();
                let set = ses.ac_get(1).await.expect("pool of 4 covers 3 requests");
                let t1 = jc.proc.now();
                l.lock().push((t1 - t0).as_secs_f64());
                ses.ac_free(&set).await.unwrap();
                ses.finalize();
            }
        }));
        cluster.qsub(spec);
    }
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let mut lat = latencies.lock().clone();
    assert_eq!(lat.len(), 3);
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Distinct, increasing service completion: each later request waited
    // for the earlier ones (C > B > A as in Fig. 9).
    assert!(lat[1] > lat[0] * 1.3, "staircase: {lat:?}");
    assert!(lat[2] > lat[1] * 1.15, "staircase: {lat:?}");
    // And everything stays sub-second-ish as the paper reports.
    assert!(lat[2] < 3.0, "absolute scale: {lat:?}");

    // The registry publishes the same Fig. 8 quantity this test derives
    // by hand: `rms.dyn_wait` spans pbs_dynget arrival → final response.
    // Each client latency adds a per-request constant on top (the MPI
    // spawn/merge phase plus two network legs), so the hand-derived
    // values must exceed the registry's by a near-constant offset and
    // the staircase *steps* must agree.
    let h = cluster.metrics.histogram("rms.dyn_wait").expect("server is instrumented");
    assert_eq!(h.count, 3, "one wait sample per AC_Get");
    let mut waits = cluster.metrics.histogram_samples("rms.dyn_wait");
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(waits[0] < waits[1] && waits[1] < waits[2], "registry staircase: {waits:?}");
    let offsets: Vec<f64> = waits.iter().zip(lat.iter()).map(|(w, l)| l - w).collect();
    for (i, off) in offsets.iter().enumerate() {
        assert!(*off > 0.0, "request {i}: registry wait exceeds the client latency");
    }
    let spread = offsets.iter().cloned().fold(f64::MIN, f64::max)
        - offsets.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.05, "join overhead is per-request constant: {offsets:?}");
    for i in 0..2 {
        let step_reg = waits[i + 1] - waits[i];
        let step_hand = lat[i + 1] - lat[i];
        assert!(
            (step_reg - step_hand).abs() < 0.05,
            "step {i}: registry {step_reg} vs hand-derived {step_hand}"
        );
    }
    // The scheduler-side component (`sched.dyn_wait`, the light region
    // of Fig. 8) resolved each request exactly once as well.
    let sched = cluster.metrics.histogram("sched.dyn_wait").expect("scheduler is instrumented");
    assert_eq!(sched.count, 3, "one scheduler decision per request");
    assert!(sched.max <= h.max, "scheduler wait is a component of the full wait");
}

#[test]
fn finalize_releases_all_daemons() {
    let mut cluster = Cluster::build(ClusterConfig::fast(15).with_split(1, 2));
    let dac = cluster.dac.clone();
    let mpi = cluster.mpi.clone();
    let spec = JobSpec::synthetic("fin", secs(1)).acpn(2).script(script(move |jc| {
        let dac = dac.clone();
        async move {
            let (ses, handles) = AcSession::init(&jc, &dac, None).await;
            assert_eq!(handles.len(), 2);
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    // All communicators torn down: the daemons disconnected and exited.
    assert_eq!(mpi.live_comms(), 0, "no leaked communicators after finalize");
}

#[test]
fn dropping_a_cluster_frees_its_mpi_and_device_state() {
    // A run that spawns daemons dynamically: the daemon executable is
    // registered in the MPI state, so a handle it captured would keep
    // that state (and the network and devices) alive forever.
    let mut cluster = Cluster::build(ClusterConfig::fast(12).with_split(1, 3));
    let dac = cluster.dac.clone();
    let spec = JobSpec::synthetic("dyn", secs(1)).acpn(1).script(script(move |jc| {
        let dac = dac.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let set = ses.ac_get(2).await.expect("pool has 2 free accelerators");
            let x = ses.mem_alloc(set.handles[0], 8).await.unwrap();
            ses.mem_write(set.handles[0], x, f64s_to_bytes(&[1.0])).await.unwrap();
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    assert_eq!(cluster.run().process_panics, 0);
    let mpi = cluster.mpi.state_weak();
    let devices = cluster.dac.devices_weak();
    assert!(mpi.upgrade().is_some() && devices.upgrade().is_some());
    drop(cluster);
    assert!(mpi.upgrade().is_none(), "MPI state outlived its cluster");
    assert!(devices.upgrade().is_none(), "DAC devices outlived their cluster");
}
