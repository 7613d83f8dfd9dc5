//! Backend conformance suite: one parameterized battery of behavioural
//! contracts every fabric device class must satisfy, instantiated
//! against each concrete backend (DESIGN.md §15).
//!
//! The batteries are ordinary functions taking a [`DeviceClass`]; the
//! integration tests and the `fabric_smoke` harness run them for every
//! class, so adding a backend means passing this suite, not writing a
//! new test file:
//!
//! 1. [`alloc_free_exhaustion`] — device memory exhausts with the
//!    canonical out-of-memory shape and frees restore full capacity;
//! 2. [`dispatch_determinism`] — an identical mixed workload (async
//!    kernels, transfers, a dynamic grant, fabric collectives) produces
//!    a byte-identical event trace across two fresh runs;
//! 3. [`slice_isolation`] — a job that exhausts its slice's memory
//!    quota never steals headroom from a co-resident slice;
//! 4. [`collective_correctness`] — broadcast replicates payloads
//!    (multicast on capable backends, unicast otherwise — asserted via
//!    the `dac.bcast_*` counters), gather concatenates in rank order,
//!    and the host-free reduction sums correctly;
//! 5. [`crash_reclaim`] — a mid-job accelerator outage (seeded
//!    [`FaultPlan`]) times out cleanly, the monitor takes the node out
//!    of the pool, and the survivor returns to service for later jobs.

use std::sync::Arc;

use darms_dac::{as_f64s, f64s_to_bytes, AcSession, DacError, DeviceProps, KernelArgs, Param};
use darms_net::{FaultPlan, RetryPolicy};
use darms_rms::{script, DeviceClass, JobSpec, MonitorConfig};
use darms_sim::{to_json_lines, SimDuration, SimTime};
use parking_lot::Mutex;

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, FabricConfig};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A cluster whose whole accelerator pool is `accs` devices of `class`,
/// each carved into `slices` slices with parameters `dev`. GPU-like
/// pools use the paper's topology; DPU-rank pools ride on the fabric
/// extension (zero GPU hosts).
pub fn class_config(
    class: DeviceClass,
    seed: u64,
    compute: usize,
    accs: usize,
    slices: u32,
    dev: DeviceProps,
) -> ClusterConfig {
    match class {
        DeviceClass::GpuLike => {
            let mut cfg = ClusterConfig::fast(seed).with_split(compute, accs);
            cfg.device = dev;
            cfg.fabric.gpu_slices = slices;
            cfg
        }
        DeviceClass::DpuRankLike => {
            ClusterConfig::fast(seed).with_split(compute, 0).with_fabric(FabricConfig {
                dpu_ranks: accs,
                dpu_slices: slices,
                gpu_slices: 1,
                dpu_device: Some(dev),
            })
        }
    }
}

/// The class's accelerator hosts in a cluster built from
/// [`class_config`].
fn pool(cluster: &Cluster, class: DeviceClass) -> Vec<darms_net::HostId> {
    match class {
        DeviceClass::GpuLike => cluster.accs.clone(),
        DeviceClass::DpuRankLike => cluster.dpus.clone(),
    }
}

/// Battery 1: allocation exhausts with the canonical `OutOfMemory`
/// error shape and freeing restores the full capacity.
pub fn alloc_free_exhaustion(class: DeviceClass) {
    let cfg = class_config(class, 9101, 1, 1, 1, DeviceProps::tiny(4096));
    let mut cluster = Cluster::build(cfg);
    let dac = cluster.dac.clone();
    let done = Arc::new(Mutex::new(false));
    let out = done.clone();
    let spec = JobSpec::synthetic("exhaust", secs(10)).acpn(1).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
            let h = handles[0];
            // Fill the device in chunks, then hit the wall.
            let mut ptrs = Vec::new();
            for _ in 0..4 {
                ptrs.push(ses.mem_alloc(h, 1024).await.expect("within capacity"));
            }
            match ses.mem_alloc(h, 1).await {
                Err(DacError::Device(e)) => {
                    assert!(e.contains("out of memory"), "unexpected error: {e}")
                }
                other => panic!("exhausted device must refuse: {other:?}"),
            }
            // Freeing restores the full capacity, and a double free of a
            // dead pointer is reported, not absorbed.
            let first = ptrs[0];
            for p in ptrs {
                ses.mem_free(h, p).await.expect("live pointer");
            }
            assert!(matches!(ses.mem_free(h, first).await, Err(DacError::Device(_))));
            let p = ses.mem_alloc(h, 4096).await.expect("whole device again");
            ses.mem_free(h, p).await.unwrap();
            *out.lock() = true;
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0, "{class}: panics in exhaustion battery");
    assert!(*done.lock(), "{class}: exhaustion script did not finish");
}

/// One traced run of the determinism workload: async kernels on two
/// static accelerators, a dynamic class-constrained grant, and both
/// fabric collectives, serialized as JSON lines plus the deterministic
/// engine counters.
fn traced_workload(class: DeviceClass, seed: u64) -> String {
    let cfg = class_config(class, seed, 1, 3, 1, DeviceProps::tiny(1 << 20)).with_trace();
    let mut cluster = Cluster::build(cfg);
    let dac = cluster.dac.clone();
    let spec = JobSpec::synthetic("det", secs(30)).acpn(2).script(script(move |jc| {
        let dac = dac.clone();
        async move {
            let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
            let n = 256usize;
            let bytes = (n * 8) as u64;
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            // Overlapped kernels on the static pair.
            let mut launches = Vec::new();
            let mut sums = Vec::new();
            for &h in &handles {
                let a = ses.mem_alloc(h, bytes).await.unwrap();
                let b = ses.mem_alloc(h, bytes).await.unwrap();
                let c = ses.mem_alloc(h, bytes).await.unwrap();
                ses.mem_write(h, a, f64s_to_bytes(&xs)).await.unwrap();
                ses.mem_write(h, b, f64s_to_bytes(&xs)).await.unwrap();
                let args = KernelArgs::new(
                    4,
                    64,
                    vec![Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(n as u64)],
                );
                launches.push((h, c, ses.kernel_launch(h, "vector_add", args).await.unwrap()));
            }
            for (h, c, l) in launches {
                ses.op_wait(l).await.unwrap();
                let r = as_f64s(&ses.mem_read(h, c, bytes).await.unwrap());
                sums.push(r.iter().sum::<f64>());
            }
            assert_eq!(sums[0], sums[1]);
            // Grow the set dynamically under the class constraint, then
            // run the fabric collectives across all three.
            let set = ses.ac_get_class(1, 1, class).await.expect("third device free");
            let all: Vec<_> = {
                let mut v = handles.clone();
                v.extend(set.handles.iter().copied());
                v
            };
            let mut parts = Vec::new();
            for &h in &all {
                parts.push((h, ses.mem_alloc(h, 64).await.unwrap()));
            }
            ses.bcast_write(&parts, vec![7u8; 64]).await.unwrap();
            let gathered = ses.gather_read(&parts, 64).await.unwrap();
            assert_eq!(gathered, vec![7u8; 192]);
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0, "{class}: panics in determinism workload");
    let mut out = to_json_lines(&cluster.tracer.take());
    out.push_str(&format!(
        "{{\"stats\":{{\"events\":{},\"end_time_ns\":{},\"context_switches\":{}}}}}\n",
        stats.events,
        stats.end_time.as_nanos(),
        stats.context_switches,
    ));
    out
}

/// Battery 2: two fresh runs of the same seeded workload produce
/// byte-identical event traces — dispatch ordering is deterministic.
pub fn dispatch_determinism(class: DeviceClass) {
    let a = traced_workload(class, 9202);
    let b = traced_workload(class, 9202);
    assert!(!a.is_empty());
    assert_eq!(a, b, "{class}: dispatch trace diverged between identical runs");
}

/// Battery 3: a job exhausting its slice's memory quota neither steals
/// a co-resident slice's headroom nor blocks its dispatch.
pub fn slice_isolation(class: DeviceClass) {
    // One device, two slices of 2048 bytes each; two single-node jobs.
    let cfg = class_config(class, 9303, 2, 1, 2, DeviceProps::tiny(4096));
    let mut cluster = Cluster::build(cfg);
    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::new()));

    let d = dac.clone();
    let out = log.clone();
    let hog = JobSpec::synthetic("hog", secs(40)).script(script(move |jc| {
        let dac = d.clone();
        let out = out.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let set = ses.ac_get_slices(1, 1, class).await.expect("first slice");
            let h = set.handles[0];
            let slice = ses.handle_slice(h).expect("live");
            assert_ne!(slice, 0, "slice grants carry a real slice id");
            // Exhaust this slice's quota (2048 = 8 × 256) and hold it.
            let mut got = 0u32;
            loop {
                match ses.mem_alloc(h, 256).await {
                    Ok(_) => got += 1,
                    Err(DacError::Device(e)) => {
                        assert!(e.contains("out of memory"), "unexpected error: {e}");
                        break;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            out.lock().push(("hog-chunks", u64::from(got)));
            jc.proc.sleep(secs(20)).await; // hold while the tenant works
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(hog);

    let out = log.clone();
    let tenant = JobSpec::synthetic("tenant", secs(40)).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            // Let the hog grab its slice and exhaust it first.
            jc.proc.sleep(secs(5)).await;
            let set = ses.ac_get_slices(1, 1, class).await.expect("second slice co-resident");
            let h = set.handles[0];
            // Full quota still available: the hog's exhaustion is invisible.
            let n = 64usize;
            let bytes = (n * 8) as u64; // 3 × 512 + 512 = the 2048 quota
            let a = ses.mem_alloc(h, bytes).await.expect("quota intact");
            let b = ses.mem_alloc(h, bytes).await.expect("quota intact");
            let c = ses.mem_alloc(h, bytes).await.expect("quota intact");
            let fill = ses.mem_alloc(h, bytes).await.expect("full quota reachable");
            // And the dispatch queue is not blocked by the hog: kernels run.
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            ses.mem_write(h, a, f64s_to_bytes(&xs)).await.unwrap();
            ses.mem_write(h, b, f64s_to_bytes(&xs)).await.unwrap();
            let args = KernelArgs::new(
                1,
                64,
                vec![Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(n as u64)],
            );
            ses.kernel_run(h, "vector_add", args).await.expect("dispatch not blocked");
            let r = as_f64s(&ses.mem_read(h, c, bytes).await.unwrap());
            assert_eq!(r[1], 2.0);
            // The quota boundary holds for the tenant too.
            assert!(matches!(ses.mem_alloc(h, 1).await, Err(DacError::Device(_))));
            ses.mem_free(h, fill).await.unwrap();
            out.lock().push(("tenant-ok", 1));
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(tenant);

    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0, "{class}: panics in slice isolation battery");
    let v = log.lock().clone();
    assert!(
        v.contains(&("hog-chunks", 8)),
        "{class}: hog must get exactly its 2048-byte quota: {v:?}"
    );
    assert!(v.contains(&("tenant-ok", 1)), "{class}: tenant never completed: {v:?}");
}

/// Battery 4: broadcast replicates the payload to every member (via
/// hardware multicast or unicast per the class's capability — checked
/// through the `dac.bcast_*` counters), gather concatenates in rank
/// order, and the host-free reduction sums correctly.
pub fn collective_correctness(class: DeviceClass) {
    let cfg = class_config(class, 9404, 1, 3, 1, DeviceProps::tiny(1 << 20));
    let mut cluster = Cluster::build(cfg);
    let dac = cluster.dac.clone();
    let done = Arc::new(Mutex::new(false));
    let out = done.clone();
    let spec = JobSpec::synthetic("coll", secs(20)).acpn(3).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
            assert_eq!(handles.len(), 3);
            // Broadcast: every device ends up with the payload.
            let mut parts = Vec::new();
            for &h in &handles {
                parts.push((h, ses.mem_alloc(h, 64).await.unwrap()));
            }
            let payload: Vec<u8> = (0..64).collect();
            ses.bcast_write(&parts, payload.clone()).await.unwrap();
            for &(h, p) in &parts {
                assert_eq!(ses.mem_read(h, p, 64).await.unwrap(), payload);
            }
            // Gather: per-device distinct contents, concatenated in rank
            // order (root first, then the peers in handle order).
            for (i, &(h, p)) in parts.iter().enumerate() {
                ses.mem_write(h, p, vec![i as u8; 64]).await.unwrap();
            }
            let gathered = ses.gather_read(&parts, 64).await.unwrap();
            let expected: Vec<u8> = (0..3).flat_map(|i| std::iter::repeat_n(i as u8, 64)).collect();
            assert_eq!(gathered, expected);
            // Host-free reduction still holds on every class.
            let mut red = Vec::new();
            for (i, &h) in handles.iter().enumerate() {
                let p = ses.mem_alloc(h, 24).await.unwrap();
                let base = (i * 3) as f64;
                ses.mem_write(h, p, f64s_to_bytes(&[base, base + 1.0, base + 2.0])).await.unwrap();
                red.push((h, p));
            }
            let o = ses.mem_alloc(handles[0], 8).await.unwrap();
            let total = ses.group_reduce_sum(&red, 3, o).await.unwrap();
            assert_eq!(total, 36.0);
            *out.lock() = true;
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0, "{class}: panics in collective battery");
    assert!(*done.lock(), "{class}: collective script did not finish");
    // The fan-out strategy matches the class's declared capability: one
    // broadcast over 2 peers.
    let multicast = cluster.metrics.counter("dac.bcast_multicast");
    let unicast = cluster.metrics.counter("dac.bcast_unicast");
    match class {
        DeviceClass::DpuRankLike => {
            assert_eq!((multicast, unicast), (1, 0), "{class}: broadcast must use multicast");
        }
        DeviceClass::GpuLike => {
            assert_eq!((multicast, unicast), (0, 2), "{class}: broadcast must unicast per peer");
        }
    }
}

/// Battery 5: an accelerator that crashes mid-job (seeded network
/// outage) times out cleanly, its node leaves the pool, and the
/// surviving device returns to service for later jobs.
pub fn crash_reclaim(class: DeviceClass) {
    let horizon = SimTime::ZERO + secs(300);
    let mut cfg = class_config(class, 9505, 1, 2, 1, DeviceProps::tiny(1 << 20))
        .with_monitor(MonitorConfig::default(), horizon)
        .with_retry(RetryPolicy::standard());
    cfg.dac_cost.request_timeout = secs(2);
    let mut cluster = Cluster::build(cfg);
    let hosts = pool(&cluster, class);
    let victim = hosts[0];
    cluster.net.install_fault_plan(FaultPlan::new(9505).with_outage(
        victim,
        SimTime::ZERO + secs(10),
        horizon,
    ));

    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::new()));
    let out = log.clone();
    let spec =
        JobSpec::synthetic("unlucky", secs(40)).walltime(secs(120)).script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
                // The monitor requeues the job once it loses the victim,
                // so this script runs twice. The first incarnation holds
                // both devices across the outage; the requeued one finds
                // only the survivor left (its pool request for two is
                // rejected) — also part of the reclaim contract.
                match ses.ac_get_class(2, 2, class).await {
                    Ok(set) => {
                        // Outlive the outage start, then touch both daemons.
                        jc.proc.sleep(secs(15)).await;
                        let mut lost = None;
                        for &h in &set.handles {
                            match ses.mem_alloc(h, 64).await {
                                Ok(_) => {}
                                Err(DacError::Timeout(th)) => lost = Some(th),
                                Err(e) => panic!("unexpected error {e}"),
                            }
                        }
                        let lost = lost.expect("the crashed daemon must time out");
                        assert!(matches!(
                            ses.mem_alloc(lost, 1).await,
                            Err(DacError::BadHandle(_))
                        ));
                        out.lock().push("timed-out");
                        ses.finalize();
                        out.lock().push("finalized");
                    }
                    Err(DacError::Rejected(_)) => {
                        out.lock().push("incarnation-rejected");
                        ses.finalize();
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }));
    cluster.qsub(spec);

    // A later job: the survivor is back in the pool, the victim is not.
    let dac = cluster.dac.clone();
    let out = log.clone();
    let late =
        JobSpec::synthetic("later", secs(20)).walltime(secs(120)).script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
                match ses.ac_get_class(1, 1, class).await {
                    Ok(set) => {
                        out.lock().push("survivor-granted");
                        ses.ac_free(&set).await.unwrap();
                    }
                    Err(e) => panic!("survivor must be reclaimed: {e}"),
                }
                // The crashed node stays out of the pool.
                assert!(matches!(ses.ac_get_class(2, 2, class).await, Err(DacError::Rejected(_))));
                ses.finalize();
            }
        }));
    cluster.qsub_after(secs(120), late);

    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0, "{class}: panics in crash battery");
    assert!(!stats.hit_event_cap);
    let v = log.lock().clone();
    for step in ["timed-out", "finalized", "survivor-granted"] {
        assert!(v.contains(&step), "{class}: missing crash-reclaim step {step}: {v:?}");
    }
    let pos = |s| v.iter().position(|x| *x == s).unwrap();
    assert!(pos("timed-out") < pos("finalized"), "{class}: fail-fast precedes finalize");
}

/// Run every battery against one device class.
pub fn run_all(class: DeviceClass) {
    alloc_free_exhaustion(class);
    dispatch_determinism(class);
    slice_isolation(class);
    collective_correctness(class);
    crash_reclaim(class);
}
