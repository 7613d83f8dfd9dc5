//! Heterogeneous-fabric evaluation (DESIGN.md §15): per-backend kernel
//! dispatch-latency sweeps in the style of Fig. 7/9 — the same probe
//! run against every device class of the fabric — plus a mixed
//! GPU + DPU co-scheduled scenario whose trace is pinned as a golden.

use std::sync::Arc;

use darms::prelude::*;
use darms_sim::QuantileEstimator;
use parking_lot::Mutex;

use crate::invariants::Audit;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// One per-backend row of the dispatch-latency sweep.
#[derive(Clone, Copy, Debug)]
pub struct FabricLatencyRow {
    /// The device class probed.
    pub class: DeviceClass,
    /// Dispatches measured.
    pub kernels: usize,
    /// Median round-trip dispatch latency, virtual seconds.
    pub p50: f64,
    /// Tail round-trip dispatch latency, virtual seconds.
    pub p99: f64,
}

/// A paper-calibrated single-accelerator cluster whose one device is of
/// `class` (the GPU pool for `GpuLike`, a DPU rank appended through
/// [`FabricConfig`] for `DpuRankLike`).
fn class_cluster(class: DeviceClass, seed: u64) -> Cluster {
    let cfg = match class {
        DeviceClass::GpuLike => ClusterConfig::paper_testbed(seed).with_split(1, 1),
        DeviceClass::DpuRankLike => {
            ClusterConfig::paper_testbed(seed).with_split(1, 0).with_fabric(FabricConfig {
                dpu_ranks: 1,
                dpu_slices: 1,
                gpu_slices: 1,
                dpu_device: None,
            })
        }
    };
    Cluster::build(cfg)
}

/// One trial: `kernels` synchronous `vector_add` dispatches on a single
/// statically allocated device of `class`; returns every round-trip
/// latency (request, device compute at the class's flops/bandwidth,
/// reply) in virtual seconds. Deterministic for a fixed seed.
pub fn dispatch_latency_trial(class: DeviceClass, kernels: usize, seed: u64) -> Vec<f64> {
    let mut cluster = class_cluster(class, seed);
    let dac = cluster.dac.clone();
    let lat = Arc::new(Mutex::new(Vec::with_capacity(kernels)));
    let out = lat.clone();
    let spec = JobSpec::synthetic("lat", secs(600)).acpn(1).walltime(secs(3600)).script(script(
        move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
                let h = handles[0];
                // Large enough that the class's compute rate shows
                // through the fixed request overhead (~tens of µs of
                // FLOP time on a DPU rank, negligible on a 2013 GPU).
                let n = 1usize << 18;
                let bytes = (n * 8) as u64;
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let a = ses.mem_alloc(h, bytes).await.unwrap();
                let b = ses.mem_alloc(h, bytes).await.unwrap();
                let c = ses.mem_alloc(h, bytes).await.unwrap();
                ses.mem_write(h, a, f64s_to_bytes(&xs)).await.unwrap();
                ses.mem_write(h, b, f64s_to_bytes(&xs)).await.unwrap();
                let args = || {
                    KernelArgs::new(
                        32,
                        128,
                        vec![Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(n as u64)],
                    )
                };
                for _ in 0..kernels {
                    let t0 = jc.proc.now();
                    ses.kernel_run(h, "vector_add", args()).await.unwrap();
                    out.lock().push(jc.proc.now().since(t0).as_secs_f64());
                }
                ses.finalize();
            }
        },
    ));
    cluster.qsub(spec);
    Audit::end_of_run().run(&mut cluster).1.assert_clean(&format!("{class} latency trial"));
    let v = lat.lock().clone();
    assert_eq!(v.len(), kernels, "{class}: every dispatch must be measured");
    v
}

/// The per-backend sweep: the identical probe against every device
/// class of the fabric, folded to p50/p99 rows.
pub fn fabric_sweep(kernels: usize, seed: u64) -> Vec<FabricLatencyRow> {
    [DeviceClass::GpuLike, DeviceClass::DpuRankLike]
        .into_iter()
        .map(|class| {
            let lats = dispatch_latency_trial(class, kernels, seed);
            let mut est = QuantileEstimator::new();
            est.observe_all(&lats);
            let s = est.summary().expect("kernels > 0");
            FabricLatencyRow { class, kernels, p50: s.p50, p99: s.p99 }
        })
        .collect()
}

/// The mixed-fabric scenario: a GPU-slice job and a DPU-rank collective
/// job co-scheduled on one heterogeneous cluster — two GPU-like devices
/// carved into two slices each plus two DPU ranks, paper-calibrated
/// costs. The GPU job takes a slice (not a whole device) and runs
/// kernels under the slice's dispatch weight; the DPU job takes both
/// ranks and drives a multicast broadcast plus a rank-ordered gather.
/// Returns the full structured trace and the engine statistics.
pub fn mixed_fabric_traced(seed: u64) -> (Vec<TraceEvent>, SimStats) {
    let cfg = ClusterConfig::paper_testbed(seed)
        .with_split(2, 2)
        .with_fabric(FabricConfig { dpu_ranks: 2, dpu_slices: 2, gpu_slices: 2, dpu_device: None })
        .with_trace();
    let mut cluster = Cluster::build(cfg);

    let dac = cluster.dac.clone();
    let gpu_sum = Arc::new(Mutex::new(0.0));
    let out = gpu_sum.clone();
    let gpu_job =
        JobSpec::synthetic("gpu-slice", secs(120)).walltime(secs(600)).script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
                let set = ses.ac_get_slices(1, 1, DeviceClass::GpuLike).await.expect("slice free");
                let h = set.handles[0];
                let n = 1024usize;
                let bytes = (n * 8) as u64;
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let a = ses.mem_alloc(h, bytes).await.unwrap();
                let b = ses.mem_alloc(h, bytes).await.unwrap();
                let c = ses.mem_alloc(h, bytes).await.unwrap();
                ses.mem_write(h, a, f64s_to_bytes(&xs)).await.unwrap();
                ses.mem_write(h, b, f64s_to_bytes(&xs)).await.unwrap();
                let args = KernelArgs::new(
                    8,
                    128,
                    vec![Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(n as u64)],
                );
                ses.kernel_run(h, "vector_add", args).await.unwrap();
                let r = as_f64s(&ses.mem_read(h, c, bytes).await.unwrap());
                *out.lock() = r.iter().sum();
                ses.ac_free(&set).await.unwrap();
                ses.finalize();
            }
        }));
    cluster.qsub(gpu_job);

    let dac = cluster.dac.clone();
    let dpu_ok = Arc::new(Mutex::new(false));
    let out = dpu_ok.clone();
    let dpu_job =
        JobSpec::synthetic("dpu-bcast", secs(120)).walltime(secs(600)).script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
                let set =
                    ses.ac_get_class(2, 2, DeviceClass::DpuRankLike).await.expect("ranks free");
                let mut parts = Vec::new();
                for &h in &set.handles {
                    parts.push((h, ses.mem_alloc(h, 256).await.unwrap()));
                }
                // Multicast broadcast across the rank fabric, then a
                // rank-ordered gather of per-rank results.
                ses.bcast_write(&parts, vec![5u8; 256]).await.unwrap();
                for (i, &(h, p)) in parts.iter().enumerate() {
                    assert_eq!(ses.mem_read(h, p, 256).await.unwrap(), vec![5u8; 256]);
                    ses.mem_write(h, p, vec![i as u8; 256]).await.unwrap();
                }
                let gathered = ses.gather_read(&parts, 256).await.unwrap();
                assert_eq!(gathered.len(), 512);
                assert!(gathered[..256].iter().all(|&b| b == 0));
                assert!(gathered[256..].iter().all(|&b| b == 1));
                *out.lock() = true;
                ses.ac_free(&set).await.unwrap();
                ses.finalize();
            }
        }));
    cluster.qsub(dpu_job);

    let (stats, report) = Audit::end_of_run().run(&mut cluster);
    report.assert_clean("mixed-fabric scenario");
    assert_eq!(*gpu_sum.lock(), (0..1024).map(|i| 2.0 * i as f64).sum::<f64>());
    assert!(*dpu_ok.lock(), "DPU collective job must finish");
    // The broadcast went over the rank fabric's multicast, never unicast.
    assert!(cluster.metrics.counter("dac.bcast_multicast") >= 1);
    assert_eq!(cluster.metrics.counter("dac.bcast_unicast"), 0);
    (cluster.tracer.take(), stats)
}
