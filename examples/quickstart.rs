//! Quickstart: boot an 8-host simulated DAC cluster, submit a job that
//! statically requests three network-attached accelerators
//! (`qsub -l nodes=1:acpn=3`), offload a real vector addition to each of
//! them through the computation API, and print the timeline.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

fn main() {
    // The paper's testbed: 8 hosts; here 1 head + 1 compute node + 6
    // network-attached accelerators, with 2013-calibrated cost models.
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(42).with_split(1, 6));
    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::<String>::new()));

    let out = log.clone();
    let spec = JobSpec::synthetic("quickstart", SimDuration::from_secs(5))
        .owner("alice")
        .acpn(3)
        .script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            async move {
                let t = |jc: &JobCtx| format!("[t={:>8.3}s]", jc.proc.now().as_secs_f64());
                out.lock().push(format!(
                    "{} job {} started on host{} with {} static accelerators",
                    t(&jc),
                    jc.job,
                    jc.host.index(),
                    jc.acc_hosts.len()
                ));

                // AC_Init: wait for the daemons, connect, merge (Fig. 5).
                let (mut ses, handles) = AcSession::init(&jc, &dac, Some(jc.proc.metrics())).await;
                out.lock().push(format!("{} AC_Init complete: handles {:?}", t(&jc), handles));

                // Offload c = a + b to every accelerator (Listing 1).
                let n = 1 << 16;
                let a_host: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let b_host: Vec<f64> = (0..n).map(|i| (2 * i) as f64).collect();
                for &h in &handles {
                    let bytes = (n * 8) as u64;
                    let a = ses.mem_alloc(h, bytes).await.unwrap();
                    let b = ses.mem_alloc(h, bytes).await.unwrap();
                    let c = ses.mem_alloc(h, bytes).await.unwrap();
                    ses.mem_write(h, a, f64s_to_bytes(&a_host)).await.unwrap();
                    ses.mem_write(h, b, f64s_to_bytes(&b_host)).await.unwrap();
                    ses.kernel_run(
                        h,
                        "vector_add",
                        KernelArgs::new(
                            256,
                            256,
                            vec![Param::Ptr(a), Param::Ptr(b), Param::Ptr(c), Param::U64(n as u64)],
                        ),
                    )
                    .await
                    .unwrap();
                    let result = as_f64s(&ses.mem_read(h, c, bytes).await.unwrap());
                    assert!(result.iter().enumerate().all(|(i, v)| *v == (3 * i) as f64));
                    ses.mem_free(h, a).await.unwrap();
                    ses.mem_free(h, b).await.unwrap();
                    ses.mem_free(h, c).await.unwrap();
                    out.lock().push(format!(
                        "{} {}: vector_add of {n} elements verified",
                        t(&jc),
                        h
                    ));
                }
                ses.finalize();
                out.lock().push(format!("{} AC_Finalize done", t(&jc)));
            }
        }));

    cluster.qsub(spec);
    let stats = cluster.run();

    println!("== quickstart: static allocation of network-attached accelerators ==\n");
    for line in log.lock().iter() {
        println!("{line}");
    }
    if let Some(wait) = cluster.metrics.histogram("acinit.wait") {
        let connect = cluster.metrics.histogram("acinit.connect").unwrap();
        println!("\nAC_Init breakdown (cf. paper Fig. 7a):");
        println!("  waiting for daemons : {:.3} s", wait.mean);
        println!("  communicator setup  : {:.3} s", connect.mean);
    }
    println!(
        "\nsimulation: {} events, virtual time {:.3} s, {} processes",
        stats.events,
        stats.end_time.as_secs_f64(),
        stats.processes_spawned
    );
    assert_eq!(stats.process_panics, 0);
}
