//! An *evolving* application: computational phases with different
//! accelerator demand, grown and shrunk at runtime with `AC_Get`/`AC_Free`
//! — the usage scenario motivating the paper. Includes a deliberately
//! oversized request that the batch system rejects (the application
//! continues with its current set, §II-B).
//!
//! Run with: `cargo run --example dynamic_scaling`

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(7).with_split(1, 6));
    let dac = cluster.dac.clone();
    let recorder = cluster.recorder.clone();
    let log = Arc::new(Mutex::new(Vec::<String>::new()));

    let out = log.clone();
    let rec = recorder.clone();
    let spec = JobSpec::synthetic("evolving", SimDuration::from_secs(60))
        .owner("bob")
        .acpn(1) // start small: one static accelerator
        .script(script(move |jc| {
            let dac = dac.clone();
            let rec = rec.clone();
            let out = out.clone();
            async move {
                let say = |jc: &JobCtx, s: String| {
                    out.lock().push(format!("[t={:>7.3}s] {s}", jc.proc.now().as_secs_f64()));
                };
                let (mut ses, statics) = AcSession::init(&jc, &dac, Some(rec.clone())).await;
                say(&jc, format!("phase 1: warm-up on {} static accelerator", statics.len()));
                let hs = ses_handles(&ses);
                run_phase(&mut ses, &hs, &jc, 1 << 14).await;

                // Phase 2 needs much more parallelism: grow by 4.
                say(&jc, "phase 2: AC_Get(4) — demanding phase begins".into());
                let set = ses.ac_get(4).await.expect("pool of 6 has 5 free");
                say(
                    &jc,
                    format!("  granted {} ({} accelerators live)", set.client_id, ses.live_count()),
                );
                let hs = ses_handles(&ses);
                run_phase(&mut ses, &hs, &jc, 1 << 15).await;

                // An oversized request: only 1 accelerator remains free.
                say(&jc, "phase 2b: AC_Get(3) — expected to be rejected".into());
                match ses.ac_get(3).await {
                    Err(DacError::Rejected(r)) => {
                        say(&jc, format!("  rejected ({r:?}); continuing with current set"))
                    }
                    other => panic!("expected rejection, got {other:?}"),
                }

                // Phase 3 is light again: release the dynamic set.
                say(&jc, "phase 3: AC_Free — shrinking back".into());
                ses.ac_free(&set).await.unwrap();
                say(&jc, format!("  released; {} accelerator(s) live", ses.live_count()));
                let hs = ses_handles(&ses);
                run_phase(&mut ses, &hs, &jc, 1 << 13).await;

                ses.finalize();
                say(&jc, "AC_Finalize".into());
            }
        }));

    cluster.qsub(spec);
    let stats = cluster.run();

    println!("== dynamic_scaling: an evolving application under the dynamic batch system ==\n");
    for line in log.lock().iter() {
        println!("{line}");
    }
    if let Some(batch) = recorder.summary("acget.batch") {
        let mpi = recorder.summary("acget.mpi").unwrap();
        println!("\nAC_Get breakdown over {} successful call(s) (cf. paper Fig. 7b):", batch.n);
        println!("  batch system            : mean {:.3} s", batch.mean);
        println!("  resource mgmt lib (MPI) : mean {:.3} s", mpi.mean);
    }
    if let Some(rej) = recorder.summary("acget.rejected") {
        println!("  rejected request latency: mean {:.3} s", rej.mean);
    }
    println!(
        "\nsimulation: {} events, virtual time {:.3} s",
        stats.events,
        stats.end_time.as_secs_f64()
    );
    assert_eq!(stats.process_panics, 0);
}

fn ses_handles(ses: &AcSession) -> Vec<AcHandle> {
    ses.live_handles()
}

/// One compute phase: scale a vector on every live accelerator, kernels
/// launched asynchronously across the set and then drained (the
/// latency-hiding pattern from the paper's introduction).
async fn run_phase(ses: &mut AcSession, handles: &[AcHandle], jc: &JobCtx, n: usize) {
    let bytes = (n * 8) as u64;
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut allocated = Vec::new();
    for &h in handles {
        let p = ses.mem_alloc(h, bytes).await.unwrap();
        ses.mem_write(h, p, f64s_to_bytes(&xs)).await.unwrap();
        allocated.push((h, p));
    }
    // Launch everywhere, then wait everywhere: kernels overlap.
    let mut pending = Vec::new();
    for &(h, p) in &allocated {
        let l = ses
            .kernel_launch(
                h,
                "scale",
                KernelArgs::new(
                    128,
                    128,
                    vec![Param::Ptr(p), Param::U64(n as u64), Param::F64(2.0)],
                ),
            )
            .await
            .unwrap();
        pending.push(l);
    }
    for l in pending {
        ses.op_wait(l).await.unwrap();
    }
    for (h, p) in allocated {
        let r = as_f64s(&ses.mem_read(h, p, 64).await.unwrap());
        assert_eq!(r[1], 2.0, "scaled by 2");
        ses.mem_free(h, p).await.unwrap();
    }
    let _ = jc;
}
