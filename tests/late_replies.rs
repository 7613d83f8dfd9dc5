//! Regression guard for late replies after a front-end request timeout:
//! once `wait_reply` gives up on a request id, that id is tombstoned and
//! a reply arriving afterwards (or a duplicate delivered by a faulty
//! network) is discarded — never stashed against a future request.
//!
//! On main the full discard path is not reachable through the public API
//! alone (a timed-out handle is marked dead, so no later request targets
//! its rank); the unit tests in `frontend.rs` pin the discard decision
//! itself, and this test guards the surrounding end-to-end behaviour:
//! timeout → fail-fast → unrelated traffic unaffected → no stash growth
//! → clean finalize.

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

#[test]
fn timed_out_request_is_tombstoned_and_late_reply_discarded() {
    let mut config = ClusterConfig::fast(90).with_split(1, 2);
    config.dac_cost.request_timeout = secs(2);
    let mut cluster = Cluster::build(config);
    // A kernel slower than the request timeout: its reply arrives late.
    cluster.dac.kernels().register("slow", |_, _| SimDuration::from_secs(4), |_, _| Ok(()));
    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::new()));
    let out = log.clone();
    let spec = JobSpec::synthetic("latecomer", secs(60)).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let set = ses.ac_get(2).await.expect("both accelerators free");
            let (live, slow) = (set.handles[0], set.handles[1]);
            let launch = ses
                .kernel_launch(slow, "slow", KernelArgs::new(1, 1, vec![]))
                .await
                .expect("launch accepted");
            match ses.op_wait(launch).await {
                Err(DacError::Timeout(h)) => {
                    assert_eq!(h, slow);
                    out.lock().push("timeout");
                }
                other => panic!("expected timeout, got {other:?}"),
            }
            // The timed-out handle fails fast from now on.
            assert!(matches!(ses.mem_alloc(slow, 1).await, Err(DacError::BadHandle(_))));
            // Traffic on the live handle keeps flowing while the slow
            // kernel's reply is still in flight; it must never be
            // matched to these requests.
            let ptr = ses.mem_alloc(live, 64).await.expect("live handle still works");
            ses.mem_write(live, ptr, vec![1, 2, 3]).await.unwrap();
            // Outlive the slow kernel so its reply has arrived (and been
            // ignored) before we tear the session down.
            jc.proc.sleep(secs(5)).await;
            assert_eq!(ses.mem_read(live, ptr, 3).await.unwrap(), vec![1, 2, 3]);
            assert_eq!(ses.stashed_replies(), 0, "late reply must not be stashed");
            out.lock().push("clean");
            ses.finalize();
            out.lock().push("finalized");
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    assert_eq!(*log.lock(), vec!["timeout", "clean", "finalized"]);
}

/// A duplicated read request is answered once by execution and once
/// from the daemon's reply cache. The replay carries the same data, so
/// it must cost the same bytes on the wire as the first reply.
#[test]
fn replayed_read_reply_is_charged_its_full_size() {
    const LEN: u64 = 1 << 20;
    let mut cluster = Cluster::build(ClusterConfig::fast(91).with_split(1, 1));
    let (dac, net) = (cluster.dac.clone(), cluster.net.clone());
    let (cn, ac) = (cluster.compute[0], cluster.accs[0]);
    let read_bytes = Arc::new(Mutex::new(0u64));
    let out = read_bytes.clone();
    let spec = JobSpec::synthetic("reader", secs(60)).acpn(1).script(script(move |jc| {
        let (dac, net, out) = (dac.clone(), net.clone(), out.clone());
        async move {
            let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
            let h = handles[0];
            let ptr = ses.mem_alloc(h, LEN).await.unwrap();
            ses.mem_write(h, ptr, vec![7; LEN as usize]).await.unwrap();
            // Duplicate every compute-to-accelerator message, for the
            // read request alone.
            let dup = LinkFaults { duplicate: 1.0, ..LinkFaults::default() };
            net.install_fault_plan(FaultPlan::new(1).with_link(cn, ac, dup));
            let before = net.stats().bytes;
            assert_eq!(ses.mem_read(h, ptr, LEN).await.unwrap().len(), LEN as usize);
            net.install_fault_plan(FaultPlan::new(1));
            // Let the replayed reply land before counting.
            jc.proc.sleep(secs(1)).await;
            *out.lock() = net.stats().bytes - before;
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);
    let bytes = *read_bytes.lock();
    assert!(bytes >= 2 * LEN, "two data replies carry {} bytes, not {bytes}", 2 * LEN);
}
