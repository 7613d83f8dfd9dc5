//! Protocol faithfulness: the traced event order of a static + dynamic
//! job must follow the paper's workflow diagrams —
//! Fig. 5 (static): submit → schedule → send to mother superior → joins →
//! daemons started → job starts → AC_Init connects;
//! Fig. 6 (dynamic): AC_Get → dynqueued servicing → scheduler grant →
//! DYNJOIN → client-id reply → spawn/merge; then release and exit.

use darms::prelude::*;

fn position(trace: &[(f64, String, String)], needle: &str) -> usize {
    trace
        .iter()
        .position(|(_, _, e)| e.contains(needle))
        .unwrap_or_else(|| panic!("trace event not found: {needle}\ntrace: {trace:#?}"))
}

#[test]
fn static_and_dynamic_workflow_event_order() {
    let mut cluster =
        Cluster::build(ClusterConfig::paper_testbed(99).with_split(1, 4).with_trace());
    let dac = cluster.dac.clone();
    let spec =
        JobSpec::synthetic("flow", SimDuration::from_secs(5)).acpn(1).script(script(move |jc| {
            let dac = dac.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
                let set = ses.ac_get(2).await.expect("pool has 3 free");
                ses.ac_free(&set).await.unwrap();
                // Keep the job alive past the asynchronous disassociation so
                // the DISJOIN round-trip completes while the job still runs
                // (AC_Free itself returns immediately, §III-D).
                jc.proc.sleep(SimDuration::from_secs(1)).await;
                ses.finalize();
            }
        }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);

    let trace: Vec<(f64, String, String)> = cluster
        .sim
        .take_events()
        .into_iter()
        .map(|ev| (ev.time.as_secs_f64(), ev.source_name.to_string(), ev.name))
        .collect();

    // Fig. 5 order: queued -> scheduler starts it -> mother superior ->
    // accelerator daemons -> (AC_Init happens inside the app).
    let queued = position(&trace, "job1 queued");
    let sched = position(&trace, "starting job1");
    let ms = position(&trace, "job1 -> mother superior");
    let join = position(&trace, "job1: mother superior, 1 sister(s)");
    let daemons = position(&trace, "starting 1 accelerator daemon(s)");
    assert!(
        queued < sched && sched < ms && ms < join && join < daemons,
        "static workflow order violated: {queued} {sched} {ms} {join} {daemons}"
    );

    // Fig. 6 order: servicing -> scheduler grant -> DYNJOIN -> client-id.
    let servicing = position(&trace, "servicing dynamic request of job1");
    let dyn_grant = position(&trace, "dyn request of job1 granted");
    let dynjoin = position(&trace, "job1: DYNJOIN of 2 host(s)");
    let client_id = position(&trace, "job1 granted 2 accelerator(s) as client1");
    assert!(daemons < servicing, "dynamic phase after static start");
    assert!(
        servicing < dyn_grant && dyn_grant < dynjoin && dynjoin < client_id,
        "dynamic workflow order violated: {servicing} {dyn_grant} {dynjoin} {client_id}"
    );

    // Release and exit close the cycle.
    let released = position(&trace, "job1 released set client1");
    let done = position(&trace, "job1: all tasks done");
    let complete = position(&trace, "job1 complete");
    assert!(
        client_id < released && released < done && done < complete,
        "teardown order violated: {client_id} {released} {done} {complete}"
    );

    // The trace carries wall-clock-ordered timestamps throughout.
    for w in trace.windows(2) {
        assert!(w[0].0 <= w[1].0, "trace time went backwards");
    }
}
