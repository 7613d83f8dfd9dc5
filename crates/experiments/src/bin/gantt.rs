//! Visual replay: run a generated mixed workload through the batch
//! system and print an ASCII Gantt chart of per-job lifetimes (queued vs
//! running) plus accelerator-pool occupancy over time — the schedule the
//! batch system actually produced.
//!
//! Run with: `cargo run --release -p darms-experiments --bin gantt`
//!
//! The run collects the structured event stream; set
//! `DARMS_CHROME_TRACE=/path/to/trace.json` to also write it in Chrome
//! `trace_event` format (open in `chrome://tracing` or Perfetto), or
//! `DARMS_JSONL_TRACE=/path` for a JSON-lines dump.

use std::sync::Arc;

use darms::prelude::*;
use darms_experiments::invariants::Audit;
use darms_workload::WorkloadConfig;
use parking_lot::Mutex;

const WIDTH: usize = 88;

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(77).with_split(3, 4));
    cluster.tracer.set_enabled(true);
    let dac = cluster.dac.clone();
    let pool = cluster.accs.len();
    let trace = WorkloadConfig::mixed().generate(14, 21);
    // (time, +/- accelerators held) events for pool occupancy.
    let acc_events = Arc::new(Mutex::new(Vec::<(SimTime, i64)>::new()));

    for (i, t) in trace.iter().enumerate() {
        let nodes = t.nodes.min(3);
        let acpn = t.acpn.min((pool / nodes) as u32);
        let runtime = t.runtime;
        let d = dac.clone();
        let ev = acc_events.clone();
        let statics = (nodes * acpn as usize) as i64;
        let spec = JobSpec::synthetic(format!("job{i:02}"), runtime)
            .owner(&t.owner)
            .nodes(nodes)
            .ppn(t.ppn.min(8))
            .acpn(acpn)
            .walltime(t.walltime_estimate)
            .script(script(move |jc| {
                let d = d.clone();
                let ev = ev.clone();
                async move {
                    if jc.node_index == 0 && statics > 0 {
                        ev.lock().push((jc.proc.now(), statics));
                    }
                    let (mut ses, _) = AcSession::init(&jc, &d, None).await;
                    jc.proc.sleep(runtime / 2).await;
                    if jc.node_index == 0 && i % 3 == 0 {
                        if let Ok(set) = ses.ac_get(1).await {
                            ev.lock().push((jc.proc.now(), 1));
                            jc.proc.sleep(runtime / 2).await;
                            ses.ac_free(&set).await.unwrap();
                            ev.lock().push((jc.proc.now(), -1));
                        } else {
                            jc.proc.sleep(runtime / 2).await;
                        }
                    } else {
                        jc.proc.sleep(runtime / 2).await;
                    }
                    ses.finalize();
                    if jc.node_index == 0 && statics > 0 {
                        ev.lock().push((jc.proc.now(), -statics));
                    }
                }
            }));
        cluster.qsub_after(t.arrival, spec);
    }

    let audit =
        Audit::watch(&mut cluster, 14, SimDuration::from_secs(1), SimDuration::from_secs(10));
    let (stats, report) = audit.run(&mut cluster);
    report.assert_clean("schedule replay");
    let statuses = report.statuses;
    let t_end =
        statuses.iter().filter_map(|s| s.completed).max().expect("jobs finished").as_secs_f64();
    let scale = |t: f64| ((t / t_end) * (WIDTH as f64 - 1.0)) as usize;

    println!(
        "== schedule replay: 14 jobs on 3 CN + 4 AC (one row per job; · queued, █ running) ==\n"
    );
    let axis = format!("0s {:>width$}", format!("{t_end:.0}s"), width = WIDTH - 3);
    println!("{:<7} {:<6} {axis}", "job", "owner");
    for s in &statuses {
        let sub = scale(s.submitted.as_secs_f64());
        let start = scale(s.started.expect("ran").as_secs_f64());
        let end = scale(s.completed.expect("done").as_secs_f64());
        let mut row = vec![' '; WIDTH];
        for c in row.iter_mut().take(start).skip(sub) {
            *c = '·';
        }
        for c in row.iter_mut().take(end + 1).skip(start) {
            *c = '█';
        }
        let line: String = row.into_iter().collect();
        println!("{:<7} {:<6} {}", s.name, s.owner, line);
    }

    // Accelerator pool occupancy sparkline.
    let mut events = acc_events.lock().clone();
    events.sort_by_key(|(t, _)| *t);
    let mut level: i64 = 0;
    let mut occupancy = vec![0i64; WIDTH];
    let mut ei = 0;
    for (x, slot) in occupancy.iter_mut().enumerate() {
        let t_slot = (x as f64 / (WIDTH as f64 - 1.0)) * t_end;
        while ei < events.len() && events[ei].0.as_secs_f64() <= t_slot {
            level += events[ei].1;
            ei += 1;
        }
        *slot = level.clamp(0, pool as i64);
    }
    let glyphs = [' ', '▁', '▂', '▄', '█'];
    let line: String =
        occupancy.iter().map(|&l| glyphs[(l as usize * (glyphs.len() - 1)) / pool]).collect();
    println!("\n{:<14} {}", format!("AC pool (of {pool})"), line);
    println!(
        "\nvirtual time simulated: {:.0} s in {} events",
        stats.end_time.as_secs_f64(),
        stats.events
    );

    // Structured event stream: summarize, and export on request.
    let events = cluster.sim.take_events();
    let (mut from_kernel, mut from_actors, mut from_procs) = (0usize, 0usize, 0usize);
    for ev in &events {
        match ev.source {
            TraceSource::Kernel => from_kernel += 1,
            TraceSource::Actor(_) => from_actors += 1,
            TraceSource::Process(_) => from_procs += 1,
        }
    }
    println!(
        "trace events collected: {} ({from_kernel} kernel, {from_actors} actor, {from_procs} process)",
        events.len()
    );
    if let Ok(path) = std::env::var("DARMS_CHROME_TRACE") {
        write_chrome_trace(&path, &events).expect("write chrome trace");
        println!("chrome trace written to {path}");
    }
    if let Ok(path) = std::env::var("DARMS_JSONL_TRACE") {
        write_json_lines(&path, &events).expect("write jsonl trace");
        println!("json-lines trace written to {path}");
    }

    // Registry metrics: the batch system's own view of the run.
    let m = &cluster.metrics;
    if let Some(h) = m.histogram("rms.qsub_to_run") {
        println!(
            "qsub→run latency: n={} p50={:.1}s p95={:.1}s max={:.1}s",
            h.count, h.p50, h.p95, h.max
        );
    }
    if let Some(util) = m.twg_mean("rms.acc_pool_util", stats.end_time) {
        println!("mean accelerator-pool utilization: {:.1}%", util * 100.0);
    }
    println!(
        "scheduler iterations: {}; backfill hits: {}; dynjoin: {}; disjoin: {}",
        m.counter("sched.iterations"),
        m.counter("sched.backfill_hits"),
        m.counter("rms.dynjoin"),
        m.counter("rms.disjoin"),
    );
    println!(
        "network: {} messages, {} bytes, engine overhead {:.2} ms wall per simulated second",
        m.counter("net.messages"),
        m.counter("net.bytes"),
        stats.wall_per_sim_second() * 1e3,
    );
}
