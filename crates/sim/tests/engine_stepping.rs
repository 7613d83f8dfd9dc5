//! Incremental execution: `run_until` advances the clock in bounded
//! steps, state persists between calls, and `finish` is idempotent.

use std::sync::Arc;

use darms_sim::{Engine, SimConfig, SimDuration, SimTime};
use parking_lot::Mutex;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn run_until_stops_at_the_boundary_and_resumes() {
    let mut sim = Engine::with_seed(5);
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    sim.spawn_process("ticker", move |p| async move {
        for i in 0..10 {
            p.sleep(ms(10)).await;
            l.lock().push((i, p.now()));
        }
    });
    sim.run_until(SimTime::ZERO + ms(35));
    assert_eq!(log.lock().len(), 3, "ticks at 10, 20, 30 ms");
    assert!(sim.now() <= SimTime::ZERO + ms(35));
    sim.run_until(SimTime::ZERO + ms(95));
    assert_eq!(log.lock().len(), 9);
    let stats = sim.finish();
    // finish() unwinds the parked ticker (its 10th tick never fires).
    assert_eq!(stats.processes_spawned, 1);
    // idempotent
    let again = sim.finish();
    assert_eq!(stats.events, again.events);
}

#[test]
fn state_between_steps_is_observable() {
    let mut sim = Engine::with_seed(6);
    let counter = Arc::new(Mutex::new(0u32));
    let c = counter.clone();
    sim.spawn_process("worker", move |p| async move {
        loop {
            p.sleep(ms(100)).await;
            *c.lock() += 1;
        }
    });
    for expected in 1..=5u32 {
        sim.run_until(SimTime::ZERO + ms(100 * expected as u64));
        assert_eq!(*counter.lock(), expected);
    }
    sim.finish();
}

#[test]
fn trace_survives_incremental_runs() {
    let mut sim = Engine::new(SimConfig { seed: 7, trace: true, ..Default::default() });
    sim.spawn_process("a", |p| async move {
        p.sleep(ms(5)).await;
        p.trace("early");
        p.sleep(ms(50)).await;
        p.trace("late");
    });
    sim.run_until(SimTime::ZERO + ms(10));
    sim.run_until(SimTime::MAX);
    sim.finish();
    let trace = sim.take_events();
    let events: Vec<&str> = trace.iter().map(|ev| ev.name.as_str()).collect();
    assert_eq!(events, vec!["early", "late"]);
}
