//! Property and integration tests for the metrics registry: merging two
//! registries must be indistinguishable from recording everything into
//! one, and the time-weighted gauge must integrate over *virtual* time.

use darms_sim::{Engine, MetricsRegistry, SimDuration, SimTime};
use proptest::prelude::*;

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// One recording operation against a registry.
#[derive(Clone, Debug)]
enum Op {
    Counter(u8, u64),
    Hist(u8, u64),
    Twg(u8, u64),
}

fn apply(reg: &MetricsRegistry, op: &Op, seq_ns: u64) {
    match op {
        Op::Counter(name, v) => reg.counter_add(&format!("c{name}"), *v),
        Op::Hist(name, v) => reg.observe(&format!("h{name}"), *v as f64),
        // Strictly increasing distinct timestamps (driven by the op's
        // position in the combined sequence) keep the merge exact.
        Op::Twg(name, v) => reg.twg_set(&format!("g{name}"), t(seq_ns), *v as f64),
    }
}

fn op_strategy() -> BoxedStrategy<Op> {
    (0u64..3, 0u8..4, 0u64..1000)
        .prop_map(|(kind, name, v)| match kind {
            0 => Op::Counter(name % 2, v),
            1 => Op::Hist(name % 2, v),
            _ => Op::Twg(name % 2, v),
        })
        .boxed()
}

/// Compare two registries on everything the public API exposes.
fn assert_equivalent(a: &MetricsRegistry, b: &MetricsRegistry, until: SimTime) {
    assert_eq!(a.names(), b.names());
    let (counters, twgs, hists) = a.names();
    for name in &counters {
        assert_eq!(a.counter(name), b.counter(name), "counter {name}");
    }
    for name in &twgs {
        assert_eq!(a.twg_updates(name), b.twg_updates(name), "twg {name}");
        assert_eq!(a.twg_mean(name, until), b.twg_mean(name, until), "twg mean {name}");
    }
    for name in &hists {
        let mut sa = a.histogram_samples(name);
        let mut sb = b.histogram_samples(name);
        sa.sort_by(f64::total_cmp);
        sb.sort_by(f64::total_cmp);
        assert_eq!(sa, sb, "histogram samples {name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Recording ops into two registries and merging them equals
    /// recording the same ops into a single registry.
    #[test]
    fn merge_equals_record_into_one(
        left in prop::collection::vec(op_strategy(), 0..20),
        right in prop::collection::vec(op_strategy(), 0..20),
    ) {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let combined = MetricsRegistry::new();
        // Interleave deterministically: left ops first, then right, with
        // globally unique virtual timestamps.
        for (i, op) in left.iter().enumerate() {
            apply(&a, op, (i as u64 + 1) * 10);
            apply(&combined, op, (i as u64 + 1) * 10);
        }
        let base = (left.len() as u64 + 1) * 10;
        for (i, op) in right.iter().enumerate() {
            apply(&b, op, base + (i as u64 + 1) * 10);
            apply(&combined, op, base + (i as u64 + 1) * 10);
        }
        a.merge_from(&b);
        let until = t(base + (right.len() as u64 + 2) * 10);
        assert_equivalent(&a, &combined, until);
    }

    /// Counter totals survive any split of the same additions.
    #[test]
    fn counters_are_order_independent(adds in prop::collection::vec(0u64..1_000_000, 1..30)) {
        let split = adds.len() / 2;
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for v in &adds[..split] {
            a.counter_add("n", *v);
        }
        for v in &adds[split..] {
            b.counter_add("n", *v);
        }
        a.merge_from(&b);
        prop_assert_eq!(a.counter("n"), adds.iter().sum::<u64>());
    }
}

#[test]
fn twg_integrates_over_engine_virtual_time() {
    // Drive the gauge from inside a simulation: the mean must weight by
    // virtual (not wall) time.
    let mut sim = Engine::with_seed(3);
    let m = sim.metrics();
    let reg = m.clone();
    sim.spawn_process("driver", move |p| async move {
        reg.twg_set("load", p.now(), 0.0);
        p.sleep(SimDuration::from_secs(10)).await;
        reg.twg_set("load", p.now(), 6.0);
        p.sleep(SimDuration::from_secs(30)).await;
        reg.twg_set("load", p.now(), 2.0);
        p.sleep(SimDuration::from_secs(10)).await;
    });
    let stats = sim.run();
    assert_eq!(stats.end_time, SimTime::ZERO + SimDuration::from_secs(50));
    // (0*10 + 6*30 + 2*10) / 50 = 4.0
    let mean = m.twg_mean("load", stats.end_time).unwrap();
    assert!((mean - 4.0).abs() < 1e-9, "mean {mean}");
}

#[test]
fn histogram_summary_quantiles_on_known_data() {
    let m = MetricsRegistry::new();
    for v in 1..=100 {
        m.observe("lat", v as f64);
    }
    let h = m.histogram("lat").unwrap();
    assert_eq!(h.count, 100);
    assert_eq!(h.min, 1.0);
    assert_eq!(h.max, 100.0);
    assert!((h.mean - 50.5).abs() < 1e-9);
    assert!(h.p50 > 49.0 && h.p50 < 52.0, "p50 {}", h.p50);
    assert!(h.p95 > 94.0 && h.p95 < 97.0, "p95 {}", h.p95);
    assert!(h.p99 > 98.0 && h.p99 <= 100.0, "p99 {}", h.p99);
}

#[test]
fn engine_profiling_counters_populate() {
    let mut sim = Engine::with_seed(7);
    sim.spawn_process("a", |p| async move {
        for _ in 0..10 {
            p.sleep(SimDuration::from_millis(1)).await;
        }
    });
    sim.spawn_process("b", |p| async move { p.sleep(SimDuration::from_millis(5)).await });
    let stats = sim.run();
    assert!(stats.events > 0);
    assert!(stats.peak_queue_depth >= 1);
    assert!(stats.mean_queue_depth() >= 1.0);
    // Two processes resumed at least once each, plus per-sleep wakes.
    assert!(stats.context_switches >= stats.processes_spawned);
    assert!(stats.wall_nanos > 0, "wall clock must be measured");
    // Determinism: equality ignores wall_nanos.
    let mut sim2 = Engine::with_seed(7);
    sim2.spawn_process("a", |p| async move {
        for _ in 0..10 {
            p.sleep(SimDuration::from_millis(1)).await;
        }
    });
    sim2.spawn_process("b", |p| async move { p.sleep(SimDuration::from_millis(5)).await });
    let stats2 = sim2.run();
    assert_eq!(stats, stats2, "profiling fields (minus wall time) are deterministic");
}
