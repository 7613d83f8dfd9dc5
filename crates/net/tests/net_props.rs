//! Property tests of the network model.

use std::collections::BTreeMap;
use std::sync::Arc;

use darms_net::{
    ports, Address, FaultPlan, HostId, HostKind, LatencyModel, LinkFaults, Network, Port,
    SendOutcome,
};
use darms_sim::{Endpoint, Engine, SimDuration};
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Registered hosts of the reference-model test; host index `HOSTS` is
/// never registered.
const HOSTS: usize = 4;

/// One step of a binding/routing sequence: host indices run one past
/// the registered hosts, ports span fixed and ephemeral numbers.
#[derive(Clone, Debug)]
enum Op {
    Bind(usize, u32, usize),
    BindAuto(usize, usize),
    Unbind(usize, u32),
    Resolve(usize, u32),
    Send(usize, usize, u32),
}

fn op() -> impl Strategy<Value = Op> {
    // Ports 1 and 2 are fixed; the rest are the first ephemeral numbers.
    let port = |k: u32| if k < 2 { k + 1 } else { ports::EPHEMERAL_BASE + k - 2 };
    (0u8..5, 0..=HOSTS, 0u32..6, 0usize..3, 0..HOSTS).prop_map(move |(kind, h, k, e, from)| {
        match kind {
            0 => Op::Bind(h, port(k), e),
            1 => Op::BindAuto(h, e),
            2 => Op::Unbind(h, port(k)),
            3 => Op::Resolve(h, port(k)),
            _ => Op::Send(from, h, port(k)),
        }
    })
}

/// What one step observed: a resolution, an ephemeral address or a send
/// outcome.
#[derive(Clone, Debug, PartialEq)]
enum Seen {
    Resolved(Option<Endpoint>),
    Auto(Address),
    Sent(SendOutcome),
    Nothing,
}

/// The reference semantics: one ordered map of every binding, and a
/// per-host counter of ephemeral ports handed out.
fn model(ops: &[Op], eps: &[Endpoint]) -> Vec<Seen> {
    let lat = LatencyModel::ideal();
    let mut bound: BTreeMap<Address, Endpoint> = BTreeMap::new();
    let mut next: BTreeMap<usize, u32> = BTreeMap::new();
    let addr = |h: usize, p: u32| Address::new(HostId::from_raw(h), Port(p));
    ops.iter()
        .map(|op| match *op {
            Op::Bind(h, p, e) => {
                bound.insert(addr(h, p), eps[e]);
                Seen::Nothing
            }
            Op::BindAuto(h, e) => {
                let n = next.entry(h).or_insert(ports::EPHEMERAL_BASE);
                let a = addr(h, *n);
                *n += 1;
                bound.insert(a, eps[e]);
                Seen::Auto(a)
            }
            Op::Unbind(h, p) => {
                bound.remove(&addr(h, p));
                Seen::Nothing
            }
            Op::Resolve(h, p) => Seen::Resolved(bound.get(&addr(h, p)).copied()),
            Op::Send(f, h, p) => Seen::Sent(if h >= HOSTS {
                SendOutcome::HostDown
            } else if bound.contains_key(&addr(h, p)) {
                SendOutcome::Sent(lat.base_delay(f == h, 8))
            } else {
                SendOutcome::NoBinding
            }),
        })
        .collect()
}

proptest! {
    /// Delay is monotone in message size and bounded by the jitter band.
    #[test]
    fn delay_monotone_and_bounded(a in 0u64..10_000_000, b in 0u64..10_000_000, seed in 0u64..1000) {
        let m = LatencyModel::paper_testbed();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.base_delay(false, small) <= m.base_delay(false, large));
        let mut rng = SmallRng::seed_from_u64(seed);
        let det = m.base_delay(false, large).as_secs_f64();
        let d = m.delay(false, large, &mut rng).as_secs_f64();
        prop_assert!(d >= det * (1.0 - m.jitter_frac) - 1e-12);
        prop_assert!(d <= det * (1.0 + m.jitter_frac) + 1e-12);
    }

    /// With a plan's drop probability 0 nothing drops; with 1 everything
    /// drops. Either way the sender sees `Sent`.
    #[test]
    fn loss_extremes(n in 1usize..50) {
        for &(p, expect_all) in &[(0.0, true), (1.0, false)] {
            let net = Network::new(LatencyModel::ideal(), 5);
            let h1 = net.add_host("a", HostKind::Generic);
            let h2 = net.add_host("b", HostKind::Generic);
            net.install_fault_plan(
                FaultPlan::new(5).with_default_link(LinkFaults { drop: p, ..Default::default() }),
            );
            let mut sim = Engine::with_seed(1);
            let rx = sim.spawn_process("rx", |p| async move {
                loop {
                    let _ = p.recv().await;
                }
            });
            let addr = Address::new(h2, Port(1));
            net.bind(addr, rx.into());
            let n2 = net.clone();
            sim.spawn_process("tx", move |proc| async move {
                for _ in 0..n {
                    assert!(n2.send_from_proc(&proc, h1, addr, 0u8, 8).is_sent());
                }
            });
            prop_assert_eq!(sim.run().process_panics, 0);
            let s = net.stats();
            if expect_all {
                prop_assert_eq!(s.messages as usize, n);
                prop_assert_eq!(s.dropped, 0);
            } else {
                prop_assert_eq!(s.messages, 0);
                prop_assert_eq!(s.dropped as usize, n);
            }
        }
    }

    /// Ephemeral binds never collide, across any number of hosts/binds.
    #[test]
    fn ephemeral_ports_unique(hosts in 1usize..5, binds in 1usize..30) {
        let net = Network::new(LatencyModel::ideal(), 5);
        let hs: Vec<_> = (0..hosts).map(|i| net.add_host(format!("h{i}"), HostKind::Generic)).collect();
        let mut sim = Engine::with_seed(1);
        let pid = sim.spawn_process("x", |_| async {});
        let mut seen = std::collections::HashSet::new();
        for i in 0..binds {
            let h = hs[i % hs.len()];
            let addr = net.bind_auto(h, pid.into());
            prop_assert!(seen.insert(addr), "duplicate address {addr}");
        }
    }
}

proptest! {
    /// Per-host port tables behave exactly like one ordered map of
    /// addresses: resolutions, ephemeral numbers and send outcomes all
    /// match, for rebinds, unbinds, hosts that never bound anything and
    /// a host index that was never registered.
    #[test]
    fn bindings_match_a_reference_map(ops in proptest::collection::vec(op(), 1..60)) {
        let net = Network::new(LatencyModel::ideal(), 3);
        for i in 0..HOSTS {
            net.add_host(format!("h{i}"), HostKind::Generic);
        }
        let mut sim = Engine::with_seed(1);
        let eps: Vec<Endpoint> = (0..3)
            .map(|i| {
                sim.spawn_process(format!("rx{i}"), |p| async move {
                    loop {
                        let _ = p.recv().await;
                    }
                })
                .into()
            })
            .collect();
        let expected = model(&ops, &eps);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (n, out, steps, eps2) = (net.clone(), seen.clone(), ops.clone(), eps.clone());
        sim.spawn_process("ops", move |p| async move {
            let addr = |h: usize, port: u32| Address::new(HostId::from_raw(h), Port(port));
            for op in steps {
                let s = match op {
                    Op::Bind(h, port, e) => {
                        n.bind(addr(h, port), eps2[e]);
                        Seen::Nothing
                    }
                    Op::BindAuto(h, e) => Seen::Auto(n.bind_auto(HostId::from_raw(h), eps2[e])),
                    Op::Unbind(h, port) => {
                        n.unbind(addr(h, port));
                        Seen::Nothing
                    }
                    Op::Resolve(h, port) => Seen::Resolved(n.resolve(addr(h, port))),
                    Op::Send(f, h, port) => {
                        Seen::Sent(n.send_from_proc(&p, HostId::from_raw(f), addr(h, port), 0u8, 8))
                    }
                };
                out.lock().push(s);
            }
        });
        let stats = sim.run();
        prop_assert_eq!(stats.process_panics, 0);
        prop_assert_eq!(&*seen.lock(), &expected);
        let sends = expected.iter().filter(|s| matches!(s, Seen::Sent(_))).count() as u64;
        let delivered =
            expected.iter().filter(|s| matches!(s, Seen::Sent(SendOutcome::Sent(_)))).count();
        let st = net.stats();
        prop_assert_eq!((st.messages, st.bytes), (delivered as u64, 8 * delivered as u64));
        prop_assert_eq!(st.messages + st.dropped, sends);
    }
}

#[test]
fn zero_byte_message_has_base_latency_only() {
    let m = LatencyModel::ideal();
    assert_eq!(m.base_delay(false, 0), SimDuration::from_micros(50));
    assert_eq!(m.base_delay(true, 0), SimDuration::from_micros(5));
}
