//! The cluster network: host registry, service bindings, message routing
//! with the latency model, fault injection, and traffic statistics.

use std::any::Any;
use std::sync::Arc;

use darms_sim::{Counter, Ctx, Endpoint, MetricsRegistry, Proc, SimDuration, SimTime, Tracer};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultPlan, FaultState, RetryPolicy, Verdict};
use crate::host::{ports, Address, Host, HostId, HostKind, Port};
use crate::latency::LatencyModel;

/// Traffic counters, readable after (or during) a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages successfully handed to the event queue.
    pub messages: u64,
    /// Payload bytes carried by those messages.
    pub bytes: u64,
    /// Messages dropped (down host, missing binding, or injected loss).
    pub dropped: u64,
}

/// One host's bindings, sorted by port, and how many ephemeral ports it
/// has handed out. A host with no binding holds an empty `Vec`, which
/// does not allocate.
#[derive(Default)]
struct PortTable {
    bound: Vec<(Port, Endpoint)>,
    ephemeral: u32,
}

impl PortTable {
    fn find(&self, port: Port) -> Result<usize, usize> {
        self.bound.binary_search_by_key(&port, |&(p, _)| p)
    }
}

/// The registry mirror of the traffic counters. Each handle is taken
/// on its first write, so a counter shows in the registry only once it
/// has counted something.
struct NetMetrics {
    reg: MetricsRegistry,
    messages: Option<Counter>,
    bytes: Option<Counter>,
    dropped: Option<Counter>,
}

struct NetState {
    hosts: Vec<Host>,
    /// Port tables indexed by host: one per added host, plus any a bind
    /// to a never-added host index created.
    ports: Vec<PortTable>,
    latency: LatencyModel,
    rng: SmallRng,
    stats: NetStats,
    /// Optional shared registry mirror of the traffic counters
    /// (`net.messages`, `net.bytes`, `net.dropped`).
    metrics: Option<NetMetrics>,
    /// Installed chaos plan; `None` keeps the send path byte-identical
    /// to a fault-free network.
    fault: Option<FaultState>,
    /// Shared retry budget advertised to the control-plane layers
    /// (IFL, server/mom retransmit ticks, DAC front-end).
    control_retry: Option<RetryPolicy>,
    /// Structured tracer for fault decisions (`net.fault` instants).
    tracer: Option<Tracer>,
}

impl NetState {
    fn note_dropped(&mut self) {
        self.stats.dropped += 1;
        if let Some(m) = &mut self.metrics {
            m.dropped.get_or_insert_with(|| m.reg.counter_handle("net.dropped")).count_add(1);
        }
    }

    /// The port table of `host`, created (empty) if needed.
    fn table(&mut self, host: HostId) -> &mut PortTable {
        if self.ports.len() <= host.0 {
            self.ports.resize_with(host.0 + 1, PortTable::default);
        }
        &mut self.ports[host.0]
    }

    fn bind(&mut self, addr: Address, ep: Endpoint) {
        let t = self.table(addr.host);
        match t.find(addr.port) {
            Ok(i) => t.bound[i].1 = ep,
            Err(i) => {
                // Most hosts bind only their mom's port: start an empty
                // table at one slot, not `Vec`'s minimum of four.
                t.bound.reserve_exact(usize::from(t.bound.is_empty()));
                t.bound.insert(i, (addr.port, ep))
            }
        }
    }

    fn resolve(&self, addr: Address) -> Option<Endpoint> {
        let t = self.ports.get(addr.host.0)?;
        t.find(addr.port).ok().map(|i| t.bound[i].1)
    }
}

/// Cloneable handle to the shared cluster network.
#[derive(Clone)]
pub struct Network {
    state: Arc<Mutex<NetState>>,
}

/// Outcome of a send attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// Message scheduled for delivery after the returned delay.
    Sent(SimDuration),
    /// Source or destination host is down.
    HostDown,
    /// Nothing is bound at the destination address.
    NoBinding,
}

impl SendOutcome {
    /// True if the message was scheduled.
    pub fn is_sent(&self) -> bool {
        matches!(self, SendOutcome::Sent(_))
    }
}

impl Network {
    /// Create an empty network with the given latency model. The jitter
    /// RNG is seeded independently of the engine RNG so that the two
    /// sample streams do not perturb each other.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Network {
            state: Arc::new(Mutex::new(NetState {
                hosts: Vec::new(),
                ports: Vec::new(),
                latency,
                rng: SmallRng::seed_from_u64(seed),
                stats: NetStats::default(),
                metrics: None,
                fault: None,
                control_retry: None,
                tracer: None,
            })),
        }
    }

    /// Install a deterministic chaos plan; replaces any previous plan
    /// (resetting the fault RNG to the plan's seed). Callable mid-run
    /// for targeted tests.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().fault = Some(FaultState::new(plan));
    }

    /// Set (or clear) the shared control-plane retry budget.
    pub fn set_retry_policy(&self, policy: Option<RetryPolicy>) {
        self.state.lock().control_retry = policy;
    }

    /// The shared control-plane retry budget, if one is set.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.state.lock().control_retry
    }

    /// Emit `net.fault` instants for every fault-layer decision into `t`.
    pub fn attach_tracer(&self, t: Tracer) {
        self.state.lock().tracer = Some(t);
    }

    /// Mirror traffic counters into `reg` (`net.messages`, `net.bytes`,
    /// `net.dropped`) from now on.
    pub fn attach_metrics(&self, reg: MetricsRegistry) {
        self.state.lock().metrics =
            Some(NetMetrics { reg, messages: None, bytes: None, dropped: None });
    }

    /// Register a host; returns its id.
    pub fn add_host(&self, name: impl Into<Arc<str>>, kind: HostKind) -> HostId {
        let mut s = self.state.lock();
        let id = HostId(s.hosts.len());
        s.hosts.push(Host { name: name.into(), kind, down: false });
        s.table(id);
        id
    }

    /// Make room for `additional` more hosts, so that adding them grows
    /// neither the host list nor the port-table vector.
    pub fn reserve_hosts(&self, additional: usize) {
        let mut s = self.state.lock();
        s.hosts.reserve_exact(additional);
        let ports = (s.hosts.len() + additional).saturating_sub(s.ports.len());
        s.ports.reserve_exact(ports);
    }

    /// Metadata of a host (cheap: the name is interned).
    pub fn host(&self, id: HostId) -> Host {
        self.state.lock().hosts[id.0].clone()
    }

    /// Fail or recover a host. Messages from/to a down host are dropped.
    pub fn set_host_down(&self, id: HostId, down: bool) {
        self.state.lock().hosts[id.0].down = down;
    }

    /// Bind an endpoint at a fixed address (e.g. a daemon's well-known
    /// port). Re-binding an address replaces the previous binding.
    pub fn bind(&self, addr: Address, ep: Endpoint) {
        self.state.lock().bind(addr, ep);
    }

    /// Bind at an ephemeral port on `host`; returns the full address.
    pub fn bind_auto(&self, host: HostId, ep: Endpoint) -> Address {
        let mut s = self.state.lock();
        let t = s.table(host);
        let addr = Address::new(host, Port(ports::EPHEMERAL_BASE + t.ephemeral));
        t.ephemeral += 1;
        s.bind(addr, ep);
        addr
    }

    /// Remove a binding.
    pub fn unbind(&self, addr: Address) {
        let mut s = self.state.lock();
        if let Some(Ok(i)) = s.ports.get(addr.host.0).map(|t| t.find(addr.port)) {
            s.ports[addr.host.0].bound.remove(i);
        }
    }

    /// Resolve an address to its bound endpoint.
    pub fn resolve(&self, addr: Address) -> Option<Endpoint> {
        self.state.lock().resolve(addr)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> NetStats {
        self.state.lock().stats
    }

    /// The latency model in effect (read-only copy; layers above use it
    /// to reason about overlap, e.g. pipelined transfers).
    pub fn latency_model(&self) -> LatencyModel {
        self.state.lock().latency.clone()
    }

    /// Compute the delay for a message and update counters, or decide to
    /// drop it.
    ///
    /// `now` is consulted lazily: only when a [`FaultPlan`] is installed
    /// and the message crosses hosts does the fault layer need the
    /// virtual clock, so the fault-free path never touches the kernel.
    fn route(&self, from: HostId, to: Address, bytes: u64, now: impl FnOnce() -> SimTime) -> Route {
        let mut s = self.state.lock();
        if s.hosts.get(from.0).is_none_or(|h| h.down)
            || s.hosts.get(to.host.0).is_none_or(|h| h.down)
        {
            s.note_dropped();
            return Route::Fail(SendOutcome::HostDown);
        }
        let Some(ep) = s.resolve(to) else {
            s.note_dropped();
            return Route::Fail(SendOutcome::NoBinding);
        };
        let local = from == to.host;
        // The chaos layer judges cross-host messages only: loopback IPC
        // never touches the interconnect, so head-local control traffic
        // (scheduler, monitor reports) stays reliable by construction.
        let verdict = if !local && s.fault.is_some() {
            let t = now();
            let NetState { fault, tracer, .. } = &mut *s;
            let v = fault.as_mut().expect("checked above").judge(from, to.host, t);
            if let Some(tr) = tracer {
                let kind = match v {
                    Verdict::Drop(reason) => Some(reason),
                    Verdict::Deliver { duplicate: Some(_), .. } => Some("duplicate"),
                    Verdict::Deliver { .. } => None,
                };
                if let Some(kind) = kind {
                    tr.instant(t, darms_sim::TraceSource::Kernel, "net", "net.fault", || {
                        format!("{{\"kind\":\"{kind}\",\"from\":{},\"to\":{}}}", from.0, to.host.0)
                    });
                }
            }
            v
        } else {
            Verdict::Deliver { extra: SimDuration::ZERO, duplicate: None }
        };
        let (extra, duplicate) = match verdict {
            Verdict::Drop(_) => {
                s.note_dropped();
                return Route::SilentDrop;
            }
            Verdict::Deliver { extra, duplicate } => (extra, duplicate),
        };
        // Split-borrow the state so the latency model is consulted in
        // place — no per-message clone of the model.
        let NetState { latency, rng, stats, metrics, .. } = &mut *s;
        let base = latency.delay(local, bytes, rng);
        let delay = base + extra;
        let copies = 1 + duplicate.is_some() as u64;
        stats.messages += copies;
        stats.bytes += bytes * copies;
        if let Some(NetMetrics { reg, messages, bytes: b, .. }) = metrics {
            messages.get_or_insert_with(|| reg.counter_handle("net.messages")).count_add(copies);
            b.get_or_insert_with(|| reg.counter_handle("net.bytes")).count_add(bytes * copies);
        }
        Route::Deliver { ep, delay, dup: duplicate.map(|e| base + e) }
    }

    /// Send `payload` from a process residing on `from` to the service at
    /// `to`, modelling a wire size of `bytes`.
    ///
    /// `Clone` lets the fault layer deliver duplicate copies; with no
    /// [`FaultPlan`] installed the payload is never cloned. Fault-layer
    /// drops are *silent* — the outcome still reads `Sent`, like a UDP
    /// sender that cannot observe loss on the wire.
    pub fn send_from_proc<T: Any + Send + Clone>(
        &self,
        p: &Proc,
        from: HostId,
        to: Address,
        payload: T,
        bytes: u64,
    ) -> SendOutcome {
        match self.route(from, to, bytes, || p.now()) {
            Route::Deliver { ep, delay, dup } => {
                if let Some(d) = dup {
                    p.send(ep, payload.clone(), d);
                }
                p.send(ep, payload, delay);
                SendOutcome::Sent(delay)
            }
            Route::SilentDrop => SendOutcome::Sent(SimDuration::ZERO),
            Route::Fail(o) => o,
        }
    }

    /// Send `payload` from an actor residing on `from` to the service at
    /// `to`, modelling a wire size of `bytes`. Same fault semantics as
    /// [`Network::send_from_proc`].
    pub fn send_from_ctx<T: Any + Send + Clone>(
        &self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        to: Address,
        payload: T,
        bytes: u64,
    ) -> SendOutcome {
        match self.route(from, to, bytes, || ctx.now()) {
            Route::Deliver { ep, delay, dup } => {
                if let Some(d) = dup {
                    ctx.send(ep, payload.clone(), d);
                }
                ctx.send(ep, payload, delay);
                SendOutcome::Sent(delay)
            }
            Route::SilentDrop => SendOutcome::Sent(SimDuration::ZERO),
            Route::Fail(o) => o,
        }
    }
}

/// How a send resolves internally.
enum Route {
    /// Deliver to `ep` after `delay`; when `dup` is set, deliver a
    /// second copy after that delay.
    Deliver { ep: Endpoint, delay: SimDuration, dup: Option<SimDuration> },
    /// The fault layer swallowed the message; the sender still observes
    /// a successful send.
    SilentDrop,
    /// Visible failure (down host, no binding, legacy injected loss).
    Fail(SendOutcome),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use darms_sim::{Engine, SimTime};

    fn net() -> Network {
        Network::new(LatencyModel::ideal(), 7)
    }

    #[test]
    fn host_registry_and_kinds() {
        let n = net();
        let h = n.add_host("head", HostKind::Head);
        let c = n.add_host("cn01", HostKind::Compute);
        let a = n.add_host("ac01", HostKind::Accelerator);
        assert_eq!(&*n.host(h).name, "head");
        assert_eq!(n.host(c).kind, HostKind::Compute);
        assert_eq!(n.host(a).kind, HostKind::Accelerator);
        assert!(!n.host(a).down);
    }

    #[test]
    fn ephemeral_ports_are_unique_per_host() {
        let n = net();
        let h = n.add_host("h", HostKind::Generic);
        let mut sim = Engine::with_seed(1);
        let pid = sim.spawn_process("x", |_| async {});
        let a1 = n.bind_auto(h, pid.into());
        let a2 = n.bind_auto(h, pid.into());
        assert_ne!(a1, a2);
        assert_eq!(n.resolve(a1), Some(Endpoint::Process(pid)));
        n.unbind(a1);
        assert_eq!(n.resolve(a1), None);
        assert_eq!(n.resolve(a2), Some(Endpoint::Process(pid)));
    }

    #[test]
    fn message_crosses_network_with_latency() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        let mut sim = Engine::with_seed(1);
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let rx = sim.spawn_process("rx", move |p| async move {
            let (v, _) = p.recv_as::<u64>().await;
            *o.lock() = Some((v, p.now()));
        });
        let addr = Address::new(h2, Port(9));
        n.bind(addr, rx.into());
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            let outcome = n2.send_from_proc(&p, h1, addr, 123u64, 1_000_000);
            assert!(outcome.is_sent());
        });
        sim.run();
        let (v, at) = out.lock().unwrap();
        assert_eq!(v, 123);
        // ideal model: 50us base + 1ms serialisation
        assert_eq!(at, SimTime::ZERO + SimDuration::from_micros(1050));
        assert_eq!(n.stats().messages, 1);
        assert_eq!(n.stats().bytes, 1_000_000);
    }

    #[test]
    fn down_host_drops_messages() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        let mut sim = Engine::with_seed(1);
        let rx = sim.spawn_process("rx", |p| async move {
            assert!(p.recv_timeout(SimDuration::from_secs(1)).await.is_none());
        });
        let addr = Address::new(h2, Port(1));
        n.bind(addr, rx.into());
        n.set_host_down(h2, true);
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            assert_eq!(n2.send_from_proc(&p, h1, addr, 1u8, 8), SendOutcome::HostDown);
        });
        sim.run();
        assert_eq!(n.stats().dropped, 1);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn unbound_address_reports_no_binding() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let mut sim = Engine::with_seed(1);
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            let out = n2.send_from_proc(&p, h1, Address::new(h1, Port(404)), 1u8, 8);
            assert_eq!(out, SendOutcome::NoBinding);
        });
        sim.run();
    }

    #[test]
    fn injected_loss_drops_roughly_that_fraction() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        n.install_fault_plan(
            FaultPlan::new(9).with_default_link(LinkFaults { drop: 0.5, ..Default::default() }),
        );
        let mut sim = Engine::with_seed(1);
        let rx = sim.spawn_process("rx", |p| async move {
            loop {
                let _ = p.recv().await;
            }
        });
        let addr = Address::new(h2, Port(1));
        n.bind(addr, rx.into());
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            for _ in 0..400 {
                // Plan drops are silent: every send reads `Sent`.
                assert!(n2.send_from_proc(&p, h1, addr, 0u8, 8).is_sent());
            }
        });
        let stats = sim.run();
        assert_eq!(stats.process_panics, 0);
        let s = n.stats();
        assert_eq!(s.messages + s.dropped, 400);
        assert!(s.dropped > 120 && s.dropped < 280, "dropped={}", s.dropped);
    }

    #[test]
    fn fault_plan_drop_is_silent_to_the_sender() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        n.install_fault_plan(
            FaultPlan::new(9).with_default_link(LinkFaults { drop: 1.0, ..Default::default() }),
        );
        let mut sim = Engine::with_seed(1);
        let rx = sim.spawn_process("rx", |p| async move {
            assert!(p.recv_timeout(SimDuration::from_secs(1)).await.is_none());
        });
        let addr = Address::new(h2, Port(1));
        n.bind(addr, rx.into());
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            // The sender cannot observe the loss.
            assert!(n2.send_from_proc(&p, h1, addr, 7u8, 8).is_sent());
        });
        let stats = sim.run();
        assert_eq!(stats.process_panics, 0);
        assert_eq!(n.stats().dropped, 1);
        assert_eq!(n.stats().messages, 0);
    }

    #[test]
    fn fault_plan_duplicate_delivers_twice_and_loopback_is_exempt() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        n.install_fault_plan(
            FaultPlan::new(9)
                .with_default_link(LinkFaults { duplicate: 1.0, ..Default::default() }),
        );
        let mut sim = Engine::with_seed(1);
        let got = Arc::new(Mutex::new(0u32));
        let g = got.clone();
        let rx = sim.spawn_process("rx", move |p| async move {
            while p.recv_timeout(SimDuration::from_secs(1)).await.is_some() {
                *g.lock() += 1;
            }
        });
        let addr = Address::new(h2, Port(1));
        n.bind(addr, rx.into());
        let local = Address::new(h1, Port(2));
        let n2 = n.clone();
        sim.spawn_process("tx", move |p| async move {
            n2.bind(local, p.endpoint());
            assert!(n2.send_from_proc(&p, h1, addr, 7u8, 8).is_sent());
            // Loopback traffic is exempt from the plan: one delivery.
            assert!(n2.send_from_proc(&p, h1, local, 7u8, 8).is_sent());
            assert!(p.recv_timeout(SimDuration::from_secs(1)).await.is_some());
            assert!(p.recv_timeout(SimDuration::from_secs(1)).await.is_none());
        });
        let stats = sim.run();
        assert_eq!(stats.process_panics, 0);
        assert_eq!(*got.lock(), 2, "cross-host message must be duplicated");
        assert_eq!(n.stats().messages, 3);
        assert_eq!(n.stats().dropped, 0);
    }

    #[test]
    fn registry_mirror_matches_stats_under_faults() {
        let n = net();
        let h1 = n.add_host("h1", HostKind::Compute);
        let h2 = n.add_host("h2", HostKind::Compute);
        let down = n.add_host("h3", HostKind::Compute);
        let m = MetricsRegistry::new();
        n.attach_metrics(m.clone());
        n.install_fault_plan(FaultPlan::new(9).with_default_link(LinkFaults {
            drop: 0.3,
            duplicate: 0.5,
            ..Default::default()
        }));
        n.set_host_down(down, true);
        let mut sim = Engine::with_seed(1);
        let rx = sim.spawn_process("rx", |p| async move {
            loop {
                let _ = p.recv().await;
            }
        });
        let (remote, local) = (Address::new(h2, Port(1)), Address::new(h1, Port(1)));
        n.bind(remote, rx.into());
        n.bind(local, rx.into());
        let (n2, m2) = (n.clone(), m.clone());
        sim.spawn_process("tx", move |p| async move {
            let counters = || m2.names().0;
            assert!(counters().is_empty(), "no counter before the first send");
            // Loopback is exempt from the plan: a sure delivery.
            assert!(n2.send_from_proc(&p, h1, local, 0u8, 100).is_sent());
            assert_eq!(counters(), ["net.bytes", "net.messages"]);
            let to_down = Address::new(down, Port(1));
            assert_eq!(n2.send_from_proc(&p, h1, to_down, 0u8, 100), SendOutcome::HostDown);
            assert_eq!(counters(), ["net.bytes", "net.dropped", "net.messages"]);
            for i in 0..200 {
                let _ = n2.send_from_proc(&p, h1, remote, 0u8, 10 + i);
            }
        });
        let stats = sim.run();
        assert_eq!(stats.process_panics, 0);
        let s = n.stats();
        assert!(s.messages > 201 && s.dropped > 1, "plan both duplicates and drops: {s:?}");
        assert_eq!(m.counter("net.messages"), s.messages);
        assert_eq!(m.counter("net.bytes"), s.bytes);
        assert_eq!(m.counter("net.dropped"), s.dropped);
    }

    #[test]
    fn retry_policy_round_trips_and_clears() {
        let n = net();
        assert_eq!(n.retry_policy(), None);
        n.set_retry_policy(Some(RetryPolicy::standard()));
        assert_eq!(n.retry_policy(), Some(RetryPolicy::standard()));
        n.set_retry_policy(None);
        assert_eq!(n.retry_policy(), None);
    }

    #[test]
    fn host_down_recovery() {
        let n = net();
        let h = n.add_host("h", HostKind::Compute);
        n.set_host_down(h, true);
        assert!(n.host(h).down);
        n.set_host_down(h, false);
        assert!(!n.host(h).down);
    }
}
