//! Deterministic fault injection: a seeded, per-link [`FaultPlan`]
//! evaluated at `Network::send` time.
//!
//! The plan describes *what can go wrong* on each directed link — drop,
//! duplicate, delay jitter, reorder window — plus time-windowed
//! partitions (messages crossing a group boundary are dropped) and host
//! outages (a host is network-isolated: fail-stop as far as the
//! protocol can observe). Everything is driven by one `SmallRng` seeded
//! from the plan's `u64` seed, so the full failure schedule of a run is
//! reproducible byte-for-byte from that seed.
//!
//! Faults are **silent**: the sender's [`crate::SendOutcome`] still
//! reads `Sent`, exactly as a UDP sender cannot observe a drop on the
//! wire. Only loopback traffic (`from == to.host`) is exempt — local
//! IPC does not traverse the interconnect.
//!
//! [`RetryPolicy`] is the companion knob: the capped-exponential-backoff
//! budget the RMS control plane and DAC front-end use to survive an
//! installed plan. With no plan and no policy the hot path is unchanged
//! (see the `bench-check` target). [`ReplyCache`] is the server half of
//! the same discipline: a retransmitted request is answered from the
//! cache instead of executing twice.

use darms_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

use crate::host::HostId;

/// Per-link fault probabilities and delay knobs. All fields default to
/// "no fault".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a message is delivered twice (the
    /// copy takes an independent jitter draw).
    pub duplicate: f64,
    /// Maximum extra delay added to every message, drawn uniformly from
    /// `[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a message is additionally held back
    /// by up to [`LinkFaults::reorder_window`], letting later messages
    /// overtake it.
    pub reorder: f64,
    /// Maximum hold-back applied to reordered messages.
    pub reorder_window: SimDuration,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            jitter: SimDuration::ZERO,
            reorder: 0.0,
            reorder_window: SimDuration::ZERO,
        }
    }
}

impl LinkFaults {
    /// True if every knob is at its "no fault" default.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.jitter == SimDuration::ZERO
            && self.reorder == 0.0
    }
}

/// A transient network partition: while active, messages crossing the
/// boundary between `group` and the rest of the cluster are dropped.
/// Traffic within the group (and within the complement) is unaffected.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Hosts on one side of the cut.
    pub group: Vec<HostId>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive).
    pub until: SimTime,
}

/// A scheduled host outage: while active the host is network-isolated —
/// every message from or to it is dropped. The host "restarts" at
/// `until` with its state intact (a NIC/switch-port failure; fail-stop
/// as far as peers can observe).
#[derive(Clone, Copy, Debug)]
pub struct Outage {
    /// The isolated host.
    pub host: HostId,
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Outage end (exclusive).
    pub until: SimTime,
}

/// A complete, seeded fault schedule for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG (independent of the engine and
    /// latency RNG streams).
    pub seed: u64,
    /// Faults applied to every cross-host link without an entry in
    /// [`FaultPlan::links`].
    pub default_link: LinkFaults,
    /// Per-directed-link overrides.
    pub links: Vec<((HostId, HostId), LinkFaults)>,
    /// Time-windowed partitions.
    pub partitions: Vec<Partition>,
    /// Time-windowed host outages.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// Set the fault profile for every link without an override.
    pub fn with_default_link(mut self, lf: LinkFaults) -> Self {
        self.default_link = lf;
        self
    }

    /// Override the fault profile of one directed link.
    pub fn with_link(mut self, from: HostId, to: HostId, lf: LinkFaults) -> Self {
        self.links.push(((from, to), lf));
        self
    }

    /// Add a partition separating `group` from the rest of the cluster
    /// during `[from, until)`.
    pub fn with_partition(mut self, group: Vec<HostId>, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(Partition { group, from, until });
        self
    }

    /// Add an outage isolating `host` during `[from, until)`.
    pub fn with_outage(mut self, host: HostId, from: SimTime, until: SimTime) -> Self {
        self.outages.push(Outage { host, from, until });
        self
    }
}

/// Retry budget for request/reply exchanges over a faulty network:
/// capped exponential backoff. Stored on the [`crate::Network`] so every
/// control-plane layer (IFL, server↔mom, DAC front-end) shares one
/// policy; `None` (the default) disables all retry machinery and keeps
/// the failure-free fast path byte-identical to a network without the
/// fault layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per logical request before giving up (≥ 1).
    pub max_attempts: u32,
    /// Timeout for the first attempt; doubled per retry.
    pub base_timeout: SimDuration,
    /// Upper bound on the per-attempt timeout.
    pub max_timeout: SimDuration,
    /// Period of the server/mom retransmit ticks that re-drive one-way
    /// commands (job launch, dyn join, disjoin, job exit).
    pub retransmit: SimDuration,
}

impl RetryPolicy {
    /// The default budget used by the chaos harness: 8 attempts,
    /// 500 ms → 8 s capped backoff, 1 s retransmit tick.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_timeout: SimDuration::from_millis(500),
            max_timeout: SimDuration::from_secs(8),
            retransmit: SimDuration::from_secs(1),
        }
    }

    /// Timeout for attempt `i` (0-based): `base * 2^i`, capped.
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let mut t = self.base_timeout;
        for _ in 0..attempt {
            t = t + t;
            if t >= self.max_timeout {
                return self.max_timeout;
            }
        }
        t.min(self.max_timeout)
    }
}

/// Bounded idempotency cache of a request/reply server: correlation
/// token → the reply already sent, or in flight while the request still
/// executes. Tokens are evicted first-in first-out beyond `cap`. Shared by
/// `pbs_server` (IFL requests) and the DAC daemon (front-end requests).
#[derive(Debug)]
pub struct ReplyCache<T> {
    entries: BTreeMap<u64, Option<T>>,
    order: VecDeque<u64>,
    cap: usize,
}

/// What [`ReplyCache::admit`] found for a token.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit<T> {
    /// First sighting, now in flight: execute the request.
    Fresh,
    /// A duplicate of a request still executing: stay silent.
    InFlight,
    /// A duplicate of a completed request: resend this reply.
    Done(T),
}

impl<T: Clone> ReplyCache<T> {
    /// An empty cache remembering at most `cap` tokens.
    pub fn new(cap: usize) -> Self {
        ReplyCache { entries: BTreeMap::new(), order: VecDeque::new(), cap }
    }

    /// Look `token` up; a fresh token is marked in flight (evicting the
    /// oldest token beyond the cap).
    pub fn admit(&mut self, token: u64) -> Admit<T> {
        match self.entries.get(&token) {
            Some(Some(reply)) => Admit::Done(reply.clone()),
            Some(None) => Admit::InFlight,
            None => {
                self.entries.insert(token, None);
                self.order.push_back(token);
                if self.order.len() > self.cap {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
                Admit::Fresh
            }
        }
    }

    /// Record the reply sent for `token`. A token evicted since its
    /// `admit` stays evicted.
    pub fn store(&mut self, token: u64, reply: T) {
        if let Some(slot) = self.entries.get_mut(&token) {
            *slot = Some(reply);
        }
    }
}

/// The verdict for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver with `extra` delay on top of the latency model; when
    /// `duplicate` is set, deliver a second copy with that extra delay.
    Deliver { extra: SimDuration, duplicate: Option<SimDuration> },
    /// Silently drop; the label names the cause (`drop`, `partition`,
    /// `outage`) for traces.
    Drop(&'static str),
}

/// Installed plan plus its RNG and a link-override index.
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
    link_ix: BTreeMap<(HostId, HostId), usize>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let link_ix = plan.links.iter().enumerate().map(|(i, &(key, _))| (key, i)).collect();
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultState { plan, rng, link_ix }
    }

    /// Judge one cross-host message. Draws from the fault RNG only for
    /// the probabilistic link faults, so partition/outage windows do not
    /// perturb the random stream.
    pub(crate) fn judge(&mut self, from: HostId, to: HostId, now: SimTime) -> Verdict {
        for o in &self.plan.outages {
            if (o.host == from || o.host == to) && now >= o.from && now < o.until {
                return Verdict::Drop("outage");
            }
        }
        for pt in &self.plan.partitions {
            if now >= pt.from && now < pt.until {
                let a = pt.group.contains(&from);
                let b = pt.group.contains(&to);
                if a != b {
                    return Verdict::Drop("partition");
                }
            }
        }
        let lf = match self.link_ix.get(&(from, to)) {
            Some(&i) => self.plan.links[i].1,
            None => self.plan.default_link,
        };
        if lf.is_none() {
            return Verdict::Deliver { extra: SimDuration::ZERO, duplicate: None };
        }
        if lf.drop > 0.0 && self.rng.gen::<f64>() < lf.drop {
            return Verdict::Drop("drop");
        }
        let mut extra = self.draw_jitter(lf.jitter);
        if lf.reorder > 0.0 && self.rng.gen::<f64>() < lf.reorder {
            extra += self.draw_jitter(lf.reorder_window);
        }
        let duplicate = if lf.duplicate > 0.0 && self.rng.gen::<f64>() < lf.duplicate {
            Some(self.draw_jitter(lf.jitter))
        } else {
            None
        };
        Verdict::Deliver { extra, duplicate }
    }

    fn draw_jitter(&mut self, max: SimDuration) -> SimDuration {
        let nanos = max.as_nanos();
        if nanos == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.rng.gen_range(0..=nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_cache_admits_a_fresh_token() {
        let mut c = ReplyCache::<u32>::new(4);
        assert_eq!(c.admit(7), Admit::Fresh);
    }

    #[test]
    fn reply_cache_is_silent_on_a_duplicate_in_flight() {
        let mut c = ReplyCache::<u32>::new(4);
        c.admit(7);
        assert_eq!(c.admit(7), Admit::InFlight);
    }

    #[test]
    fn reply_cache_replays_the_stored_reply() {
        let mut c = ReplyCache::new(4);
        c.admit(7);
        c.store(7, 70u32);
        assert_eq!(c.admit(7), Admit::Done(70));
        assert_eq!(c.admit(7), Admit::Done(70), "a replay leaves the entry cached");
    }

    #[test]
    fn reply_cache_evicts_the_oldest_token_first() {
        let mut c = ReplyCache::new(2);
        for t in 1..=2 {
            c.admit(t);
            c.store(t, t * 10);
        }
        c.admit(3); // evicts 1, the oldest
        assert_eq!(c.admit(2), Admit::Done(20));
        assert_eq!(c.admit(3), Admit::InFlight);
        // The evicted token is fresh again (and evicts 2 in turn).
        assert_eq!(c.admit(1), Admit::Fresh);
        assert_eq!(c.admit(2), Admit::Fresh);
    }

    #[test]
    fn reply_cache_store_does_not_reinsert_an_evicted_token() {
        let mut c = ReplyCache::new(1);
        c.admit(1);
        c.admit(2); // evicts 1 while it is still in flight
        c.store(1, 10u32);
        assert_eq!(c.admit(2), Admit::InFlight);
        assert_eq!(c.admit(1), Admit::Fresh, "a late store must not resurrect token 1");
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn empty_plan_never_faults() {
        let mut fs = FaultState::new(FaultPlan::new(1));
        for i in 0..100 {
            let v = fs.judge(HostId(0), HostId(1), t(i));
            assert_eq!(v, Verdict::Deliver { extra: SimDuration::ZERO, duplicate: None });
        }
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let plan = FaultPlan::new(42).with_default_link(LinkFaults {
            drop: 0.3,
            duplicate: 0.3,
            jitter: SimDuration::from_millis(5),
            reorder: 0.3,
            reorder_window: SimDuration::from_millis(50),
        });
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..500 {
            let va = a.judge(HostId(i % 3), HostId(3), t(i as u64));
            let vb = b.judge(HostId(i % 3), HostId(3), t(i as u64));
            assert_eq!(va, vb, "verdicts diverged at message {i}");
        }
    }

    #[test]
    fn partition_drops_only_crossing_messages_inside_window() {
        let plan = FaultPlan::new(7).with_partition(vec![HostId(0), HostId(1)], t(10), t(20));
        let mut fs = FaultState::new(plan);
        // Before the window: crossing traffic flows.
        assert!(matches!(fs.judge(HostId(0), HostId(2), t(5)), Verdict::Deliver { .. }));
        // Inside: crossing traffic is cut, intra-group traffic flows.
        assert_eq!(fs.judge(HostId(0), HostId(2), t(10)), Verdict::Drop("partition"));
        assert_eq!(fs.judge(HostId(2), HostId(1), t(15)), Verdict::Drop("partition"));
        assert!(matches!(fs.judge(HostId(0), HostId(1), t(15)), Verdict::Deliver { .. }));
        assert!(matches!(fs.judge(HostId(2), HostId(3), t(15)), Verdict::Deliver { .. }));
        // End is exclusive: healed at exactly `until`.
        assert!(matches!(fs.judge(HostId(0), HostId(2), t(20)), Verdict::Deliver { .. }));
    }

    #[test]
    fn outage_isolates_host_both_directions() {
        let plan = FaultPlan::new(7).with_outage(HostId(1), t(10), t(20));
        let mut fs = FaultState::new(plan);
        assert!(matches!(fs.judge(HostId(0), HostId(1), t(9)), Verdict::Deliver { .. }));
        assert_eq!(fs.judge(HostId(0), HostId(1), t(10)), Verdict::Drop("outage"));
        assert_eq!(fs.judge(HostId(1), HostId(0), t(19)), Verdict::Drop("outage"));
        assert!(matches!(fs.judge(HostId(2), HostId(0), t(15)), Verdict::Deliver { .. }));
        assert!(matches!(fs.judge(HostId(0), HostId(1), t(20)), Verdict::Deliver { .. }));
    }

    #[test]
    fn certain_duplicate_always_duplicates() {
        let plan = FaultPlan::new(3).with_default_link(LinkFaults {
            duplicate: 1.0,
            jitter: SimDuration::from_millis(2),
            ..Default::default()
        });
        let mut fs = FaultState::new(plan);
        for i in 0..50 {
            match fs.judge(HostId(0), HostId(1), t(i)) {
                Verdict::Deliver { duplicate: Some(_), .. } => {}
                v => panic!("expected duplicate, got {v:?}"),
            }
        }
    }

    #[test]
    fn link_override_beats_default() {
        let plan = FaultPlan::new(3)
            .with_default_link(LinkFaults { drop: 1.0, ..Default::default() })
            .with_link(HostId(0), HostId(1), LinkFaults::default());
        let mut fs = FaultState::new(plan);
        assert!(matches!(fs.judge(HostId(0), HostId(1), t(0)), Verdict::Deliver { .. }));
        assert_eq!(fs.judge(HostId(1), HostId(0), t(0)), Verdict::Drop("drop"));
    }

    #[test]
    fn retry_policy_backoff_caps() {
        let p = RetryPolicy::standard();
        assert_eq!(p.timeout_for(0), SimDuration::from_millis(500));
        assert_eq!(p.timeout_for(1), SimDuration::from_secs(1));
        assert_eq!(p.timeout_for(3), SimDuration::from_secs(4));
        assert_eq!(p.timeout_for(4), SimDuration::from_secs(8));
        assert_eq!(p.timeout_for(10), SimDuration::from_secs(8));
    }
}
