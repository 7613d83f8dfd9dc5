//! Node health monitoring — the fault-tolerance direction the paper
//! names as future work (§VI). A monitor on the head node pings every
//! mom periodically; after a configurable number of missed replies the
//! node is reported offline to the server (hidden from the scheduler),
//! and reported back online when it responds again.

use std::collections::BTreeMap;

use darms_net::{Address, HostId, Network};
use darms_sim::{Actor, Ctx, Envelope, SimDuration};

use crate::proto::{MomPing, MomPong, SetNodeOffline};
use crate::{mom_addr, server_addr};

/// Monitor configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Ping period.
    pub interval: SimDuration,
    /// Consecutive missed pings before a node is declared down.
    pub miss_threshold: u32,
    /// Wire size of probes.
    pub ctl_bytes: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { interval: SimDuration::from_secs(2), miss_threshold: 2, ctl_bytes: 64 }
    }
}

struct NodeHealth {
    misses: u32,
    marked_offline: bool,
    /// Sequence of the last pong received.
    last_pong: u64,
}

/// The health-monitor actor (runs on the head node).
pub struct HealthMonitor {
    net: Network,
    head: HostId,
    my_addr: Address,
    config: MonitorConfig,
    nodes: BTreeMap<HostId, NodeHealth>,
    watched: Vec<HostId>,
    seq: u64,
}

const TOKEN_TICK: u64 = 1;

impl HealthMonitor {
    /// Create a monitor for the given hosts. `my_addr` must be bound to
    /// this actor by the cluster builder.
    pub fn new(
        net: Network,
        head: HostId,
        my_addr: Address,
        watched: Vec<HostId>,
        config: MonitorConfig,
    ) -> Self {
        let nodes = watched
            .iter()
            .map(|&h| (h, NodeHealth { misses: 0, marked_offline: false, last_pong: 0 }))
            .collect();
        HealthMonitor { net, head, my_addr, config, nodes, watched, seq: 0 }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        // Evaluate the previous round: any node that did not answer the
        // last probe takes a miss.
        let prev_seq = self.seq;
        if prev_seq > 0 {
            let watched = self.watched.clone();
            for h in watched {
                let node = self.nodes.get_mut(&h).expect("watched node");
                if node.last_pong < prev_seq {
                    node.misses += 1;
                } else {
                    node.misses = 0;
                    if node.marked_offline {
                        node.marked_offline = false;
                        ctx.trace(format_args!("host{} is back; reporting online", h.index()));
                        self.report(ctx, h, false);
                    }
                }
                let node = self.nodes.get_mut(&h).expect("watched node");
                if node.misses >= self.config.miss_threshold && !node.marked_offline {
                    node.marked_offline = true;
                    ctx.trace(format_args!(
                        "host{} missed {} pings; reporting offline",
                        h.index(),
                        node.misses
                    ));
                    self.report(ctx, h, true);
                }
            }
        }
        // Next round of probes. Sends to down hosts fail silently at the
        // network layer — exactly a missed ping.
        self.seq += 1;
        let seq = self.seq;
        for h in self.watched.clone() {
            let ping = MomPing { seq, reply: self.my_addr };
            let bytes = self.config.ctl_bytes;
            let _ = self.net.send_from_ctx(ctx, self.head, mom_addr(h), ping, bytes);
        }
        ctx.set_timer(self.config.interval, TOKEN_TICK);
    }

    fn report(&mut self, ctx: &mut Ctx<'_>, host: HostId, offline: bool) {
        let bytes = self.config.ctl_bytes;
        let to = server_addr(self.head);
        ctx.metrics().counter_inc(if offline {
            "monitor.offline_reports"
        } else {
            "monitor.online_reports"
        });
        self.net.send_from_ctx(ctx, self.head, to, SetNodeOffline { host, offline }, bytes);
    }
}

impl Actor for HealthMonitor {
    fn name(&self) -> &str {
        "health-monitor"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.config.interval, TOKEN_TICK);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, env: Envelope) {
        if let Ok(pong) = env.downcast::<MomPong>() {
            if let Some(node) = self.nodes.get_mut(&pong.host) {
                node.last_pong = node.last_pong.max(pong.seq);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_TICK {
            self.tick(ctx);
        }
    }
}
