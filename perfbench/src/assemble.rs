//! The two ways the benchmark assembles a cluster.
//!
//! The untraced run uses the front door, [`Cluster::build`]. The traced
//! run needs to time each actor, but `Cluster::build` boxes its actors,
//! so [`Traced::build`] wires the same cluster from the public
//! constructors and wraps every actor in a [`Probe`] that times its
//! handlers. Both assemblies register actors, hosts and bindings in the
//! same order, so a run on either produces the same `SimStats`; the
//! benchmark checks that on every traced run.

use std::future::Future;
use std::sync::Arc;
use std::time::Instant;

use darms::{ClientCtx, Cluster, ClusterConfig};
use darms_dac::{DacRuntime, DacStarter, KernelRegistry};
use darms_mpi::MpiRuntime;
use darms_net::{HostId, HostKind, Network};
use darms_rms::proto::{ClusterQueryReq, DynFreeReq, DynGetReq, QstatReq, QsubReq};
use darms_rms::{mom_addr, sched_addr, server_addr, NodeDb, PbsMom, PbsServer, PseudoFs};
use darms_sched::MauiScheduler;
use darms_sim::{
    Actor, Ctx, Endpoint, Engine, Envelope, MetricsRegistry, Recorder, SimDuration, SimStats,
};
use parking_lot::Mutex;

use crate::script::Busy;

/// Classes of `pbs_server` work the traced run times separately.
pub const SERVER_CLASSES: [&str; 7] =
    ["qsub", "qstat", "dynget", "dynfree", "cluster_query", "timer", "other"];
const TIMER: usize = 5;
const OTHER: usize = 6;

fn server_class(env: &Envelope) -> usize {
    if env.is::<QsubReq>() {
        0
    } else if env.is::<QstatReq>() {
        1
    } else if env.is::<DynGetReq>() {
        2
    } else if env.is::<DynFreeReq>() {
        3
    } else if env.is::<ClusterQueryReq>() {
        4
    } else {
        OTHER
    }
}

fn one_class(_: &Envelope) -> usize {
    0
}

/// An actor whose handlers are timed into per-class [`Busy`] slots.
struct Probe<A> {
    inner: A,
    slots: Arc<Vec<Busy>>,
    classify: fn(&Envelope) -> usize,
    timer: usize,
    start: usize,
}

impl<A: Actor> Actor for Probe<A> {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let slot = (self.classify)(&env);
        let t = Instant::now();
        self.inner.on_message(ctx, env);
        self.slots[slot].add(t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.slots[self.timer].add(t);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.slots[self.start].add(t);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

fn slots(n: usize) -> Arc<Vec<Busy>> {
    Arc::new((0..n).map(|_| Busy::default()).collect())
}

/// Busy time of each timed layer of a traced run.
pub struct Layers {
    /// `pbs_server`, one slot per [`SERVER_CLASSES`] entry.
    pub server: Arc<Vec<Busy>>,
    /// The Maui scheduler.
    pub sched: Arc<Vec<Busy>>,
    /// Every `pbs_mom`, together.
    pub moms: Arc<Vec<Busy>>,
    /// The benchmark's job-script futures.
    pub scripts: Arc<Busy>,
    /// The benchmark's `qsub` client futures.
    pub qsub: Arc<Busy>,
    /// The benchmark's completion watcher.
    pub watch: Arc<Busy>,
}

/// A cluster wired from the public constructors with timed actors.
pub struct Traced {
    sim: Engine,
    net: Network,
    fs: PseudoFs,
    head: HostId,
    /// The DAC runtime the job scripts use.
    pub dac: DacRuntime,
    /// The server's node database.
    pub node_db: Arc<Mutex<NodeDb>>,
    /// The engine's metrics registry.
    pub metrics: MetricsRegistry,
    /// The timed layers.
    pub layers: Layers,
}

impl Traced {
    /// Wire the cluster the way `Cluster::build` does. Only the features
    /// the benchmark's configurations use are mirrored; the assertion
    /// keeps it that way.
    pub fn build(config: ClusterConfig) -> Self {
        assert!(
            config.monitor.is_none()
                && config.fault.is_none()
                && !config.sim.trace
                && config.fabric.dpu_ranks == 0
                && config.fabric.gpu_slices == 1,
            "the traced assembly mirrors only plain GPU-pool clusters"
        );
        let mut sim = Engine::new(config.sim.clone());
        let net = Network::new(config.latency.clone(), config.sim.seed ^ 0x6e65_7477);
        let fs = PseudoFs::new();
        let recorder = Recorder::new();
        let metrics = sim.metrics();
        net.attach_metrics(metrics.clone());
        net.set_retry_policy(config.retry);

        let head = net.add_host("head", HostKind::Head);
        let compute: Vec<HostId> = (0..config.compute_nodes)
            .map(|i| net.add_host(format!("cn{i:02}"), HostKind::Compute))
            .collect();
        let accs: Vec<HostId> = (0..config.accelerators)
            .map(|i| net.add_host(format!("ac{i:02}"), HostKind::Accelerator))
            .collect();
        let mpi = MpiRuntime::new(net.clone(), config.mpi_cost.clone());
        let dac = DacRuntime::new(
            mpi,
            fs.clone(),
            config.dac_cost.clone(),
            KernelRegistry::with_builtins(),
            config.device,
        );

        let mut db = NodeDb::new();
        for &h in &compute {
            db.add_compute(h, config.cores_per_node);
        }
        for &h in &accs {
            db.add_accelerator(h);
        }

        let layers = Layers {
            server: slots(SERVER_CLASSES.len()),
            sched: slots(1),
            moms: slots(1),
            scripts: Arc::default(),
            qsub: Arc::default(),
            watch: Arc::default(),
        };
        let server = PbsServer::new(net.clone(), fs.clone(), head, config.rms_cost.clone(), db);
        let node_db = server.db_handle();
        let server = Probe {
            inner: server,
            slots: layers.server.clone(),
            classify: server_class,
            timer: TIMER,
            start: OTHER,
        };
        let server_id = sim.add_actor(Box::new(server));
        net.bind(server_addr(head), Endpoint::Actor(server_id));

        let sched = MauiScheduler::new(net.clone(), head, config.sched.clone())
            .with_recorder(recorder.clone());
        let sched = Probe {
            inner: sched,
            slots: layers.sched.clone(),
            classify: one_class,
            timer: 0,
            start: 0,
        };
        let sched_id = sim.add_actor(Box::new(sched));
        net.bind(sched_addr(head), Endpoint::Actor(sched_id));

        let starter = Arc::new(DacStarter::new(dac.clone()));
        for &h in compute.iter().chain(accs.iter()) {
            let mom = PbsMom::new(
                net.clone(),
                fs.clone(),
                h,
                head,
                config.rms_cost.clone(),
                Some(starter.clone()),
            );
            let mom = Probe {
                inner: mom,
                slots: layers.moms.clone(),
                classify: one_class,
                timer: 0,
                start: 0,
            };
            let mom_id = sim.add_actor(Box::new(mom));
            net.bind(mom_addr(h), Endpoint::Actor(mom_id));
        }
        Traced { sim, net, fs, head, dac, node_db, metrics, layers }
    }
}

/// Either assembly, behind the operations a benchmark run needs.
pub enum Assembly {
    /// Built by `Cluster::build`.
    Plain(Box<Cluster>),
    /// Built by [`Traced::build`].
    Traced(Box<Traced>),
}

impl Assembly {
    /// Build the cluster, traced or not.
    pub fn build(config: ClusterConfig, traced: bool) -> Self {
        if traced {
            Assembly::Traced(Box::new(Traced::build(config)))
        } else {
            Assembly::Plain(Box::new(Cluster::build(config)))
        }
    }

    /// The DAC runtime.
    pub fn dac(&self) -> &DacRuntime {
        match self {
            Assembly::Plain(c) => &c.dac,
            Assembly::Traced(t) => &t.dac,
        }
    }

    /// The server's node database.
    pub fn node_db(&self) -> &Arc<Mutex<NodeDb>> {
        match self {
            Assembly::Plain(c) => &c.node_db,
            Assembly::Traced(t) => &t.node_db,
        }
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        match self {
            Assembly::Plain(c) => &c.metrics,
            Assembly::Traced(t) => &t.metrics,
        }
    }

    /// The timed layers of a traced assembly.
    pub fn layers(&self) -> Option<&Layers> {
        match self {
            Assembly::Plain(_) => None,
            Assembly::Traced(t) => Some(&t.layers),
        }
    }

    /// Spawn a front-end client on the head node after `delay`, as
    /// `Cluster::client_after` does.
    pub fn client_after<F, Fut>(&mut self, name: String, delay: SimDuration, f: F)
    where
        F: FnOnce(ClientCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        match self {
            Assembly::Plain(c) => c.client_after(name, delay, f),
            Assembly::Traced(t) => {
                let (net, fs, head) = (t.net.clone(), t.fs.clone(), t.head);
                let server = server_addr(head);
                t.sim.spawn_process_after(name, delay, move |proc| {
                    f(ClientCtx { proc, net, fs, head, server })
                });
            }
        }
    }

    /// Run the simulation to quiescence or the horizon.
    pub fn run(&mut self) -> SimStats {
        match self {
            Assembly::Plain(c) => c.run(),
            Assembly::Traced(t) => t.sim.run(),
        }
    }
}
