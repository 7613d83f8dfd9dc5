//! Cluster assembly: builds the simulated hosts, the batch-system daemons
//! (server, scheduler, moms), the MPI runtime and the DAC stack, and
//! offers front-end entry points for submitting work.

use std::fmt::Write as _;
use std::sync::Arc;

use darms_dac::{DacRuntime, DacStarter, DeviceProps, FabricHostSpec, KernelRegistry};
use darms_mpi::MpiRuntime;
use darms_net::{Address, HostId, HostKind, Network};
use darms_rms::{
    ifl, mom_addr, monitor_addr, sched_addr, server_addr, DeviceClass, HealthMonitor, JobId,
    JobSpec, JobState, JobStatus, NodeDb, PbsMom, PbsServer, PseudoFs,
};
use darms_sched::MauiScheduler;
use darms_sim::{Endpoint, Engine, MetricsRegistry, Proc, SimDuration, SimStats, Tracer};
use parking_lot::Mutex;

use crate::config::ClusterConfig;

/// A fully wired simulated DAC cluster.
pub struct Cluster {
    /// The simulation engine (run it to execute the scenario).
    pub sim: Engine,
    /// The interconnect.
    pub net: Network,
    /// The shared pseudo-filesystem.
    pub fs: PseudoFs,
    /// The MPI runtime.
    pub mpi: MpiRuntime,
    /// The DAC runtime (kernel registry, devices, daemon executable).
    pub dac: DacRuntime,
    /// The head node (server + scheduler + front end).
    pub head: HostId,
    /// Compute nodes.
    pub compute: Vec<HostId>,
    /// Network-attached accelerator hosts (the ARM pool).
    pub accs: Vec<HostId>,
    /// DPU-rank accelerator hosts (the fabric extension; empty unless
    /// [`crate::config::FabricConfig::dpu_ranks`] is set).
    pub dpus: Vec<HostId>,
    /// The engine's metrics registry, the one sample store: every
    /// instrumented subsystem (server, scheduler, DAC front ends,
    /// network) writes into it.
    pub metrics: MetricsRegistry,
    /// The engine's structured event tracer.
    pub tracer: Tracer,
    /// Shared handle to the server's node database. Read-only use is
    /// intended (invariant auditing); never hold the guard across an
    /// `await`.
    pub node_db: Arc<Mutex<NodeDb>>,
    config: ClusterConfig,
}

impl Cluster {
    /// Build a cluster from the configuration.
    pub fn build(config: ClusterConfig) -> Self {
        let mut sim = Engine::new(config.sim.clone());
        let net = Network::new(config.latency.clone(), config.sim.seed ^ 0x6e65_7477);
        let fs = PseudoFs::new();
        let metrics = sim.metrics();
        let tracer = sim.tracer();
        net.attach_metrics(metrics.clone());
        net.set_retry_policy(config.retry);
        if let Some(plan) = config.fault.clone() {
            net.install_fault_plan(plan);
        }
        if config.sim.trace {
            net.attach_tracer(tracer.clone());
        }

        let hosts = config.compute_nodes + config.accelerators + config.fabric.dpu_ranks;
        net.reserve_hosts(1 + hosts);
        let head = net.add_host("head", HostKind::Head);
        // Numbered names, formatted into one reused buffer.
        let mut name = String::new();
        let mut add_hosts = |prefix: &str, n: usize, kind: HostKind| -> Vec<HostId> {
            (0..n)
                .map(|i| {
                    name.clear();
                    let _ = write!(name, "{prefix}{i:02}");
                    net.add_host(name.as_str(), kind)
                })
                .collect()
        };
        let compute = add_hosts("cn", config.compute_nodes, HostKind::Compute);
        let accs = add_hosts("ac", config.accelerators, HostKind::Accelerator);
        // DPU ranks come after the GPU pool so host-id numbering of
        // pre-fabric clusters (dpu_ranks = 0) is unchanged.
        let dpus = add_hosts("du", config.fabric.dpu_ranks, HostKind::Accelerator);

        let mpi = MpiRuntime::new(net.clone(), config.mpi_cost.clone());
        let dac = DacRuntime::new(
            mpi.clone(),
            fs.clone(),
            config.dac_cost.clone(),
            KernelRegistry::with_builtins(),
            config.device,
        );
        let dpu_props = config.fabric.dpu_device.unwrap_or_else(DeviceProps::dpu_rank);
        if config.fabric.gpu_slices > 1 {
            for &h in &accs {
                let spec = FabricHostSpec {
                    class: DeviceClass::GpuLike,
                    slices: config.fabric.gpu_slices,
                    props: config.device,
                };
                dac.register_fabric_host(h, spec);
            }
        }
        for &h in &dpus {
            let spec = FabricHostSpec {
                class: DeviceClass::DpuRankLike,
                slices: config.fabric.dpu_slices,
                props: dpu_props,
            };
            dac.register_fabric_host(h, spec);
        }

        let mut db = NodeDb::with_capacity(1 + hosts);
        for &h in &compute {
            db.add_compute(h, config.cores_per_node);
        }
        for &h in &accs {
            if config.fabric.gpu_slices > 1 {
                db.add_accelerator_device(h, DeviceClass::GpuLike, config.fabric.gpu_slices);
            } else {
                db.add_accelerator(h);
            }
        }
        for &h in &dpus {
            db.add_accelerator_device(h, DeviceClass::DpuRankLike, config.fabric.dpu_slices);
        }

        let server = PbsServer::new(net.clone(), fs.clone(), head, config.rms_cost.clone(), db);
        let node_db = server.db_handle();
        let server_id = sim.add_actor(Box::new(server));
        net.bind(server_addr(head), Endpoint::Actor(server_id));

        let sched = MauiScheduler::new(net.clone(), head, config.sched.clone());
        let sched_id = sim.add_actor(Box::new(sched));
        net.bind(sched_addr(head), Endpoint::Actor(sched_id));

        if let Some(mc) = config.monitor.clone() {
            let watched: Vec<HostId> =
                compute.iter().chain(accs.iter()).chain(dpus.iter()).copied().collect();
            let monitor = HealthMonitor::new(net.clone(), head, monitor_addr(head), watched, mc);
            let monitor_id = sim.add_actor(Box::new(monitor));
            net.bind(monitor_addr(head), Endpoint::Actor(monitor_id));
        }

        let starter = Arc::new(DacStarter::new(dac.clone()));
        let mom_cost = Arc::new(config.rms_cost.clone());
        sim.reserve_actors(hosts);
        for &h in compute.iter().chain(accs.iter()).chain(dpus.iter()) {
            let mom = PbsMom::new(
                net.clone(),
                fs.clone(),
                h,
                head,
                mom_cost.clone(),
                Some(starter.clone()),
            );
            let mom_id = sim.add_actor(Box::new(mom));
            net.bind(mom_addr(h), Endpoint::Actor(mom_id));
        }

        Cluster {
            sim,
            net,
            fs,
            mpi,
            dac,
            head,
            compute,
            accs,
            dpus,
            metrics,
            tracer,
            node_db,
            config,
        }
    }

    /// The server's address (for custom front-end processes).
    pub fn server(&self) -> Address {
        server_addr(self.head)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Spawn a front-end client process on the head node after `delay`.
    /// The async closure receives a [`ClientCtx`] with awaitable
    /// `qsub`/`qstat`/`qdel` calls: `|c| async move { … }`.
    pub fn client_after<F, Fut>(&mut self, name: impl Into<String>, delay: SimDuration, f: F)
    where
        F: FnOnce(ClientCtx) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let ctx_net = self.net.clone();
        let ctx_fs = self.fs.clone();
        let head = self.head;
        let server = self.server();
        self.sim.spawn_process_after(name, delay, move |p| {
            f(ClientCtx { proc: p, net: ctx_net, fs: ctx_fs, head, server })
        });
    }

    /// Spawn a front-end client process starting at time zero.
    pub fn client<F, Fut>(&mut self, name: impl Into<String>, f: F)
    where
        F: FnOnce(ClientCtx) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        self.client_after(name, SimDuration::ZERO, f);
    }

    /// Convenience: submit a job from the front end after `delay`;
    /// the returned slot is filled with the job id once the server
    /// acknowledges.
    pub fn qsub_after(&mut self, delay: SimDuration, spec: JobSpec) -> Arc<Mutex<Option<JobId>>> {
        let slot = Arc::new(Mutex::new(None));
        let out = slot.clone();
        let name = format!("qsub:{}", spec.name);
        self.client_after(name, delay, move |c| async move {
            let id = c.qsub(spec).await;
            *out.lock() = Some(id);
        });
        slot
    }

    /// Convenience: submit at time zero.
    pub fn qsub(&mut self, spec: JobSpec) -> Arc<Mutex<Option<JobId>>> {
        self.qsub_after(SimDuration::ZERO, spec)
    }

    /// Run the simulation to completion and return engine statistics.
    pub fn run(&mut self) -> SimStats {
        self.sim.run()
    }
}

/// Front-end context for client processes (the analogue of a login shell
/// on the head node with the TORQUE client commands installed).
pub struct ClientCtx {
    /// The client's simulation process.
    pub proc: Proc,
    /// The interconnect.
    pub net: Network,
    /// The shared pseudo-filesystem.
    pub fs: PseudoFs,
    /// The head node this client runs on.
    pub head: HostId,
    /// The server's address.
    pub server: Address,
}

impl ClientCtx {
    /// Submit a job (blocking until the server acknowledges).
    pub async fn qsub(&self, spec: JobSpec) -> JobId {
        ifl::qsub(&self.proc, &self.net, self.head, self.server, spec).await
    }

    /// Query all job statuses.
    pub async fn qstat(&self) -> Vec<JobStatus> {
        ifl::qstat(&self.proc, &self.net, self.head, self.server).await
    }

    /// Cancel a job.
    pub async fn qdel(&self, job: JobId) -> bool {
        ifl::qdel(&self.proc, &self.net, self.head, self.server, job).await
    }

    /// Hold a queued job (`qhold`).
    pub async fn qhold(&self, job: JobId) -> bool {
        ifl::qhold(&self.proc, &self.net, self.head, self.server, job).await
    }

    /// Release a held job (`qrls`).
    pub async fn qrls(&self, job: JobId) -> bool {
        ifl::qrls(&self.proc, &self.net, self.head, self.server, job).await
    }

    /// Poll `qstat` until the job reaches `state` (or a terminal state);
    /// returns its final status. Polls every `poll`.
    pub async fn wait_for_state(
        &self,
        job: JobId,
        state: JobState,
        poll: SimDuration,
    ) -> JobStatus {
        loop {
            let statuses = self.qstat().await;
            if let Some(s) = statuses.into_iter().find(|s| s.id == job) {
                if s.state == state || s.state.is_terminal() {
                    return s;
                }
            }
            self.proc.sleep(poll).await;
        }
    }

    /// Wait until the job completes; returns its final status.
    pub async fn wait_complete(&self, job: JobId, poll: SimDuration) -> JobStatus {
        self.wait_for_state(job, JobState::Complete, poll).await
    }
}
