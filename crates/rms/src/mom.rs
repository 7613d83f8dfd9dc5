//! The `pbs_mom` actor: one per compute and accelerator host.
//!
//! The mom selected as *mother superior* (always a compute node, §III-C)
//! drives the job lifecycle: `JOIN_JOB` with the sisters, accelerator
//! daemon startup, task launch, `DYNJOIN_JOB` when the server associates
//! dynamically allocated accelerators, `DISJOIN_JOB` on release, and the
//! exit protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use darms_net::{Address, HostId, Network};
use darms_sim::{Actor, Ctx, Endpoint, Envelope, Proc, ProcessId, SimDuration};

use crate::cost::RmsCostModel;
use crate::fs::{files, PseudoFs};
use crate::ifl;
use crate::job::{ClientId, DynSet, JobId, JobSpec};
use crate::proto::*;
use crate::{mom_addr, server_addr};

/// Request passed to the accelerator-daemon starter hook.
pub struct StaticDaemonRequest {
    /// The job the daemons belong to.
    pub job: JobId,
    /// Index of the compute node within the job (0 = mother superior).
    pub cn_index: usize,
    /// The compute node the daemons will serve.
    pub cn: HostId,
    /// The accelerator hosts to start daemons on.
    pub accs: Vec<HostId>,
}

/// Hook through which the mother superior starts accelerator daemons for
/// a static allocation (the DAC layer implements this; the RMS stays
/// accelerator-architecture agnostic, as the paper argues TORQUE should).
pub trait AcDaemonStarter: Send + Sync {
    /// Start one compute node's daemon set. Returns the daemon process
    /// ids so the mom can track them as job tasks.
    fn start_static(&self, ctx: &mut Ctx<'_>, req: &StaticDaemonRequest) -> Vec<ProcessId>;
}

/// Everything a per-compute-node application task can see and do. This is
/// the execution environment the job script receives (the analogue of the
/// TORQUE environment variables plus the TM/IFL interface).
pub struct JobCtx {
    /// The simulation process this task runs as.
    pub proc: Proc,
    /// The job id (`PBS_JOBID`).
    pub job: JobId,
    /// Index of this compute node within the job (0 = mother superior).
    pub node_index: usize,
    /// The host this task runs on.
    pub host: HostId,
    /// All compute hosts of the job (`PBS_NODEFILE`).
    pub compute: Vec<HostId>,
    /// This compute node's statically allocated accelerators.
    pub acc_hosts: Vec<HostId>,
    /// The submitted spec.
    pub spec: JobSpec,
    /// The cluster network.
    pub net: Network,
    /// The shared pseudo-filesystem.
    pub fs: PseudoFs,
    /// The server's address.
    pub server: Address,
    /// Latched once a [`TaskKill`] has been observed.
    killed: bool,
}

impl JobCtx {
    /// `pbs_dynget`: blockingly request `count` additional accelerators.
    pub async fn dynget(&self, count: u32) -> Result<DynGrant, DynReject> {
        ifl::pbs_dynget(&self.proc, &self.net, self.host, self.server, self.job, self.host, count)
            .await
    }

    /// Request `count` additional compute nodes with `ppn` cores each for
    /// a malleable application (§V generalisation). Returns the granted
    /// hosts; spawn work there via the MPI runtime, and release with
    /// [`JobCtx::dynfree`].
    pub async fn dynget_nodes(&self, count: u32, ppn: u32) -> Result<DynGrant, DynReject> {
        ifl::pbs_dynget_nodes(
            &self.proc,
            &self.net,
            self.host,
            self.server,
            self.job,
            self.host,
            count,
            ppn,
        )
        .await
    }

    /// `pbs_dynfree`: release a dynamically allocated set.
    pub async fn dynfree(&self, client_id: ClientId) -> bool {
        ifl::pbs_dynfree(&self.proc, &self.net, self.host, self.server, self.job, client_id).await
    }

    /// `qstat` as seen from inside the job.
    pub async fn qstat(&self) -> Vec<crate::job::JobStatus> {
        ifl::qstat(&self.proc, &self.net, self.host, self.server).await
    }

    /// True once the job has been cancelled (`qdel`). Cancellation is
    /// cooperative: long-running scripts should poll this (or use
    /// [`JobCtx::sleep_interruptible`]) and wind down.
    pub fn killed(&mut self) -> bool {
        if !self.killed && self.proc.try_recv_where(|e| e.is::<TaskKill>()).is_some() {
            self.killed = true;
        }
        self.killed
    }

    /// Sleep for `d`, waking early if the job is cancelled. Returns true
    /// if the sleep was interrupted by cancellation.
    pub async fn sleep_interruptible(&mut self, d: darms_sim::SimDuration) -> bool {
        if self.killed {
            return true;
        }
        if self.proc.recv_where_timeout(|e| e.is::<TaskKill>(), d).await.is_some() {
            self.killed = true;
        }
        self.killed
    }
}

/// What an exchange does once every sister has acknowledged.
enum Completion {
    /// `JOIN_JOB`: run the prologue.
    Prologue,
    /// `DYNJOIN_JOB`: associate `accs` with the job and answer the
    /// server's dynamic request `token`.
    DynReady { token: u64, accs: Vec<HostId> },
    /// `DISJOIN_JOB`: report the released set to the server.
    FreeDone(DynSet),
}

/// One in-flight exchange of the mother superior with its sisters.
struct Exchange {
    /// Hosts that have not acknowledged yet.
    pending: BTreeSet<HostId>,
    /// Run exactly once, by the ack that empties `pending`.
    then: Completion,
}

/// Identifies an exchange within its job: at most one join and one
/// dynamic join at a time, and one release per dynamic set.
type ExchangeKey = (SisterOp, Option<ClientId>);

struct MomJob {
    launch: JobLaunch,
    is_ms: bool,
    /// True once `JobStarted` has been sent (duplicate `SendJob`s are
    /// answered by re-sending it).
    announced: bool,
    /// Exchanges with the sisters still awaiting acks (mother superior).
    exchanges: BTreeMap<ExchangeKey, Exchange>,
    /// Hosts of currently associated dynamic sets (mother superior view).
    dyn_hosts: Vec<HostId>,
    tasks_done: BTreeSet<usize>,
    task_pids: Vec<ProcessId>,
    /// Timer token of the armed walltime kill, if any.
    walltime_timer: Option<u64>,
    /// Tokens of completed dynamic joins (mother superior): a duplicate
    /// `DynJoinCmd` is answered by re-sending `DynReady`. Dropped with
    /// the job, so a duplicate that arrives after the job left this mom
    /// gets no answer; the server treats such a late reply as stale.
    completed_dynjoins: BTreeSet<u64>,
    /// Completed releases (mother superior): a duplicate `DisjoinCmd` is
    /// answered by re-sending `FreeDone`. Dropped with the job, likewise.
    completed_frees: BTreeMap<ClientId, DynSet>,
}

impl MomJob {
    fn new(launch: JobLaunch, is_ms: bool) -> Self {
        MomJob {
            launch,
            is_ms,
            announced: false,
            exchanges: BTreeMap::new(),
            dyn_hosts: Vec::new(),
            tasks_done: BTreeSet::new(),
            task_pids: Vec::new(),
            walltime_timer: None,
            completed_dynjoins: BTreeSet::new(),
            completed_frees: BTreeMap::new(),
        }
    }
}

enum Deferred {
    /// Send a `Join` or `DynJoin` request to one sister.
    Issue {
        op: SisterOp,
        job: JobId,
        host: HostId,
    },
    /// Sister side: the request has been handled; act on it and ack.
    Finish(SisterReq),
    StartTasks {
        job: JobId,
    },
    /// Walltime enforcement: kill the job if it is still running.
    WalltimeExpired {
        job: JobId,
    },
}

/// The `pbs_mom` daemon for one host.
pub struct PbsMom {
    net: Network,
    fs: PseudoFs,
    host: HostId,
    head: HostId,
    cost: RmsCostModel,
    starter: Option<Arc<dyn AcDaemonStarter>>,
    jobs: BTreeMap<JobId, MomJob>,
    deferred: BTreeMap<u64, Deferred>,
    next_timer: u64,
    name: String,
    /// Highest incarnation per job this mom has finished (or cleaned up);
    /// duplicate launches at or below it are ignored.
    done_jobs: BTreeMap<JobId, u32>,
    /// `JobExit`s awaiting the server's ack, with remaining resend
    /// attempts (only populated when a retry policy is active).
    exit_pending: BTreeMap<JobId, (JobExit, u32)>,
}

/// Reserved timer token for the mom's retransmit tick.
const TOKEN_RETRY: u64 = 0;

/// Resend budget for an unacknowledged `JobExit`.
const EXIT_ATTEMPTS: u32 = 20;

impl PbsMom {
    /// Create the mom for `host`; `head` locates the server.
    pub fn new(
        net: Network,
        fs: PseudoFs,
        host: HostId,
        head: HostId,
        cost: RmsCostModel,
        starter: Option<Arc<dyn AcDaemonStarter>>,
    ) -> Self {
        PbsMom {
            net,
            fs,
            host,
            head,
            cost,
            starter,
            jobs: BTreeMap::new(),
            deferred: BTreeMap::new(),
            next_timer: 1,
            name: format!("pbs_mom@host{}", host.index()),
            done_jobs: BTreeMap::new(),
            exit_pending: BTreeMap::new(),
        }
    }

    fn defer(&mut self, ctx: &mut Ctx<'_>, after: SimDuration, d: Deferred) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.deferred.insert(token, d);
        ctx.set_timer(after, token);
        token
    }

    fn send_to<T: std::any::Any + Send + Clone>(&mut self, ctx: &mut Ctx<'_>, to: Address, msg: T) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, msg, bytes);
    }

    fn my_addr(&self) -> Address {
        mom_addr(self.host)
    }

    /// Hosts involved in a job besides the mother superior.
    fn sisters(launch: &JobLaunch) -> Vec<HostId> {
        let mut v: Vec<HostId> = Vec::new();
        for h in launch.compute.iter().skip(1) {
            v.push(*h);
        }
        for h in launch.accs.iter().flatten() {
            if !v.contains(h) {
                v.push(*h);
            }
        }
        v
    }

    // -- mother superior: job start --------------------------------------

    fn handle_send_job(&mut self, ctx: &mut Ctx<'_>, msg: SendJob) {
        let launch = msg.launch;
        let job = launch.job;
        if self.done_jobs.get(&job).is_some_and(|done| launch.incarnation <= *done) {
            // Stale duplicate of an incarnation this mom already finished
            // (or was told to clean up); the exit-retry path informs the
            // server, nothing to restart here.
            return;
        }
        if let Some(rec) = self.jobs.get(&job) {
            if launch.incarnation < rec.launch.incarnation {
                return;
            }
            if launch.incarnation == rec.launch.incarnation {
                if rec.is_ms && rec.announced {
                    // The server missed our JobStarted: repeat it.
                    let m = JobStarted { job, from: self.host, incarnation: launch.incarnation };
                    self.send_to(ctx, server_addr(self.head), m);
                }
                return; // launch already in progress
            }
            // A newer incarnation (the job was reclaimed and rescheduled
            // here): kill the lingering old one before starting fresh.
            let old = rec.launch.incarnation;
            self.handle_cleanup(ctx, CleanupJob { job, incarnation: old });
        }
        let sisters = Self::sisters(&launch);
        ctx.trace(format_args!("{job}: mother superior, {} sister(s)", sisters.len()));
        self.jobs.insert(job, MomJob::new(launch, true));
        self.open(ctx, job, (SisterOp::Join, None), sisters, Completion::Prologue);
    }

    /// All moms joined: write the nodefile, start accelerator daemons,
    /// then the application tasks.
    fn prologue(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let launch = rec.launch.clone();
        let nodefile = launch
            .compute
            .iter()
            .map(|h| format!("host{}", h.index()))
            .collect::<Vec<_>>()
            .join("\n");
        let woken = self.fs.write(job, files::NODEFILE, nodefile);
        ctx.wake_pollers(woken);
        if let Some(starter) = self.starter.clone() {
            for (i, accs) in launch.accs.iter().enumerate() {
                if accs.is_empty() {
                    continue;
                }
                let req = StaticDaemonRequest {
                    job,
                    cn_index: i,
                    cn: launch.compute[i],
                    accs: accs.clone(),
                };
                let pids = starter.start_static(ctx, &req);
                if let Some(rec) = self.jobs.get_mut(&job) {
                    rec.task_pids.extend(pids);
                }
            }
        }
        self.defer(ctx, self.cost.task_start, Deferred::StartTasks { job });
    }

    fn start_tasks(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let launch = rec.launch.clone();
        let ms_mom = self.my_addr();
        let server = server_addr(self.head);
        for (i, cn) in launch.compute.iter().enumerate() {
            let compute = launch.compute.clone();
            let acc_hosts = launch.accs.get(i).cloned().unwrap_or_default();
            let spec = launch.spec.clone();
            let script = launch.spec.script.clone();
            let runtime = launch.spec.runtime;
            let net = self.net.clone();
            let fs = self.fs.clone();
            let cn_host = *cn;
            let bytes = self.cost.ctl_bytes;
            let name = format!("{job}-task{i}@host{}", cn.index());
            let pid = ctx.spawn_process(name, move |p: Proc| async move {
                let proc = p.clone();
                let mut jc = JobCtx {
                    proc: p,
                    job,
                    node_index: i,
                    host: cn_host,
                    compute,
                    acc_hosts,
                    spec,
                    net: net.clone(),
                    fs,
                    server,
                    killed: false,
                };
                match &script {
                    Some(s) => s(jc).await,
                    None => {
                        // Synthetic jobs honour qdel: the sleep breaks
                        // early when the mom delivers a TaskKill.
                        let _ = jc.sleep_interruptible(runtime).await;
                    }
                }
                // Task epilogue: report completion to the mother
                // superior. Under a retry policy the report is repeated
                // until the mom acknowledges it (the ack travels directly
                // to this process, so only the lossy report direction is
                // retried).
                let done = TaskDone { job, node_index: i };
                match net.retry_policy() {
                    None => {
                        net.send_from_proc(&proc, cn_host, ms_mom, done, bytes);
                    }
                    Some(pol) => {
                        for attempt in 0..pol.max_attempts.max(1) {
                            net.send_from_proc(&proc, cn_host, ms_mom, done.clone(), bytes);
                            let acked = proc
                                .recv_where_timeout(
                                    |e| {
                                        e.peek::<TaskDoneAck>()
                                            .is_some_and(|a| a.job == job && a.node_index == i)
                                    },
                                    pol.timeout_for(attempt),
                                )
                                .await
                                .is_some();
                            if acked {
                                break;
                            }
                        }
                    }
                }
            });
            if let Some(rec) = self.jobs.get_mut(&job) {
                rec.task_pids.push(pid);
            }
        }
        let msg = JobStarted { job, from: self.host, incarnation: launch.incarnation };
        self.send_to(ctx, server_addr(self.head), msg);
        if let Some(rec) = self.jobs.get_mut(&job) {
            rec.announced = true;
        }
        // TORQUE enforces the user's walltime estimate: arm the kill
        // timer with a small grace allowance.
        let walltime = launch.spec.walltime_estimate;
        if !walltime.is_zero() {
            let grace = SimDuration::from_secs(5).max(walltime.mul_f64(0.05));
            let token = self.defer(ctx, walltime + grace, Deferred::WalltimeExpired { job });
            if let Some(rec) = self.jobs.get_mut(&job) {
                rec.walltime_timer = Some(token);
            }
        }
    }

    /// The job overran its walltime: kill it like a qdel, reporting the
    /// timeout to the server.
    fn walltime_expired(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return }; // already done
        if !rec.is_ms {
            return;
        }
        ctx.trace(format_args!("{job}: walltime exceeded; killing"));
        let incarnation = rec.launch.incarnation;
        self.send_exit(ctx, JobExit { job, from: self.host, incarnation, timed_out: true });
        self.handle_cleanup(ctx, CleanupJob { job, incarnation });
    }

    // -- mother superior: dynamic join and release -------------------------

    fn handle_dynjoin_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: DynJoinCmd) {
        let Some(rec) = self.jobs.get(&cmd.job) else { return };
        if rec.completed_dynjoins.contains(&cmd.token) {
            // Duplicate of a join already finished: the server missed our
            // DynReady; repeat it.
            let ready = DynReady { job: cmd.job, token: cmd.token };
            self.send_to(ctx, server_addr(self.head), ready);
            return;
        }
        let key = (SisterOp::DynJoin, None);
        let in_progress = rec.exchanges.get(&key).map(|ex| &ex.then);
        if matches!(in_progress, Some(Completion::DynReady { token, .. }) if *token == cmd.token) {
            return; // join already in progress
        }
        let existing: Vec<HostId> = Self::sisters(&rec.launch)
            .into_iter()
            .chain(rec.dyn_hosts.iter().copied())
            .filter(|h| !cmd.accs.contains(h))
            .collect();
        ctx.trace(format_args!("{}: DYNJOIN of {} host(s)", cmd.job, cmd.accs.len()));
        let then = Completion::DynReady { token: cmd.token, accs: cmd.accs.clone() };
        self.open(ctx, cmd.job, key, cmd.accs.clone(), then);
        // Update the existing moms' databases (§III-D).
        for h in existing {
            let upd = UpdateJobRes { job: cmd.job, added: cmd.accs.clone(), removed: vec![] };
            self.send_to(ctx, mom_addr(h), upd);
        }
    }

    fn handle_disjoin_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: DisjoinCmd) {
        let done = self.jobs.get(&cmd.job).and_then(|rec| rec.completed_frees.get(&cmd.client_id));
        if let Some(set) = done {
            // Duplicate of a finished release: the server missed our
            // FreeDone; repeat it.
            let free_done = FreeDone { job: cmd.job, set: set.clone() };
            self.send_to(ctx, server_addr(self.head), free_done);
            return;
        }
        ctx.trace(format_args!("{}: DISJOIN of {} host(s)", cmd.job, cmd.accs.len()));
        let key = (SisterOp::Disjoin, Some(cmd.client_id));
        if self.jobs.get(&cmd.job).is_none_or(|rec| rec.exchanges.contains_key(&key)) {
            return; // unknown job, or release already in progress
        }
        let set = DynSet {
            client_id: cmd.client_id,
            cn: self.host,
            accs: cmd.accs.clone(),
            slices: cmd.slices,
            ppn: cmd.ppn,
        };
        self.open(ctx, cmd.job, key, cmd.accs, Completion::FreeDone(set));
    }

    // -- mother superior <-> sisters: JOIN_JOB, DYNJOIN_JOB, DISJOIN_JOB --

    /// Start an exchange of `job` with `hosts`. TORQUE issues JOIN_JOBs
    /// sequentially, so joins go out `join_issue_stagger` apart (the
    /// stagger drives the per-accelerator growth visible in the paper's
    /// measurements); a release goes out at once. With no hosts the
    /// exchange completes at once.
    fn open(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: JobId,
        key: ExchangeKey,
        hosts: Vec<HostId>,
        then: Completion,
    ) {
        if hosts.is_empty() {
            return self.complete(ctx, job, then);
        }
        let Some(rec) = self.jobs.get_mut(&job) else { return };
        rec.exchanges.insert(key, Exchange { pending: hosts.iter().copied().collect(), then });
        let op = key.0;
        for (i, host) in hosts.into_iter().enumerate() {
            if op != SisterOp::Disjoin {
                let delay = self.cost.join_issue_stagger * i as u64;
                self.defer(ctx, delay, Deferred::Issue { op, job, host });
            } else if !self.issue(ctx, op, job, host) {
                // The host is down: its mom cannot acknowledge. Treat the
                // disassociation as complete — the health monitor marks
                // the node offline at the server.
                ctx.trace(format_args!("DISJOIN to dead host{} short-circuited", host.index()));
                self.handle_ack(ctx, SisterAck { job, host, op });
            }
        }
    }

    /// Send one exchange request to `host`; false if nothing was sent.
    fn issue(&mut self, ctx: &mut Ctx<'_>, op: SisterOp, job: JobId, host: HostId) -> bool {
        let Some(rec) = self.jobs.get(&job) else { return false };
        let launch = (op != SisterOp::Disjoin).then(|| rec.launch.clone());
        let req = SisterReq { job, op, launch, reply: self.my_addr() };
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, mom_addr(host), req, bytes).is_sent()
    }

    /// Sister side: handling takes `join_handling` or `disjoin_handling`.
    fn handle_sister_req(&mut self, ctx: &mut Ctx<'_>, req: SisterReq) {
        let after = match req.op {
            SisterOp::Join | SisterOp::DynJoin => self.cost.join_handling,
            SisterOp::Disjoin => self.cost.disjoin_handling,
        };
        self.defer(ctx, after, Deferred::Finish(req));
    }

    /// Sister side: join the job, keeping the full launch picture as in
    /// TORQUE, or leave it; then acknowledge.
    fn finish_sister_req(&mut self, ctx: &mut Ctx<'_>, req: SisterReq) {
        let SisterReq { job, op, launch, reply } = req;
        if op == SisterOp::Disjoin {
            ctx.trace(format_args!("{job}: disjoined"));
            // Kill any remaining local tasks of this job, then detach.
            self.jobs.remove(&job);
        } else if let Some(launch) = launch {
            self.jobs.entry(job).or_insert_with(|| MomJob::new(launch, false));
        }
        self.send_to(ctx, reply, SisterAck { job, host: self.host, op });
    }

    /// An ack completes the exchange whose last pending host it removes,
    /// so a duplicated or retransmitted ack completes nothing. A release
    /// ack names no set: the host leaves the job's releases in set order
    /// until one of them completes.
    fn handle_ack(&mut self, ctx: &mut Ctx<'_>, ack: SisterAck) {
        let Some(rec) = self.jobs.get_mut(&ack.job) else { return };
        let done =
            rec.exchanges.iter_mut().filter(|((op, _), _)| *op == ack.op).find_map(|(key, ex)| {
                (ex.pending.remove(&ack.host) && ex.pending.is_empty()).then_some(*key)
            });
        let Some(ex) = done.and_then(|key| rec.exchanges.remove(&key)) else { return };
        self.complete(ctx, ack.job, ex.then);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, job: JobId, then: Completion) {
        match then {
            Completion::Prologue => self.prologue(ctx, job),
            Completion::DynReady { token, accs } => {
                if let Some(rec) = self.jobs.get_mut(&job) {
                    rec.dyn_hosts.extend(accs);
                    rec.completed_dynjoins.insert(token);
                }
                self.send_to(ctx, server_addr(self.head), DynReady { job, token });
            }
            Completion::FreeDone(set) => {
                let Some(rec) = self.jobs.get_mut(&job) else { return };
                rec.dyn_hosts.retain(|h| !set.accs.contains(h));
                let remaining: Vec<HostId> = Self::sisters(&rec.launch)
                    .into_iter()
                    .chain(rec.dyn_hosts.iter().copied())
                    .collect();
                let removed = set.accs.clone();
                if self.net.retry_policy().is_some() {
                    rec.completed_frees.insert(set.client_id, set.clone());
                }
                self.send_to(ctx, server_addr(self.head), FreeDone { job, set });
                for h in remaining {
                    let upd = UpdateJobRes { job, added: vec![], removed: removed.clone() };
                    self.send_to(ctx, mom_addr(h), upd);
                }
            }
        }
    }

    // -- job completion -----------------------------------------------------

    fn handle_task_done(&mut self, ctx: &mut Ctx<'_>, msg: TaskDone, src: Option<Endpoint>) {
        if self.net.retry_policy().is_some() {
            if let Some(src) = src {
                // Quench the task's retry loop (even for duplicates of a
                // job already finished and forgotten).
                let ack = TaskDoneAck { job: msg.job, node_index: msg.node_index };
                ctx.send(src, ack, SimDuration::from_micros(5));
            }
        }
        let Some(rec) = self.jobs.get_mut(&msg.job) else { return };
        if !rec.is_ms {
            return;
        }
        rec.tasks_done.insert(msg.node_index);
        if rec.tasks_done.len() == rec.launch.compute.len() {
            if let Some(token) = rec.walltime_timer.take() {
                ctx.cancel_timer(token);
                self.deferred.remove(&token);
            }
            let rec = self.jobs.get_mut(&msg.job).expect("present");
            ctx.trace(format_args!("{}: all tasks done", msg.job));
            let sisters: Vec<HostId> = Self::sisters(&rec.launch)
                .into_iter()
                .chain(rec.dyn_hosts.iter().copied())
                .collect();
            let incarnation = rec.launch.incarnation;
            for h in sisters {
                self.send_to(ctx, mom_addr(h), CleanupJob { job: msg.job, incarnation });
            }
            let exit = JobExit { job: msg.job, from: self.host, incarnation, timed_out: false };
            self.send_exit(ctx, exit);
            self.jobs.remove(&msg.job);
        }
    }

    /// Send a `JobExit`, registering it for resend-until-ack when a retry
    /// policy is active, and remember the finished incarnation so late
    /// duplicate launches are ignored.
    fn send_exit(&mut self, ctx: &mut Ctx<'_>, exit: JobExit) {
        let done = self.done_jobs.entry(exit.job).or_insert(0);
        *done = (*done).max(exit.incarnation);
        if self.net.retry_policy().is_some() {
            self.exit_pending.insert(exit.job, (exit.clone(), EXIT_ATTEMPTS));
        }
        self.send_to(ctx, server_addr(self.head), exit);
    }

    /// Periodic re-drive of every exchange still awaiting its response;
    /// armed (timer token 0) only when a retry policy is set.
    fn retransmit_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pol) = self.net.retry_policy() else { return };
        // Every host the mother superior still awaits. Sorting by op
        // alone keeps the key order within each: joins and dynamic joins
        // in (job, host) order, releases in (job, set, host) order.
        let mut pending: Vec<(SisterOp, JobId, HostId)> = Vec::new();
        for (job, rec) in self.jobs.iter().filter(|(_, rec)| rec.is_ms) {
            for ((op, _), ex) in &rec.exchanges {
                pending.extend(ex.pending.iter().map(|h| (*op, *job, *h)));
            }
        }
        pending.sort_by_key(|(op, _, _)| *op);
        for (op, job, host) in pending {
            if !self.issue(ctx, op, job, host) && op == SisterOp::Disjoin {
                self.handle_ack(ctx, SisterAck { job, host, op });
            }
        }
        let mut exits: Vec<JobExit> = Vec::new();
        self.exit_pending.retain(|_, (exit, attempts)| {
            if *attempts == 0 {
                return false; // give up; server-side reclamation covers it
            }
            *attempts -= 1;
            exits.push(exit.clone());
            true
        });
        for exit in exits {
            self.send_to(ctx, server_addr(self.head), exit);
        }
        ctx.set_timer(pol.retransmit, TOKEN_RETRY);
    }

    fn handle_cleanup(&mut self, ctx: &mut Ctx<'_>, msg: CleanupJob) {
        // Record the cleaned incarnation even with no local record: a
        // late duplicate SendJob for it must not resurrect the job.
        let done = self.done_jobs.entry(msg.job).or_insert(0);
        *done = (*done).max(msg.incarnation);
        if self.jobs.get(&msg.job).is_some_and(|r| r.launch.incarnation > msg.incarnation) {
            return; // stale cleanup for a dead predecessor incarnation
        }
        if let Some(rec) = self.jobs.remove(&msg.job) {
            let done = self.done_jobs.entry(msg.job).or_insert(0);
            *done = (*done).max(rec.launch.incarnation);
            if let Some(token) = rec.walltime_timer {
                ctx.cancel_timer(token);
                self.deferred.remove(&token);
            }
            // "Kill" local tasks: cancellation is cooperative — each task
            // process receives a TaskKill and winds down at its next
            // cancellation point.
            for pid in &rec.task_pids {
                ctx.send(
                    darms_sim::Endpoint::Process(*pid),
                    TaskKill { job: msg.job },
                    SimDuration::from_micros(5),
                );
            }
            if rec.is_ms {
                // qdel path: tell the sisters too.
                for h in Self::sisters(&rec.launch).into_iter().chain(rec.dyn_hosts) {
                    let incarnation = rec.launch.incarnation;
                    self.send_to(ctx, mom_addr(h), CleanupJob { job: msg.job, incarnation });
                }
            }
        }
    }
}

impl Actor for PbsMom {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let src = env.src;
        let env = match env.downcast::<SendJob>() {
            Ok(m) => return self.handle_send_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<SisterReq>() {
            Ok(m) => return self.handle_sister_req(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<SisterAck>() {
            Ok(m) => return self.handle_ack(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynJoinCmd>() {
            Ok(m) => return self.handle_dynjoin_cmd(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DisjoinCmd>() {
            Ok(m) => return self.handle_disjoin_cmd(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<TaskDone>() {
            Ok(m) => return self.handle_task_done(ctx, m, src),
            Err(e) => e,
        };
        let env = match env.downcast::<JobExitAck>() {
            Ok(m) => {
                self.exit_pending.remove(&m.job);
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<UpdateJobRes>() {
            Ok(m) => {
                // Keep the sister database current.
                if let Some(rec) = self.jobs.get_mut(&m.job) {
                    for h in &m.added {
                        if !rec.dyn_hosts.contains(h) {
                            rec.dyn_hosts.push(*h);
                        }
                    }
                    rec.dyn_hosts.retain(|h| !m.removed.contains(h));
                }
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<CleanupJob>() {
            Ok(m) => return self.handle_cleanup(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<MomPing>() {
            Ok(m) => {
                let pong = MomPong { seq: m.seq, host: self.host };
                return self.send_to(ctx, m.reply, pong);
            }
            Err(e) => e,
        };
        ctx.trace(format_args!("{}: unhandled message {env:?}", self.name));
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(pol) = self.net.retry_policy() {
            ctx.set_timer(pol.retransmit, TOKEN_RETRY);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_RETRY {
            return self.retransmit_tick(ctx);
        }
        match self.deferred.remove(&token) {
            Some(Deferred::Issue { op, job, host }) => {
                self.issue(ctx, op, job, host);
            }
            Some(Deferred::Finish(req)) => self.finish_sister_req(ctx, req),
            Some(Deferred::StartTasks { job }) => self.start_tasks(ctx, job),
            Some(Deferred::WalltimeExpired { job }) => self.walltime_expired(ctx, job),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use darms_net::{FaultPlan, HostKind, LatencyModel, LinkFaults, RetryPolicy};
    use darms_sim::{Engine, SimConfig, SimTime};
    use parking_lot::Mutex;

    use super::*;
    use crate::job::script;

    const JOB: JobId = JobId(1);

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// What the moms did, as seen from outside.
    #[derive(Clone, Default)]
    struct Seen {
        /// Static daemon sets started: one per prologue here (one
        /// compute node with static accelerators).
        prologues: Arc<AtomicUsize>,
        /// Job script bodies run: one per task process spawned.
        scripts: Arc<AtomicUsize>,
        updates: Arc<Mutex<Vec<Update>>>,
        /// Replay-cache entries each mom holds after its last message.
        cached: Arc<Mutex<BTreeMap<HostId, usize>>>,
    }

    /// An `UpdateJobRes` delivery: (receiving host, added, removed).
    type Update = (HostId, Vec<HostId>, Vec<HostId>);

    struct CountingStarter(Arc<AtomicUsize>);

    impl AcDaemonStarter for CountingStarter {
        fn start_static(&self, _: &mut Ctx<'_>, _: &StaticDaemonRequest) -> Vec<ProcessId> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
    }

    /// A mom that records the `UpdateJobRes` it is delivered.
    struct Tap {
        mom: PbsMom,
        seen: Seen,
    }

    impl Actor for Tap {
        fn name(&self) -> &str {
            self.mom.name()
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            if let Some(u) = env.peek::<UpdateJobRes>() {
                self.seen.updates.lock().push((self.mom.host, u.added.clone(), u.removed.clone()));
            }
            self.mom.on_message(ctx, env);
            let cached = self
                .mom
                .jobs
                .values()
                .map(|j| j.completed_dynjoins.len() + j.completed_frees.len())
                .sum();
            self.seen.cached.lock().insert(self.mom.host, cached);
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.mom.on_start(ctx);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.mom.on_timer(ctx, token);
        }
    }

    /// Moms on a mother superior and `n` accelerator hosts; the test's
    /// driver process stands in for `pbs_server` on the head node.
    struct Driver {
        net: Network,
        head: HostId,
        ms: HostId,
        accs: Vec<HostId>,
        seen: Seen,
    }

    impl Driver {
        /// Send a server command to the mother superior.
        fn send<T: std::any::Any + Send + Clone>(&self, p: &Proc, msg: T) {
            self.net.send_from_proc(p, self.head, mom_addr(self.ms), msg, 0);
        }

        /// Launch job 1 on the mother superior with `accs` as its static
        /// accelerators; its one task runs for 30 s.
        fn send_job(&self, p: &Proc, accs: Vec<HostId>) {
            let scripts = self.seen.scripts.clone();
            let body = script(move |jc| {
                scripts.fetch_add(1, Ordering::Relaxed);
                async move { jc.proc.sleep(secs(30)).await }
            });
            let spec = JobSpec::synthetic("x", secs(30)).script(body);
            let launch = JobLaunch {
                job: JOB,
                incarnation: 1,
                spec,
                compute: vec![self.ms],
                accs: vec![accs],
            };
            self.send(p, SendJob { launch });
        }

        /// The server-bound messages delivered so far, one line each.
        fn server_log(&self, p: &Proc) -> Vec<String> {
            let mut log = Vec::new();
            while let Some(env) = p.try_recv() {
                if let Some(m) = env.peek::<JobStarted>() {
                    log.push(format!("JobStarted {}", m.incarnation));
                } else if let Some(m) = env.peek::<DynReady>() {
                    log.push(format!("DynReady {}", m.token));
                } else if let Some(m) = env.peek::<FreeDone>() {
                    log.push(format!("FreeDone {}", m.set.client_id));
                }
            }
            log
        }
    }

    fn rig(n_accs: usize) -> (Engine, Driver) {
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let ms = net.add_host("cn", HostKind::Compute);
        let accs: Vec<HostId> =
            (0..n_accs).map(|i| net.add_host(format!("acc{i}"), HostKind::Accelerator)).collect();
        let seen = Seen::default();
        let mut engine = Engine::new(SimConfig { trace: true, ..SimConfig::default() });
        for &h in std::iter::once(&ms).chain(&accs) {
            let starter: Arc<dyn AcDaemonStarter> =
                Arc::new(CountingStarter(seen.prologues.clone()));
            let cost = RmsCostModel::paper_testbed();
            let mom = PbsMom::new(net.clone(), PseudoFs::new(), h, head, cost, Some(starter));
            let id = engine.add_actor(Box::new(Tap { mom, seen: seen.clone() }));
            net.bind(mom_addr(h), Endpoint::Actor(id));
        }
        (engine, Driver { net, head, ms, accs, seen })
    }

    #[test]
    fn a_join_ack_after_the_join_does_not_rerun_the_prologue() {
        let (mut engine, d) = rig(1);
        let seen = d.seen.clone();
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        engine.spawn_process("server", move |p: Proc| async move {
            d.net.bind(server_addr(d.head), p.endpoint());
            d.send_job(&p, vec![d.accs[0]]);
            p.sleep(secs(1)).await;
            // The sister's ack once more, after it completed the join.
            d.send(&p, SisterAck { job: JOB, host: d.accs[0], op: SisterOp::Join });
            p.sleep(secs(1)).await;
            *out.lock() = d.server_log(&p);
        });
        engine.run_until(SimTime::ZERO + secs(5));
        assert_eq!(engine.stats().process_panics, 0);
        assert_eq!(*log.lock(), vec!["JobStarted 1"]);
        assert_eq!(seen.prologues.load(Ordering::Relaxed), 1);
        assert_eq!(seen.scripts.load(Ordering::Relaxed), 1);
    }

    /// JOIN_JOB, DYNJOIN_JOB and DISJOIN_JOB on a hardened cluster where
    /// every message between the mother superior and a sister arrives
    /// twice, in either order. Each exchange completes exactly once.
    #[test]
    fn every_sister_exchange_completes_once_under_duplication() {
        let (mut engine, d) = rig(4);
        let seen = d.seen.clone();
        let (s1, s2, d1, d2) = (d.accs[0], d.accs[1], d.accs[2], d.accs[3]);
        let dup = LinkFaults {
            duplicate: 1.0,
            jitter: SimDuration::from_millis(40),
            ..Default::default()
        };
        // s2 is unreachable for the first 2.5 s: its JOIN_JOB is only
        // delivered by the retransmit tick.
        let mut plan = FaultPlan::new(7).with_outage(
            s2,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(2500),
        );
        for &h in &d.accs {
            plan = plan.with_link(d.ms, h, dup).with_link(h, d.ms, dup);
        }
        d.net.install_fault_plan(plan);
        d.net.set_retry_policy(Some(RetryPolicy::standard()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        engine.spawn_process("server", move |p: Proc| async move {
            d.net.bind(server_addr(d.head), p.endpoint());
            d.send_job(&p, vec![s1, s2]);
            p.sleep(secs(5)).await;
            d.send(&p, DynJoinCmd { job: JOB, token: 1, accs: vec![d1] });
            p.sleep(secs(2)).await;
            let release = |client: u64, h: HostId| DisjoinCmd {
                job: JOB,
                client_id: ClientId(client),
                accs: vec![h],
                slices: Vec::new(),
                ppn: 0,
            };
            d.send(&p, release(1, d1));
            p.sleep(secs(2)).await;
            d.send(&p, DynJoinCmd { job: JOB, token: 2, accs: vec![d2] });
            p.sleep(secs(2)).await;
            // d2 dies before its release: the DISJOIN_JOB short-circuits.
            d.net.set_host_down(d2, true);
            d.send(&p, release(2, d2));
            p.sleep(secs(2)).await;
            *out.lock() = d.server_log(&p);
        });
        engine.run_until(SimTime::ZERO + secs(20));
        assert_eq!(engine.stats().process_panics, 0);
        assert_eq!(seen.prologues.load(Ordering::Relaxed), 1);
        assert_eq!(seen.scripts.load(Ordering::Relaxed), 1);
        assert_eq!(
            *log.lock(),
            vec![
                "JobStarted 1",
                "DynReady 1",
                "FreeDone client1",
                "DynReady 2",
                "FreeDone client2"
            ]
        );
        // Every update reaches both static sisters, twice (duplicated).
        let mut updates = seen.updates.lock().clone();
        updates.sort();
        let mut want = Vec::new();
        for (added, removed) in
            [(vec![d1], vec![]), (vec![], vec![d1]), (vec![d2], vec![]), (vec![], vec![d2])]
        {
            for h in [s1, s2] {
                want.extend(std::iter::repeat_n((h, added.clone(), removed.clone()), 2));
            }
        }
        want.sort();
        assert_eq!(updates, want);
        let short_circuits =
            engine.take_events().iter().filter(|ev| ev.name.contains("short-circuited")).count();
        assert_eq!(short_circuits, 1);
    }

    /// The mother superior's replay caches live and die with the job: a
    /// duplicate `DynJoinCmd` or `DisjoinCmd` is answered again while the
    /// job runs, and gets silence once the job has left the mom, with no
    /// cache entry left behind.
    #[test]
    fn replay_caches_are_dropped_with_the_job() {
        let (mut engine, d) = rig(1);
        d.net.set_retry_policy(Some(RetryPolicy::standard()));
        let cached = d.seen.cached.clone();
        let (ms, d1) = (d.ms, d.accs[0]);
        let log = Arc::new(Mutex::new(Vec::new()));
        let out = log.clone();
        engine.spawn_process("server", move |p: Proc| async move {
            d.net.bind(server_addr(d.head), p.endpoint());
            let join = DynJoinCmd { job: JOB, token: 1, accs: vec![d1] };
            let release = DisjoinCmd {
                job: JOB,
                client_id: ClientId(1),
                accs: vec![d1],
                slices: Vec::new(),
                ppn: 0,
            };
            d.send_job(&p, Vec::new());
            p.sleep(secs(2)).await;
            d.send(&p, join.clone());
            p.sleep(secs(2)).await;
            d.send(&p, release.clone());
            p.sleep(secs(2)).await;
            d.send(&p, join.clone());
            d.send(&p, release.clone());
            p.sleep(secs(1)).await;
            let mut seen = d.server_log(&p);
            seen.push(format!("cached {:?}", cached.lock().get(&ms)));
            // The job's one task ends at about 30 s.
            p.sleep(secs(40)).await;
            d.send(&p, join);
            d.send(&p, release);
            p.sleep(secs(2)).await;
            seen.extend(d.server_log(&p));
            seen.push(format!("cached {:?}", cached.lock().get(&ms)));
            *out.lock() = seen;
        });
        engine.run_until(SimTime::ZERO + secs(60));
        assert_eq!(engine.stats().process_panics, 0);
        assert_eq!(
            *log.lock(),
            vec![
                "JobStarted 1",
                "DynReady 1",
                "FreeDone client1",
                "DynReady 1",
                "FreeDone client1",
                "cached Some(2)",
                "cached Some(0)",
            ]
        );
    }
}
