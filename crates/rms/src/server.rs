//! The `pbs_server` actor: job intake, node accounting, scheduler
//! liaison, and the paper's serial dynamic-request servicing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use darms_net::{Address, Admit, HostId, Network, ReplyCache};
use darms_sim::{Actor, Ctx, Envelope, SimTime};
use parking_lot::Mutex;

use crate::cost::RmsCostModel;
use crate::fs::PseudoFs;
use crate::job::{ClientId, DynSet, JobId, JobSpec, JobState, JobStatus};
use crate::nodes::{NodeDb, NodeRole};
use crate::proto::*;
use crate::{mom_addr, sched_addr};

/// Internal job record.
struct JobRecord {
    id: JobId,
    spec: JobSpec,
    /// `spec.owner` as the server's one handle for that name: every
    /// scheduler snapshot clones it instead of allocating a `String`.
    owner: Arc<str>,
    state: JobState,
    submitted: SimTime,
    started: Option<SimTime>,
    completed: Option<SimTime>,
    compute: Vec<HostId>,
    accs: Vec<Vec<HostId>>,
    dyn_sets: Vec<DynSet>,
    /// Bumped on every (re)start; moms echo it so a stale mother
    /// superior of a requeued job cannot complete the new incarnation.
    incarnation: u32,
    /// How often the job has been requeued after losing a node; one
    /// requeue is free, a second failure cancels the job.
    requeues: u32,
    /// The job's key in [`QueuedIndex`] while it is queued or held.
    ticket: u64,
}

impl JobRecord {
    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            name: self.spec.name.clone(),
            owner: self.spec.owner.clone(),
            state: self.state,
            submitted: self.submitted,
            started: self.started,
            completed: self.completed,
            compute_hosts: self.compute.clone(),
            static_accs: self.accs.clone(),
            dyn_sets: self.dyn_sets.clone(),
        }
    }

    /// What the mother superior of the current incarnation is sent.
    fn launch(&self) -> Arc<JobLaunch> {
        let (job, incarnation, spec) = (self.id, self.incarnation, self.spec.clone());
        let (compute, accs) = (self.compute.clone(), self.accs.clone());
        Arc::new(JobLaunch { job, incarnation, spec, compute, accs })
    }
}

/// Jobs currently `Running` or `DynQueued`, and the ones whose scheduler
/// entry ([`RunningJobSnap`]) changed since the last cluster query was
/// served. `jobs` accumulates every job ever submitted (qstat reports
/// history), so the hot paths that only care about live jobs — scheduler
/// snapshots, host reclamation, the retransmit tick — iterate `live`
/// instead of scanning the full map. Every write that changes a running
/// job's entry goes through [`ActiveJobs::insert`], [`ActiveJobs::remove`]
/// or [`ActiveJobs::touch`], so a delta response can ship only `changed`.
#[derive(Default)]
struct ActiveJobs {
    live: BTreeSet<JobId>,
    changed: BTreeSet<JobId>,
}

impl ActiveJobs {
    /// `job` starts running (first start, or restart after a requeue).
    fn insert(&mut self, job: JobId) {
        self.live.insert(job);
        self.changed.insert(job);
    }

    /// `job` stops running: it ended, was cancelled or was requeued.
    fn remove(&mut self, job: JobId) {
        if self.live.remove(&job) {
            self.changed.insert(job);
        }
    }

    /// The entry of a running `job` changed: its start time was reported
    /// or it gained or lost a dynamic set.
    fn touch(&mut self, job: JobId) {
        if self.live.contains(&job) {
            self.changed.insert(job);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &JobId> {
        self.live.iter()
    }

    /// Drain `changed`, split into jobs still running and jobs gone.
    fn take_changed(&mut self) -> (Vec<JobId>, Vec<JobId>) {
        std::mem::take(&mut self.changed).into_iter().partition(|id| self.live.contains(id))
    }
}

/// The scheduler's view of one running job.
fn running_snap(j: &JobRecord) -> RunningJobSnap {
    RunningJobSnap {
        job: j.id,
        owner: j.owner.clone(),
        started: j.started.unwrap_or(j.submitted),
        walltime_estimate: j.spec.walltime_estimate,
        compute_hosts: j.compute.clone(),
        ppn: j.spec.ppn,
        acc_hosts: j
            .accs
            .iter()
            .flatten()
            .chain(j.dyn_sets.iter().flat_map(|s| s.accs.iter()))
            .copied()
            .collect(),
    }
}

/// The `DisjoinCmd` that releases `set` of `job`.
fn disjoin_cmd(job: JobId, set: &DynSet) -> DisjoinCmd {
    let (accs, slices) = (set.accs.clone(), set.slices.clone());
    DisjoinCmd { job, client_id: set.client_id, accs, slices, ppn: set.ppn }
}

/// A dynamic request waiting at (or being serviced by) the server.
struct PendingDyn {
    /// Server-side token (echoed by the scheduler and the mother superior).
    token: u64,
    job: JobId,
    cn: HostId,
    count: u32,
    min_count: u32,
    kind: DynResource,
    /// Client correlation token + endpoint for the final response.
    client_token: u64,
    reply: Address,
    /// Arrival of the `pbs_dynget` request at the server; the end-to-end
    /// `rms.dyn_wait` metric (the paper's Fig. 8 quantity as the client
    /// experiences it) spans from here to the final response.
    arrived: SimTime,
}

/// Where the request in service stands (DESIGN.md, "Dynamic-request
/// lifecycle"): `Serviced -> Exposed -> Granted`, ending in
/// [`PbsServer::complete_dyn`].
enum DynPhase {
    /// Taken from the FIFO; the expose timer is running.
    Serviced,
    /// Shown to the scheduler as `dyn_pending` since `at`.
    Exposed { at: SimTime },
    /// Allocated in the node database; the grant timer sends
    /// `DynJoinCmd` and the mother superior answers `DynReady`. Still
    /// shown as pending since `at`.
    Granted { at: SimTime, grant: DynGrant },
}

/// Everything that acts on a dynamic request: the expose timer, the
/// scheduler's `RunDynCmd`/`RejectDynCmd`, the grant timer, the mother
/// superior's `DynReady`, and a purge when the job exits, is deleted or
/// loses a node.
#[derive(Clone, Copy, Debug)]
enum DynInput {
    Expose,
    Run,
    Reject,
    GrantTimer,
    Ready,
    Purge,
}

impl DynPhase {
    /// Whether a request in this phase accepts `input`; refused inputs
    /// are dropped as stale.
    fn accepts(&self, input: DynInput) -> bool {
        use DynInput::*;
        match self {
            DynPhase::Serviced => matches!(input, Expose | Purge),
            DynPhase::Exposed { .. } => matches!(input, Run | Reject | Purge),
            // Known wrong (DESIGN.md §11): `Run` re-grants, leaking the first set until
            // the job exits, and `Reject` releases nothing.
            DynPhase::Granted { .. } => {
                matches!(input, Run | Reject | GrantTimer | Ready | Purge)
            }
        }
    }

    /// When the request was shown to the scheduler, if it has been.
    fn exposed_at(&self) -> Option<SimTime> {
        match self {
            DynPhase::Serviced => None,
            DynPhase::Exposed { at } | DynPhase::Granted { at, .. } => Some(*at),
        }
    }

    /// The hosts the request holds in the node database.
    fn held(self) -> Vec<HostId> {
        match self {
            DynPhase::Granted { grant, .. } => grant.accs,
            _ => Vec::new(),
        }
    }
}

/// How a dynamic request ends: see [`PbsServer::complete_dyn`].
type DynOutcome = Result<DynGrant, Vec<HostId>>;

/// The request in service and its phase.
struct ActiveDyn {
    req: PendingDyn,
    phase: DynPhase,
}

impl ActiveDyn {
    /// The `DynJoinCmd` of a granted request and the mother superior it
    /// goes to; `None` before the grant or once the job holds no nodes.
    fn join_cmd(&self, jobs: &BTreeMap<JobId, Box<JobRecord>>) -> Option<(HostId, DynJoinCmd)> {
        let DynPhase::Granted { grant, .. } = &self.phase else { return None };
        let ms = jobs.get(&self.req.job)?.compute.first().copied()?;
        let cmd = DynJoinCmd { job: self.req.job, token: self.req.token, accs: grant.accs.clone() };
        Some((ms, cmd))
    }
}

/// The server's serial dynamic-request service (Fig. 9): waiting
/// requests in arrival order and at most one in service.
#[derive(Default)]
struct DynService {
    fifo: VecDeque<PendingDyn>,
    active: Option<ActiveDyn>,
}

impl DynService {
    /// The one lookup every input goes through: the request in service,
    /// if it carries `token` and its phase accepts `input`.
    fn lookup(&mut self, input: DynInput, token: u64) -> Option<&mut ActiveDyn> {
        self.active.as_mut().filter(|a| a.req.token == token && a.phase.accepts(input))
    }

    /// [`DynService::lookup`], taking the request out of service.
    fn take(&mut self, input: DynInput, token: u64) -> Option<ActiveDyn> {
        self.lookup(input, token)?;
        self.active.take()
    }
}

/// Replies to completed mutating IFL exchanges, cached per correlation
/// token so retransmitted requests are answered without re-executing.
#[derive(Clone)]
enum CachedResp {
    Qsub(QsubResp),
    Qdel(QdelResp),
    Qhold(QholdResp),
    DynGet(DynGetResp),
    DynFree(DynFreeResp),
}

/// Reserved timer token for the retransmit tick (deferred actions use
/// tokens from 1 upward).
const TOKEN_RETRY: u64 = 0;

/// Queued and held jobs in queue order: submission order, a requeued
/// job at the back. Each enqueue takes a fresh ticket, which the job's
/// record keeps so that start and `qdel` remove exactly its entry, and
/// hold and release leave the entry where it is. The index holds no
/// started or cancelled job, so a walk visits only queued and held ones.
#[derive(Default)]
struct QueuedIndex {
    by_ticket: BTreeMap<u64, JobId>,
    next_ticket: u64,
}

impl QueuedIndex {
    /// Append `job`; returns its ticket.
    fn push(&mut self, job: JobId) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.by_ticket.insert(ticket, job);
        ticket
    }

    /// Drop the entry under `ticket` (the job started or was cancelled).
    fn remove(&mut self, ticket: u64) {
        self.by_ticket.remove(&ticket);
    }

    /// Queued and held jobs, in queue order.
    fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.by_ticket.values().copied()
    }
}

/// Deferred actions driven by processing-cost timers.
enum Deferred {
    QsubDone { req: QsubReq },
    RunJobDo { cmd: RunJobCmd },
    DynExpose { token: u64 },
    DynGrantDo { token: u64 },
    DynFreeDo { req: DynFreeReq },
}

/// The `pbs_server` daemon.
pub struct PbsServer {
    net: Network,
    fs: PseudoFs,
    host: HostId,
    cost: RmsCostModel,
    /// Every job ever submitted, records boxed: fed ascending ids, a
    /// `BTreeMap` leaves its leaves about half full, and 11 inline
    /// 240-B records made each leaf 2.7 KB (DESIGN.md §14, "Memory per
    /// host").
    jobs: BTreeMap<JobId, Box<JobRecord>>,
    /// Each owner name once, so every job of an owner shares one handle.
    owners: BTreeSet<Arc<str>>,
    active: ActiveJobs,
    queued: QueuedIndex,
    db: Arc<Mutex<NodeDb>>,
    next_job: u64,
    next_client: u64,
    next_dyn_token: u64,
    dyns: DynService,
    deferred: BTreeMap<u64, Deferred>,
    next_timer: u64,
    /// Idempotency cache of mutating IFL requests, keyed by correlation
    /// token (4096 tokens, evicted FIFO), so duplicate requests caused by
    /// client retransmits never re-execute.
    reply_cache: ReplyCache<(Address, CachedResp)>,
    /// Released dynamic sets whose `FreeDone` has not arrived yet; the
    /// retransmit tick re-drives the `DisjoinCmd`.
    pending_frees: BTreeMap<ClientId, (JobId, DynSet)>,
    /// Token of the last `ClusterQueryResp` served. A query whose
    /// `cached_token` matches proves the client applied that exact
    /// response, so the node and running lists can be answered as deltas
    /// of the database's dirty set and `active.changed`; any mismatch
    /// (lost response, fresh client) falls back to a full snapshot.
    snap_last_token: Option<u64>,
}

impl PbsServer {
    /// Create a server on `host` managing the given nodes.
    pub fn new(net: Network, fs: PseudoFs, host: HostId, cost: RmsCostModel, db: NodeDb) -> Self {
        PbsServer {
            net,
            fs,
            host,
            cost,
            jobs: BTreeMap::new(),
            owners: BTreeSet::new(),
            active: ActiveJobs::default(),
            queued: QueuedIndex::default(),
            db: Arc::new(Mutex::new(db)),
            next_job: 1,
            next_client: 1,
            next_dyn_token: 1,
            dyns: DynService::default(),
            deferred: BTreeMap::new(),
            next_timer: 1,
            reply_cache: ReplyCache::new(4096),
            pending_frees: BTreeMap::new(),
            snap_last_token: None,
        }
    }

    /// Shared handle to the node database (e.g. for invariant auditors:
    /// the chaos harness checks pool conservation through it). The engine
    /// is single-threaded, so lock contention cannot occur; never hold
    /// the guard across an await point.
    pub fn db_handle(&self) -> Arc<Mutex<NodeDb>> {
        self.db.clone()
    }

    /// True if a duplicate of an already-accepted request was handled
    /// (cached reply re-sent, or silence while the original is still in
    /// flight). False admits the request and marks its token in flight.
    fn duplicate(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        match self.reply_cache.admit(token) {
            Admit::Fresh => false,
            Admit::InFlight => true,
            Admit::Done((to, resp)) => {
                self.send_resp(ctx, to, resp);
                true
            }
        }
    }

    /// Reply to the request under `token` and cache the reply, so a
    /// duplicate is re-answered without re-executing.
    fn answer(&mut self, ctx: &mut Ctx<'_>, token: u64, to: Address, resp: CachedResp) {
        self.reply_cache.store(token, (to, resp.clone()));
        self.send_resp(ctx, to, resp);
    }

    fn send_resp(&mut self, ctx: &mut Ctx<'_>, to: Address, resp: CachedResp) {
        match resp {
            CachedResp::Qsub(r) => self.reply(ctx, to, r),
            CachedResp::Qdel(r) => self.reply(ctx, to, r),
            CachedResp::Qhold(r) => self.reply(ctx, to, r),
            CachedResp::DynGet(r) => self.reply(ctx, to, r),
            CachedResp::DynFree(r) => self.reply(ctx, to, r),
        }
    }

    fn defer(&mut self, ctx: &mut Ctx<'_>, after: darms_sim::SimDuration, d: Deferred) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.deferred.insert(token, d);
        ctx.set_timer(after, token);
    }

    fn wake_scheduler(&mut self, ctx: &mut Ctx<'_>) {
        let to = sched_addr(self.host);
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, SchedWake, bytes);
    }

    fn send_mom<T: std::any::Any + Send + Clone>(
        &mut self,
        ctx: &mut Ctx<'_>,
        host: HostId,
        msg: T,
    ) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, mom_addr(host), msg, bytes);
    }

    fn reply<T: std::any::Any + Send + Clone>(&mut self, ctx: &mut Ctx<'_>, to: Address, msg: T) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, msg, bytes);
    }

    /// Sample accelerator-pool utilization (busy fraction) into the
    /// `rms.acc_pool_util` time-weighted gauge. Called after every node
    /// (de)allocation that can touch the pool.
    fn record_pool_util(&self, ctx: &mut Ctx<'_>) {
        // O(1): the node database keeps running usage counters.
        let (free, total) = self.db.lock().accelerator_usage();
        if total > 0 {
            let busy = total - free;
            let now = ctx.now();
            ctx.metrics().twg_set("rms.acc_pool_util", now, busy as f64 / total as f64);
        }
    }

    // -- qsub ----------------------------------------------------------

    fn handle_qsub(&mut self, ctx: &mut Ctx<'_>, req: QsubReq) {
        if self.duplicate(ctx, req.token) {
            return;
        }
        self.defer(ctx, self.cost.qsub_handling, Deferred::QsubDone { req });
    }

    fn finish_qsub(&mut self, ctx: &mut Ctx<'_>, req: QsubReq) {
        let QsubReq { token, spec, reply } = req;
        let id = JobId(self.next_job);
        self.next_job += 1;
        let owner = match self.owners.get(spec.owner.as_str()) {
            Some(owner) => owner.clone(),
            None => {
                let owner: Arc<str> = spec.owner.as_str().into();
                self.owners.insert(owner.clone());
                owner
            }
        };
        let rec = JobRecord {
            id,
            owner,
            spec,
            state: JobState::Queued,
            submitted: ctx.now(),
            started: None,
            completed: None,
            compute: Vec::new(),
            accs: Vec::new(),
            dyn_sets: Vec::new(),
            incarnation: 0,
            requeues: 0,
            ticket: self.queued.push(id),
        };
        ctx.trace(format_args!("{id} queued ({})", rec.spec.name));
        self.jobs.insert(id, Box::new(rec));
        self.answer(ctx, token, reply, CachedResp::Qsub(QsubResp { token, job: id }));
        self.wake_scheduler(ctx);
    }

    // -- scheduler liaison ----------------------------------------------

    /// Build the response to one cluster query. When the client proves
    /// (via `cached_token`) that it applied the previous response, the
    /// node and running lists are deltas: only nodes the database dirtied
    /// and running jobs `active` marked changed since that response, plus
    /// any nodes the client asked to have restated. The queued and
    /// dyn-pending lists are always full.
    fn snapshot_for(&mut self, req: &ClusterQueryReq) -> ClusterQueryResp {
        let snap_of = |n: &crate::nodes::NodeRecord| NodeSnap {
            host: n.host,
            role: n.role,
            class: n.class,
            cores_total: n.cores_total,
            cores_free: n.cores_free,
            offline: n.offline,
        };
        // A copy of the request just served (the network may duplicate
        // it) gets a full response that drains nothing: the client may
        // apply either copy, so the changes since the first one must
        // still reach its next delta.
        let copy = self.snap_last_token == Some(req.token);
        let delta = !copy && req.cached_token.is_some() && req.cached_token == self.snap_last_token;
        self.snap_last_token = Some(req.token);
        let nodes = {
            let mut db = self.db.lock();
            // Unless this is a copy, drain in either mode: after this
            // response the client is current, so only later changes matter.
            // A delta restates the refreshed hosts too; either way it
            // lists nodes in ascending registration index.
            if delta {
                for h in &req.refresh {
                    db.mark_dirty(*h);
                }
            }
            let changed = if copy { Vec::new() } else { db.take_dirty() };
            if delta {
                let all = db.nodes();
                changed.iter().map(|&i| snap_of(&all[i])).collect()
            } else {
                db.nodes().iter().map(snap_of).collect()
            }
        };
        let queued = self
            .queued
            .iter()
            .filter_map(|id| self.jobs.get(&id))
            .filter(|j| j.state == JobState::Queued)
            .map(|j| QueuedJobSnap {
                job: j.id,
                owner: j.owner.clone(),
                submitted: j.submitted,
                nodes: j.spec.nodes,
                ppn: j.spec.ppn,
                acpn: j.spec.acpn,
                walltime_estimate: j.spec.walltime_estimate,
            })
            .collect();
        let changed = if copy { Default::default() } else { self.active.take_changed() };
        let (ids, running_gone) =
            if delta { changed } else { (self.active.iter().copied().collect(), Vec::new()) };
        let running =
            ids.iter().filter_map(|id| self.jobs.get(id)).map(|j| running_snap(j)).collect();
        let dyn_pending = self.dyns.active.as_ref().and_then(|a| {
            a.phase.exposed_at().map(|queued_at| DynPendingSnap {
                token: a.req.token,
                job: a.req.job,
                cn: a.req.cn,
                count: a.req.count,
                min_count: a.req.min_count,
                kind: a.req.kind,
                queued_at,
            })
        });
        let snapshot = ClusterSnapshot { nodes, queued, running, dyn_pending };
        ClusterQueryResp { token: req.token, snapshot, delta, running_gone }
    }

    fn handle_run_job(&mut self, ctx: &mut Ctx<'_>, cmd: RunJobCmd) {
        // Validate against the live state; the scheduler may have raced a
        // qdel. Infeasible commands are dropped and the scheduler re-woken.
        let feasible = match self.jobs.get(&cmd.job) {
            Some(j) if j.state == JobState::Queued => {
                let db = self.db.lock();
                cmd.compute.iter().all(|h| {
                    db.get(*h).is_some_and(|n| {
                        n.role == NodeRole::Compute && !n.offline && n.cores_free >= j.spec.ppn
                    })
                }) && cmd.accs.iter().flatten().all(|h| {
                    db.get(*h).is_some_and(|n| {
                        n.role == NodeRole::Accelerator && !n.offline && n.is_free()
                    })
                })
            }
            _ => false,
        };
        if !feasible {
            ctx.trace(format_args!("dropping infeasible RunJob for {}", cmd.job));
            self.wake_scheduler(ctx);
            return;
        }
        self.defer(ctx, self.cost.run_job_handling, Deferred::RunJobDo { cmd });
    }

    fn finish_run_job(&mut self, ctx: &mut Ctx<'_>, cmd: RunJobCmd) {
        let Some(job) = self.jobs.get_mut(&cmd.job) else { return };
        if job.state != JobState::Queued {
            return;
        }
        let ppn = job.spec.ppn;
        job.state = JobState::Running;
        job.compute = cmd.compute.clone();
        job.accs = cmd.accs.clone();
        job.incarnation += 1;
        let (id, launch) = (job.id, job.launch());
        self.queued.remove(job.ticket);
        {
            let mut db = self.db.lock();
            for h in &cmd.compute {
                db.allocate_compute(*h, id, ppn);
            }
            for h in cmd.accs.iter().flatten() {
                db.allocate_accelerator(*h, id);
            }
        }
        self.record_pool_util(ctx);
        self.active.insert(id);
        let ms = cmd.compute[0];
        ctx.trace(format_args!("{id} -> mother superior on host{}", ms.index()));
        self.send_mom(ctx, ms, SendJob { launch });
    }

    // -- dynamic requests (the paper's extension) ------------------------

    fn handle_dynget(&mut self, ctx: &mut Ctx<'_>, req: DynGetReq) {
        if self.duplicate(ctx, req.token) {
            return;
        }
        let valid = self
            .jobs
            .get(&req.job)
            .is_some_and(|j| matches!(j.state, JobState::Running | JobState::DynQueued));
        if !valid || req.count == 0 {
            let resp = DynGetResp { token: req.token, result: Err(DynReject::BadJob) };
            self.answer(ctx, req.token, req.reply, CachedResp::DynGet(resp));
            return;
        }
        let token = self.next_dyn_token;
        self.next_dyn_token += 1;
        self.dyns.fifo.push_back(PendingDyn {
            token,
            job: req.job,
            cn: req.cn,
            count: req.count,
            min_count: req.min_count.clamp(1, req.count),
            kind: req.kind,
            client_token: req.token,
            reply: req.reply,
            arrived: ctx.now(),
        });
        self.maybe_start_dyn(ctx);
    }

    /// Begin servicing the next dynamic request if none is active.
    fn maybe_start_dyn(&mut self, ctx: &mut Ctx<'_>) {
        if self.dyns.active.is_some() {
            return;
        }
        let Some(req) = self.dyns.fifo.pop_front() else { return };
        ctx.trace(format_args!("servicing dynamic request of {} (count {})", req.job, req.count));
        let token = req.token;
        self.dyns.active = Some(ActiveDyn { req, phase: DynPhase::Serviced });
        self.defer(ctx, self.cost.dyn_request_handling, Deferred::DynExpose { token });
    }

    fn expose_dyn(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now();
        let Some(a) = self.dyns.lookup(DynInput::Expose, token) else { return };
        a.phase = DynPhase::Exposed { at: now };
        // Known wrong (DESIGN.md §11): this also overwrites a job that exited while
        // the request was being serviced.
        if let Some(job) = self.jobs.get_mut(&a.req.job) {
            job.state = JobState::DynQueued;
        }
        self.wake_scheduler(ctx);
    }

    fn handle_run_dyn(&mut self, ctx: &mut Ctx<'_>, cmd: RunDynCmd) {
        // A stale command finds no request to take.
        let Some(mut a) = self.dyns.take(DynInput::Run, cmd.token) else { return };
        // Validate the grant against the live node state.
        let (job, kind) = (a.req.job, a.req.kind);
        let ok = {
            let db = self.db.lock();
            cmd.accs.iter().all(|h| match kind {
                DynResource::Accelerators { class } => db.get(*h).is_some_and(|n| {
                    n.role == NodeRole::Accelerator && n.class == class && !n.offline && n.is_free()
                }),
                DynResource::ComputeNodes { ppn } => db.get(*h).is_some_and(|n| {
                    n.role == NodeRole::Compute && !n.offline && n.cores_free >= ppn
                }),
                DynResource::AcceleratorSlices { class } => {
                    db.get(*h).is_some_and(|n| n.can_slice(class, job))
                }
            })
        };
        let n = cmd.accs.len();
        if !ok || n < a.req.min_count as usize || n > a.req.count as usize {
            ctx.trace(format_args!("dropping infeasible dyn grant for {job}"));
            return self.complete_dyn(ctx, a.req, Err(Vec::new()));
        }
        let client_id = ClientId(self.next_client);
        self.next_client += 1;
        let mut slices = Vec::new();
        {
            let mut db = self.db.lock();
            for h in &cmd.accs {
                match kind {
                    DynResource::Accelerators { class: _ } => db.allocate_accelerator(*h, job),
                    DynResource::ComputeNodes { ppn } => db.allocate_compute(*h, job, ppn),
                    DynResource::AcceleratorSlices { class: _ } => {
                        slices.push(db.allocate_accelerator_slice(*h, job));
                    }
                }
            }
        }
        // `Run` is accepted only once exposed, so `at` is the exposure.
        let at = a.phase.exposed_at().unwrap_or(ctx.now());
        a.phase = DynPhase::Granted { at, grant: DynGrant { client_id, accs: cmd.accs, slices } };
        self.dyns.active = Some(a);
        self.record_pool_util(ctx);
        self.defer(ctx, self.cost.dyn_grant_handling, Deferred::DynGrantDo { token: cmd.token });
    }

    fn finish_dyn_grant(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(a) = self.dyns.take(DynInput::GrantTimer, token) else { return };
        match a.join_cmd(&self.jobs) {
            Some((ms, cmd)) => {
                self.dyns.active = Some(a);
                self.send_mom(ctx, ms, cmd);
            }
            // Job lost its nodes (qdel race): abort the grant.
            None => self.complete_dyn(ctx, a.req, Err(a.phase.held())),
        }
    }

    fn handle_dyn_ready(&mut self, ctx: &mut Ctx<'_>, msg: DynReady) {
        // `Ready` is accepted only while granted. The token also names the
        // job: the mother superior echoes both from one `DynJoinCmd`.
        let Some(ActiveDyn { req, phase: DynPhase::Granted { grant, .. } }) =
            self.dyns.take(DynInput::Ready, msg.token)
        else {
            return;
        };
        self.complete_dyn(ctx, req, Ok(grant));
    }

    fn handle_reject_dyn(&mut self, ctx: &mut Ctx<'_>, cmd: RejectDynCmd) {
        if let Some(a) = self.dyns.take(DynInput::Reject, cmd.token) {
            self.complete_dyn(ctx, a.req, Err(Vec::new()));
        }
    }

    /// The one way a dynamic request ends. `Ok` adds the grant to the job
    /// as a dynamic set; `Err` rejects the request and first returns the
    /// listed hosts to the pool. Either way the client is answered and
    /// the next request is serviced.
    fn complete_dyn(&mut self, ctx: &mut Ctx<'_>, p: PendingDyn, outcome: DynOutcome) {
        let now = ctx.now();
        let result = match outcome {
            Ok(grant) => {
                if let Some(job) = self.jobs.get_mut(&p.job) {
                    job.state = JobState::Running;
                    job.dyn_sets.push(DynSet {
                        client_id: grant.client_id,
                        cn: p.cn,
                        accs: grant.accs.clone(),
                        slices: grant.slices.clone(),
                        ppn: match p.kind {
                            DynResource::Accelerators { class: _ } => 0,
                            DynResource::ComputeNodes { ppn } => ppn,
                            DynResource::AcceleratorSlices { class: _ } => 0,
                        },
                    });
                    self.active.touch(p.job);
                }
                let metrics = ctx.metrics();
                metrics.counter_inc("rms.dynjoin");
                // Grant-only latency: the dynget→grant SLO tracked by the
                // soak harness (rms.dyn_wait below also counts rejections).
                metrics.observe_duration("rms.dynget_to_grant", now.since(p.arrived));
                let (job, n, client_id) = (p.job, grant.accs.len(), grant.client_id);
                ctx.trace(format_args!("{job} granted {n} accelerator(s) as {client_id}"));
                Ok(grant)
            }
            Err(release) => {
                for h in &release {
                    self.db.lock().release(*h, p.job);
                }
                if let Some(job) = self.jobs.get_mut(&p.job) {
                    if job.state == JobState::DynQueued {
                        job.state = JobState::Running;
                    }
                }
                ctx.metrics().counter_inc("rms.dyn_rejected");
                ctx.trace(format_args!("{} dynamic request rejected", p.job));
                Err(DynReject::Unavailable)
            }
        };
        ctx.metrics().observe_duration("rms.dyn_wait", now.since(p.arrived));
        let resp = DynGetResp { token: p.client_token, result };
        self.answer(ctx, p.client_token, p.reply, CachedResp::DynGet(resp));
        self.maybe_start_dyn(ctx);
    }

    // -- release ---------------------------------------------------------

    fn handle_dynfree(&mut self, ctx: &mut Ctx<'_>, req: DynFreeReq) {
        if self.duplicate(ctx, req.token) {
            return;
        }
        let known = self
            .jobs
            .get(&req.job)
            .is_some_and(|j| j.dyn_sets.iter().any(|s| s.client_id == req.client_id));
        if !known {
            let resp = DynFreeResp { token: req.token, ok: false };
            self.answer(ctx, req.token, req.reply, CachedResp::DynFree(resp));
            return;
        }
        self.defer(ctx, self.cost.dyn_free_handling, Deferred::DynFreeDo { req });
    }

    fn finish_dynfree(&mut self, ctx: &mut Ctx<'_>, req: DynFreeReq) {
        let DynFreeReq { token, job, client_id, reply } = req;
        // Positive reply immediately; disassociation continues behind the
        // application's back (§III-D).
        self.answer(ctx, token, reply, CachedResp::DynFree(DynFreeResp { token, ok: true }));
        let Some(rec) = self.jobs.get(&job) else { return };
        let Some(set) = rec.dyn_sets.iter().find(|s| s.client_id == client_id).cloned() else {
            return;
        };
        let ms = rec.compute.first().copied();
        ctx.trace(format_args!("{job} dynfree of {client_id}: instructing mother superior"));
        if let Some(ms) = ms {
            let cmd = disjoin_cmd(job, &set);
            self.pending_frees.insert(client_id, (job, set));
            self.send_mom(ctx, ms, cmd);
        }
    }

    fn handle_free_done(&mut self, ctx: &mut Ctx<'_>, msg: FreeDone) {
        let known = self
            .jobs
            .get(&msg.job)
            .is_some_and(|j| j.dyn_sets.iter().any(|s| s.client_id == msg.set.client_id));
        let pending = self.pending_frees.remove(&msg.set.client_id).is_some();
        if !known && !pending {
            // Duplicate FreeDone (mom retransmit): already accounted for.
            return;
        }
        if let Some(rec) = self.jobs.get_mut(&msg.job) {
            rec.dyn_sets.retain(|s| s.client_id != msg.set.client_id);
            self.active.touch(msg.job);
        }
        {
            let mut db = self.db.lock();
            for h in &msg.set.accs {
                db.release(*h, msg.job);
            }
        }
        self.record_pool_util(ctx);
        ctx.metrics().counter_inc("rms.disjoin");
        ctx.trace(format_args!("{} released set {}", msg.job, msg.set.client_id));
        self.wake_scheduler(ctx);
    }

    // -- job end ----------------------------------------------------------

    fn handle_job_exit(&mut self, ctx: &mut Ctx<'_>, msg: JobExit) {
        // Hardened mode: acknowledge so the mom stops retransmitting, and
        // aggressively purge dynamic state the job can no longer resolve.
        let hardened = self.net.retry_policy().is_some();
        let Some(rec) = self.jobs.get_mut(&msg.job) else {
            if hardened {
                self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
            }
            return;
        };
        let stale = rec.incarnation != msg.incarnation;
        if stale || rec.state.is_terminal() {
            // A stale mom of a requeued incarnation, or a duplicate of an
            // exit already applied: quench the sender, change nothing.
            if hardened {
                self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
            }
            return;
        }
        rec.state = if msg.timed_out { JobState::TimedOut } else { JobState::Complete };
        rec.completed = Some(ctx.now());
        self.active.remove(msg.job);
        if hardened {
            rec.dyn_sets.clear();
        }
        self.db.lock().release_job(msg.job);
        self.fs.remove_job(msg.job);
        self.record_pool_util(ctx);
        ctx.trace(format_args!(
            "{} {}",
            msg.job,
            if msg.timed_out { "killed: walltime exceeded" } else { "complete" }
        ));
        if hardened {
            self.purge_dyns_for(ctx, msg.job);
            self.purge_frees_for(msg.job);
            self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
        }
        self.wake_scheduler(ctx);
    }

    /// Reject every queued or in-service dynamic request of `job` (it is
    /// terminating or losing its nodes) and release accelerators that were
    /// granted but never acknowledged as ready.
    fn purge_dyns_for(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let (victims, keep): (VecDeque<_>, VecDeque<_>) =
            std::mem::take(&mut self.dyns.fifo).into_iter().partition(|r| r.job == job);
        self.dyns.fifo = keep;
        let token = self.dyns.active.as_ref().filter(|a| a.req.job == job).map(|a| a.req.token);
        let active = token.and_then(|token| self.dyns.take(DynInput::Purge, token));
        if victims.is_empty() && active.is_none() {
            return;
        }
        for req in victims {
            self.complete_dyn(ctx, req, Err(Vec::new()));
        }
        if let Some(a) = active {
            self.complete_dyn(ctx, a.req, Err(a.phase.held()));
        }
        self.record_pool_util(ctx);
    }

    /// Forget pending disjoins of a job that no longer exists; its node
    /// registrations were already dropped wholesale by `release_job`.
    fn purge_frees_for(&mut self, job: JobId) {
        self.pending_frees.retain(|_, (j, _)| *j != job);
    }

    /// A node went offline: strip it from every non-terminal job. The
    /// first failure requeues the job (fresh incarnation when the
    /// scheduler restarts it); a repeat failure cancels it. This is the
    /// server-side reclamation that keeps the accelerator pool conserved
    /// when moms or jobs die mid-flight.
    fn reclaim_host(&mut self, ctx: &mut Ctx<'_>, host: HostId) {
        let victims: Vec<JobId> = self
            .active
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| {
                j.compute.contains(&host)
                    || j.accs.iter().flatten().any(|h| *h == host)
                    || j.dyn_sets.iter().any(|s| s.accs.contains(&host))
            })
            .map(|j| j.id)
            .collect();
        for job in victims {
            self.purge_dyns_for(ctx, job);
            self.purge_frees_for(job);
            let Some(rec) = self.jobs.get_mut(&job) else { continue };
            let ms = rec.compute.first().copied();
            let incarnation = rec.incarnation;
            let requeue = rec.requeues == 0;
            rec.compute.clear();
            rec.accs.clear();
            rec.dyn_sets.clear();
            rec.started = None;
            if requeue {
                rec.requeues += 1;
                rec.state = JobState::Queued;
                rec.ticket = self.queued.push(job);
            } else {
                rec.state = JobState::Cancelled;
                rec.completed = Some(ctx.now());
            }
            self.active.remove(job);
            self.db.lock().release_job(job);
            self.fs.remove_job(job);
            if let Some(ms) = ms {
                if ms != host {
                    self.send_mom(ctx, ms, CleanupJob { job, incarnation });
                }
            }
            ctx.metrics().counter_inc("rms.reclaims");
            ctx.trace(format_args!(
                "{job} reclaimed from offline host{}: {}",
                host.index(),
                if requeue { "requeued" } else { "cancelled" }
            ));
        }
        self.record_pool_util(ctx);
    }

    /// Periodic re-drive of server->mom commands still awaiting their
    /// response; armed (timer token 0) only when a retry policy is set.
    fn retransmit_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pol) = self.net.retry_policy() else { return };
        let launches: Vec<(HostId, Arc<JobLaunch>)> = self
            .active
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| j.started.is_none() && !j.compute.is_empty())
            .map(|j| (j.compute[0], j.launch()))
            .collect();
        for (ms, launch) in launches {
            self.send_mom(ctx, ms, SendJob { launch });
        }
        if let Some((ms, cmd)) = self.dyns.active.as_ref().and_then(|a| a.join_cmd(&self.jobs)) {
            self.send_mom(ctx, ms, cmd);
        }
        let frees: Vec<(HostId, DisjoinCmd)> = self
            .pending_frees
            .values()
            .filter_map(|(job, set)| {
                Some((*self.jobs.get(job)?.compute.first()?, disjoin_cmd(*job, set)))
            })
            .collect();
        for (ms, cmd) in frees {
            self.send_mom(ctx, ms, cmd);
        }
        ctx.set_timer(pol.retransmit, TOKEN_RETRY);
    }

    /// `qhold`/`qrls`: only queued jobs can be held (TORQUE holds running
    /// jobs only via checkpointing, which the DAC architecture does not
    /// model); only held jobs can be released.
    fn handle_qhold(&mut self, ctx: &mut Ctx<'_>, req: QholdReq) {
        if self.duplicate(ctx, req.token) {
            return;
        }
        let ok = match self.jobs.get_mut(&req.job) {
            Some(rec) if req.hold && rec.state == JobState::Queued => {
                rec.state = JobState::Held;
                ctx.trace(format_args!("{} held", req.job));
                true
            }
            Some(rec) if !req.hold && rec.state == JobState::Held => {
                rec.state = JobState::Queued;
                ctx.trace(format_args!("{} released from hold", req.job));
                true
            }
            _ => false,
        };
        let resp = QholdResp { token: req.token, ok };
        self.answer(ctx, req.token, req.reply, CachedResp::Qhold(resp));
        if ok && !req.hold {
            self.wake_scheduler(ctx);
        }
    }

    fn handle_qdel(&mut self, ctx: &mut Ctx<'_>, req: QdelReq) {
        if self.duplicate(ctx, req.token) {
            return;
        }
        let hardened = self.net.retry_policy().is_some();
        let mut was_active = false;
        let ok = match self.jobs.get_mut(&req.job) {
            Some(rec) if matches!(rec.state, JobState::Queued | JobState::Held) => {
                rec.state = JobState::Cancelled;
                rec.completed = Some(ctx.now());
                self.queued.remove(rec.ticket);
                true
            }
            Some(rec) if matches!(rec.state, JobState::Running | JobState::DynQueued) => {
                rec.state = JobState::Cancelled;
                rec.completed = Some(ctx.now());
                self.active.remove(req.job);
                was_active = true;
                if hardened {
                    rec.dyn_sets.clear();
                }
                let ms = rec.compute.first().copied();
                let incarnation = rec.incarnation;
                self.db.lock().release_job(req.job);
                self.fs.remove_job(req.job);
                if let Some(ms) = ms {
                    self.send_mom(ctx, ms, CleanupJob { job: req.job, incarnation });
                }
                true
            }
            _ => false,
        };
        self.answer(ctx, req.token, req.reply, CachedResp::Qdel(QdelResp { token: req.token, ok }));
        if ok && was_active && hardened {
            self.purge_dyns_for(ctx, req.job);
            self.purge_frees_for(req.job);
        }
        if ok {
            self.record_pool_util(ctx);
            self.wake_scheduler(ctx);
        }
    }
}

impl Actor for PbsServer {
    fn name(&self) -> &str {
        "pbs_server"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let env = match env.downcast::<QsubReq>() {
            Ok(m) => return self.handle_qsub(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<QstatReq>() {
            Ok(m) => {
                let jobs = self.jobs.values().map(|j| j.status()).collect();
                let resp = QstatResp { token: m.token, jobs };
                return self.reply(ctx, m.reply, resp);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<QdelReq>() {
            Ok(m) => return self.handle_qdel(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<QholdReq>() {
            Ok(m) => return self.handle_qhold(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynGetReq>() {
            Ok(m) => return self.handle_dynget(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynFreeReq>() {
            Ok(m) => return self.handle_dynfree(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<ClusterQueryReq>() {
            Ok(m) => {
                let resp = self.snapshot_for(&m);
                return self.reply(ctx, m.reply, resp);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<RunJobCmd>() {
            Ok(m) => return self.handle_run_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<RunDynCmd>() {
            Ok(m) => return self.handle_run_dyn(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<RejectDynCmd>() {
            Ok(m) => return self.handle_reject_dyn(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynReady>() {
            Ok(m) => return self.handle_dyn_ready(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<FreeDone>() {
            Ok(m) => return self.handle_free_done(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<JobStarted>() {
            Ok(m) => {
                if let Some(rec) = self.jobs.get_mut(&m.job) {
                    if rec.incarnation == m.incarnation
                        && rec.started.is_none()
                        && matches!(rec.state, JobState::Running | JobState::DynQueued)
                    {
                        let now = ctx.now();
                        rec.started = Some(now);
                        self.active.touch(m.job);
                        let latency = now.since(rec.submitted);
                        ctx.metrics().observe_duration("rms.qsub_to_run", latency);
                    }
                }
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<JobExit>() {
            Ok(m) => return self.handle_job_exit(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<SetNodeOffline>() {
            Ok(m) => {
                self.db.lock().set_offline(m.host, m.offline);
                ctx.trace(format_args!(
                    "node host{} marked {}",
                    m.host.index(),
                    if m.offline { "offline" } else { "online" }
                ));
                if m.offline {
                    self.reclaim_host(ctx, m.host);
                }
                self.wake_scheduler(ctx);
                return;
            }
            Err(e) => e,
        };
        ctx.trace(format_args!("pbs_server: unhandled message {env:?}"));
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
            Some(Deferred::QsubDone { req }) => self.finish_qsub(ctx, req),
            Some(Deferred::RunJobDo { cmd }) => self.finish_run_job(ctx, cmd),
            Some(Deferred::DynExpose { token }) => self.expose_dyn(ctx, token),
            Some(Deferred::DynGrantDo { token }) => self.finish_dyn_grant(ctx, token),
            Some(Deferred::DynFreeDo { req }) => self.finish_dynfree(ctx, req),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use darms_net::{HostKind, LatencyModel};
    use darms_sim::{Endpoint, Engine, Proc, SimConfig, SimDuration};

    use super::*;
    use crate::server_addr;
    use DynInput::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn granted() -> DynPhase {
        let grant = DynGrant {
            client_id: ClientId(1),
            accs: vec![HostId::from_raw(3)],
            slices: Vec::new(),
        };
        DynPhase::Granted { at: at(1), grant }
    }

    fn request(token: u64) -> PendingDyn {
        PendingDyn {
            token,
            job: JobId(1),
            cn: HostId::from_raw(1),
            count: 1,
            min_count: 1,
            kind: DynResource::Accelerators { class: Default::default() },
            client_token: 100 + token,
            reply: server_addr(HostId::from_raw(0)),
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn every_phase_input_pair_has_one_decision() {
        let table = [
            (DynPhase::Serviced, Expose, true),
            (DynPhase::Serviced, Run, false),
            (DynPhase::Serviced, Reject, false),
            (DynPhase::Serviced, GrantTimer, false),
            (DynPhase::Serviced, Ready, false),
            (DynPhase::Serviced, Purge, true),
            (DynPhase::Exposed { at: at(1) }, Expose, false),
            (DynPhase::Exposed { at: at(1) }, Run, true),
            (DynPhase::Exposed { at: at(1) }, Reject, true),
            (DynPhase::Exposed { at: at(1) }, GrantTimer, false),
            (DynPhase::Exposed { at: at(1) }, Ready, false),
            (DynPhase::Exposed { at: at(1) }, Purge, true),
            (granted(), Expose, false),
            // Known wrong (DESIGN.md §11): a re-grant leaks the first set.
            (granted(), Run, true),
            // Known wrong (DESIGN.md §11): the granted set is not released.
            (granted(), Reject, true),
            (granted(), GrantTimer, true),
            (granted(), Ready, true),
            (granted(), Purge, true),
        ];
        assert_eq!(table.len(), 3 * 6, "every (phase, input) pair");
        for (phase, input, accepted) in &table {
            assert_eq!(phase.accepts(*input), *accepted, "{input:?} at {:?}", phase.exposed_at());
        }
    }

    #[test]
    fn lookup_refuses_a_stale_token_and_inputs_after_completion() {
        let active = ActiveDyn { req: request(7), phase: DynPhase::Exposed { at: at(1) } };
        let mut dyns = DynService { active: Some(active), ..Default::default() };
        assert!(dyns.lookup(Run, 6).is_none(), "stale token");
        assert!(dyns.lookup(GrantTimer, 7).is_none(), "phase refuses");
        let done = dyns.take(Reject, 7).map(|a| a.req.token);
        assert_eq!(done, Some(7));
        dyns.active = Some(ActiveDyn { req: request(8), phase: DynPhase::Serviced });
        for input in [Expose, Run, Reject, GrantTimer, Ready, Purge] {
            assert!(dyns.lookup(input, 7).is_none(), "{input:?} after completion");
        }
        assert!(dyns.lookup(Expose, 8).is_some());
    }

    /// Job ids ascend, so the job table's leaves run about half full:
    /// with 240-B records inline, 8,000 jobs took 3.68 MB of leaves for
    /// 1.98 MB of records; boxed, 2.19 MB in all.
    #[test]
    fn the_job_table_holds_pointer_sized_values() {
        fn value_size<K, V>(_: &BTreeMap<K, V>) -> usize {
            std::mem::size_of::<V>()
        }
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let cost = RmsCostModel::paper_testbed();
        let server = PbsServer::new(net, PseudoFs::new(), head, cost, NodeDb::new());
        assert_eq!(value_size(&server.jobs), std::mem::size_of::<usize>());
    }

    fn query(token: u64, cached_token: Option<u64>) -> ClusterQueryReq {
        let reply = server_addr(HostId::from_raw(0));
        ClusterQueryReq { token, reply, cached_token, refresh: Vec::new() }
    }

    #[test]
    fn a_copy_of_the_last_query_gets_a_full_response_and_drains_nothing() {
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let cn = net.add_host("cn", HostKind::Compute);
        let mut db = NodeDb::new();
        db.add_compute(cn, 8);
        let cost = RmsCostModel::paper_testbed();
        let mut server = PbsServer::new(net, PseudoFs::new(), head, cost, db);
        let job = JobId(1);
        let spec = JobSpec::synthetic("j", SimDuration::from_secs(60));
        let owner = spec.owner.as_str().into();
        server.jobs.insert(
            job,
            Box::new(JobRecord {
                id: job,
                owner,
                spec,
                state: JobState::Running,
                submitted: SimTime::ZERO,
                started: None,
                completed: None,
                compute: vec![cn],
                accs: Vec::new(),
                dyn_sets: Vec::new(),
                incarnation: 1,
                requeues: 0,
                ticket: 0,
            }),
        );
        server.active.insert(job);
        assert!(!server.snapshot_for(&query(1, None)).delta);
        let first = server.snapshot_for(&query(2, Some(1)));
        assert!(
            first.delta && first.snapshot.nodes.is_empty() && first.snapshot.running.is_empty()
        );
        // Changes between the two serves of request 2.
        server.db.lock().allocate_compute(cn, job, 1);
        if let Some(j) = server.jobs.get_mut(&job) {
            j.started = Some(at(5));
        }
        server.active.touch(job);
        let copy = server.snapshot_for(&query(2, Some(1)));
        assert!(!copy.delta, "a copy is answered in full");
        assert_eq!(copy.snapshot.running[0].started, at(5));
        // The client applied the delta copy and dropped the full one: its
        // next delta must still carry both changes.
        let next = server.snapshot_for(&query(3, Some(2)));
        assert!(next.delta);
        let free: Vec<u32> = next.snapshot.nodes.iter().map(|n| n.cores_free).collect();
        assert_eq!(free, vec![7]);
        let started: Vec<SimTime> = next.snapshot.running.iter().map(|r| r.started).collect();
        assert_eq!(started, vec![at(5)]);
    }

    /// A delta lists its nodes in ascending registration index, whatever
    /// order they were dirtied or refreshed in: the scheduler pushes the
    /// freed accelerators onto its FIFO pool in that order.
    #[test]
    fn a_delta_lists_nodes_in_registration_order() {
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let hosts: Vec<HostId> =
            (0..5).map(|i| net.add_host(format!("n{i}"), HostKind::Generic)).collect();
        // Registered in descending host-id order, so registration index
        // and host id disagree.
        let mut db = NodeDb::new();
        for &h in hosts.iter().rev().take(2) {
            db.add_compute(h, 8);
        }
        for &h in hosts.iter().rev().skip(2) {
            db.add_accelerator(h);
        }
        let reg: Vec<HostId> = db.nodes().iter().map(|n| n.host).collect();
        let cost = RmsCostModel::paper_testbed();
        let mut server = PbsServer::new(net, PseudoFs::new(), head, cost, db);
        assert!(!server.snapshot_for(&query(1, None)).delta);
        {
            let mut db = server.db.lock();
            db.allocate_accelerator(reg[3], JobId(7));
            db.set_offline(reg[4], true);
            db.allocate_compute(reg[1], JobId(7), 2);
            db.release(reg[3], JobId(7));
        }
        let mut req = query(2, Some(1));
        req.refresh = vec![reg[2], reg[3]];
        let delta = server.snapshot_for(&req);
        assert!(delta.delta);
        let listed: Vec<HostId> = delta.snapshot.nodes.iter().map(|n| n.host).collect();
        assert_eq!(listed, vec![reg[1], reg[2], reg[3], reg[4]]);
        // Drained: the next delta lists nothing.
        assert!(server.snapshot_for(&query(3, Some(2))).snapshot.nodes.is_empty());
    }

    /// A server on head + two compute nodes + three accelerators, with no
    /// retry policy; the test's driver process stands in for the client,
    /// the scheduler and the mother superior.
    struct Rig {
        engine: Engine,
        db: Arc<Mutex<NodeDb>>,
        accs: [HostId; 3],
    }

    /// What the driver process needs to talk to the server.
    #[derive(Clone)]
    struct Driver {
        net: Network,
        head: HostId,
        cn: HostId,
        cn2: HostId,
        accs: [HostId; 3],
    }

    impl Driver {
        fn send<T: std::any::Any + Send + Clone>(&self, p: &Proc, msg: T) {
            self.net.send_from_proc(p, self.head, server_addr(self.head), msg, 0);
        }

        async fn recv<T: std::any::Any>(&self, p: &Proc) -> Option<T> {
            p.recv_where(|e| e.is::<T>()).await.downcast::<T>().ok()
        }

        /// Submit a job (IFL token `token`) and start it on the compute
        /// node.
        async fn running_job(&self, p: &Proc, token: u64) -> Option<JobId> {
            self.running_job_on(p, token, self.cn).await
        }

        async fn running_job_on(&self, p: &Proc, token: u64, cn: HostId) -> Option<JobId> {
            let reply = self.net.bind_auto(self.head, p.endpoint());
            self.net.bind(crate::sched_addr(self.head), p.endpoint());
            self.net.bind(mom_addr(cn), p.endpoint());
            let spec = JobSpec::synthetic("dyn", SimDuration::from_secs(60));
            self.send(p, QsubReq { token, spec, reply });
            let job = self.recv::<QsubResp>(p).await?.job;
            self.start(p, job, cn).await
        }

        /// Start a queued job on `cn`.
        async fn start(&self, p: &Proc, job: JobId, cn: HostId) -> Option<JobId> {
            self.send(p, RunJobCmd { job, compute: vec![cn], accs: Vec::new() });
            self.recv::<SendJob>(p).await?;
            Some(job)
        }

        /// One cluster query as the scheduler would send it.
        async fn query(
            &self,
            p: &Proc,
            token: u64,
            cached: Option<u64>,
        ) -> Option<ClusterQueryResp> {
            let mut req = query(token, cached);
            req.reply = crate::sched_addr(self.head);
            self.net.bind(req.reply, p.endpoint());
            self.send(p, req);
            self.recv::<ClusterQueryResp>(p).await
        }

        /// Patch `mirror` with a delta against the last served response,
        /// then fetch a full list, and record step `name`.
        async fn delta_step(
            &self,
            p: &Proc,
            mirror: &mut Mirror,
            name: &'static str,
        ) -> Option<()> {
            let mut delta = self.query(p, mirror.token + 1, Some(mirror.token)).await?;
            let shipped = (delta.snapshot.running.len(), delta.running_gone.len());
            delta.apply_running(&mut mirror.running);
            let full = self.query(p, mirror.token + 2, None).await?;
            mirror.token += 2;
            let same = mirror.running.values().eq(full.snapshot.running.iter());
            mirror.steps.push((name, delta.delta, shipped, same));
            Some(())
        }

        /// Issue a `pbs_dynget` for one accelerator.
        fn dynget(&self, p: &Proc, job: JobId, token: u64) {
            let reply = self.net.bind_auto(self.head, p.endpoint());
            let kind = DynResource::Accelerators { class: Default::default() };
            let cn = self.cn;
            self.send(p, DynGetReq { token, job, cn, count: 1, min_count: 1, kind, reply });
        }

        async fn job_state(&self, p: &Proc, job: JobId) -> Option<(JobState, Option<SimTime>)> {
            let reply = self.net.bind_auto(self.head, p.endpoint());
            self.send(p, QstatReq { token: 99, reply });
            let jobs = self.recv::<QstatResp>(p).await?.jobs;
            jobs.into_iter().find(|s| s.id == job).map(|s| (s.state, s.completed))
        }
    }

    /// A scheduler-side copy of the running list and the token of the
    /// last response it applied.
    struct Mirror {
        running: BTreeMap<JobId, RunningJobSnap>,
        token: u64,
        /// Per step: its name, whether the response was a delta, the
        /// (running, gone) entries it shipped, and whether the patched
        /// mirror equals a full list built from the same state.
        steps: Vec<(&'static str, bool, (usize, usize), bool)>,
    }

    /// Longer than the expose timer (`dyn_request_handling`, 30 ms).
    const EXPOSED: SimDuration = SimDuration::from_millis(100);

    fn rig(drive: impl FnOnce(Proc, Driver) -> darms_sim::ProcFuture + 'static) -> Rig {
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let cn = net.add_host("cn", HostKind::Compute);
        let accs = [0, 1, 2].map(|i| net.add_host(format!("acc{i}"), HostKind::Accelerator));
        let cn2 = net.add_host("cn2", HostKind::Compute);
        let mut db = NodeDb::new();
        db.add_compute(cn, 8);
        for a in accs {
            db.add_accelerator(a);
        }
        db.add_compute(cn2, 8);
        let cost = RmsCostModel::paper_testbed();
        let server = PbsServer::new(net.clone(), PseudoFs::new(), head, cost, db);
        let db = server.db_handle();
        let mut engine = Engine::new(SimConfig::default());
        let id = engine.add_actor(Box::new(server));
        net.bind(server_addr(head), Endpoint::Actor(id));
        let driver = Driver { net, head, cn, cn2, accs };
        engine.spawn_process("driver", move |p| drive(p, driver));
        Rig { engine, db, accs }
    }

    #[test]
    fn expose_writes_dyn_queued_onto_a_terminal_job() {
        let seen = Rc::new(RefCell::new(None));
        let out = seen.clone();
        let mut rig = rig(move |p, d| {
            Box::pin(async move {
                let Some(job) = d.running_job(&p, 1).await else { return };
                d.dynget(&p, job, 2);
                // The walltime kill lands while the request is `Serviced`.
                d.send(&p, JobExit { job, from: d.cn, incarnation: 1, timed_out: true });
                p.sleep(EXPOSED).await;
                *out.borrow_mut() = d.job_state(&p, job).await;
            })
        });
        assert_eq!(rig.engine.run().process_panics, 0);
        let (state, completed) = seen.borrow().expect("qstat answered");
        // Known wrong (DESIGN.md §11): the expose resurrects the timed-out job.
        assert_eq!(state, JobState::DynQueued);
        assert!(completed.is_some());
    }

    #[test]
    fn run_and_reject_while_granted_keep_the_granted_hosts() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let out = seen.clone();
        let mut rig = rig(move |p, d| {
            Box::pin(async move {
                let Some(job) = d.running_job(&p, 1).await else { return };
                let [a0, a1, a2] = d.accs;
                // Request 1: granted a0, then re-granted a1 before it joins.
                d.dynget(&p, job, 2);
                p.sleep(EXPOSED).await;
                d.send(&p, RunDynCmd { token: 1, accs: vec![a0] });
                d.send(&p, RunDynCmd { token: 1, accs: vec![a1] });
                let Some(join) = d.recv::<DynJoinCmd>(&p).await else { return };
                d.send(&p, DynReady { job, token: join.token });
                let Some(resp) = d.recv::<DynGetResp>(&p).await else { return };
                out.borrow_mut().push(resp.result.map(|g| g.accs).map_err(|_| ()));
                // Request 2: granted a2, then rejected.
                d.dynget(&p, job, 3);
                p.sleep(EXPOSED).await;
                d.send(&p, RunDynCmd { token: 2, accs: vec![a2] });
                d.send(&p, RejectDynCmd { token: 2 });
                let Some(resp) = d.recv::<DynGetResp>(&p).await else { return };
                out.borrow_mut().push(resp.result.map(|g| g.accs).map_err(|_| ()));
            })
        });
        assert_eq!(rig.engine.run().process_panics, 0);
        let [a0, a1, a2] = rig.accs;
        assert_eq!(*seen.borrow(), vec![Ok(vec![a1]), Err(())]);
        let db = rig.db.lock();
        let held = |h: HostId| db.get(h).is_some_and(|n| !n.is_free());
        // Known wrong (DESIGN.md §11): the re-grant leaks a0 to the job
        // and the rejection leaves a2 allocated.
        assert!(held(a0) && held(a1) && held(a2));
    }

    #[test]
    fn running_deltas_patch_a_mirror_to_the_full_list() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let out = seen.clone();
        let mut rig = rig(move |p, d| {
            Box::pin(async move {
                let mut m = Mirror { running: BTreeMap::new(), token: 1, steps: Vec::new() };
                let steps = async {
                    let m = &mut m;
                    d.query(&p, 1, None).await?.apply_running(&mut m.running);
                    let settle = SimDuration::from_millis(10);
                    // Job B runs on cn2 throughout and is never re-shipped.
                    let b = d.running_job_on(&p, 1, d.cn2).await?;
                    d.delta_step(&p, m, "start b").await?;
                    let a = d.running_job(&p, 2).await?;
                    d.delta_step(&p, m, "start a").await?;
                    d.send(&p, JobStarted { job: a, from: d.cn, incarnation: 1 });
                    p.sleep(settle).await;
                    d.delta_step(&p, m, "job started").await?;
                    d.dynget(&p, a, 3);
                    p.sleep(EXPOSED).await;
                    d.send(&p, RunDynCmd { token: 1, accs: vec![d.accs[0]] });
                    let join = d.recv::<DynJoinCmd>(&p).await?;
                    d.send(&p, DynReady { job: a, token: join.token });
                    let grant = d.recv::<DynGetResp>(&p).await?.result.ok()?;
                    d.delta_step(&p, m, "dyn grant").await?;
                    let (client_id, cn, accs) = (grant.client_id, d.cn, grant.accs);
                    let set = DynSet { client_id, cn, accs, slices: Vec::new(), ppn: 0 };
                    d.send(&p, FreeDone { job: a, set });
                    p.sleep(settle).await;
                    d.delta_step(&p, m, "free done").await?;
                    d.send(&p, SetNodeOffline { host: d.cn, offline: true });
                    p.sleep(settle).await;
                    d.delta_step(&p, m, "requeue").await?;
                    d.send(&p, SetNodeOffline { host: d.cn, offline: false });
                    d.start(&p, a, d.cn).await?;
                    d.delta_step(&p, m, "restart").await?;
                    d.send(&p, JobExit { job: a, from: d.cn, incarnation: 2, timed_out: false });
                    p.sleep(settle).await;
                    d.delta_step(&p, m, "exit").await?;
                    let reply = d.net.bind_auto(d.head, p.endpoint());
                    d.send(&p, QdelReq { token: 4, job: b, reply });
                    d.recv::<QdelResp>(&p).await?;
                    d.delta_step(&p, m, "qdel").await
                };
                let _ = steps.await;
                *out.borrow_mut() = m.steps;
            })
        });
        assert_eq!(rig.engine.run().process_panics, 0);
        let want = [
            ("start b", (1, 0)),
            ("start a", (1, 0)),
            ("job started", (1, 0)),
            ("dyn grant", (1, 0)),
            ("free done", (1, 0)),
            ("requeue", (0, 1)),
            ("restart", (1, 0)),
            ("exit", (0, 1)),
            ("qdel", (0, 1)),
        ];
        let seen = seen.borrow();
        assert_eq!(seen.len(), want.len(), "every step ran: {seen:?}");
        for ((name, delta, shipped, same), (want_name, want)) in seen.iter().zip(want) {
            assert_eq!(*name, want_name);
            assert!(*delta, "{name}: answered as a delta");
            assert_eq!(*shipped, want, "{name}: (running, gone) shipped");
            assert!(*same, "{name}: mirror equals the full running list");
        }
    }

    /// The queued list the index replaced: every enqueue appends, a
    /// started or cancelled job's entry stays until the dead entries
    /// number at least 64 and outnumber the live ones, and a requeue
    /// drops the job's old entry and appends it again.
    #[derive(Default)]
    struct LazyQueue {
        order: Vec<JobId>,
        dead: usize,
    }

    impl LazyQueue {
        fn dequeued(&mut self, states: &BTreeMap<JobId, JobState>) {
            self.dead += 1;
            if self.dead >= 64 && self.dead * 2 > self.order.len() {
                self.order.retain(|id| matches!(states[id], JobState::Queued | JobState::Held));
                self.dead = 0;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128, ..Default::default() })]

        /// Random enqueue, start, `qdel`, hold, release and requeue
        /// steps: the index lists the reference's queued jobs in the
        /// reference's order after every step, and holds only queued
        /// and held jobs.
        #[test]
        fn queued_index_matches_lazy_vec(
            ops in proptest::collection::vec((0u8..6, 0usize..64), 1..400),
        ) {
            let mut index = QueuedIndex::default();
            let mut tickets: BTreeMap<JobId, u64> = BTreeMap::new();
            let mut states: BTreeMap<JobId, JobState> = BTreeMap::new();
            let mut reference = LazyQueue::default();
            let mut next = 1;
            for (op, pick) in ops {
                let pick_in = |states: &BTreeMap<JobId, JobState>, want: &[JobState]| {
                    let ids: Vec<JobId> =
                        states.iter().filter(|(_, s)| want.contains(s)).map(|(id, _)| *id).collect();
                    (!ids.is_empty()).then(|| ids[pick % ids.len()])
                };
                match op {
                    0 => {
                        let id = JobId(next);
                        next += 1;
                        states.insert(id, JobState::Queued);
                        tickets.insert(id, index.push(id));
                        reference.order.push(id);
                    }
                    1 | 2 => {
                        // Start a queued job, or `qdel` a queued or held one.
                        let (want, to): (&[JobState], _) = if op == 1 {
                            (&[JobState::Queued], JobState::Running)
                        } else {
                            (&[JobState::Queued, JobState::Held], JobState::Cancelled)
                        };
                        if let Some(id) = pick_in(&states, want) {
                            states.insert(id, to);
                            index.remove(tickets[&id]);
                            reference.dequeued(&states);
                        }
                    }
                    3 => {
                        if let Some(id) = pick_in(&states, &[JobState::Queued]) {
                            states.insert(id, JobState::Held);
                        }
                    }
                    4 => {
                        if let Some(id) = pick_in(&states, &[JobState::Held]) {
                            states.insert(id, JobState::Queued);
                        }
                    }
                    _ => {
                        if let Some(id) = pick_in(&states, &[JobState::Running]) {
                            states.insert(id, JobState::Queued);
                            tickets.insert(id, index.push(id));
                            reference.order.retain(|j| *j != id);
                            reference.order.push(id);
                        }
                    }
                }
                let queued = |ids: Vec<JobId>| -> Vec<JobId> {
                    ids.into_iter().filter(|id| states[id] == JobState::Queued).collect()
                };
                let listed: Vec<JobId> = index.iter().collect();
                proptest::prop_assert!(listed
                    .iter()
                    .all(|id| matches!(states[id], JobState::Queued | JobState::Held)));
                proptest::prop_assert_eq!(queued(listed), queued(reference.order.clone()));
            }
        }
    }
}
