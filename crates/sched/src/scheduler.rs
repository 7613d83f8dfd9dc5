//! The Maui-like scheduler actor.
//!
//! Iteration model: on a wake-up from the server the scheduler fetches a
//! cluster snapshot, orders the work (the exposed dynamic request first —
//! the paper's top-priority extension, §III-E — then the static queue by
//! policy priority), and processes items one at a time, each charging its
//! modelled scheduling cost. A dynamic request arriving mid-iteration is
//! therefore serviced only after the iteration completes — exactly the
//! waiting the paper measures in Fig. 8.
//!
//! Only items that act — a start, a grant, a reject or a retry — get a
//! timer at their decision instant. A queued job that will not start is
//! decided inline, at the instant its step would have fired, so queue
//! depth costs no idle events while every decision time and the
//! iteration's end time stay those of one step per item.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use darms_net::{HostId, Network};
use darms_rms::proto::*;
use darms_rms::{sched_addr, server_addr, JobId};
use darms_sim::{Actor, Ctx, Envelope, MetricsRegistry, SimDuration, SimTime, TraceSource};

use crate::alloc::{split_accs, AllocPolicy, FreeTracker};
use crate::backfill::{may_backfill, shadow_time};
use crate::fairshare::Fairshare;
use crate::priority::{order_queue, Policy};

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Static-queue ordering policy.
    pub policy: Policy,
    /// Node selection policy.
    pub allocation: AllocPolicy,
    /// EASY backfill on the static queue.
    pub backfill: bool,
    /// Schedule dynamic requests before everything else (the paper's
    /// policy). Disabled by the EXT-3 fairness ablation.
    pub dyn_top_priority: bool,
    /// Cost of examining/allocating one queued job.
    pub per_job_cost: SimDuration,
    /// Base cost of scheduling a dynamic request.
    pub dyn_base_cost: SimDuration,
    /// Additional cost per requested accelerator in a dynamic request.
    pub dyn_per_acc_cost: SimDuration,
    /// How long an unsatisfiable dynamic request may stay queued before
    /// rejection. `None` (the paper's policy, §III-E) rejects
    /// immediately; `Some(w)` keeps it exposed and retries until `w`
    /// elapses — an ablation of the no-reservation design choice.
    pub dyn_queue_wait: Option<SimDuration>,
    /// Retry interval while an unsatisfiable dynamic request is queued.
    pub dyn_retry: SimDuration,
    /// Fixed per-iteration overhead (queue fetch, priority pass).
    pub iteration_overhead: SimDuration,
    /// Optional periodic iteration (Maui's RMPOLLINTERVAL); event-driven
    /// wake-ups happen regardless.
    pub poll_interval: Option<SimDuration>,
    /// Keep at most one poll timer in flight. The historic behaviour
    /// (`false`) arms a fresh timer at the end of every active iteration
    /// without cancelling the previous one, so each event-driven wake-up
    /// spawns another poll chain; at datacenter scale thousands of
    /// concurrent chains degenerate into a busy loop of O(hosts)
    /// snapshot iterations. The legacy default stays `false` only
    /// because the checked-in golden traces pin that timer schedule
    /// byte-for-byte; large-scale scenarios opt in.
    pub poll_coalesce: bool,
    /// Keep the free-resource tracker and the running-job map across
    /// iterations and ask the server for node and running-job *deltas*
    /// instead of full snapshots. Turns the per-iteration cost from
    /// O(hosts + running jobs) into O(what changed), which is what keeps
    /// the per-event wall cost flat from 1k to 10k hosts. Off by default
    /// for the same golden-trace reason as `poll_coalesce` (the wire
    /// exchanges differ); large-scale scenarios opt in. Loss-safe: a delta is only served when the
    /// scheduler proves it applied the server's previous response, so
    /// a lost response degrades to a full snapshot.
    pub incremental_snapshots: bool,
    /// Fairshare decay half-life.
    pub fairshare_half_life: SimDuration,
    /// Wire size of scheduler control messages.
    pub ctl_bytes: u64,
}

impl SchedConfig {
    /// Calibrated against the paper's testbed.
    pub fn paper_testbed() -> Self {
        SchedConfig {
            policy: Policy::Priority(Default::default()),
            allocation: AllocPolicy::FirstFit,
            backfill: true,
            dyn_top_priority: true,
            per_job_cost: SimDuration::from_millis(22),
            dyn_base_cost: SimDuration::from_millis(55),
            dyn_per_acc_cost: SimDuration::from_millis(70),
            dyn_queue_wait: None,
            dyn_retry: SimDuration::from_millis(500),
            iteration_overhead: SimDuration::from_millis(6),
            poll_interval: Some(SimDuration::from_secs(10)),
            poll_coalesce: false,
            incremental_snapshots: false,
            fairshare_half_life: SimDuration::from_secs(3600),
            ctl_bytes: 512,
        }
    }

    /// Near-zero costs for logic-focused tests.
    pub fn instant() -> Self {
        SchedConfig {
            policy: Policy::Fifo,
            allocation: AllocPolicy::FirstFit,
            backfill: false,
            dyn_top_priority: true,
            per_job_cost: SimDuration::ZERO,
            dyn_base_cost: SimDuration::ZERO,
            dyn_per_acc_cost: SimDuration::ZERO,
            dyn_queue_wait: None,
            dyn_retry: SimDuration::from_millis(100),
            iteration_overhead: SimDuration::ZERO,
            poll_interval: None,
            poll_coalesce: false,
            incremental_snapshots: false,
            fairshare_half_life: SimDuration::from_secs(3600),
            ctl_bytes: 0,
        }
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::paper_testbed()
    }
}

enum WorkItem {
    Dyn(DynPendingSnap),
    Job(QueuedJobSnap),
}

/// What examining a static job at a given instant does.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Verdict {
    /// It starts.
    Start,
    /// It is the first job that cannot start: it sets the backfill
    /// shadow (or blocks a strict queue).
    Reserve,
    /// Nothing: the queue is blocked, or it may not backfill.
    Pass,
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Phase {
    Idle,
    AwaitSnapshot,
    Busy,
}

const TOKEN_STEP: u64 = 1;
const TOKEN_POLL: u64 = 2;

/// The Maui-like scheduler daemon.
pub struct MauiScheduler {
    net: Network,
    head: HostId,
    config: SchedConfig,
    fairshare: Fairshare,
    phase: Phase,
    dirty: bool,
    query_token: u64,
    worklist: VecDeque<WorkItem>,
    tracker: Option<FreeTracker>,
    /// Running jobs as of the last snapshot, in job-id order; a full
    /// response replaces the map, a delta patches it.
    running: BTreeMap<JobId, RunningJobSnap>,
    /// Jobs started earlier in the *current* iteration; they are not in
    /// the snapshot's running list yet but must count for backfill shadow
    /// computation.
    iter_started: Vec<RunningJobSnap>,
    shadow: Option<SimTime>,
    blocked_no_backfill: bool,
    /// Whether the last snapshot contained any work (queued, running, or
    /// dynamic). When the cluster is fully idle the poll timer is not
    /// re-armed — event-driven wake-ups restart iterations — so an idle
    /// simulation can quiesce.
    last_snapshot_active: bool,
    /// A `TOKEN_POLL` timer is in flight (only consulted when
    /// [`SchedConfig::poll_coalesce`] is on).
    poll_armed: bool,
    /// Token of the last snapshot response applied to `tracker` and
    /// `running`. Sent as `ClusterQueryReq::cached_token` so the server
    /// can prove the caches are in sync before serving a delta. `None`
    /// forces a full snapshot.
    cached_token: Option<u64>,
    /// Hosts this scheduler speculatively mutated (grants sent to the
    /// server) since the last snapshot. Listed in the next query's
    /// `refresh` set so a server-side rejection cannot strand the cache.
    touched: BTreeSet<HostId>,
    /// A second registry that also receives `sched.dyn_wait` samples;
    /// see [`MauiScheduler::with_recorder`].
    recorder: Option<MetricsRegistry>,
    /// Virtual time the current iteration's snapshot arrived (for the
    /// `sched.iteration_cost` histogram).
    iter_began: Option<SimTime>,
    /// Token of the last dynamic request whose wait was recorded. A
    /// request that is resolved but still in flight back to the server
    /// can reappear in the next snapshot; dedup so `sched.dyn_wait`
    /// gets exactly one sample per request.
    last_dyn_recorded: Option<u64>,
    /// Iterations completed (observability for tests).
    pub iterations: u64,
}

impl MauiScheduler {
    /// Create the scheduler for the head node.
    pub fn new(net: Network, head: HostId, config: SchedConfig) -> Self {
        let fairshare = Fairshare::new(config.fairshare_half_life);
        MauiScheduler {
            net,
            head,
            config,
            fairshare,
            phase: Phase::Idle,
            dirty: false,
            query_token: 0,
            worklist: VecDeque::new(),
            tracker: None,
            running: BTreeMap::new(),
            iter_started: Vec::new(),
            shadow: None,
            blocked_no_backfill: false,
            last_snapshot_active: false,
            poll_armed: false,
            cached_token: None,
            touched: BTreeSet::new(),
            recorder: None,
            iter_began: None,
            last_dyn_recorded: None,
            iterations: 0,
        }
    }

    /// Also record `sched.dyn_wait` samples (seconds a dynamic request
    /// spent waiting on scheduling of other work — the light region of
    /// the paper's Fig. 8) into `rec`, besides the engine's registry.
    /// Kept only for the frozen `perfbench/` package, which calls it;
    /// it goes with ROADMAP item 2.
    pub fn with_recorder(mut self, rec: MetricsRegistry) -> Self {
        self.recorder = Some(rec);
        self
    }

    fn send_server<T: std::any::Any + Send + Clone>(&mut self, ctx: &mut Ctx<'_>, msg: T) {
        let to = server_addr(self.head);
        let bytes = self.config.ctl_bytes;
        self.net.send_from_ctx(ctx, self.head, to, msg, bytes);
    }

    /// Arm the periodic poll. Under `poll_coalesce` this is a no-op
    /// while a poll timer is already pending, so the number of chains
    /// stays at one regardless of how many event-driven wake-ups occur.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(poll) = self.config.poll_interval {
            if !(self.config.poll_coalesce && self.poll_armed) {
                self.poll_armed = true;
                ctx.set_timer(poll, TOKEN_POLL);
            }
        }
    }

    fn start_iteration(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::AwaitSnapshot;
        self.query_token += 1;
        let (cached_token, refresh) = if self.config.incremental_snapshots && self.tracker.is_some()
        {
            (self.cached_token, self.touched.iter().copied().collect())
        } else {
            (None, Vec::new())
        };
        let req = ClusterQueryReq {
            token: self.query_token,
            reply: sched_addr(self.head),
            cached_token,
            refresh,
        };
        self.send_server(ctx, req);
    }

    fn item_cost(&self, item: &WorkItem) -> SimDuration {
        match item {
            WorkItem::Dyn(d) => {
                self.config.dyn_base_cost + self.config.dyn_per_acc_cost * d.count as u64
            }
            WorkItem::Job(_) => self.config.per_job_cost,
        }
    }

    fn handle_snapshot(&mut self, ctx: &mut Ctx<'_>, mut resp: ClusterQueryResp) {
        if self.phase != Phase::AwaitSnapshot || resp.token != self.query_token {
            return; // stale snapshot
        }
        resp.apply_running(&mut self.running);
        let delta = resp.delta;
        let mut snap = resp.snapshot;
        let now = ctx.now();
        self.fairshare.update(now, self.running.values());
        let queued = std::mem::take(&mut snap.queued);
        let ordered = order_queue(queued, now, &self.config.policy, &self.fairshare);
        let mut worklist: VecDeque<WorkItem> = VecDeque::new();
        if let Some(d) = snap.dyn_pending.clone() {
            if self.config.dyn_top_priority {
                worklist.push_back(WorkItem::Dyn(d));
                worklist.extend(ordered.into_iter().map(WorkItem::Job));
            } else {
                worklist.extend(ordered.into_iter().map(WorkItem::Job));
                worklist.push_back(WorkItem::Dyn(d));
            }
        } else {
            worklist.extend(ordered.into_iter().map(WorkItem::Job));
        }
        if delta {
            // The server only serves a delta when our `cached_token`
            // matched, so a retained tracker must exist; fall back to a
            // fresh full query if an unknown host appears (defensive —
            // nodes are never added mid-run today).
            let ok = match self.tracker.as_mut() {
                Some(t) => snap.nodes.iter().all(|n| t.apply(n)),
                None => false,
            };
            if !ok {
                self.tracker = None;
                self.cached_token = None;
                self.phase = Phase::Idle;
                self.start_iteration(ctx);
                return;
            }
        } else {
            self.tracker = Some(FreeTracker::from_snapshot(&snap));
        }
        self.cached_token = Some(resp.token);
        self.touched.clear();
        self.last_snapshot_active =
            !self.running.is_empty() || !worklist.is_empty() || snap.dyn_pending.is_some();
        self.iter_started.clear();
        self.shadow = None;
        self.blocked_no_backfill = false;
        self.worklist = worklist;
        self.phase = Phase::Busy;
        self.iter_began = Some(now);
        let metrics = ctx.metrics();
        metrics.observe("sched.queue_depth", self.worklist.len() as f64);
        let me = ctx.me();
        ctx.tracer().span_begin(now, TraceSource::Actor(me), "maui", "sched.iteration");
        self.arm_next(ctx, now + self.config.iteration_overhead);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::Busy {
            return;
        }
        if let Some(item) = self.worklist.pop_front() {
            self.process_item(ctx, item);
        }
        self.arm_next(ctx, ctx.now());
    }

    /// Walk the worklist from `from`, the instant the previous item (or
    /// the iteration overhead) finished, and arm `TOKEN_STEP` for the
    /// next item that acts, or for the iteration's end. A job that will
    /// not start is decided here at its would-be instant, `from` plus
    /// the item costs walked so far. Nothing outside this actor reads
    /// the shadow or the block before the next step fires, so deciding
    /// early changes no decision and no time.
    fn arm_next(&mut self, ctx: &mut Ctx<'_>, from: SimTime) {
        let now = ctx.now();
        let mut at = from;
        let mut walked = false;
        while let Some(item) = self.worklist.pop_front() {
            let due = at + self.item_cost(&item);
            let acts = match &item {
                WorkItem::Dyn(_) => true,
                WorkItem::Job(j) => match self.job_verdict(j, due) {
                    Verdict::Start => true,
                    Verdict::Reserve => {
                        self.reserve(j, due);
                        false
                    }
                    Verdict::Pass => false,
                },
            };
            if acts {
                self.worklist.push_front(item);
                ctx.set_timer(due - now, TOKEN_STEP);
                return;
            }
            at = due;
            walked = true;
        }
        if at == now && !walked {
            self.finish_iteration(ctx);
        } else {
            ctx.set_timer(at - now, TOKEN_STEP);
        }
    }

    /// What examining static job `j` at `at` does, given the decisions
    /// made so far this iteration.
    fn job_verdict(&self, j: &QueuedJobSnap, at: SimTime) -> Verdict {
        let tracker = self.tracker.as_ref().expect("tracker set with worklist");
        if self.blocked_no_backfill {
            return Verdict::Pass; // strict queue: head is blocked
        }
        if let Some(shadow) = self.shadow {
            if !may_backfill(j, tracker, shadow, at) {
                return Verdict::Pass;
            }
        }
        if tracker.fits(j) {
            Verdict::Start
        } else if self.shadow.is_none() {
            Verdict::Reserve
        } else {
            Verdict::Pass
        }
    }

    /// `j` is the first job this iteration that cannot start: reserve
    /// for it (EASY shadow at `at`) or block the strict queue.
    fn reserve(&mut self, j: &QueuedJobSnap, at: SimTime) {
        if self.config.backfill {
            let tracker = self.tracker.as_ref().expect("tracker set with worklist");
            let running = self.running.values().chain(&self.iter_started);
            self.shadow = shadow_time(j, tracker, running, at);
        } else {
            self.blocked_no_backfill = true;
        }
    }

    fn process_item(&mut self, ctx: &mut Ctx<'_>, item: WorkItem) {
        let now = ctx.now();
        // For slice requests only: every host the requesting job already
        // occupies (static allocation + earlier dyn sets). A mom keeps one
        // resource record per job, so a second concurrent grant on the
        // same host would be destroyed by the first DISJOIN — slice
        // placement must steer around the job's own footprint.
        let slice_exclude: Vec<HostId> = match &item {
            WorkItem::Dyn(d) if matches!(d.kind, DynResource::AcceleratorSlices { .. }) => self
                .running
                .get(&d.job)
                .into_iter()
                .chain(self.iter_started.iter())
                .filter(|r| r.job == d.job)
                .flat_map(|r| r.compute_hosts.iter().chain(r.acc_hosts.iter()).copied())
                .collect(),
            WorkItem::Dyn(_) | WorkItem::Job(_) => Vec::new(),
        };
        let tracker = self.tracker.as_mut().expect("tracker set with worklist");
        match item {
            WorkItem::Dyn(d) => {
                // Record how long this request waited behind other
                // scheduling work (decision started item_cost ago).
                let cost =
                    self.config.dyn_base_cost + self.config.dyn_per_acc_cost * d.count as u64;
                let decision_start = now - cost;
                let wait = decision_start.since(d.queued_at);
                // One `sched.dyn_wait` sample per request, recorded when
                // the decision *resolves* (grant or reject below, not on
                // a defer) and deduplicated by token: a resolved request
                // whose reply is still in flight can reappear in the
                // next snapshot and be processed again.
                let record_wait = |me: &mut Self, ctx: &mut Ctx<'_>, granted: bool| {
                    if me.last_dyn_recorded != Some(d.token) {
                        me.last_dyn_recorded = Some(d.token);
                        if let Some(rec) = &me.recorder {
                            rec.observe_duration("sched.dyn_wait", wait);
                        }
                        let metrics = ctx.metrics();
                        metrics.observe_duration("sched.dyn_wait", wait);
                        if granted {
                            // Grant-only wait: the scheduler-side half of
                            // the dynget→grant SLO the soak tracks.
                            metrics.observe_duration("sched.dyn_grant_wait", wait);
                        }
                    }
                };
                // Grant up to `count`, at least `min_count` (partial
                // grants; min_count == count restores the paper's strict
                // semantics).
                let granted = match d.kind {
                    DynResource::Accelerators { class } => {
                        let (max, min) = (d.count as usize, d.min_count as usize);
                        tracker.take_accelerators_upto(max, min, class)
                    }
                    DynResource::ComputeNodes { ppn } => {
                        tracker.take_compute(d.count as usize, ppn, self.config.allocation)
                    }
                    DynResource::AcceleratorSlices { class } => {
                        let free = tracker.free_slice_count(class, &slice_exclude);
                        let give = free.min(d.count as usize);
                        if give >= d.min_count.max(1) as usize {
                            Some(tracker.take_slices(give, class, &slice_exclude).expect("counted"))
                        } else {
                            None
                        }
                    }
                };
                match granted {
                    Some(accs) => {
                        if self.config.incremental_snapshots {
                            self.touched.extend(accs.iter().copied());
                        }
                        record_wait(self, ctx, true);
                        ctx.trace(format_args!(
                            "dyn request of {} granted {} of {} node(s)",
                            d.job,
                            accs.len(),
                            d.count
                        ));
                        self.send_server(ctx, RunDynCmd { token: d.token, accs });
                    }
                    None => {
                        let waited = now.since(d.queued_at);
                        match self.config.dyn_queue_wait {
                            Some(limit) if waited < limit => {
                                // Ablation of §III-E: keep the request
                                // queued and retry instead of rejecting.
                                ctx.trace(format_args!(
                                    "dyn request of {} still waiting ({waited})",
                                    d.job
                                ));
                                ctx.set_timer(self.config.dyn_retry, TOKEN_POLL);
                            }
                            _ => {
                                // The paper's policy: no reservations for
                                // dynamic requests; reject immediately.
                                record_wait(self, ctx, false);
                                ctx.trace(format_args!("dyn request of {} rejected", d.job));
                                self.send_server(ctx, RejectDynCmd { token: d.token });
                            }
                        }
                    }
                }
            }
            WorkItem::Job(j) => {
                // `arm_next` decided every other job inline.
                debug_assert_eq!(self.job_verdict(&j, now), Verdict::Start);
                self.start_job(ctx, j);
            }
        }
    }

    /// Start static job `j` now; [`Self::job_verdict`] said it fits.
    fn start_job(&mut self, ctx: &mut Ctx<'_>, j: QueuedJobSnap) {
        let now = ctx.now();
        if self.shadow.is_some() {
            // Started under a shadow reservation: a backfill.
            ctx.metrics().counter_inc("sched.backfill_hits");
        }
        let tracker = self.tracker.as_mut().expect("tracker set with worklist");
        let compute =
            tracker.take_compute(j.nodes, j.ppn, self.config.allocation).expect("fits() checked");
        let total_accs = j.nodes * j.acpn as usize;
        let flat = tracker.take_accelerators(total_accs).expect("fits() checked");
        if self.config.incremental_snapshots {
            self.touched.extend(compute.iter().copied());
            self.touched.extend(flat.iter().copied());
        }
        let accs = split_accs(&flat, j.nodes, j.acpn);
        ctx.trace(format_args!("starting {} on {} node(s)", j.job, compute.len()));
        self.iter_started.push(RunningJobSnap {
            job: j.job,
            owner: j.owner.clone(),
            started: now,
            walltime_estimate: j.walltime_estimate,
            compute_hosts: compute.clone(),
            ppn: j.ppn,
            acc_hosts: flat.clone(),
        });
        self.send_server(ctx, RunJobCmd { job: j.job, compute, accs });
    }

    fn finish_iteration(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Idle;
        if !self.config.incremental_snapshots {
            self.tracker = None;
        }
        self.iterations += 1;
        let now = ctx.now();
        let metrics = ctx.metrics();
        metrics.counter_inc("sched.iterations");
        if let Some(began) = self.iter_began.take() {
            metrics.observe_duration("sched.iteration_cost", now.since(began));
        }
        let me = ctx.me();
        ctx.tracer().span_end(now, TraceSource::Actor(me), "maui", "sched.iteration");
        if self.dirty {
            self.dirty = false;
            self.start_iteration(ctx);
        } else if self.last_snapshot_active {
            self.arm_poll(ctx);
        }
    }
}

impl Actor for MauiScheduler {
    fn name(&self) -> &str {
        "maui"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_poll(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let env = match env.downcast::<SchedWake>() {
            Ok(_) => {
                match self.phase {
                    Phase::Idle => self.start_iteration(ctx),
                    _ => self.dirty = true,
                }
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<ClusterQueryResp>() {
            Ok(m) => return self.handle_snapshot(ctx, m),
            Err(e) => e,
        };
        ctx.trace(format_args!("maui: unhandled message {env:?}"));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_STEP => self.step(ctx),
            TOKEN_POLL => {
                self.poll_armed = false;
                if self.phase == Phase::Idle {
                    self.start_iteration(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use darms_net::{HostKind, LatencyModel};
    use darms_rms::proto::{ClusterSnapshot, NodeSnap};
    use darms_rms::NodeRole;
    use darms_sim::{Endpoint, Engine};
    use parking_lot::Mutex;

    use super::*;

    /// A server stand-in: wakes the scheduler once, answers its query
    /// with `snap`, and logs every `RunJobCmd` with its arrival time.
    struct FakeServer {
        net: Network,
        head: HostId,
        snap: ClusterSnapshot,
        started: Arc<Mutex<Vec<(JobId, SimTime)>>>,
    }

    impl Actor for FakeServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.net.send_from_ctx(ctx, self.head, sched_addr(self.head), SchedWake, 0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            let env = match env.downcast::<ClusterQueryReq>() {
                Ok(req) => {
                    let resp = ClusterQueryResp {
                        token: req.token,
                        snapshot: self.snap.clone(),
                        delta: false,
                        running_gone: Vec::new(),
                    };
                    self.net.send_from_ctx(ctx, self.head, req.reply, resp, 0);
                    return;
                }
                Err(e) => e,
            };
            let cmd = env.downcast::<RunJobCmd>().expect("only queries and starts");
            self.started.lock().push((cmd.job, ctx.now()));
        }
    }

    fn queued(id: u64, nodes: usize, wall_s: u64) -> QueuedJobSnap {
        QueuedJobSnap {
            job: JobId(id),
            owner: "u".into(),
            submitted: SimTime::from_nanos(id),
            nodes,
            ppn: 8,
            acpn: 0,
            walltime_estimate: SimDuration::from_secs(wall_s),
        }
    }

    /// Four 8-core nodes, two held by a job ending at 100 s. The queue:
    /// a 4-node head job (blocked; shadow at 100 s), then `wide` 3-node
    /// jobs that never fit, with two short 1-node jobs among them that
    /// backfill. One iteration must arm a timer for each start plus one
    /// for its end (not one per job), and start the two backfills and
    /// end exactly when a step per job would have.
    #[test]
    fn an_iteration_arms_a_timer_per_start_plus_its_end() {
        let wide = 20u64;
        let mut sim = Engine::with_seed(1);
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let compute: Vec<HostId> =
            (0..4).map(|i| net.add_host(format!("cn{i}"), HostKind::Compute)).collect();
        let nodes = compute
            .iter()
            .enumerate()
            .map(|(i, &host)| NodeSnap {
                host,
                role: NodeRole::Compute,
                class: Default::default(),
                cores_total: 8,
                cores_free: if i < 2 { 0 } else { 8 },
                offline: false,
            })
            .collect();
        let running = vec![RunningJobSnap {
            job: JobId(100),
            owner: "u".into(),
            started: SimTime::ZERO,
            walltime_estimate: SimDuration::from_secs(100),
            compute_hosts: compute[..2].to_vec(),
            ppn: 8,
            acc_hosts: Vec::new(),
        }];
        // Positions 0 (head), 6 and 13 (backfills); the rest are wide.
        let mut queue = vec![queued(1, 4, 50)];
        let backfill_at = [6u64, 13];
        for pos in 1..wide + 3 {
            let nodes = if backfill_at.contains(&pos) { 1 } else { 3 };
            let wall = if nodes == 1 { 10 } else { 50 };
            queue.push(queued(pos + 1, nodes, wall));
        }
        let snap = ClusterSnapshot { nodes, queued: queue, running, dyn_pending: None };
        let started = Arc::new(Mutex::new(Vec::new()));
        let server = FakeServer { net: net.clone(), head, snap, started: started.clone() };
        let server_id = sim.add_actor(Box::new(server));
        net.bind(server_addr(head), Endpoint::Actor(server_id));
        let config = SchedConfig {
            policy: Policy::Fifo,
            poll_interval: None,
            ctl_bytes: 0,
            ..SchedConfig::paper_testbed()
        };
        let (per_job, overhead) = (config.per_job_cost, config.iteration_overhead);
        let sched_id = sim.add_actor(Box::new(MauiScheduler::new(net.clone(), head, config)));
        net.bind(sched_addr(head), Endpoint::Actor(sched_id));
        let stats = sim.run();

        // Wake, query and snapshot each take one local hop.
        let hop = LatencyModel::ideal().base_local;
        let began = SimTime::ZERO + hop * 3;
        let step = |pos: u64| began + overhead + per_job * (pos + 1);
        let expected: Vec<(JobId, SimTime)> =
            backfill_at.iter().map(|&pos| (JobId(pos + 1), step(pos) + hop)).collect();
        assert_eq!(*started.lock(), expected);
        assert_eq!(stats.end_time, step(wide + 2), "the iteration ends after its last job");
        // Five messages (wake, query, snapshot, two starts) and three
        // timers; a step per job would have taken 23 timers.
        assert_eq!(stats.events, 5 + backfill_at.len() as u64 + 1);
    }
}
