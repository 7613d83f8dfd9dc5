//! Wire protocol of the batch system: client ⇄ server (IFL), server ⇄
//! scheduler, and server ⇄ mom traffic, including the paper's extensions
//! (`pbs_dynget`/`pbs_dynfree`, `DYNJOIN_JOB`, `DISJOIN_JOB`).

use std::collections::BTreeMap;
use std::sync::Arc;

use darms_net::{Address, HostId};
use darms_sim::{SimDuration, SimTime};

use crate::job::{ClientId, DynSet, JobId, JobSpec, JobStatus};
use crate::nodes::NodeRole;

// ---------------------------------------------------------------------
// Client (IFL) -> server
// ---------------------------------------------------------------------

/// `qsub`: submit a job.
#[derive(Clone)]
pub struct QsubReq {
    /// Correlation token chosen by the client.
    pub token: u64,
    /// The job specification.
    pub spec: JobSpec,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Response to [`QsubReq`].
#[derive(Clone)]
pub struct QsubResp {
    /// Echoed token.
    pub token: u64,
    /// The assigned job id.
    pub job: JobId,
}

/// `qstat`: query all job statuses.
#[derive(Clone)]
pub struct QstatReq {
    /// Correlation token.
    pub token: u64,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Response to [`QstatReq`].
#[derive(Clone)]
pub struct QstatResp {
    /// Echoed token.
    pub token: u64,
    /// Status of every known job.
    pub jobs: Vec<JobStatus>,
}

/// `qhold` / `qrls`: hold a queued job (hide it from the scheduler) or
/// release a held one back into the queue.
#[derive(Clone)]
pub struct QholdReq {
    /// Correlation token.
    pub token: u64,
    /// The job to hold or release.
    pub job: JobId,
    /// True = hold, false = release.
    pub hold: bool,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Response to [`QholdReq`].
#[derive(Clone)]
pub struct QholdResp {
    /// Echoed token.
    pub token: u64,
    /// False if the job was unknown or not in a holdable/releasable state.
    pub ok: bool,
}

/// `qdel`: cancel a job.
#[derive(Clone)]
pub struct QdelReq {
    /// Correlation token.
    pub token: u64,
    /// Job to cancel.
    pub job: JobId,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Response to [`QdelReq`].
#[derive(Clone)]
pub struct QdelResp {
    /// Echoed token.
    pub token: u64,
    /// False if the job was unknown or already complete.
    pub ok: bool,
}

/// Class of accelerator device behind the DAC fabric. The paper's
/// testbed had a single class; the heterogeneous-fabric extension keeps
/// several behind one `Backend` abstraction (DESIGN.md §15).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum DeviceClass {
    /// Few devices, large memory, unicast transfers (the paper's case).
    #[default]
    GpuLike,
    /// Many small devices grouped into ranks; broadcast/scatter-gather
    /// transfers with a multicast-aware cost model.
    DpuRankLike,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceClass::GpuLike => write!(f, "gpu-like"),
            DeviceClass::DpuRankLike => write!(f, "dpu-rank-like"),
        }
    }
}

/// Which resource a dynamic request asks for. The paper's mechanism is
/// accelerator-specific; `ComputeNodes` generalises it to malleable jobs
/// ("with little extensions ... any malleable application could be
/// supported", §V) using the same DYNJOIN/DISJOIN machinery, and
/// `AcceleratorSlices` extends it to fractional devices (memory quota +
/// dispatch-queue weight) so several jobs share one physical accelerator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DynResource {
    /// Whole network-attached accelerators (the paper's case).
    Accelerators {
        /// Required device class.
        class: DeviceClass,
    },
    /// Whole compute-node core slices for malleable applications.
    ComputeNodes {
        /// Cores per granted node.
        ppn: u32,
    },
    /// Isolated slices of (possibly shared) accelerator devices.
    AcceleratorSlices {
        /// Required device class.
        class: DeviceClass,
    },
}

/// `pbs_dynget`: request `count` additional accelerators for a running
/// job (the paper's IFL extension, §III-B). Blocks the caller until the
/// server responds.
#[derive(Clone)]
pub struct DynGetReq {
    /// Correlation token.
    pub token: u64,
    /// The requesting job.
    pub job: JobId,
    /// The compute node issuing the request.
    pub cn: HostId,
    /// Number of accelerators requested.
    pub count: u32,
    /// Smallest acceptable grant (== `count` for the paper's strict
    /// all-or-nothing semantics; smaller values enable the partial-grant
    /// policy the paper names as future work, §VI).
    pub min_count: u32,
    /// Resource kind requested.
    pub kind: DynResource,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Why a dynamic request failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DynReject {
    /// Not enough free accelerators; the application continues with its
    /// current set (the paper's immediate-reject semantics, §III-E).
    Unavailable,
    /// The job is unknown or not running.
    BadJob,
    /// The retry budget was exhausted without a definitive answer from
    /// the server (only produced when a [`darms_net::RetryPolicy`] is
    /// active). The request may still be serviced server-side; the
    /// server's per-job purge on termination reclaims it.
    Timeout,
}

impl std::fmt::Display for DynReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynReject::Unavailable => write!(f, "not enough free accelerators"),
            DynReject::BadJob => write!(f, "job unknown or not running"),
            DynReject::Timeout => write!(f, "retry budget exhausted without an answer"),
        }
    }
}

/// Successful dynamic allocation.
#[derive(Clone, Debug)]
pub struct DynGrant {
    /// Handle identifying this accelerator set for later release.
    pub client_id: ClientId,
    /// The granted accelerator hosts.
    pub accs: Vec<HostId>,
    /// Granted slice ids, parallel to `accs` (empty for whole-device and
    /// compute-node grants).
    pub slices: Vec<u32>,
}

/// Response to [`DynGetReq`].
#[derive(Clone)]
pub struct DynGetResp {
    /// Echoed token.
    pub token: u64,
    /// The grant, or the rejection reason.
    pub result: Result<DynGrant, DynReject>,
}

/// `pbs_dynfree`: release a dynamically allocated set.
#[derive(Clone)]
pub struct DynFreeReq {
    /// Correlation token.
    pub token: u64,
    /// The owning job.
    pub job: JobId,
    /// The set to release.
    pub client_id: ClientId,
    /// Where to deliver the response.
    pub reply: Address,
}

/// Response to [`DynFreeReq`]. Positive as soon as the server accepts the
/// release; disassociation continues in the background (§III-D).
#[derive(Clone)]
pub struct DynFreeResp {
    /// Echoed token.
    pub token: u64,
    /// False if the job/set was unknown.
    pub ok: bool,
}

// ---------------------------------------------------------------------
// Server <-> scheduler
// ---------------------------------------------------------------------

/// Server -> scheduler: the queue or resource state changed.
#[derive(Clone)]
pub struct SchedWake;

/// Scheduler -> server: request a cluster snapshot.
#[derive(Clone)]
pub struct ClusterQueryReq {
    /// Correlation token.
    pub token: u64,
    /// Where to deliver the snapshot.
    pub reply: Address,
    /// Token of the last response this client applied, if it holds a
    /// node and running-job cache. When it matches the last response the
    /// server actually served, the server may answer with a *delta*
    /// (changed nodes and running jobs only) instead of the full lists;
    /// any mismatch (lost response, restarted client) falls back to a
    /// full snapshot.
    pub cached_token: Option<u64>,
    /// Hosts the client wants restated verbatim in a delta response
    /// even if the server did not change them — the scheduler lists
    /// nodes it mutated speculatively since the last snapshot, so a
    /// grant the server rejected cannot leave its cache stale.
    pub refresh: Vec<HostId>,
}

/// One node as seen by the scheduler.
#[derive(Clone, Copy, Debug)]
pub struct NodeSnap {
    /// Host.
    pub host: HostId,
    /// Role.
    pub role: NodeRole,
    /// Device class (meaningful for accelerator nodes; compute nodes
    /// report the default).
    pub class: DeviceClass,
    /// Total cores. For a sliced accelerator this is the slice count.
    pub cores_total: u32,
    /// Free cores (free slices for a sliced accelerator).
    pub cores_free: u32,
    /// Offline flag.
    pub offline: bool,
}

/// One queued job as seen by the scheduler.
#[derive(Clone, Debug)]
pub struct QueuedJobSnap {
    /// Job id.
    pub job: JobId,
    /// Owner (fairshare key): the server keeps one handle per owner
    /// name, so a snapshot clones a handle instead of a `String`.
    pub owner: Arc<str>,
    /// Submission time (queue-time priority).
    pub submitted: SimTime,
    /// Compute nodes requested.
    pub nodes: usize,
    /// Cores per node requested.
    pub ppn: u32,
    /// Accelerators per node requested.
    pub acpn: u32,
    /// Walltime estimate (backfill).
    pub walltime_estimate: SimDuration,
}

/// One running job as seen by the scheduler (fairshare and backfill).
#[derive(Clone, Debug, PartialEq)]
pub struct RunningJobSnap {
    /// Job id.
    pub job: JobId,
    /// Owner (the same handle as [`QueuedJobSnap::owner`]).
    pub owner: Arc<str>,
    /// Start time.
    pub started: SimTime,
    /// Walltime estimate.
    pub walltime_estimate: SimDuration,
    /// Compute hosts held.
    pub compute_hosts: Vec<HostId>,
    /// Cores per node held.
    pub ppn: u32,
    /// Accelerator hosts held (static and dynamic), for backfill shadow
    /// computation.
    pub acc_hosts: Vec<HostId>,
}

/// The (single) dynamic request currently exposed to the scheduler. The
/// server services dynamic requests serially (the effect measured in the
/// paper's Fig. 9), so at most one is visible at a time.
#[derive(Clone, Debug)]
pub struct DynPendingSnap {
    /// Server-side token identifying this request.
    pub token: u64,
    /// The requesting job.
    pub job: JobId,
    /// The compute node that asked.
    pub cn: HostId,
    /// Accelerators requested.
    pub count: u32,
    /// Smallest acceptable grant.
    pub min_count: u32,
    /// Resource kind requested.
    pub kind: DynResource,
    /// When the request entered the dynqueued state.
    pub queued_at: SimTime,
}

/// Snapshot of everything the scheduler needs for one iteration.
#[derive(Clone, Debug, Default)]
pub struct ClusterSnapshot {
    /// Node states.
    pub nodes: Vec<NodeSnap>,
    /// Jobs waiting for initial allocation, submission order.
    pub queued: Vec<QueuedJobSnap>,
    /// Running jobs, in job-id order.
    pub running: Vec<RunningJobSnap>,
    /// The dynamic request awaiting scheduling, if any.
    pub dyn_pending: Option<DynPendingSnap>,
}

impl ClusterSnapshot {
    /// Blank snapshot (used by `Default` scheduler tests).
    pub fn empty() -> Self {
        Self::default()
    }
}

/// Response to [`ClusterQueryReq`].
#[derive(Clone)]
pub struct ClusterQueryResp {
    /// Echoed token.
    pub token: u64,
    /// The snapshot.
    pub snapshot: ClusterSnapshot,
    /// When `true`, the response is a delta against the one named by the
    /// request's `cached_token`: `snapshot.nodes` holds only the nodes
    /// that changed since then (plus any requested refreshes),
    /// `snapshot.running` only the running jobs whose entry changed, and
    /// `running_gone` the jobs that stopped running. The client patches
    /// its caches instead of rebuilding. `queued` and `dyn_pending` are
    /// always full.
    pub delta: bool,
    /// Jobs that left the running list since the cached response (always
    /// empty in a full response).
    pub running_gone: Vec<JobId>,
}

impl ClusterQueryResp {
    /// Bring a client's running-job map up to date: a full response
    /// replaces it, a delta patches it. Drains `snapshot.running` and
    /// `running_gone`.
    pub fn apply_running(&mut self, running: &mut BTreeMap<JobId, RunningJobSnap>) {
        if !self.delta {
            running.clear();
        }
        for job in self.running_gone.drain(..) {
            running.remove(&job);
        }
        running.extend(self.snapshot.running.drain(..).map(|r| (r.job, r)));
    }
}

/// Scheduler -> server: start a queued job on these resources.
#[derive(Clone)]
pub struct RunJobCmd {
    /// The job to start.
    pub job: JobId,
    /// Compute hosts, one per requested node; index 0 becomes the mother
    /// superior.
    pub compute: Vec<HostId>,
    /// Static accelerators, one set per compute host (same indexing).
    pub accs: Vec<Vec<HostId>>,
}

/// Scheduler -> server: satisfy the exposed dynamic request.
#[derive(Clone)]
pub struct RunDynCmd {
    /// Echo of [`DynPendingSnap::token`].
    pub token: u64,
    /// Granted accelerator hosts.
    pub accs: Vec<HostId>,
}

/// Scheduler -> server: reject the exposed dynamic request.
#[derive(Clone)]
pub struct RejectDynCmd {
    /// Echo of [`DynPendingSnap::token`].
    pub token: u64,
}

// ---------------------------------------------------------------------
// Server <-> mom
// ---------------------------------------------------------------------

/// Everything a mom needs to run (its part of) a job. One per started
/// incarnation: the mother superior and every sister share it through
/// an `Arc`.
#[derive(Clone)]
pub struct JobLaunch {
    /// Job id.
    pub job: JobId,
    /// Server-side incarnation of the job: bumped every time the job is
    /// (re)started, so moms of a previous incarnation (e.g. a requeued
    /// job after a node outage) cannot complete the current one.
    pub incarnation: u32,
    /// The spec (script, runtime, owner...).
    pub spec: JobSpec,
    /// Compute hosts; index 0 is the mother superior.
    pub compute: Vec<HostId>,
    /// Static accelerator hosts per compute node.
    pub accs: Vec<Vec<HostId>>,
}

/// Server -> mother superior: run this job.
#[derive(Clone)]
pub struct SendJob {
    /// Launch information.
    pub launch: Arc<JobLaunch>,
}

/// The three exchanges between the mother superior and its sister moms.
/// Each fans a [`SisterReq`] out to a set of hosts and completes once
/// every host has answered with a [`SisterAck`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SisterOp {
    /// `JOIN_JOB`: a static sister joins at job start.
    Join,
    /// `DYNJOIN_JOB`: a dynamically allocated host joins the running job.
    DynJoin,
    /// `DISJOIN_JOB`: a released host leaves the job.
    Disjoin,
}

/// Mother superior -> sister mom: one exchange request.
#[derive(Clone)]
pub struct SisterReq {
    /// The job.
    pub job: JobId,
    /// The exchange.
    pub op: SisterOp,
    /// Launch information for `Join` and `DynJoin` (sisters keep the full
    /// picture, as in TORQUE, through the mother superior's handle);
    /// `None` for `Disjoin`.
    pub launch: Option<Arc<JobLaunch>>,
    /// Where to acknowledge.
    pub reply: Address,
}

/// Sister mom -> mother superior: request done (joined, or disassociated
/// with local tasks killed and resources free).
#[derive(Clone)]
pub struct SisterAck {
    /// The job.
    pub job: JobId,
    /// The acknowledging host.
    pub host: HostId,
    /// Echo of [`SisterReq::op`].
    pub op: SisterOp,
}

/// Mother superior -> server: job script started.
#[derive(Clone)]
pub struct JobStarted {
    /// The job.
    pub job: JobId,
    /// The reporting mother superior.
    pub from: HostId,
    /// Echo of [`JobLaunch::incarnation`]; stale incarnations are ignored.
    pub incarnation: u32,
}

/// Server -> mother superior: associate dynamically allocated
/// accelerators with the job (triggers `DYNJOIN_JOB`s).
#[derive(Clone)]
pub struct DynJoinCmd {
    /// The job.
    pub job: JobId,
    /// Server token of the dynamic request (echoed in [`DynReady`]).
    pub token: u64,
    /// The new accelerator hosts.
    pub accs: Vec<HostId>,
}

/// Mother superior -> existing sisters: the job's resource set changed
/// (additions or removals); keep your database current (§III-D).
#[derive(Clone)]
pub struct UpdateJobRes {
    /// The job.
    pub job: JobId,
    /// Hosts added to the job.
    pub added: Vec<HostId>,
    /// Hosts removed from the job.
    pub removed: Vec<HostId>,
}

/// Mother superior -> server: the dynamic set has joined; the client can
/// be answered.
#[derive(Clone)]
pub struct DynReady {
    /// The job.
    pub job: JobId,
    /// Echo of [`DynJoinCmd::token`].
    pub token: u64,
}

/// Server -> mother superior: disassociate a dynamic set
/// (triggers `DISJOIN_JOB`s).
#[derive(Clone)]
pub struct DisjoinCmd {
    /// The job.
    pub job: JobId,
    /// The set being released.
    pub client_id: ClientId,
    /// The hosts to disassociate.
    pub accs: Vec<HostId>,
    /// Slice ids held per host, parallel to `accs` (empty = whole
    /// devices). Echoed back in the mom's [`FreeDone`] set.
    pub slices: Vec<u32>,
    /// Cores held per host (0 = exclusive accelerator node).
    pub ppn: u32,
}

/// Mother superior -> server: a dynamic set has been fully released.
#[derive(Clone)]
pub struct FreeDone {
    /// The job.
    pub job: JobId,
    /// The released set (server frees its nodes now).
    pub set: DynSet,
}

/// Application task -> mother superior: this compute node's part of the
/// script finished.
#[derive(Clone)]
pub struct TaskDone {
    /// The job.
    pub job: JobId,
    /// Which compute node finished (index into `compute`).
    pub node_index: usize,
}

/// Mother superior -> application task: [`TaskDone`] received — stop
/// retransmitting. Only sent when a retry policy is active.
#[derive(Clone)]
pub struct TaskDoneAck {
    /// The job.
    pub job: JobId,
    /// Echo of [`TaskDone::node_index`].
    pub node_index: usize,
}

/// Mother superior -> server: the whole job script finished.
#[derive(Clone)]
pub struct JobExit {
    /// The job.
    pub job: JobId,
    /// The reporting mother superior (the server acks back to it when a
    /// retry policy is active).
    pub from: HostId,
    /// Echo of [`JobLaunch::incarnation`]; stale incarnations are ignored.
    pub incarnation: u32,
    /// True if the batch system killed the job for exceeding its
    /// walltime estimate (TORQUE's walltime enforcement).
    pub timed_out: bool,
}

/// Server -> mother superior: [`JobExit`] received — stop retransmitting.
/// Only sent when a retry policy is active.
#[derive(Clone)]
pub struct JobExitAck {
    /// The job.
    pub job: JobId,
}

/// Server/mother superior -> mom: tear the job down (job end or qdel).
#[derive(Clone)]
pub struct CleanupJob {
    /// The job.
    pub job: JobId,
    /// The incarnation being torn down. A mom running a **newer**
    /// incarnation ignores the cleanup: under reordering, a reclaim-time
    /// cleanup for a dead incarnation must not kill its relaunched
    /// successor.
    pub incarnation: u32,
}

/// Mom -> application task process: the job was cancelled; finish up.
/// Delivery is cooperative — tasks observe it via
/// [`JobCtx::killed`](crate::mom::JobCtx::killed) or
/// [`JobCtx::sleep_interruptible`](crate::mom::JobCtx::sleep_interruptible).
#[derive(Clone)]
pub struct TaskKill {
    /// The cancelled job.
    pub job: JobId,
}

/// Admin / health monitor -> server: mark a node offline (failed or
/// drained) or back online. Offline nodes are hidden from the scheduler.
#[derive(Clone)]
pub struct SetNodeOffline {
    /// The node.
    pub host: HostId,
    /// True = offline.
    pub offline: bool,
}

/// Health monitor -> mom: liveness probe.
#[derive(Clone)]
pub struct MomPing {
    /// Probe sequence number.
    pub seq: u64,
    /// Where to reply.
    pub reply: Address,
}

/// Mom -> health monitor: liveness reply.
#[derive(Clone)]
pub struct MomPong {
    /// Echoed sequence number.
    pub seq: u64,
    /// The replying host.
    pub host: HostId,
}
