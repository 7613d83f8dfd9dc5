//! Job model: specifications, states, and dynamic-request bookkeeping.

use std::fmt;
use std::sync::Arc;

use darms_net::HostId;
use darms_sim::{SimDuration, SimTime};

/// Server-assigned job identifier (the `PBS_JOBID`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifier of one dynamically allocated accelerator *set*; returned by
/// `pbs_dynget` and passed to `pbs_dynfree` (the paper's "client-id").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Lifecycle of a job as tracked by the server.
///
/// `DynQueued` is the paper's extension: the job is *running* but has a
/// dynamic request waiting for the scheduler (§III-E).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Waiting for initial resources.
    Queued,
    /// Held by the user (`qhold`); invisible to the scheduler until
    /// released with `qrls`.
    Held,
    /// Running normally.
    Running,
    /// Running, with a pending dynamic request (special queue state).
    DynQueued,
    /// Finished and resources released.
    Complete,
    /// Cancelled before or during execution.
    Cancelled,
    /// Killed by the batch system for exceeding its walltime estimate.
    TimedOut,
}

impl JobState {
    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Complete | JobState::Cancelled | JobState::TimedOut)
    }
}

/// The application: one async closure instance runs per allocated compute
/// node, owning that node's execution context ([`crate::mom::JobCtx`]).
/// The task epilogue (completion reporting) runs after the body returns.
pub type JobScript = Arc<dyn Fn(crate::mom::JobCtx) -> darms_sim::ProcFuture + Send + Sync>;

/// Convenience constructor for a [`JobScript`]:
/// `script(|mut jc| async move { … })`.
pub fn script<F, Fut>(f: F) -> JobScript
where
    F: Fn(crate::mom::JobCtx) -> Fut + Send + Sync + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    Arc::new(move |jc| Box::pin(f(jc)))
}

/// What a user submits with `qsub`.
#[derive(Clone)]
pub struct JobSpec {
    /// Job name (for traces).
    pub name: String,
    /// Submitting user (drives fairshare).
    pub owner: String,
    /// Number of compute nodes (`-l nodes=k`).
    pub nodes: usize,
    /// Cores per compute node (`:ppn=q`).
    pub ppn: u32,
    /// Network-attached accelerators per compute node (`:acpn=x`, the
    /// paper's extension).
    pub acpn: u32,
    /// User-estimated walltime (drives backfill).
    pub walltime_estimate: SimDuration,
    /// Synthetic run time used when no script is given: the default
    /// script sleeps this long on every compute node, then exits.
    pub runtime: SimDuration,
    /// The application; `None` uses the default synthetic script.
    pub script: Option<JobScript>,
}

impl JobSpec {
    /// A minimal spec: one node, one core, no accelerators, the given
    /// synthetic runtime.
    pub fn synthetic(name: impl Into<String>, runtime: SimDuration) -> Self {
        JobSpec {
            name: name.into(),
            owner: "user".into(),
            nodes: 1,
            ppn: 1,
            acpn: 0,
            walltime_estimate: runtime * 2,
            runtime,
            script: None,
        }
    }

    /// Builder: set the owner.
    pub fn owner(mut self, owner: impl Into<String>) -> Self {
        self.owner = owner.into();
        self
    }

    /// Builder: request `k` compute nodes.
    pub fn nodes(mut self, k: usize) -> Self {
        self.nodes = k.max(1);
        self
    }

    /// Builder: request `q` cores per node.
    pub fn ppn(mut self, q: u32) -> Self {
        self.ppn = q.max(1);
        self
    }

    /// Builder: request `x` network-attached accelerators per node.
    pub fn acpn(mut self, x: u32) -> Self {
        self.acpn = x;
        self
    }

    /// Builder: set the walltime estimate.
    pub fn walltime(mut self, w: SimDuration) -> Self {
        self.walltime_estimate = w;
        self
    }

    /// Builder: set the script.
    pub fn script(mut self, s: JobScript) -> Self {
        self.script = Some(s);
        self
    }

    /// Total accelerator nodes this job needs at start.
    pub fn total_accs(&self) -> usize {
        self.nodes * self.acpn as usize
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("owner", &self.owner)
            .field("nodes", &self.nodes)
            .field("ppn", &self.ppn)
            .field("acpn", &self.acpn)
            .field("walltime_estimate", &self.walltime_estimate)
            .field("runtime", &self.runtime)
            .field("script", &self.script.as_ref().map(|_| "<closure>"))
            .finish()
    }
}

/// One dynamically allocated resource set attached to a running job
/// (accelerators in the paper's case; compute nodes for malleable jobs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynSet {
    /// The set handle returned to the application.
    pub client_id: ClientId,
    /// The compute node that requested it.
    pub cn: HostId,
    /// The granted hosts.
    pub accs: Vec<HostId>,
    /// Slice ids held per granted host, parallel to `accs` (empty =
    /// whole devices).
    pub slices: Vec<u32>,
    /// Cores held per granted host (0 = exclusive accelerator node).
    pub ppn: u32,
}

/// Public job status (what `qstat` reports).
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Owner.
    pub owner: String,
    /// Current state.
    pub state: JobState,
    /// Submission time.
    pub submitted: SimTime,
    /// Start time, if started.
    pub started: Option<SimTime>,
    /// Completion time, if finished.
    pub completed: Option<SimTime>,
    /// Allocated compute hosts (empty while queued).
    pub compute_hosts: Vec<HostId>,
    /// Statically allocated accelerators, per compute node.
    pub static_accs: Vec<Vec<HostId>>,
    /// Live dynamically allocated sets.
    pub dyn_sets: Vec<DynSet>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let s = JobSpec::synthetic("j", SimDuration::from_secs(10))
            .owner("alice")
            .nodes(3)
            .ppn(4)
            .acpn(2)
            .walltime(SimDuration::from_secs(60));
        assert_eq!(s.owner, "alice");
        assert_eq!(s.nodes, 3);
        assert_eq!(s.ppn, 4);
        assert_eq!(s.acpn, 2);
        assert_eq!(s.total_accs(), 6);
        assert_eq!(s.walltime_estimate, SimDuration::from_secs(60));
    }

    #[test]
    fn nodes_and_ppn_clamp_to_one() {
        let s = JobSpec::synthetic("j", SimDuration::from_secs(1)).nodes(0).ppn(0);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.ppn, 1);
    }

    #[test]
    fn ids_display() {
        assert_eq!(JobId(3).to_string(), "job3");
        assert_eq!(ClientId(4).to_string(), "client4");
    }
}
