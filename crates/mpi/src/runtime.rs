//! Shared runtime state: communicator registry, ports, executables.
//!
//! The registry is shared memory (guarded by a mutex), but every *blocking*
//! semantic — collectives completing, `MPI_Comm_spawn` returning only after
//! children initialise, port rendezvous — is realised with real messages
//! over the simulated network so that the timing the paper measures is
//! modelled faithfully.

use std::collections::BTreeMap;
use std::sync::Arc;

use darms_net::{Address, Network};
use parking_lot::Mutex;

use crate::cost::MpiCostModel;
use crate::proc::MpiProc;
use crate::types::{Comm, CommId, Data, Member, MpiError, Rank, Tag, GROUP_A, GROUP_B};

/// Registered executable: entry point for spawned MPI processes. The
/// entry builds the process body future; the factory itself is `Send +
/// Sync` (it lives in the shared registry) but the future it returns
/// runs on the engine's single-threaded executor and need not be.
pub type Exe = Arc<dyn Fn(MpiProc, Vec<String>) -> darms_sim::ProcFuture + Send + Sync>;

/// A communicator's membership.
#[derive(Clone, Debug)]
pub(crate) enum CommKind {
    /// Single group.
    Intra(Vec<Member>),
    /// Two groups (result of accept/connect or spawn).
    Inter { a: Vec<Member>, b: Vec<Member> },
}

pub(crate) struct RtState {
    next_comm: u64,
    next_token: u64,
    next_port: u64,
    pub(crate) comms: BTreeMap<CommId, CommKind>,
    /// Live member count per comm (drops to zero => comm removed).
    pub(crate) attached: BTreeMap<CommId, usize>,
    pub(crate) ports: BTreeMap<String, Address>,
    pub(crate) exes: BTreeMap<String, Exe>,
}

/// Cloneable handle to the MPI-like runtime.
#[derive(Clone)]
pub struct MpiRuntime {
    pub(crate) net: Network,
    pub(crate) cost: MpiCostModel,
    pub(crate) state: Arc<Mutex<RtState>>,
}

impl MpiRuntime {
    /// Create a runtime over the given network.
    pub fn new(net: Network, cost: MpiCostModel) -> Self {
        MpiRuntime {
            net,
            cost,
            state: Arc::new(Mutex::new(RtState {
                next_comm: 1,
                next_token: 1,
                next_port: 1,
                comms: BTreeMap::new(),
                attached: BTreeMap::new(),
                ports: BTreeMap::new(),
                exes: BTreeMap::new(),
            })),
        }
    }

    /// The runtime's cost model.
    pub fn cost(&self) -> &MpiCostModel {
        &self.cost
    }

    /// A weak reference to the shared runtime state (communicators,
    /// ports, executables), for leak checks: it is dead once every
    /// handle and process of this runtime is dropped.
    pub fn state_weak(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.state)
    }

    /// Register an executable for [`comm_spawn`](crate::MpiProc::comm_spawn)
    /// and [`launch_world`](crate::launch_world). The body is an async
    /// closure: `|mpi, args| async move { … }`.
    pub fn register_exe<F, Fut>(&self, name: impl Into<String>, f: F)
    where
        F: Fn(MpiProc, Vec<String>) -> Fut + Send + Sync + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        self.state.lock().exes.insert(name.into(), Arc::new(move |p, args| Box::pin(f(p, args))));
    }

    /// Look up a registered executable.
    pub(crate) fn exe(&self, name: &str) -> Result<Exe, MpiError> {
        self.state
            .lock()
            .exes
            .get(name)
            .cloned()
            .ok_or_else(|| MpiError::NoSuchExecutable(name.to_string()))
    }

    pub(crate) fn fresh_comm_id(&self) -> CommId {
        let mut s = self.state.lock();
        let id = CommId(s.next_comm);
        s.next_comm += 1;
        id
    }

    pub(crate) fn fresh_token(&self) -> u64 {
        let mut s = self.state.lock();
        let t = s.next_token;
        s.next_token += 1;
        t
    }

    pub(crate) fn fresh_port_name(&self) -> String {
        let mut s = self.state.lock();
        let p = s.next_port;
        s.next_port += 1;
        format!("mpi-port-{p}")
    }

    /// Register an intra-communicator with the given members; every member
    /// starts attached.
    pub(crate) fn register_intra(&self, id: CommId, members: Vec<Member>) {
        let n = members.len();
        let mut s = self.state.lock();
        s.comms.insert(id, CommKind::Intra(members));
        s.attached.insert(id, n);
    }

    /// Register an inter-communicator.
    pub(crate) fn register_inter(&self, id: CommId, a: Vec<Member>, b: Vec<Member>) {
        let n = a.len() + b.len();
        let mut s = self.state.lock();
        s.comms.insert(id, CommKind::Inter { a, b });
        s.attached.insert(id, n);
    }

    /// Run `f` on the members of one group of a communicator, under the
    /// state lock (no copy of the member list).
    fn with_group<R>(
        &self,
        id: CommId,
        group: u8,
        f: impl FnOnce(&[Member]) -> R,
    ) -> Result<R, MpiError> {
        let s = self.state.lock();
        match s.comms.get(&id) {
            Some(CommKind::Intra(m)) => {
                if group == GROUP_A {
                    Ok(f(m))
                } else {
                    Err(MpiError::InvalidComm("intra-communicator has one group"))
                }
            }
            Some(CommKind::Inter { a, b }) => Ok(f(if group == GROUP_A { a } else { b })),
            None => Err(MpiError::InvalidComm("communicator no longer exists")),
        }
    }

    /// Members of one group of a communicator.
    pub(crate) fn group_members(&self, id: CommId, group: u8) -> Result<Vec<Member>, MpiError> {
        self.with_group(id, group, |m| m.to_vec())
    }

    /// The member a point-to-point message to `(comm, group, rank)` routes to.
    pub(crate) fn lookup(&self, id: CommId, group: u8, rank: Rank) -> Result<Member, MpiError> {
        self.with_group(id, group, |m| m.get(rank as usize).copied())?
            .ok_or(MpiError::NoSuchRank(rank))
    }

    /// Size of a communicator group.
    pub fn group_size(&self, comm: Comm) -> usize {
        self.with_group(comm.id, comm.group, |m| m.len()).unwrap_or(0)
    }

    /// Size of the remote group of an inter-communicator.
    pub fn remote_size(&self, comm: Comm) -> usize {
        let remote = if comm.group == GROUP_A { GROUP_B } else { GROUP_A };
        self.with_group(comm.id, remote, |m| m.len()).unwrap_or(0)
    }

    /// Detach one member; the comm is removed once all members detached.
    pub(crate) fn detach(&self, id: CommId) {
        let mut s = self.state.lock();
        if let Some(n) = s.attached.get_mut(&id) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.attached.remove(&id);
                s.comms.remove(&id);
            }
        }
    }

    /// Number of live communicators (diagnostics / leak tests).
    pub fn live_comms(&self) -> usize {
        self.state.lock().comms.len()
    }

    /// Open a named port bound at `addr` (the accepting root's endpoint).
    pub(crate) fn open_port_at(&self, addr: Address) -> String {
        let name = self.fresh_port_name();
        self.state.lock().ports.insert(name.clone(), addr);
        name
    }

    /// Resolve a port name to the acceptor's address.
    pub(crate) fn port_addr(&self, name: &str) -> Result<Address, MpiError> {
        self.state
            .lock()
            .ports
            .get(name)
            .copied()
            .ok_or_else(|| MpiError::NoSuchPort(name.to_string()))
    }

    /// Close a named port.
    pub fn close_port(&self, name: &str) {
        self.state.lock().ports.remove(name);
    }
}

/// Wire messages of the MPI layer (delivered into process mailboxes).
pub(crate) mod wire {
    use super::*;

    /// Point-to-point payload.
    #[derive(Clone)]
    pub(crate) struct P2p {
        pub comm: CommId,
        pub src_rank: Rank,
        pub tag: Tag,
        pub bytes: u64,
        pub data: Data,
    }

    /// Control traffic for collectives and dynamic process management.
    #[derive(Clone)]
    pub(crate) struct Ctl {
        pub token: u64,
        pub body: CtlBody,
    }

    // Some fields (arrival ranks, modelled byte counts) exist to mirror
    // the real wire format and for trace debugging, not for control flow.
    #[allow(dead_code)]
    #[derive(Clone)]
    pub(crate) enum CtlBody {
        /// Collective arrival at the coordinator (barrier/merge/shrink).
        Arrive { comm: CommId, seq: u64, rank: Rank, group: u8, high: bool },
        /// Coordinator releases a barrier.
        Release { comm: CommId, seq: u64 },
        /// Broadcast payload.
        Bcast { comm: CommId, seq: u64, bytes: u64, data: Data },
        /// Gather contribution to the root.
        Gather { comm: CommId, seq: u64, rank: Rank, bytes: u64, data: Data },
        /// Connector root -> acceptor root through a port.
        ConnectReq { port: String, connector: Vec<Member>, reply: Address },
        /// Acceptor root -> connector root: the new inter-communicator.
        ConnectAck { comm: CommId },
        /// Root -> group member: your handle for a newly built comm.
        /// `ctx` is the communicator the collective ran over, so that
        /// small per-comm sequence tokens cannot collide across comms.
        Announce { ctx: CommId, comm: Comm },
        /// Spawned child -> spawn root: I have initialised.
        Ready,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::{HostId, HostKind, LatencyModel};
    use darms_sim::ProcessId;

    fn member(i: usize) -> Member {
        Member {
            pid: ProcessId::from_raw(i),
            host: HostId::from_raw(i),
            addr: Address::new(HostId::from_raw(i), darms_net::Port(1)),
        }
    }

    fn rt() -> MpiRuntime {
        let net = Network::new(LatencyModel::ideal(), 1);
        net.add_host("h0", HostKind::Generic);
        MpiRuntime::new(net, MpiCostModel::instant())
    }

    #[test]
    fn intra_comm_lookup() {
        let rt = rt();
        let id = rt.fresh_comm_id();
        rt.register_intra(id, vec![member(0), member(1)]);
        assert_eq!(rt.lookup(id, GROUP_A, 1).unwrap(), member(1));
        assert_eq!(rt.lookup(id, GROUP_A, 2), Err(MpiError::NoSuchRank(2)));
        assert!(rt.group_members(id, GROUP_B).is_err());
    }

    #[test]
    fn inter_comm_groups() {
        let rt = rt();
        let id = rt.fresh_comm_id();
        rt.register_inter(id, vec![member(0)], vec![member(1), member(2)]);
        assert_eq!(rt.group_members(id, GROUP_A).unwrap().len(), 1);
        assert_eq!(rt.group_members(id, GROUP_B).unwrap().len(), 2);
    }

    #[test]
    fn detach_removes_comm_when_empty() {
        let rt = rt();
        let id = rt.fresh_comm_id();
        rt.register_intra(id, vec![member(0), member(1)]);
        assert_eq!(rt.live_comms(), 1);
        rt.detach(id);
        assert_eq!(rt.live_comms(), 1);
        rt.detach(id);
        assert_eq!(rt.live_comms(), 0);
    }

    #[test]
    fn ports_open_and_close() {
        let rt = rt();
        let addr = Address::new(HostId::from_raw(0), darms_net::Port(5));
        let name = rt.open_port_at(addr);
        assert_eq!(rt.port_addr(&name).unwrap(), addr);
        rt.close_port(&name);
        assert!(rt.port_addr(&name).is_err());
    }

    #[test]
    fn fresh_ids_are_unique() {
        let rt = rt();
        let a = rt.fresh_comm_id();
        let b = rt.fresh_comm_id();
        assert_ne!(a, b);
        assert_ne!(rt.fresh_token(), rt.fresh_token());
        assert_ne!(rt.fresh_port_name(), rt.fresh_port_name());
    }
}
