//! The compute-node front-end: the **computation API** (memory management
//! and kernel launches on remote accelerators, Listing 1 of the paper)
//! and the **resource-management API** (`AC_Init`, `AC_Get`, `AC_Free`,
//! `AC_Finalize`, §II-C/III).
//!
//! Every request to a daemon takes the next request id on one path;
//! replies arrive as the daemon's own `RepBody` and are redeemed as an
//! acknowledgement, a device pointer or data. [`AcSession::op_wait`]
//! redeems any asynchronous [`Launch`].

use std::fmt;

use darms_mpi::{data, Comm, MpiError, MpiProc, Rank};
use darms_net::{Address, HostId, Network};
use darms_rms::proto::{DeviceClass, DynGrant, DynReject, DynResource};
use darms_rms::{ifl, ClientId, JobCtx, JobId, PseudoFs};
use darms_sim::MetricsRegistry;

use crate::device::DevPtr;
use crate::kernel::KernelArgs;
use crate::runtime::{
    slice_file, DacReply, DacRequest, DacRuntime, RepBody, ReqBody, DAEMON_EXE, TAG_REP, TAG_REQ,
};

/// Opaque handle to one associated accelerator (the paper's `ac_handle`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AcHandle(pub(crate) usize);

impl fmt::Display for AcHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ac{}", self.0)
    }
}

/// A dynamically obtained accelerator set; released as a unit through
/// [`AcSession::ac_free`] (the paper's client-id semantics, §III-D).
#[derive(Clone, Debug)]
pub struct AcSet {
    /// The batch system's set identifier.
    pub client_id: ClientId,
    /// Handles of the accelerators in the set.
    pub handles: Vec<AcHandle>,
}

/// Errors from the DAC front-end.
#[derive(Clone, Debug)]
pub enum DacError {
    /// Device-side failure (allocation, bounds, kernel).
    Device(String),
    /// Handle is not live (released or finalized).
    BadHandle(AcHandle),
    /// MPI-level failure.
    Mpi(MpiError),
    /// The batch system rejected the dynamic request; the application
    /// continues with its current accelerators (§II-B).
    Rejected(DynReject),
    /// A daemon did not answer within the configured request timeout —
    /// typically a failed accelerator host. The handle should be treated
    /// as lost.
    Timeout(AcHandle),
}

impl fmt::Display for DacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DacError::Device(e) => write!(f, "device error: {e}"),
            DacError::BadHandle(h) => write!(f, "handle {h} is not live"),
            DacError::Mpi(e) => write!(f, "mpi error: {e}"),
            DacError::Rejected(r) => write!(f, "dynamic request rejected: {r}"),
            DacError::Timeout(h) => write!(f, "accelerator {h} did not respond (timed out)"),
        }
    }
}

impl std::error::Error for DacError {}

impl From<MpiError> for DacError {
    fn from(e: MpiError) -> Self {
        DacError::Mpi(e)
    }
}

/// A pending asynchronous kernel launch or host→device transfer; redeem
/// with [`AcSession::op_wait`]. Launching work on several accelerators and
/// waiting afterwards is how applications overlap kernels across the set
/// (the latency-hiding usage the paper's introduction motivates).
#[derive(Debug)]
#[must_use = "a launched kernel must be waited on"]
pub struct Launch {
    handle: AcHandle,
    req: u64,
}

struct HandleRec {
    rank: Rank,
    live: bool,
    set: Option<ClientId>,
    /// Device slice the daemon owns (0 = whole device).
    slice: u32,
}

/// One compute node's session with its accelerators. Created by
/// [`AcSession::init`] (the `AC_Init()` of the paper).
pub struct AcSession {
    mpi: MpiProc,
    dac: DacRuntime,
    job: JobId,
    cn_index: usize,
    host: HostId,
    net: Network,
    server: Address,
    /// The merged intra-communicator (compute node = rank 0). `None`
    /// until the first accelerators are associated.
    comm: Option<Comm>,
    handles: Vec<HandleRec>,
    next_req: u64,
    /// Replies that arrived while waiting for a different request id
    /// (multiple asynchronous operations may be in flight per handle).
    /// Keyed by request id alone: ids are unique per session, while ranks
    /// are remapped by shrinks and may alias old traffic.
    stashed: std::collections::BTreeMap<u64, RepBody>,
    /// Request ids whose wait timed out: their reply may still be in
    /// flight (or duplicated by a faulty network) and must be discarded
    /// on arrival instead of being stashed against a future request.
    tombstones: std::collections::BTreeSet<u64>,
    /// Where the Fig. 7 phase split is recorded, if anywhere.
    phases: Option<MetricsRegistry>,
}

/// File a reply received while waiting for `want`. `Some` means the wait
/// is answered; otherwise the body is stashed for its own wait — unless
/// its id was tombstoned by an earlier timeout, in which case the late
/// (possibly duplicate) reply is dropped on the floor.
fn file_reply(
    want: u64,
    rep_req: u64,
    body: RepBody,
    tombstones: &mut std::collections::BTreeSet<u64>,
    stashed: &mut std::collections::BTreeMap<u64, RepBody>,
) -> Option<RepBody> {
    if rep_req == want {
        return Some(body);
    }
    if !tombstones.remove(&rep_req) {
        stashed.insert(rep_req, body);
    }
    None
}

impl AcSession {
    /// `AC_Init()`: wait for this compute node's statically allocated
    /// accelerator daemons, connect to them through the published port,
    /// and merge into the session communicator (compute node rank 0,
    /// accelerators 1..=x). Returns the session and the handles of the
    /// static accelerators.
    ///
    /// Given a registry in `phases`, records the histograms `acinit.wait`
    /// (time until the daemons were ready — the dark region of the
    /// paper's Fig. 7(a)) and `acinit.connect` (communicator construction
    /// — the light region) there, and later the `acget.*` split of every
    /// [`AcSession::ac_get`]. The figures pass the engine's registry
    /// (`jc.proc.metrics()`); the frozen `perfbench/` package passes
    /// `None`, which is why the parameter stays until ROADMAP item 2.
    pub async fn init(
        jc: &JobCtx,
        dac: &DacRuntime,
        phases: Option<MetricsRegistry>,
    ) -> (Self, Vec<AcHandle>) {
        let x = jc.acc_hosts.len();
        let t0 = jc.proc.now();
        let mut session = AcSession {
            mpi: dac.mpi.attach(jc.proc.clone(), jc.host).await,
            dac: dac.clone(),
            job: jc.job,
            cn_index: jc.node_index,
            host: jc.host,
            net: jc.net.clone(),
            server: jc.server,
            comm: None,
            handles: Vec::new(),
            next_req: 1,
            stashed: std::collections::BTreeMap::new(),
            tombstones: std::collections::BTreeSet::new(),
            phases,
        };
        if x == 0 {
            return (session, Vec::new());
        }
        // Wait for the port file the daemon root publishes once every
        // daemon of the set is up (the paper's port-information file).
        let port_file = PseudoFs::ac_port_file(jc.node_index);
        let port = dac.fs.wait_for(&jc.proc, jc.job, &port_file, dac.cost.port_poll).await;
        let t1 = jc.proc.now();
        let self_comm = session.mpi.self_comm();
        let inter = session.mpi.comm_connect(&port, self_comm).await.expect("AC_Init connect");
        let merged = session.mpi.intercomm_merge(inter, false).await.expect("AC_Init merge");
        session.mpi.comm_disconnect(inter);
        session.mpi.comm_disconnect(self_comm);
        debug_assert_eq!(merged.rank(), 0, "compute node holds rank 0 (§III-C)");
        let t2 = jc.proc.now();
        session.comm = Some(merged);
        let mut out = Vec::with_capacity(x);
        for i in 0..x {
            session.handles.push(HandleRec {
                rank: (i + 1) as Rank,
                live: true,
                set: None,
                slice: 0,
            });
            out.push(AcHandle(i));
        }
        if let Some(phases) = &session.phases {
            phases.observe_duration("acinit.wait", t1 - t0);
            phases.observe_duration("acinit.connect", t2 - t1);
        }
        (session, out)
    }

    /// Number of currently associated (live) accelerators.
    pub fn live_count(&self) -> usize {
        self.handles.iter().filter(|h| h.live).count()
    }

    /// Handles of all live accelerators.
    pub fn live_handles(&self) -> Vec<AcHandle> {
        self.handles.iter().enumerate().filter(|(_, h)| h.live).map(|(i, _)| AcHandle(i)).collect()
    }

    /// The device slice a handle was granted (0 = whole device), or
    /// `None` if the handle is not live.
    pub fn handle_slice(&self, h: AcHandle) -> Option<u32> {
        self.handles.get(h.0).filter(|r| r.live).map(|r| r.slice)
    }

    fn rank_of(&self, h: AcHandle) -> Result<Rank, DacError> {
        match self.handles.get(h.0) {
            Some(rec) if rec.live => Ok(rec.rank),
            _ => Err(DacError::BadHandle(h)),
        }
    }

    fn comm(&self) -> Result<Comm, DacError> {
        self.comm.ok_or(DacError::BadHandle(AcHandle(usize::MAX)))
    }

    /// Send `body` to the daemon at `rank` under the next request id.
    fn post(&mut self, comm: Comm, rank: Rank, body: ReqBody, bytes: u64) -> Result<u64, MpiError> {
        let req = self.next_req;
        self.next_req += 1;
        self.mpi.send(comm, rank, TAG_REQ, data(DacRequest { req, body }), bytes).map(|()| req)
    }

    async fn send_req(&mut self, h: AcHandle, body: ReqBody, bytes: u64) -> Result<u64, DacError> {
        let rank = self.rank_of(h)?;
        let comm = self.comm()?;
        if !self.dac.cost.frontend_overhead.is_zero() {
            let overhead = self.dac.cost.frontend_overhead;
            self.mpi.proc().sleep(overhead).await;
        }
        match self.post(comm, rank, body, bytes) {
            Ok(req) => Ok(req),
            Err(darms_mpi::MpiError::NetworkFailure) => {
                // The accelerator host is unreachable (failed): treat it
                // like a reply timeout — mark the handle lost so later
                // calls fail fast.
                if let Some(rec) = self.handles.get_mut(h.0) {
                    rec.live = false;
                }
                Err(DacError::Timeout(h))
            }
            Err(e) => Err(DacError::Mpi(e)),
        }
    }

    async fn wait_reply(&mut self, h: AcHandle, req: u64) -> Result<RepBody, DacError> {
        let rank = self.rank_of(h)?;
        let comm = self.comm()?;
        let timeout = self.dac.cost.request_timeout;
        if let Some(body) = self.stashed.remove(&req) {
            return Ok(body);
        }
        loop {
            let msg = match self.mpi.recv_timeout(comm, Some(rank), Some(TAG_REP), timeout).await {
                Some(m) => m,
                None => {
                    // A dead accelerator (failed host): mark the handle
                    // lost so later calls fail fast, and tombstone the
                    // request id so a late reply cannot be mistaken for
                    // the answer to a future request.
                    if let Some(rec) = self.handles.get_mut(h.0) {
                        rec.live = false;
                    }
                    self.tombstones.insert(req);
                    return Err(DacError::Timeout(h));
                }
            };
            let rep = msg.data.downcast_ref::<DacReply>().expect("TAG_REP carries DacReply");
            let body = rep.body.clone();
            if let Some(body) =
                file_reply(req, rep.req, body, &mut self.tombstones, &mut self.stashed)
            {
                return Ok(body);
            }
        }
    }

    /// Redeem request `req` whose reply is an acknowledgement.
    async fn wait_ack(&mut self, h: AcHandle, req: u64) -> Result<(), DacError> {
        match self.wait_reply(h, req).await? {
            RepBody::Ack(r) => r.map_err(DacError::Device),
            RepBody::Ptr(_) | RepBody::Data(_) => unreachable!("request {req} replies with Ack"),
        }
    }

    /// Redeem request `req` whose reply is a device pointer.
    async fn wait_ptr(&mut self, h: AcHandle, req: u64) -> Result<DevPtr, DacError> {
        match self.wait_reply(h, req).await? {
            RepBody::Ptr(r) => r.map_err(DacError::Device),
            RepBody::Ack(_) | RepBody::Data(_) => unreachable!("request {req} replies with Ptr"),
        }
    }

    /// Redeem request `req` whose reply carries data.
    async fn wait_data(&mut self, h: AcHandle, req: u64) -> Result<Vec<u8>, DacError> {
        match self.wait_reply(h, req).await? {
            RepBody::Data(r) => r.map_err(DacError::Device),
            RepBody::Ptr(_) | RepBody::Ack(_) => unreachable!("request {req} replies with Data"),
        }
    }

    /// Number of replies parked for not-yet-redeemed request ids
    /// (diagnostic; the chaos harness checks this stays bounded).
    pub fn stashed_replies(&self) -> usize {
        self.stashed.len()
    }

    // ----- computation API (acMemAlloc / acMemCpy / acKernel*) ----------

    /// `acMemAlloc`: allocate `size` bytes on the accelerator.
    pub async fn mem_alloc(&mut self, h: AcHandle, size: u64) -> Result<DevPtr, DacError> {
        let req = self.send_req(h, ReqBody::MemAlloc { size }, self.dac.cost.ctl_bytes).await?;
        self.wait_ptr(h, req).await
    }

    /// `acMemFree`: free device memory.
    pub async fn mem_free(&mut self, h: AcHandle, ptr: DevPtr) -> Result<(), DacError> {
        let req = self.send_req(h, ReqBody::MemFree { ptr }, self.dac.cost.ctl_bytes).await?;
        self.wait_ack(h, req).await
    }

    /// `acMemCpy` host→device: transfer `bytes` into device memory at
    /// `ptr`. Uses the pipelined protocol: the device-side copy overlaps
    /// the wire transfer, so the added device time is only the excess
    /// over the wire time (\[7\]).
    pub async fn mem_write(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        bytes: Vec<u8>,
    ) -> Result<(), DacError> {
        let l = self.mem_write_async(h, ptr, bytes).await?;
        self.op_wait(l).await
    }

    /// `acMemCpy` device→host: read `len` bytes from device memory.
    pub async fn mem_read(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        len: u64,
    ) -> Result<Vec<u8>, DacError> {
        self.mem_read_at(h, ptr, 0, len).await
    }

    /// `acMemCpy` device→host at an offset within the allocation.
    pub async fn mem_read_at(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, DacError> {
        let req = self
            .send_req(h, ReqBody::CopyD2H { ptr, offset, len }, self.dac.cost.ctl_bytes)
            .await?;
        self.wait_data(h, req).await
    }

    /// `acMemCpy` host→device at an offset within the allocation.
    pub async fn mem_write_at(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        offset: u64,
        bytes: Vec<u8>,
    ) -> Result<(), DacError> {
        let l = self.mem_write_async_at(h, ptr, offset, bytes).await?;
        self.op_wait(l).await
    }

    /// Asynchronous host→device transfer (the double-buffering building
    /// block from the paper's §I: hide the interconnect penalty by
    /// overlapping transfers with compute). Redeem with
    /// [`AcSession::op_wait`].
    pub async fn mem_write_async(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        bytes: Vec<u8>,
    ) -> Result<Launch, DacError> {
        self.mem_write_async_at(h, ptr, 0, bytes).await
    }

    /// Asynchronous host→device transfer at an offset.
    pub async fn mem_write_async_at(
        &mut self,
        h: AcHandle,
        ptr: DevPtr,
        offset: u64,
        bytes: Vec<u8>,
    ) -> Result<Launch, DacError> {
        let len = bytes.len() as u64;
        let credit = if self.dac.cost.pipelined {
            let model = self.net.latency_model();
            model.base_delay(false, len) - model.base_delay(false, 0)
        } else {
            darms_sim::SimDuration::ZERO
        };
        let body = ReqBody::CopyH2D {
            ptr,
            offset,
            payload: std::sync::Arc::new(bytes),
            overlap_credit: credit,
        };
        let req = self.send_req(h, body, self.dac.cost.ctl_bytes + len).await?;
        Ok(Launch { handle: h, req })
    }

    /// Wait for an asynchronous transfer or kernel launch to complete.
    pub async fn op_wait(&mut self, launch: Launch) -> Result<(), DacError> {
        self.wait_ack(launch.handle, launch.req).await
    }

    /// `acKernelRun` (asynchronous): launch a registered kernel; redeem
    /// the [`Launch`] with [`AcSession::op_wait`].
    pub async fn kernel_launch(
        &mut self,
        h: AcHandle,
        name: &str,
        args: KernelArgs,
    ) -> Result<Launch, DacError> {
        let body = ReqBody::KernelRun { name: name.to_string(), args };
        let req = self.send_req(h, body, self.dac.cost.ctl_bytes).await?;
        Ok(Launch { handle: h, req })
    }

    /// Synchronous kernel execution: launch and wait.
    pub async fn kernel_run(
        &mut self,
        h: AcHandle,
        name: &str,
        args: KernelArgs,
    ) -> Result<(), DacError> {
        let l = self.kernel_launch(h, name, args).await?;
        self.op_wait(l).await
    }

    /// Host-free group reduction across a set of accelerators: each
    /// participant `(handle, ptr)` holds `elems` f64 values; the daemons
    /// combine their partial sums **directly with each other** over the
    /// session communicator (the paper's §I scenario of network-attached
    /// accelerators communicating via MPI without the host) and the group
    /// root stores the total at `out` on the first handle's device. The
    /// host only dispatches the operation and collects completion.
    pub async fn group_reduce_sum(
        &mut self,
        parts: &[(AcHandle, DevPtr)],
        elems: u64,
        out: DevPtr,
    ) -> Result<f64, DacError> {
        if parts.is_empty() {
            return Err(DacError::BadHandle(AcHandle(usize::MAX)));
        }
        let mut peers: Vec<Rank> = Vec::with_capacity(parts.len());
        for (h, _) in parts {
            peers.push(self.rank_of(*h)?);
        }
        peers.sort_unstable();
        let root_handle = parts
            .iter()
            .find(|(h, _)| self.rank_of(*h).ok() == Some(peers[0]))
            .expect("root present")
            .0;
        // Dispatch to every participant; each computes its partial and
        // the peers exchange directly.
        let mut pending = Vec::with_capacity(parts.len());
        for &(h, ptr) in parts {
            let body = ReqBody::GroupReduceSum { ptr, elems, out, peers: peers.clone() };
            let req = self.send_req(h, body, self.dac.cost.ctl_bytes).await?;
            pending.push((h, req));
        }
        for (h, req) in pending {
            self.wait_ack(h, req).await?;
        }
        // Fetch the total from the group root's device.
        let bytes = self.mem_read(root_handle, out, 8).await?;
        Ok(crate::device::as_f64s(&bytes)[0])
    }

    /// Fabric broadcast: replicate `bytes` into each participant's device
    /// buffer. The first `(handle, ptr)` is the root; the payload crosses
    /// the wire **once** (host → root) and fans out daemon-to-daemon — one
    /// multicast setup on a multicast-capable backend, a serialised device
    /// read-back per peer on a unicast one (the Fig. 9-style asymmetry).
    pub async fn bcast_write(
        &mut self,
        parts: &[(AcHandle, DevPtr)],
        bytes: Vec<u8>,
    ) -> Result<(), DacError> {
        let (&(root, root_ptr), rest) = match parts.split_first() {
            Some(p) => p,
            None => return Err(DacError::BadHandle(AcHandle(usize::MAX))),
        };
        let root_rank = self.rank_of(root)?;
        let len = bytes.len() as u64;
        let mut peers = Vec::with_capacity(rest.len());
        for &(h, ptr) in rest {
            peers.push((self.rank_of(h)?, ptr));
        }
        let body = ReqBody::Broadcast {
            ptr: root_ptr,
            payload: std::sync::Arc::new(bytes),
            peers: peers.clone(),
        };
        let mut pending =
            vec![(root, self.send_req(root, body, self.dac.cost.ctl_bytes + len).await?)];
        for &(h, ptr) in rest {
            let body = ReqBody::BcastRecv { ptr, root: root_rank };
            pending.push((h, self.send_req(h, body, self.dac.cost.ctl_bytes).await?));
        }
        for (h, req) in pending {
            self.wait_ack(h, req).await?;
        }
        Ok(())
    }

    /// Scatter-gather read: collect `len` bytes from each participant's
    /// device buffer, concatenated in ascending session-rank order of the
    /// first-listed root followed by the peers. The parts combine
    /// daemon-to-daemon on the root (one wire crossing back to the host)
    /// instead of one `mem_read` round-trip per accelerator.
    pub async fn gather_read(
        &mut self,
        parts: &[(AcHandle, DevPtr)],
        len: u64,
    ) -> Result<Vec<u8>, DacError> {
        let (&(root, root_ptr), rest) = match parts.split_first() {
            Some(p) => p,
            None => return Err(DacError::BadHandle(AcHandle(usize::MAX))),
        };
        let root_rank = self.rank_of(root)?;
        let peers: Vec<Rank> =
            rest.iter().map(|&(h, _)| self.rank_of(h)).collect::<Result<_, _>>()?;
        let body = ReqBody::Gather { ptr: root_ptr, len, peers: peers.clone() };
        let root_req = self.send_req(root, body, self.dac.cost.ctl_bytes).await?;
        let mut pending = Vec::with_capacity(rest.len());
        for &(h, ptr) in rest {
            let body = ReqBody::GatherSend { ptr, len, root: root_rank };
            pending.push((h, self.send_req(h, body, self.dac.cost.ctl_bytes).await?));
        }
        for (h, req) in pending {
            self.wait_ack(h, req).await?;
        }
        self.wait_data(root, root_req).await
    }

    // ----- resource-management API (AC_Get / AC_Free / AC_Finalize) ------

    /// `AC_Get()`: request `count` additional accelerators from the batch
    /// system at runtime. On success the new daemons are spawned via
    /// `MPI_Comm_spawn` over the current session communicator and merged
    /// in (old accelerators keep their ranks; new ones follow, §III-D).
    ///
    /// With a phase registry (see [`AcSession::init`]), records
    /// `acget.batch` (the batch system portion — the dark region of the
    /// paper's Fig. 7(b)) and `acget.mpi` (spawn + communicator
    /// construction — the light region); rejections record
    /// `acget.rejected`.
    pub async fn ac_get(&mut self, count: u32) -> Result<AcSet, DacError> {
        self.ac_get_range(count, count).await
    }

    /// `AC_Get()` accepting a *partial* grant: at least `min_count`, at
    /// most `count` accelerators (the policy the paper lists as future
    /// work, §VI: "allocating less number of accelerators in the case
    /// where enough accelerators were not available"). The returned set
    /// reports how many were actually granted.
    pub async fn ac_get_range(&mut self, count: u32, min_count: u32) -> Result<AcSet, DacError> {
        self.ac_get_kind(
            count,
            min_count,
            DynResource::Accelerators { class: DeviceClass::GpuLike },
        )
        .await
    }

    /// `AC_Get()` constrained to a device class: only accelerators of
    /// `class` satisfy the request (the heterogeneous-fabric extension,
    /// DESIGN.md §15).
    pub async fn ac_get_class(
        &mut self,
        count: u32,
        min_count: u32,
        class: DeviceClass,
    ) -> Result<AcSet, DacError> {
        self.ac_get_kind(count, min_count, DynResource::Accelerators { class }).await
    }

    /// `AC_Get()` for device *slices*: each granted accelerator is a
    /// fraction of a (possibly shared) device of `class` — a memory quota
    /// plus a dispatch-queue share — rather than a whole device. At most
    /// one slice per physical device is granted per request, and never on
    /// a host the job already occupies.
    pub async fn ac_get_slices(
        &mut self,
        count: u32,
        min_count: u32,
        class: DeviceClass,
    ) -> Result<AcSet, DacError> {
        self.ac_get_kind(count, min_count, DynResource::AcceleratorSlices { class }).await
    }

    /// Shared body of the `AC_Get` family: one IFL round-trip for `kind`,
    /// then adopt the grant. Records the same `acget.*` metrics for every
    /// kind.
    async fn ac_get_kind(
        &mut self,
        count: u32,
        min_count: u32,
        kind: DynResource,
    ) -> Result<AcSet, DacError> {
        let t0 = self.mpi.proc().now();
        let grant: Result<DynGrant, DynReject> = ifl::pbs_dynget_kind(
            self.mpi.proc(),
            &self.net,
            self.host,
            self.server,
            self.job,
            self.host,
            count,
            min_count,
            kind,
        )
        .await;
        let t1 = self.mpi.proc().now();
        let metrics = self.mpi.proc().metrics();
        let grant = match grant {
            Ok(g) => g,
            Err(r) => {
                if let Some(phases) = &self.phases {
                    phases.observe_duration("acget.rejected", t1 - t0);
                }
                metrics.counter_inc("dac.acget_rejected");
                metrics.observe_duration("dac.acget_latency", t1 - t0);
                return Err(DacError::Rejected(r));
            }
        };
        let set = self.adopt_grant(grant.client_id, grant.accs, grant.slices).await?;
        let t2 = self.mpi.proc().now();
        if let Some(phases) = &self.phases {
            phases.observe_duration("acget.batch", t1 - t0);
            phases.observe_duration("acget.mpi", t2 - t1);
        }
        metrics.counter_inc("dac.acget_granted");
        metrics.observe_duration("dac.acget_latency", t2 - t0);
        Ok(set)
    }

    /// Associate an already-granted accelerator set with this session:
    /// grow the communicator (existing daemons join the collective spawn,
    /// everyone merges with the new daemons high) and mint handles. Used
    /// by [`AcSession::ac_get`] and by the collective variant, where the
    /// grant was obtained by the collector node.
    pub(crate) async fn adopt_grant(
        &mut self,
        client_id: ClientId,
        accs: Vec<darms_net::HostId>,
        slices: Vec<u32>,
    ) -> Result<AcSet, DacError> {
        // Publish each daemon's slice identity before the spawn (spawn
        // args are shared by the whole spawned group, so the per-daemon
        // slice travels through the job's pseudo-FS instead). Always
        // written: a whole-device grant overwrites any stale slice file a
        // released slice set may have left on the same host.
        for (i, acc) in accs.iter().enumerate() {
            let slice = slices.get(i).copied().unwrap_or(0);
            let woken = self.dac.fs.write(self.job, slice_file(acc.index()), slice.to_string());
            self.mpi.proc().wake_pollers(woken);
        }
        let local = match self.comm {
            Some(c) => {
                for h in self.live_handles() {
                    let rank = self.rank_of(h).expect("live");
                    self.post(c, rank, ReqBody::Grow, self.dac.cost.ctl_bytes)?;
                }
                c
            }
            None => self.mpi.self_comm(),
        };
        let args = vec![self.job.0.to_string(), self.cn_index.to_string(), "dyn".to_string()];
        let inter = self.mpi.comm_spawn(local, DAEMON_EXE, &args, &accs).await?;
        let merged = self.mpi.intercomm_merge(inter, false).await?;
        self.mpi.comm_disconnect(inter);
        self.mpi.comm_disconnect(local); // superseded session (or self) comm
        debug_assert_eq!(merged.rank(), 0);
        self.comm = Some(merged);
        let base = self.handles.iter().filter(|h| h.live).count() as Rank;
        let mut handles = Vec::with_capacity(accs.len());
        for i in 0..accs.len() as Rank {
            let ix = self.handles.len();
            let slice = slices.get(i as usize).copied().unwrap_or(0);
            self.handles.push(HandleRec {
                rank: base + 1 + i,
                live: true,
                set: Some(client_id),
                slice,
            });
            handles.push(AcHandle(ix));
        }
        Ok(AcSet { client_id, handles })
    }

    /// `AC_Free()`: release a dynamically obtained accelerator set. The
    /// compute node disconnects from the released daemons (shrinking the
    /// session communicator) and then notifies the batch system via
    /// `pbs_dynfree`; the application continues immediately (§III-D).
    pub async fn ac_free(&mut self, set: &AcSet) -> Result<(), DacError> {
        let t0 = self.mpi.proc().now();
        self.release_local(set).await?;
        // Tell the batch system; the reply is positive immediately.
        let ok = ifl::pbs_dynfree(
            self.mpi.proc(),
            &self.net,
            self.host,
            self.server,
            self.job,
            set.client_id,
        )
        .await;
        debug_assert!(ok, "server lost track of {:?}", set.client_id);
        let t1 = self.mpi.proc().now();
        self.mpi.proc().metrics().observe_duration("dac.acfree_latency", t1 - t0);
        Ok(())
    }

    /// Tear down a dynamic set locally (release daemons, shrink the
    /// communicator, remap handles) **without** notifying the server.
    /// `ac_free` adds the `pbs_dynfree`; the collective release lets the
    /// collector node send the single notification for the shared set.
    pub(crate) async fn release_local(&mut self, set: &AcSet) -> Result<(), DacError> {
        let comm = self.comm()?;
        // The set is released as a unit identified by its client-id; every
        // handle must belong to it and still be live.
        for h in &set.handles {
            match self.handles.get(h.0) {
                Some(rec) if rec.live && rec.set == Some(set.client_id) => {}
                _ => return Err(DacError::BadHandle(*h)),
            }
        }
        let removed: Vec<Rank> = set.handles.iter().filter_map(|h| self.rank_of(*h).ok()).collect();
        if removed.is_empty() {
            return Err(DacError::BadHandle(*set.handles.first().unwrap_or(&AcHandle(usize::MAX))));
        }
        // Survivors first join the shrink, the released daemons exit.
        let survivors: Vec<AcHandle> =
            self.live_handles().into_iter().filter(|h| !set.handles.contains(h)).collect();
        for h in &survivors {
            let rank = self.rank_of(*h).expect("live");
            let body = ReqBody::Shrink { removed: removed.clone() };
            self.post(comm, rank, body, self.dac.cost.ctl_bytes)?;
        }
        for h in &set.handles {
            if let Ok(rank) = self.rank_of(*h) {
                self.post(comm, rank, ReqBody::Release, self.dac.cost.ctl_bytes)?;
            }
        }
        let new_comm = self.mpi.comm_shrink(comm, &removed).await?;
        self.mpi.comm_disconnect(comm); // superseded session comm
        self.comm = Some(new_comm);
        // Remap surviving handle ranks: rank 0 stays the compute node;
        // survivors keep their relative order.
        let mut old_ranks: Vec<Rank> = vec![0];
        old_ranks.extend(survivors.iter().map(|h| self.handles[h.0].rank));
        old_ranks.sort_unstable();
        for h in &survivors {
            let old = self.handles[h.0].rank;
            let new = old_ranks.iter().position(|r| *r == old).expect("survivor") as Rank;
            self.handles[h.0].rank = new;
        }
        for h in &set.handles {
            if let Some(rec) = self.handles.get_mut(h.0) {
                rec.live = false;
            }
        }
        Ok(())
    }

    /// `AC_Finalize()`: release every associated accelerator and tear the
    /// session down. Static accelerator nodes are returned to the pool by
    /// the batch system at job exit.
    pub fn finalize(mut self) {
        if let Some(comm) = self.comm {
            for h in self.live_handles() {
                let rank = self.rank_of(h).expect("live");
                let _ = self.post(comm, rank, ReqBody::Release, self.dac.cost.ctl_bytes);
            }
            self.mpi.comm_disconnect(comm);
        }
        for rec in &mut self.handles {
            rec.live = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn ack() -> RepBody {
        RepBody::Ack(Ok(()))
    }

    #[test]
    fn file_reply_answers_the_awaited_request() {
        let (mut tombs, mut stash) = (BTreeSet::new(), BTreeMap::new());
        assert!(file_reply(7, 7, ack(), &mut tombs, &mut stash).is_some());
        assert!(stash.is_empty());
    }

    #[test]
    fn file_reply_stashes_other_requests_by_id() {
        let (mut tombs, mut stash) = (BTreeSet::new(), BTreeMap::new());
        assert!(file_reply(7, 9, ack(), &mut tombs, &mut stash).is_none());
        assert!(stash.contains_key(&9));
    }

    #[test]
    fn file_reply_discards_tombstoned_replies() {
        let mut tombs: BTreeSet<u64> = [9].into_iter().collect();
        let mut stash = BTreeMap::new();
        assert!(file_reply(7, 9, ack(), &mut tombs, &mut stash).is_none());
        assert!(stash.is_empty(), "late reply must be dropped, not stashed");
        assert!(tombs.is_empty(), "tombstone is consumed by the discard");
        // A fresh reply with the same id (duplicate delivered twice after
        // the tombstone was spent) is stashed again — ids are unique per
        // request, so this only happens for duplicates, which the next
        // wait for a different id simply leaves parked; the stash stays
        // bounded because each id is stashed at most once more.
        assert!(file_reply(7, 9, ack(), &mut tombs, &mut stash).is_none());
        assert!(stash.contains_key(&9));
    }
}
