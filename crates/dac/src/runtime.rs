//! The DAC runtime: shared handles (pseudo-FS, kernel registry, device
//! pool) and the accelerator **back-end daemon** — the per-accelerator
//! process of the paper's Fig. 3 that receives computation requests over
//! MPI and executes them on the device through the driver API.
//!
//! The device pool holds one [`Backend`] per accelerator host, built from
//! the host's [`FabricHostSpec`]. The daemon answers a duplicated request
//! from a [`ReplyCache`] instead of executing it twice; every replying
//! request ends in one tail that caches the reply and sends it.

use std::collections::BTreeSet;
use std::sync::Arc;

use darms_mpi::{data, Comm, MpiProc, MpiRuntime, Rank};
use darms_net::{Admit, HostId, ReplyCache};
use darms_rms::proto::DeviceClass;
use darms_rms::{JobId, PseudoFs};
use darms_sim::SimDuration;
use parking_lot::Mutex;

use crate::backend::{Backend, SliceId};
use crate::cost::DacCostModel;
use crate::device::{DevPtr, DeviceProps};
use crate::kernel::{KernelArgs, KernelRegistry};

/// MPI tag of front-end → daemon requests.
pub(crate) const TAG_REQ: i32 = 10;
/// MPI tag of daemon → front-end replies.
pub(crate) const TAG_REP: i32 = 11;
/// MPI tag of daemon ↔ daemon traffic during group operations — the
/// paper's "accelerators that communicate directly with each other"
/// scenario (§I): kernels running across the set without the host.
pub(crate) const TAG_PEER: i32 = 12;

/// Name under which the back-end daemon executable is registered.
pub const DAEMON_EXE: &str = "ac-daemon";

/// A front-end request to one daemon.
pub(crate) struct DacRequest {
    pub req: u64,
    pub body: ReqBody,
}

pub(crate) enum ReqBody {
    /// Allocate device memory.
    MemAlloc { size: u64 },
    /// Free device memory.
    MemFree { ptr: DevPtr },
    /// Host-to-device transfer. `overlap_credit` is the wire time already
    /// spent moving the bytes; under the pipelined protocol the device
    /// copy overlaps it.
    CopyH2D { ptr: DevPtr, offset: u64, payload: Arc<Vec<u8>>, overlap_credit: SimDuration },
    /// Device-to-host transfer.
    CopyD2H { ptr: DevPtr, offset: u64, len: u64 },
    /// Launch a named kernel.
    KernelRun { name: String, args: KernelArgs },
    /// Participate in a host-free group reduction: every listed daemon
    /// sums `elems` f64 values at `ptr` locally, the peers combine the
    /// partials **among themselves** over the session communicator
    /// (daemon-to-daemon MPI, no host involvement), and the group root
    /// (lowest participating rank) stores the total back at `out` and
    /// replies to the front end. Other participants reply with a bare
    /// ack once their partial has been handed off.
    GroupReduceSum {
        ptr: DevPtr,
        elems: u64,
        out: DevPtr,
        /// Participating daemon ranks in the session communicator,
        /// sorted ascending; the first is the group root.
        peers: Vec<Rank>,
    },
    /// Root of a fabric broadcast: store `payload` at the root's own
    /// `ptr`, then fan it out to each `(rank, ptr)` peer over the session
    /// communicator (`TAG_PEER`). A multicast-capable backend pays one
    /// `multicast_setup`; a unicast backend serialises a device read-back
    /// per peer — the cost asymmetry Fig. 9-style sweeps measure.
    Broadcast { ptr: DevPtr, payload: Arc<Vec<u8>>, peers: Vec<(Rank, DevPtr)> },
    /// Non-root broadcast participant: await the payload from `root` over
    /// `TAG_PEER` and store it at `ptr`.
    BcastRecv { ptr: DevPtr, root: Rank },
    /// Root of a scatter-gather read: collect each peer's part over
    /// `TAG_PEER`, prepend its own `[ptr, ptr+len)`, and reply with the
    /// concatenation in ascending peer-rank order.
    Gather { ptr: DevPtr, len: u64, peers: Vec<Rank> },
    /// Non-root gather participant: read `[ptr, ptr+len)` and send it to
    /// `root` over `TAG_PEER`.
    GatherSend { ptr: DevPtr, len: u64, root: Rank },
    /// Participate in a collective spawn+merge (no reply; the front-end
    /// is growing the communicator for a dynamic allocation).
    Grow,
    /// Participate in a communicator shrink (no reply; a sibling set is
    /// being released).
    Shrink { removed: Vec<Rank> },
    /// Free everything, disconnect and exit (no reply).
    Release,
}

/// A daemon's reply.
pub(crate) struct DacReply {
    pub req: u64,
    pub body: RepBody,
}

#[derive(Clone)]
pub(crate) enum RepBody {
    Ptr(Result<DevPtr, String>),
    Ack(Result<(), String>),
    Data(Result<Vec<u8>, String>),
}

/// Broadcast payload travelling daemon-to-daemon over `TAG_PEER`.
struct BcastPayload {
    payload: Arc<Vec<u8>>,
}

/// Gather part travelling daemon-to-daemon over `TAG_PEER`; carries the
/// sender's session rank so the root can order parts deterministically.
struct GatherPart {
    rank: Rank,
    bytes: Vec<u8>,
}

/// How one accelerator host presents itself to the fabric: device class,
/// slice count and device parameters. Hosts without a registered spec are
/// unsliced GPU-like devices with the runtime-wide default properties —
/// the pre-fabric behaviour.
#[derive(Clone, Copy, Debug)]
pub struct FabricHostSpec {
    /// Device class of the host's accelerator.
    pub class: DeviceClass,
    /// Number of slices the device is carved into.
    pub slices: u32,
    /// Device timing/capacity parameters.
    pub props: DeviceProps,
}

/// Cloneable handle to everything the DAC layer shares: the MPI runtime,
/// the pseudo-FS (port files), the kernel registry, the device pool and
/// the cost model. Creating it registers the daemon executable.
#[derive(Clone)]
pub struct DacRuntime {
    pub(crate) mpi: MpiRuntime,
    pub(crate) fs: PseudoFs,
    pub(crate) cost: DacCostModel,
    pub(crate) kernels: KernelRegistry,
    pub(crate) device_props: DeviceProps,
    fabric: Arc<Mutex<std::collections::BTreeMap<usize, FabricHostSpec>>>,
    devices: Arc<Mutex<std::collections::BTreeMap<usize, SharedBackend>>>,
}

/// One host's backend instance, shared between its resident daemons.
type SharedBackend = Arc<Mutex<Backend>>;

impl DacRuntime {
    /// Create the runtime and register the daemon executable with the MPI
    /// runtime.
    pub fn new(
        mpi: MpiRuntime,
        fs: PseudoFs,
        cost: DacCostModel,
        kernels: KernelRegistry,
        device_props: DeviceProps,
    ) -> Self {
        let rt = DacRuntime {
            mpi,
            fs,
            cost,
            kernels,
            device_props,
            fabric: Arc::new(Mutex::new(Default::default())),
            devices: Arc::new(Mutex::new(Default::default())),
        };
        // The registry lives in the MPI state, so the entry must not hold
        // the MPI runtime: that cycle would keep every cluster's MPI,
        // network and device state alive after the cluster is dropped.
        // Each spawn rebuilds the handle from its own process instead.
        let parts = (
            rt.fs.clone(),
            rt.cost.clone(),
            rt.kernels.clone(),
            rt.device_props,
            rt.fabric.clone(),
            rt.devices.clone(),
        );
        rt.mpi.register_exe(DAEMON_EXE, move |mpi_proc, args| {
            let (fs, cost, kernels, device_props, fabric, devices) = parts.clone();
            let mpi = mpi_proc.runtime().clone();
            let dac = DacRuntime { mpi, fs, cost, kernels, device_props, fabric, devices };
            daemon_main(mpi_proc, dac, args)
        });
        rt
    }

    /// A weak reference to the device pool, for leak checks: it is dead
    /// once the runtime and every daemon are dropped.
    pub fn devices_weak(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.devices)
    }

    /// The MPI runtime used by daemons and front-ends.
    pub fn mpi(&self) -> &MpiRuntime {
        &self.mpi
    }

    /// The shared pseudo-filesystem.
    pub fn fs(&self) -> &PseudoFs {
        &self.fs
    }

    /// The cost model.
    pub fn cost(&self) -> &DacCostModel {
        &self.cost
    }

    /// The kernel registry (register custom kernels here).
    pub fn kernels(&self) -> &KernelRegistry {
        &self.kernels
    }

    /// Declare an accelerator host's fabric identity (class, slice count,
    /// device parameters). Must happen before the host's backend is first
    /// instantiated (cluster build time); unregistered hosts default to
    /// an unsliced GPU-like device with the runtime-wide properties.
    pub fn register_fabric_host(&self, host: HostId, spec: FabricHostSpec) {
        self.fabric.lock().insert(host.index(), spec);
    }

    /// The fabric spec of `host`, if one was registered.
    pub fn fabric_spec(&self, host: HostId) -> Option<FabricHostSpec> {
        self.fabric.lock().get(&host.index()).copied()
    }

    /// The device backend attached to `host` (created on first use). One
    /// backend per accelerator host, matching Fig. 1(b); its class and
    /// slicing come from the registered [`FabricHostSpec`].
    fn device_for(&self, host: HostId) -> SharedBackend {
        let spec = self.fabric_spec(host).unwrap_or(FabricHostSpec {
            class: DeviceClass::GpuLike,
            slices: 1,
            props: self.device_props,
        });
        self.devices
            .lock()
            .entry(host.index())
            .or_insert_with(|| {
                Arc::new(Mutex::new(Backend::new(spec.class, spec.props, spec.slices)))
            })
            .clone()
    }
}

/// Pseudo-FS file naming a daemon's slice id on one accelerator host
/// (written by the front end before the dynamic spawn; absent = whole
/// device). One slice per (host, job), so the host index is a
/// sufficient key within the job's namespace.
pub(crate) fn slice_file(host_index: usize) -> String {
    format!("ac_slice_{host_index}")
}

/// Entry point of the accelerator daemon.
///
/// Args: `[job_id, cn_index, mode]` where mode is `static` (started by the
/// mother superior; rendezvous through a port file) or `dyn` (spawned by
/// the front-end via `MPI_Comm_spawn`).
async fn daemon_main(mut mpi: MpiProc, dac: DacRuntime, args: Vec<String>) {
    let job = JobId(args[0].parse().expect("daemon arg 0: job id"));
    let cn_index: usize = args[1].parse().expect("daemon arg 1: cn index");
    let mode = args.get(2).map(String::as_str).unwrap_or("static");

    let comm = match mode {
        "static" => {
            let world = mpi.world().expect("static daemons are launched as a world");
            // All daemons of the set synchronise, then the root opens the
            // port and publishes it for AC_Init (§III-C).
            mpi.barrier(world).await.expect("daemon world barrier");
            let merged = if world.rank() == 0 {
                let port = mpi.open_port();
                let woken = dac.fs.write(job, PseudoFs::ac_port_file(cn_index), port.clone());
                mpi.proc().wake_pollers(woken);
                let inter = mpi.comm_accept(&port, world).await.expect("daemon accept");
                mpi.close_port(&port);
                let merged = mpi.intercomm_merge(inter, true).await.expect("daemon merge");
                mpi.comm_disconnect(inter);
                merged
            } else {
                let inter = mpi.comm_accept("", world).await.expect("daemon accept (non-root)");
                let merged = mpi.intercomm_merge(inter, true).await.expect("daemon merge");
                mpi.comm_disconnect(inter);
                merged
            };
            // The world communicator is not used once the session
            // communicator exists.
            mpi.comm_disconnect(world);
            merged
        }
        "dyn" => {
            let parent = mpi.parent().expect("dynamic daemons are spawned");
            let merged = mpi.intercomm_merge(parent, true).await.expect("daemon merge");
            if let Some(world) = mpi.world() {
                mpi.comm_disconnect(world);
            }
            mpi.comm_disconnect(parent);
            merged
        }
        other => panic!("unknown daemon mode {other}"),
    };
    // Slice identity: written by the front end before a dynamic spawn;
    // absent (static daemons, pre-fabric paths) = whole device.
    let slice = dac
        .fs
        .read(job, &slice_file(mpi.host().index()))
        .and_then(|s| s.parse::<u32>().ok())
        .map(SliceId)
        .unwrap_or(SliceId::EXCLUSIVE);
    serve(mpi, dac, comm, slice).await;
}

/// The daemon service loop: execute computation requests from the compute
/// node (rank 0 of the merged communicator) until released. `slice` is
/// the device slice this daemon owns ([`SliceId::EXCLUSIVE`] = whole
/// device, the pre-fabric behaviour).
async fn serve(mut mpi: MpiProc, dac: DacRuntime, mut comm: Comm, slice: SliceId) {
    let device = dac.device_for(mpi.host());
    let mut my_ptrs: BTreeSet<DevPtr> = BTreeSet::new();
    let overhead = dac.cost.request_overhead;
    // Idempotency: request ids already executed, with the reply (if any)
    // and its wire size for replay, so a duplicated request never runs
    // its side effects twice and its replay costs what the reply did.
    // The loop serves one request at a time, so nothing is evicted
    // between a request's `admit` and its `store`.
    let mut reply_cache: ReplyCache<(RepBody, u64)> = ReplyCache::new(256);
    loop {
        let msg = mpi.recv(comm, Some(0), Some(TAG_REQ)).await;
        let request =
            msg.data.downcast_ref::<DacRequest>().expect("TAG_REQ messages carry DacRequest");
        let req = request.req;
        match reply_cache.admit(req) {
            Admit::Fresh => {}
            Admit::InFlight => continue,
            Admit::Done((body, bytes)) => {
                reply(&mpi, comm, req, body, bytes);
                continue;
            }
        }
        // Each replying arm yields its body and the payload bytes the
        // reply carries beyond the control header.
        let (body, payload_bytes) = match &request.body {
            ReqBody::Grow => {
                let inter = mpi
                    .comm_spawn(comm, DAEMON_EXE, &[], &[])
                    .await
                    .expect("daemon joins collective spawn");
                let merged = mpi.intercomm_merge(inter, false).await.expect("daemon joins merge");
                mpi.comm_disconnect(inter);
                mpi.comm_disconnect(comm); // superseded session comm
                comm = merged;
                continue;
            }
            ReqBody::Shrink { removed } => {
                let shrunk = mpi.comm_shrink(comm, removed).await.expect("daemon joins shrink");
                mpi.comm_disconnect(comm); // superseded session comm
                comm = shrunk;
                continue;
            }
            ReqBody::Release => {
                for p in std::mem::take(&mut my_ptrs) {
                    let _ = device.lock().mem_free(slice, p);
                }
                mpi.comm_disconnect(comm);
                break;
            }
            ReqBody::MemAlloc { size } => {
                if !overhead.is_zero() {
                    mpi.proc().sleep(overhead).await;
                }
                let r = device.lock().mem_alloc(slice, *size);
                if let Ok(p) = &r {
                    my_ptrs.insert(*p);
                }
                (RepBody::Ptr(r.map_err(|e| e.to_string())), 0)
            }
            ReqBody::MemFree { ptr } => {
                if !overhead.is_zero() {
                    mpi.proc().sleep(overhead).await;
                }
                let r = device.lock().mem_free(slice, *ptr);
                my_ptrs.remove(ptr);
                (RepBody::Ack(r.map_err(|e| e.to_string())), 0)
            }
            ReqBody::CopyH2D { ptr, offset, payload, overlap_credit } => {
                let dev_time = device.lock().device().props().h2d_time(payload.len() as u64);
                let effective = dev_time.saturating_sub(*overlap_credit);
                let d = overhead + effective;
                if !d.is_zero() {
                    mpi.proc().sleep(d).await;
                }
                let r = device.lock().device_mut().write(*ptr, *offset, payload);
                (RepBody::Ack(r.map_err(|e| e.to_string())), 0)
            }
            ReqBody::CopyD2H { ptr, offset, len } => {
                let d = overhead + device.lock().device().props().d2h_time(*len);
                if !d.is_zero() {
                    mpi.proc().sleep(d).await;
                }
                let r = device.lock().device().read(*ptr, *offset, *len);
                let bytes = r.as_ref().map(|v| v.len() as u64).unwrap_or(0);
                (RepBody::Data(r.map_err(|e| e.to_string())), bytes)
            }
            ReqBody::GroupReduceSum { ptr, elems, out, peers } => {
                let r = group_reduce_sum(&mut mpi, &dac, comm, &device, *ptr, *elems, *out, peers)
                    .await;
                (RepBody::Ack(r), 0)
            }
            ReqBody::Broadcast { ptr, payload, peers } => {
                let r = bcast_root(&mut mpi, &dac, comm, &device, *ptr, payload, peers).await;
                (RepBody::Ack(r), 0)
            }
            ReqBody::BcastRecv { ptr, root } => {
                let r = bcast_recv(&mut mpi, &dac, comm, &device, *ptr, *root).await;
                (RepBody::Ack(r), 0)
            }
            ReqBody::Gather { ptr, len, peers } => {
                let r = gather_root(&mut mpi, &dac, comm, &device, *ptr, *len, peers).await;
                let bytes = r.as_ref().map(|v| v.len() as u64).unwrap_or(0);
                (RepBody::Data(r), bytes)
            }
            ReqBody::GatherSend { ptr, len, root } => {
                let r = gather_send(&mut mpi, &dac, comm, &device, *ptr, *len, *root).await;
                (RepBody::Ack(r), 0)
            }
            ReqBody::KernelRun { name, args } => {
                let r = match dac.kernels.get(name) {
                    Some(k) => {
                        let props = device.lock().device().props();
                        let mut cost = (k.cost)(args, &props);
                        // Static fair share of the dispatch engine: a
                        // slice's kernels run `slices`× slower. Guarded
                        // so the exclusive path is arithmetically untouched.
                        let w = device.lock().dispatch_weight(slice);
                        if w != 1.0 {
                            cost = cost.mul_f64(w);
                        }
                        let d = overhead + cost;
                        if !d.is_zero() {
                            mpi.proc().sleep(d).await;
                        }
                        (k.body)(device.lock().device_mut(), args)
                    }
                    None => Err(format!("unknown kernel '{name}'")),
                };
                (RepBody::Ack(r), 0)
            }
        };
        let bytes = dac.cost.ctl_bytes + payload_bytes;
        reply_cache.store(req, (body.clone(), bytes));
        reply(&mpi, comm, req, body, bytes);
    }
}

/// Send `body` to the front end (rank 0) as `bytes` on the wire.
fn reply(mpi: &MpiProc, comm: Comm, req: u64, body: RepBody, bytes: u64) {
    let _ = mpi.send(comm, 0, TAG_REP, data(DacReply { req, body }), bytes);
}

/// Daemon-side group reduction: partial sums travel peer-to-peer over the
/// session communicator (a star on the group root), never through the
/// compute node — the extended host-free kernel pattern of §I.
#[allow(clippy::too_many_arguments)]
async fn group_reduce_sum(
    mpi: &mut MpiProc,
    dac: &DacRuntime,
    comm: Comm,
    device: &SharedBackend,
    ptr: DevPtr,
    elems: u64,
    out: DevPtr,
    peers: &[Rank],
) -> Result<(), String> {
    use crate::device::{as_f64s, f64s_to_bytes};
    let me = comm.rank();
    let root = *peers.first().ok_or("empty peer group")?;
    // Local partial sum (with a modelled compute cost).
    let props = device.lock().device().props();
    let cost = dac.cost.request_overhead
        + darms_sim::SimDuration::from_secs_f64(elems as f64 / (props.flops * 0.3).max(1.0));
    if !cost.is_zero() {
        mpi.proc().sleep(cost).await;
    }
    let bytes = device.lock().device().read(ptr, 0, elems * 8).map_err(|e| e.to_string())?;
    let partial: f64 = as_f64s(&bytes).iter().sum();
    if me == root {
        let mut total = partial;
        for _ in 1..peers.len() {
            let msg = mpi.recv(comm, None, Some(TAG_PEER)).await;
            total += *msg.data.downcast_ref::<f64>().ok_or("peer partial must be f64")?;
        }
        device
            .lock()
            .device_mut()
            .write(out, 0, &f64s_to_bytes(&[total]))
            .map_err(|e| e.to_string())?;
        Ok(())
    } else {
        mpi.send(comm, root, TAG_PEER, data(partial), 8).map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Root side of a fabric broadcast: land the payload on the root's own
/// device, then fan it out to the peers over the session communicator. A
/// multicast backend pays one `multicast_setup` for the whole fan-out
/// (the rank fabric replicates the payload); a unicast backend serialises
/// a device read-back per peer — the asymmetry the mixed-fabric sweeps
/// measure. Counters `dac.bcast_multicast` / `dac.bcast_unicast` record
/// which path ran.
async fn bcast_root(
    mpi: &mut MpiProc,
    dac: &DacRuntime,
    comm: Comm,
    device: &SharedBackend,
    ptr: DevPtr,
    payload: &Arc<Vec<u8>>,
    peers: &[(Rank, DevPtr)],
) -> Result<(), String> {
    let bytes = payload.len() as u64;
    let props = device.lock().device().props();
    let d = dac.cost.request_overhead + props.h2d_time(bytes);
    if !d.is_zero() {
        mpi.proc().sleep(d).await;
    }
    device.lock().device_mut().write(ptr, 0, payload).map_err(|e| e.to_string())?;
    if device.lock().multicast() {
        // One replication setup regardless of fan-out.
        if !dac.cost.multicast_setup.is_zero() {
            mpi.proc().sleep(dac.cost.multicast_setup).await;
        }
        mpi.proc().metrics().counter_inc("dac.bcast_multicast");
        for &(peer, _) in peers {
            mpi.send(comm, peer, TAG_PEER, data(BcastPayload { payload: payload.clone() }), bytes)
                .map_err(|e| e.to_string())?;
        }
    } else {
        // Unicast degeneration: a serial device read-back per peer.
        let d2h = props.d2h_time(bytes);
        for &(peer, _) in peers {
            if !d2h.is_zero() {
                mpi.proc().sleep(d2h).await;
            }
            mpi.proc().metrics().counter_inc("dac.bcast_unicast");
            mpi.send(comm, peer, TAG_PEER, data(BcastPayload { payload: payload.clone() }), bytes)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Non-root side of a fabric broadcast: await the payload from the root
/// over `TAG_PEER` and land it on the local device.
async fn bcast_recv(
    mpi: &mut MpiProc,
    dac: &DacRuntime,
    comm: Comm,
    device: &SharedBackend,
    ptr: DevPtr,
    root: Rank,
) -> Result<(), String> {
    let msg = mpi.recv(comm, Some(root), Some(TAG_PEER)).await;
    let payload = msg
        .data
        .downcast_ref::<BcastPayload>()
        .ok_or("peer message must be a broadcast payload")?
        .payload
        .clone();
    let d =
        dac.cost.request_overhead + device.lock().device().props().h2d_time(payload.len() as u64);
    if !d.is_zero() {
        mpi.proc().sleep(d).await;
    }
    device.lock().device_mut().write(ptr, 0, &payload).map_err(|e| e.to_string())
}

/// Root side of a scatter-gather read: read the local part, collect one
/// [`GatherPart`] per peer over `TAG_PEER`, and return the concatenation
/// in ascending session-rank order (deterministic regardless of arrival
/// order).
async fn gather_root(
    mpi: &mut MpiProc,
    dac: &DacRuntime,
    comm: Comm,
    device: &SharedBackend,
    ptr: DevPtr,
    len: u64,
    peers: &[Rank],
) -> Result<Vec<u8>, String> {
    let d = dac.cost.request_overhead + device.lock().device().props().d2h_time(len);
    if !d.is_zero() {
        mpi.proc().sleep(d).await;
    }
    let own = device.lock().device().read(ptr, 0, len).map_err(|e| e.to_string())?;
    let mut parts: Vec<(Rank, Vec<u8>)> = vec![(comm.rank(), own)];
    for _ in 0..peers.len() {
        let msg = mpi.recv(comm, None, Some(TAG_PEER)).await;
        let part =
            msg.data.downcast_ref::<GatherPart>().ok_or("peer message must be a gather part")?;
        parts.push((part.rank, part.bytes.clone()));
    }
    parts.sort_by_key(|(r, _)| *r);
    Ok(parts.into_iter().flat_map(|(_, b)| b).collect())
}

/// Non-root side of a scatter-gather read: read the local part and hand
/// it to the root over `TAG_PEER`, tagged with this daemon's session rank.
async fn gather_send(
    mpi: &mut MpiProc,
    dac: &DacRuntime,
    comm: Comm,
    device: &SharedBackend,
    ptr: DevPtr,
    len: u64,
    root: Rank,
) -> Result<(), String> {
    let d = dac.cost.request_overhead + device.lock().device().props().d2h_time(len);
    if !d.is_zero() {
        mpi.proc().sleep(d).await;
    }
    let bytes = device.lock().device().read(ptr, 0, len).map_err(|e| e.to_string())?;
    let wire = bytes.len() as u64;
    mpi.send(comm, root, TAG_PEER, data(GatherPart { rank: comm.rank(), bytes }), wire)
        .map_err(|e| e.to_string())
}
