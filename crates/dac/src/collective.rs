//! Collective `AC_Get` / `AC_Free` over the compute nodes of a
//! multi-node job (§III-D).
//!
//! When requested collectively, one compute node (the *collector*, node
//! index 0) gathers every participant's accelerator count, sends a
//! **single** `pbs_dynget` for the total, and distributes the grant.
//! Consequences, exactly as the paper states:
//!
//! - either **all** compute nodes get their accelerators or **none**
//!   (the batch system allocates the total or rejects);
//! - all participants share one client-id, so the sets can only be
//!   released **collectively**;
//! - each compute node's new daemons still live in that node's own
//!   session communicator — compute nodes never gain access to each
//!   other's accelerators (§III-C).
//!
//! Tasks of one job coordinate over a lightweight per-job channel whose
//! addresses are published through the job's pseudo-filesystem (the same
//! medium the port files use).

use darms_net::{Address, HostId};
use darms_rms::proto::{DeviceClass, DynReject, DynResource};
use darms_rms::{ifl, ClientId, JobCtx};
use darms_sim::SimDuration;

use crate::frontend::{AcSession, AcSet, DacError};

/// Wire messages of the per-job task channel.
#[derive(Clone)]
struct CollMsg {
    from: usize,
    body: CollBody,
}

#[derive(Clone)]
enum CollBody {
    /// Participant -> collector: my accelerator count for this call.
    Count(u32),
    /// Collector -> participant: your share of the grant (`slices`
    /// parallel to `accs`; empty for whole-device grants).
    Grant { client_id: ClientId, accs: Vec<HostId>, slices: Vec<u32> },
    /// Collector -> participant: the whole request was rejected.
    Rejected(DynReject),
    /// Participant -> collector: my share has been released locally.
    Released,
}

/// A per-job coordination channel between the job's compute-node tasks.
///
/// Every task of the job must construct it (once) before collective
/// calls; construction publishes this task's address and waits for all
/// peers — a barrier, like `MPI_Init` for the job's task group.
pub struct TaskComm {
    me: usize,
    peers: Vec<Address>,
}

impl TaskComm {
    /// File name for task `i`'s channel address.
    fn addr_file(i: usize) -> String {
        format!("task_addr_{i}")
    }

    /// Establish the channel from within a job task. Blocks until every
    /// compute node of the job has published its address.
    pub async fn establish(jc: &JobCtx) -> TaskComm {
        let n = jc.compute.len();
        let my_addr = jc.net.bind_auto(jc.host, jc.proc.endpoint());
        let woken = jc.fs.write(jc.job, Self::addr_file(jc.node_index), encode_addr(my_addr));
        jc.proc.wake_pollers(woken);
        let poll = SimDuration::from_millis(1);
        let mut peers = Vec::with_capacity(n);
        for i in 0..n {
            let addr = jc.fs.wait_for(&jc.proc, jc.job, &Self::addr_file(i), poll).await;
            peers.push(decode_addr(&addr));
        }
        TaskComm { me: jc.node_index, peers }
    }

    /// This task's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Number of participating tasks.
    pub fn size(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, jc: &JobCtx, to: usize, body: CollBody) {
        let msg = CollMsg { from: self.me, body };
        let out = jc.net.send_from_proc(&jc.proc, jc.host, self.peers[to], msg, 64);
        assert!(out.is_sent(), "task channel send failed");
    }

    async fn recv_from(&self, jc: &JobCtx, from: usize) -> CollBody {
        let env = jc.proc.recv_where(|e| e.peek::<CollMsg>().is_some_and(|m| m.from == from)).await;
        env.downcast::<CollMsg>().expect("matched").body
    }

    async fn recv_any(&self, jc: &JobCtx) -> (usize, CollBody) {
        let env = jc.proc.recv_where(|e| e.peek::<CollMsg>().is_some()).await;
        let m = env.downcast::<CollMsg>().expect("matched");
        (m.from, m.body)
    }
}

impl AcSession {
    /// Collective `AC_Get`: every compute-node task of the job calls this
    /// with its own `count` (which may be zero). The collector (node 0)
    /// sends one `pbs_dynget` for the total; on success each node spawns
    /// daemons on its share and receives a set carrying the **shared**
    /// client-id. All-or-nothing: if the total cannot be satisfied,
    /// every participant gets `Err(Rejected)`.
    pub async fn ac_get_collective(
        &mut self,
        jc: &JobCtx,
        tc: &TaskComm,
        count: u32,
    ) -> Result<AcSet, DacError> {
        self.ac_get_collective_class(jc, tc, count, DeviceClass::GpuLike).await
    }

    /// Collective `AC_Get` constrained to a device class: same single
    /// total request and all-or-nothing semantics, but only accelerators
    /// of `class` satisfy it (the heterogeneous-fabric extension,
    /// DESIGN.md §15).
    pub async fn ac_get_collective_class(
        &mut self,
        jc: &JobCtx,
        tc: &TaskComm,
        count: u32,
        class: DeviceClass,
    ) -> Result<AcSet, DacError> {
        let n = tc.size();
        if n == 1 {
            // Degenerate collective: identical to the individual call.
            return self.ac_get_class(count, count, class).await;
        }
        if tc.me() == 0 {
            // Collect everyone's count (participants indexed 1..n).
            let mut counts = vec![0u32; n];
            counts[0] = count;
            for _ in 1..n {
                match tc.recv_any(jc).await {
                    (from, CollBody::Count(c)) => counts[from] = c,
                    (_, CollBody::Grant { .. } | CollBody::Rejected(_) | CollBody::Released) => {
                        unreachable!("participants send counts first")
                    }
                }
            }
            let total: u32 = counts.iter().sum();
            // One request for the grand total (the paper's single-request
            // semantics), constrained to the requested device class.
            let grant = ifl::pbs_dynget_kind(
                &jc.proc,
                &jc.net,
                jc.host,
                jc.server,
                jc.job,
                jc.host,
                total,
                total,
                DynResource::Accelerators { class },
            )
            .await;
            match grant {
                Ok(g) => {
                    // Slice the grant per participant, in node order.
                    let share_slices = |lo: usize, hi: usize| -> Vec<u32> {
                        if g.slices.is_empty() {
                            Vec::new()
                        } else {
                            g.slices[lo..hi].to_vec()
                        }
                    };
                    let mut offset = counts[0] as usize;
                    for (i, &c) in counts.iter().enumerate().skip(1) {
                        let share = g.accs[offset..offset + c as usize].to_vec();
                        let slices = share_slices(offset, offset + c as usize);
                        offset += c as usize;
                        tc.send(
                            jc,
                            i,
                            CollBody::Grant { client_id: g.client_id, accs: share, slices },
                        );
                    }
                    let mine = g.accs[..counts[0] as usize].to_vec();
                    let mine_slices = share_slices(0, counts[0] as usize);
                    self.adopt_grant(g.client_id, mine, mine_slices).await
                }
                Err(r) => {
                    for i in 1..n {
                        tc.send(jc, i, CollBody::Rejected(r));
                    }
                    Err(DacError::Rejected(r))
                }
            }
        } else {
            tc.send(jc, 0, CollBody::Count(count));
            match tc.recv_from(jc, 0).await {
                CollBody::Grant { client_id, accs, slices } => {
                    self.adopt_grant(client_id, accs, slices).await
                }
                CollBody::Rejected(r) => Err(DacError::Rejected(r)),
                CollBody::Count(_) | CollBody::Released => {
                    unreachable!("collector replies with Grant or Rejected")
                }
            }
        }
    }

    /// Collective `AC_Free`: releases a collectively obtained set. All
    /// participants call it with their local share; each tears down its
    /// local daemons, then the collector issues the single `pbs_dynfree`
    /// for the shared client-id (the paper: same client-id ⇒ released
    /// only collectively).
    pub async fn ac_free_collective(
        &mut self,
        jc: &JobCtx,
        tc: &TaskComm,
        set: &AcSet,
    ) -> Result<(), DacError> {
        let n = tc.size();
        if n == 1 {
            return self.ac_free(set).await;
        }
        // Tear down local daemons; the server is notified once, below.
        if !set.handles.is_empty() {
            self.release_local(set).await?;
        }
        if tc.me() == 0 {
            for _ in 1..n {
                match tc.recv_any(jc).await {
                    (_, CollBody::Released) => {}
                    (_, CollBody::Count(_) | CollBody::Grant { .. } | CollBody::Rejected(_)) => {
                        unreachable!("participants send Released")
                    }
                }
            }
            let ok = ifl::pbs_dynfree(&jc.proc, &jc.net, jc.host, jc.server, jc.job, set.client_id)
                .await;
            debug_assert!(ok, "server lost track of the collective set");
            Ok(())
        } else {
            tc.send(jc, 0, CollBody::Released);
            Ok(())
        }
    }
}

fn encode_addr(a: Address) -> String {
    format!("{}:{}", a.host.index(), a.port.0)
}

fn decode_addr(s: &str) -> Address {
    let (h, p) = s.split_once(':').expect("host:port");
    Address::new(
        HostId::from_raw(h.parse().expect("host index")),
        darms_net::Port(p.parse().expect("port")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::Port;

    #[test]
    fn addr_encoding_round_trips() {
        let a = Address::new(HostId::from_raw(3), Port(40001));
        assert_eq!(decode_addr(&encode_addr(a)), a);
    }

    #[test]
    fn addr_file_naming() {
        assert_eq!(TaskComm::addr_file(0), "task_addr_0");
        assert_eq!(TaskComm::addr_file(7), "task_addr_7");
    }
}
