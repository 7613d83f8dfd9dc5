//! Free-pool index property test: the bucketed [`FreeTracker`] must
//! return exactly the host sets the retained linear-scan reference
//! returns, for both policies, across randomized take/give-back
//! sequences. Any divergence would silently change every scheduling
//! decision downstream, so this is the load-bearing gate on the index.

use darms_net::HostId;
use darms_rms::proto::{ClusterSnapshot, DeviceClass, NodeSnap, QueuedJobSnap, RunningJobSnap};
use darms_rms::{JobId, NodeRole};
use darms_sched::alloc::reference::LinearFreeTracker;
use darms_sched::alloc::{AllocPolicy, FreeTracker};
use darms_sched::backfill::shadow_time;
use darms_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn h(i: usize) -> HostId {
    HostId::from_raw(i)
}

/// Node palette: (total cores, free cores) — mixes full, partial, empty.
const CORES: [(u32, u32); 6] = [(8, 8), (8, 4), (8, 0), (16, 16), (16, 3), (4, 4)];

/// Host ids for `n` nodes in snapshot order, by layout: 0 dense
/// (`0..n`); 1 a never-registered head at id 0 and a gap of `gap - 1`
/// ids between nodes; 2 the same ids in descending order.
fn layout_ids(layout: u8, n: usize, gap: usize) -> Vec<HostId> {
    match layout {
        0 => (0..n).map(h).collect(),
        1 => (0..n).map(|i| h(1 + i * gap)).collect(),
        _ => (0..n).rev().map(|i| h(1 + i * gap)).collect(),
    }
}

/// Every id up to two past the largest of `ids` that is not one of
/// them, plus the largest representable id.
fn unknown_ids(ids: &[HostId]) -> Vec<HostId> {
    let top = ids.iter().map(|x| x.index()).max().unwrap_or(0);
    let mut out: Vec<HostId> = (0..top + 3).map(h).filter(|x| !ids.contains(x)).collect();
    out.push(h(usize::MAX));
    out
}

/// Build a snapshot from per-node recipe bytes: low bits pick the core
/// palette / busy flag, one bit marks the node offline.
fn snapshot(computes: &[u8], accs: &[u8]) -> ClusterSnapshot {
    snapshot_on(computes, accs, &layout_ids(0, computes.len() + accs.len(), 1))
}

/// [`snapshot`] with the nodes on `ids` (compute nodes first).
fn snapshot_on(computes: &[u8], accs: &[u8], ids: &[HostId]) -> ClusterSnapshot {
    let mut nodes = Vec::new();
    for (i, &r) in computes.iter().enumerate() {
        let (total, free) = CORES[r as usize % CORES.len()];
        nodes.push(NodeSnap {
            host: ids[i],
            role: NodeRole::Compute,
            cores_total: total,
            cores_free: free,
            offline: r & 0x40 != 0,
            class: DeviceClass::default(),
        });
    }
    for (j, &r) in accs.iter().enumerate() {
        let busy = r & 1 != 0;
        nodes.push(NodeSnap {
            host: ids[computes.len() + j],
            role: NodeRole::Accelerator,
            cores_total: 1,
            cores_free: u32::from(!busy),
            offline: r & 0x40 != 0,
            class: DeviceClass::default(),
        });
    }
    ClusterSnapshot { nodes, queued: vec![], running: vec![], dyn_pending: None }
}

/// Sliceable-device palette: (slices total, slices free).
const SLICES: [(u32, u32); 6] = [(1, 1), (4, 4), (4, 2), (8, 8), (8, 5), (2, 0)];

fn class_of_recipe(r: u8) -> DeviceClass {
    if r & 0x2 != 0 {
        DeviceClass::DpuRankLike
    } else {
        DeviceClass::GpuLike
    }
}

/// Build an all-accelerator fabric snapshot from recipe bytes: palette
/// index, device class bit, offline bit.
fn fabric_snapshot(accs: &[u8], ids: &[HostId]) -> ClusterSnapshot {
    let nodes = accs
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let (total, free) = SLICES[(r >> 2) as usize % SLICES.len()];
            NodeSnap {
                host: ids[i],
                role: NodeRole::Accelerator,
                cores_total: total,
                cores_free: free,
                offline: r & 0x40 != 0,
                class: class_of_recipe(r),
            }
        })
        .collect();
    ClusterSnapshot { nodes, queued: vec![], running: vec![], dyn_pending: None }
}

fn job(nodes: usize, ppn: u32, acpn: u32) -> QueuedJobSnap {
    QueuedJobSnap {
        job: JobId(1),
        owner: "prop".into(),
        submitted: SimTime::ZERO,
        nodes,
        ppn,
        acpn,
        walltime_estimate: SimDuration::from_secs(60),
    }
}

/// The EASY shadow computed by giving running jobs back to a clone of
/// the tracker: the reference for [`shadow_time`]'s counting view.
fn clone_shadow_time(
    blocked: &QueuedJobSnap,
    tracker: &FreeTracker,
    running: &[RunningJobSnap],
    now: SimTime,
) -> Option<SimTime> {
    if tracker.fits(blocked) {
        return Some(now);
    }
    let mut future = tracker.clone();
    let mut ends: Vec<(&RunningJobSnap, SimTime)> =
        running.iter().map(|r| (r, r.started + r.walltime_estimate)).collect();
    ends.sort_by_key(|(r, t)| (*t, r.job));
    for (r, end) in ends {
        future.give_back(&r.compute_hosts, r.ppn, &r.acc_hosts);
        if future.fits(blocked) {
            return Some(end.max(now));
        }
    }
    None
}

/// Apply the same op sequence to the indexed tracker and the linear
/// reference, both built from the nodes on `ids`; every return value
/// and every host's free cores (`unknown` hosts included) must be
/// identical after every op.
fn check_tracker_ops(
    computes: &[u8],
    accs: &[u8],
    ids: &[HostId],
    unknown: &[HostId],
    ops: &[(u8, usize, u32, u8)],
) {
    let snap = snapshot_on(computes, accs, ids);
    let mut fast = FreeTracker::from_snapshot(&snap);
    let mut slow = LinearFreeTracker::from_snapshot(&snap);
    assert_eq!(fast.free_acc_count(), slow.free_acc_count());
    // History of grants, so give-back ops return plausible sets.
    let mut grants: Vec<(Vec<HostId>, u32, Vec<HostId>)> = Vec::new();
    for &(op, k, ppn, pol) in ops {
        let policy = if pol == 0 { AllocPolicy::FirstFit } else { AllocPolicy::BestFit };
        match op {
            0 => {
                let a = fast.take_compute(k, ppn, policy);
                let b = slow.take_compute(k, ppn, policy);
                assert_eq!(&a, &b, "take_compute(k={}, ppn={}, {:?})", k, ppn, policy);
                if let Some(hosts) = a {
                    grants.push((hosts, ppn, Vec::new()));
                }
            }
            1 => {
                let a = fast.take_accelerators(k);
                let b = slow.take_accelerators(k);
                assert_eq!(&a, &b, "take_accelerators({})", k);
                if let Some(hosts) = a {
                    grants.push((Vec::new(), 0, hosts));
                }
            }
            2 => {
                if !grants.is_empty() {
                    let (ch, gppn, ah) = grants.remove(k % grants.len());
                    fast.give_back(&ch, gppn, &ah);
                    slow.give_back(&ch, gppn, &ah);
                }
            }
            _ => {
                let q = job(k, ppn, u32::from(pol));
                assert_eq!(fast.fits(&q), slow.fits(&q));
            }
        }
        // Full-state agreement after every op.
        assert_eq!(fast.free_acc_count(), slow.free_acc_count());
        for &host in ids.iter().chain(unknown) {
            assert_eq!(fast.free_cores(host), slow.free_cores(host), "free_cores({host:?})");
        }
    }
}

/// The fabric twin of [`check_tracker_ops`]: class-constrained and slice
/// grants, revokes and server patches on an all-accelerator snapshot.
fn check_fabric_ops(
    accs: &[u8],
    ids: &[HostId],
    unknown: &[HostId],
    ops: &[(u8, usize, usize, u8)],
) {
    let snap = fabric_snapshot(accs, ids);
    let mut fast = FreeTracker::from_snapshot(&snap);
    let mut slow = LinearFreeTracker::from_snapshot(&snap);
    // History of slice grants, so revokes return plausible sets; the
    // most recent grant doubles as the exclusion list (a job's own
    // footprint) for the next request.
    let mut slice_grants: Vec<Vec<HostId>> = Vec::new();
    for &(op, k, sel, cls) in ops {
        let class = if cls == 0 { DeviceClass::GpuLike } else { DeviceClass::DpuRankLike };
        match op {
            0 => {
                let min = sel % 4;
                let a = fast.take_accelerators_upto(k, min, class);
                let b = slow.take_accelerators_upto(k, min, class);
                assert_eq!(&a, &b, "take_accelerators_upto({}, {}, {})", k, min, class);
                if let Some(hosts) = a {
                    // Whole devices revoke slice-by-slice too (the
                    // server frees a job's holdings per host).
                    slice_grants.push(hosts);
                }
            }
            1 => {
                let exclude = slice_grants.last().cloned().unwrap_or_default();
                let a = fast.take_slices(k, class, &exclude);
                let b = slow.take_slices(k, class, &exclude);
                assert_eq!(&a, &b, "take_slices({}, {}, {:?})", k, class, &exclude);
                if let Some(hosts) = a {
                    slice_grants.push(hosts);
                }
            }
            2 => {
                if !slice_grants.is_empty() {
                    let hosts = slice_grants.remove(sel % slice_grants.len());
                    fast.give_back_slices(&hosts);
                    slow.give_back_slices(&hosts);
                }
            }
            3 => {
                // An authoritative server patch: arbitrary free/total/
                // offline overwrite for one accelerator host (covers
                // offline, revive, and out-of-band allocation).
                let host = ids[sel % ids.len()];
                let (total, _) = SLICES[k % SLICES.len()];
                let n = NodeSnap {
                    host,
                    role: NodeRole::Accelerator,
                    cores_total: total,
                    cores_free: (sel as u32) % (total + 1),
                    offline: sel & 0x1 != 0,
                    class,
                };
                fast.apply(&n);
                slow.apply_acc(&n);
            }
            _ => {
                assert_eq!(fast.free_slice_count(class, &[]), slow.free_slice_count(class, &[]));
            }
        }
        // Full-state agreement after every op.
        assert_eq!(fast.free_acc_count(), slow.free_acc_count());
        for class in [DeviceClass::GpuLike, DeviceClass::DpuRankLike] {
            // Every free host of the class, in FIFO order.
            assert_eq!(
                fast.clone().take_accelerators_upto(usize::MAX, 1, class),
                slow.clone().take_accelerators_upto(usize::MAX, 1, class)
            );
            assert_eq!(fast.free_slice_count(class, &[]), slow.free_slice_count(class, &[]));
        }
        for &host in ids.iter().chain(unknown) {
            assert_eq!(fast.free_slices_of(host), slow.free_slices_of(host), "{host:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// `shadow_time` counts give-backs on a view of the tracker instead
    /// of cloning it; the reservation must equal the clone's for every
    /// blocked shape, including running jobs that name a host twice,
    /// offline or unknown hosts, and accelerators already free.
    #[test]
    fn shadow_view_matches_clone(
        computes in prop::collection::vec(0u8..=0x7f, 1..16),
        accs in prop::collection::vec(0u8..=0x7f, 0..10),
        takes in prop::collection::vec((1usize..4, 0u32..10, 0usize..3), 0..6),
        running in prop::collection::vec(
            (prop::collection::vec(0usize..30, 0..5), 0u32..10, prop::collection::vec(0usize..30, 0..3), 0u64..400),
            0..10,
        ),
        blocked in (1usize..6, 0u32..18, 0u32..3),
        now in 0u64..300,
    ) {
        let mut tracker = FreeTracker::from_snapshot(&snapshot(&computes, &accs));
        for (k, ppn, a) in takes {
            let _ = tracker.take_compute(k, ppn, AllocPolicy::FirstFit);
            let _ = tracker.take_accelerators(a);
        }
        let running: Vec<RunningJobSnap> = running
            .into_iter()
            .enumerate()
            .map(|(i, (ch, ppn, ah, end))| RunningJobSnap {
                job: JobId(i as u64),
                owner: "prop".into(),
                started: SimTime::ZERO,
                walltime_estimate: SimDuration::from_secs(end),
                compute_hosts: ch.into_iter().map(h).collect(),
                ppn,
                acc_hosts: ah.into_iter().map(h).collect(),
            })
            .collect();
        let q = job(blocked.0, blocked.1, blocked.2);
        let now = SimTime::ZERO + SimDuration::from_secs(now);
        prop_assert_eq!(
            shadow_time(&q, &tracker, &running, now),
            clone_shadow_time(&q, &tracker, &running, now)
        );
    }

    /// Apply the same randomized op sequence to the indexed tracker and
    /// the linear reference; every return value must be identical.
    #[test]
    fn indexed_tracker_matches_linear_reference(
        computes in prop::collection::vec(0u8..=0x7f, 1..24),
        accs in prop::collection::vec(0u8..=0x7f, 0..12),
        ops in prop::collection::vec((0u8..4, 1usize..5, 0u32..18, 0u8..2), 1..40),
    ) {
        let ids = layout_ids(0, computes.len() + accs.len(), 1);
        check_tracker_ops(&computes, &accs, &ids, &unknown_ids(&ids), &ops);
    }

    /// The same over host ids that are not `0..n`: gaps, a head host
    /// that is never in the snapshot, and nodes listed in descending id
    /// order. Grants must still follow snapshot (registration) order,
    /// every unknown host must read as having nothing free, and a delta
    /// patch for an unknown compute host must ask for a full snapshot.
    #[test]
    fn indexed_tracker_matches_linear_reference_on_sparse_ids(
        computes in prop::collection::vec(0u8..=0x7f, 1..24),
        accs in prop::collection::vec(0u8..=0x7f, 0..12),
        layout in 1u8..3,
        gap in 1usize..5,
        ops in prop::collection::vec((0u8..4, 1usize..5, 0u32..18, 0u8..2), 1..40),
    ) {
        let ids = layout_ids(layout, computes.len() + accs.len(), gap);
        let unknown = unknown_ids(&ids);
        check_tracker_ops(&computes, &accs, &ids, &unknown, &ops);
        let mut t = FreeTracker::from_snapshot(&snapshot_on(&computes, &accs, &ids));
        for &host in &unknown {
            let n = NodeSnap {
                host,
                role: NodeRole::Compute,
                cores_total: 8,
                cores_free: 8,
                offline: false,
                class: DeviceClass::default(),
            };
            prop_assert!(!t.apply(&n), "apply({:?}) of an unknown compute host", host);
        }
    }

    /// Per-class pools and slice accounting: the indexed tracker and the
    /// linear reference must agree on every class-constrained grant,
    /// slice grant (with exclusion), revoke, and offline/revive patch —
    /// the fabric extension of the invariant above. The pools mix
    /// GpuLike and DpuRankLike hosts, so bounded takes skip hosts of the
    /// other class and must put them back in FIFO order.
    #[test]
    fn class_and_slice_tracking_matches_linear_reference(
        accs in prop::collection::vec(0u8..=0x7f, 1..16),
        ops in prop::collection::vec((0u8..5, 1usize..4, 0usize..16, 0u8..2), 1..48),
    ) {
        let ids = layout_ids(0, accs.len(), 1);
        check_fabric_ops(&accs, &ids, &unknown_ids(&ids), &ops);
    }

    /// [`class_and_slice_tracking_matches_linear_reference`] over sparse
    /// and descending host ids: slice placement breaks ties by snapshot
    /// order, not by host id.
    #[test]
    fn class_and_slice_tracking_matches_linear_reference_on_sparse_ids(
        accs in prop::collection::vec(0u8..=0x7f, 1..16),
        layout in 1u8..3,
        gap in 1usize..5,
        ops in prop::collection::vec((0u8..5, 1usize..4, 0usize..16, 0u8..2), 1..48),
    ) {
        let ids = layout_ids(layout, accs.len(), gap);
        check_fabric_ops(&accs, &ids, &unknown_ids(&ids), &ops);
    }
}
