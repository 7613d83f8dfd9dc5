//! The server's node database: compute nodes with core counts and
//! exclusively-allocated accelerator nodes, with allocation bookkeeping.
//!
//! ## Indexed free-pools
//!
//! Every query the scheduler path issues per decision used to be a
//! linear scan over all nodes, which is O(hosts) per job at datacenter
//! scale. The database therefore maintains incremental indexes next to
//! the flat records:
//!
//! - `compute_by_free`: online compute nodes bucketed by free-core
//!   count, so "hosts with ≥ ppn free" enumerates only matching
//!   buckets;
//! - `free_accs`: the set of online, fully-free accelerator nodes;
//! - `job_hosts`: every host a job holds resources on, so releasing a
//!   finished job touches its own hosts instead of scanning the world;
//! - running sums for the usage counters, so utilisation metrics are
//!   O(1) per sample.
//!
//! Host-keyed state is dense: host ids are the indices `0..n` the
//! network hands out, so the host-to-record map is a [`HostSlots`]
//! array, and the buckets, the free-accelerator pool and the dirty set
//! are [`BitSet`]s over registration indices. Each iterates in
//! ascending registration order, the order the B-tree sets they
//! replaced gave.
//!
//! The pre-index linear scans are retained as `*_linear` methods and
//! cross-checked against the indexed paths by a property test over
//! randomized allocate/release/offline sequences (`darms-rms`
//! `tests/nodedb_props.rs`).

use std::collections::BTreeMap;

use darms_net::{BitSet, HostId, HostSlots};

use crate::job::JobId;
use crate::proto::DeviceClass;
use crate::remove_compact;

/// Role of a node in the database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeRole {
    /// Compute node with a number of cores; multiple jobs may share it if
    /// cores remain.
    Compute,
    /// Network-attached accelerator; allocated exclusively to one job at
    /// a time (the ARM pool of the DAC architecture).
    Accelerator,
}

/// One node's record.
#[derive(Clone, Debug)]
pub struct NodeRecord {
    /// The host backing this node.
    pub host: HostId,
    /// Role.
    pub role: NodeRole,
    /// Device class (meaningful for accelerators).
    pub class: DeviceClass,
    /// Total cores (slice count for accelerators; 1 = unsliced).
    pub cores_total: u32,
    /// Currently unallocated cores (free slices for accelerators).
    pub cores_free: u32,
    /// Jobs holding cores here, with counts.
    pub jobs: BTreeMap<JobId, u32>,
    /// The slice id each job holding one slice of this accelerator holds
    /// (ids are 1-based; id 0 means "the whole device" on the wire). A
    /// whole-device holder holds every slice and has no entry, so the
    /// free slices are the ids in `1..=cores_total` that no entry names.
    pub job_slices: BTreeMap<JobId, u32>,
    /// Administratively offline (fault injection / maintenance).
    pub offline: bool,
}

impl NodeRecord {
    /// True if nothing is allocated here.
    pub fn is_free(&self) -> bool {
        self.cores_free == self.cores_total && !self.offline
    }

    /// True if a slice of this accelerator could be granted to `job`
    /// right now (free capacity, online, class match, and the job does
    /// not already hold part of this device — a job keeps at most one
    /// concurrent dynamic set per host).
    pub fn can_slice(&self, class: DeviceClass, job: JobId) -> bool {
        self.role == NodeRole::Accelerator
            && self.class == class
            && !self.offline
            && self.cores_free >= 1
            && !self.jobs.contains_key(&job)
    }
}

/// In-memory node database.
#[derive(Clone, Debug, Default)]
pub struct NodeDb {
    nodes: Vec<NodeRecord>,
    /// Registration index of each host.
    by_host: HostSlots,
    /// Online compute nodes by free-core count: bucket `f` holds the
    /// indices (registration order) of the nodes with `f` free cores.
    compute_by_free: Vec<BitSet>,
    /// Online, fully-free accelerator nodes (indices).
    free_accs: BitSet,
    /// Hosts each live job holds resources on (insertion order).
    job_hosts: BTreeMap<JobId, Vec<HostId>>,
    /// Running totals for `compute_core_usage` (include offline nodes,
    /// matching the linear sum).
    compute_free_sum: u32,
    compute_total_sum: u32,
    /// Total accelerator count for `accelerator_usage`.
    acc_total: usize,
    /// Nodes whose scheduler-visible state (`cores_free`/`offline`)
    /// changed since the last [`NodeDb::take_dirty`] — the changelog
    /// behind incremental cluster snapshots.
    dirty: BitSet,
}

impl NodeDb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty database sized for the host ids `0..hosts`: room
    /// for that many records, and a host table that never regrows while
    /// they are registered.
    pub fn with_capacity(hosts: usize) -> Self {
        NodeDb {
            nodes: Vec::with_capacity(hosts),
            by_host: HostSlots::with_capacity(hosts),
            free_accs: BitSet::with_capacity(hosts),
            dirty: BitSet::with_capacity(hosts),
            ..Self::default()
        }
    }

    /// Register a compute node with `cores` cores.
    pub fn add_compute(&mut self, host: HostId, cores: u32) {
        self.add(host, NodeRole::Compute, cores.max(1), DeviceClass::default());
    }

    /// Register an unsliced GPU-like accelerator node (the paper's case).
    pub fn add_accelerator(&mut self, host: HostId) {
        self.add_accelerator_device(host, DeviceClass::GpuLike, 1);
    }

    /// Register an accelerator of the given class, partitioned into
    /// `slices` isolated slices (1 = exclusive whole-device allocation).
    pub fn add_accelerator_device(&mut self, host: HostId, class: DeviceClass, slices: u32) {
        self.add(host, NodeRole::Accelerator, slices.max(1), class);
    }

    fn add(&mut self, host: HostId, role: NodeRole, cores: u32, class: DeviceClass) {
        let idx = self.nodes.len();
        assert!(
            self.by_host.insert(host, idx),
            "host {host:?} registered twice in the node database"
        );
        self.dirty.insert(idx);
        match role {
            NodeRole::Compute => {
                self.bucket(cores).insert(idx);
                self.compute_free_sum += cores;
                self.compute_total_sum += cores;
            }
            NodeRole::Accelerator => {
                self.free_accs.insert(idx);
                self.acc_total += 1;
            }
        }
        self.nodes.push(NodeRecord {
            host,
            role,
            class,
            cores_total: cores,
            cores_free: cores,
            jobs: BTreeMap::new(),
            job_slices: BTreeMap::new(),
            offline: false,
        });
    }

    /// The free-count bucket `free`, created (empty) if needed.
    fn bucket(&mut self, free: u32) -> &mut BitSet {
        let f = free as usize;
        if self.compute_by_free.len() <= f {
            self.compute_by_free.resize_with(f + 1, BitSet::default);
        }
        &mut self.compute_by_free[f]
    }

    /// Move a compute node between free-count buckets (no-op while the
    /// node is offline — offline nodes are not indexed).
    fn rebucket_compute(&mut self, idx: usize, old_free: u32, new_free: u32) {
        if self.nodes[idx].offline || old_free == new_free {
            return;
        }
        self.bucket(old_free).remove(idx);
        self.bucket(new_free).insert(idx);
    }

    /// All node records.
    pub fn nodes(&self) -> &[NodeRecord] {
        &self.nodes
    }

    /// Drain the node indices whose scheduler-visible state changed
    /// since the previous drain, in ascending registration order however
    /// they were dirtied. A full snapshot also counts as a drain: after
    /// serving one, the recipient is current, so only changes from that
    /// point on matter.
    pub fn take_dirty(&mut self) -> Vec<usize> {
        self.dirty.drain()
    }

    /// Mark `host` changed, so the next [`NodeDb::take_dirty`] yields it
    /// (no-op for an unregistered host).
    pub fn mark_dirty(&mut self, host: HostId) {
        if let Some(idx) = self.by_host.get(host) {
            self.dirty.insert(idx);
        }
    }

    /// Record for one host.
    pub fn get(&self, host: HostId) -> Option<&NodeRecord> {
        self.by_host.get(host).map(|i| &self.nodes[i])
    }

    /// Registration index of a host (its position in [`NodeDb::nodes`]).
    pub fn index_of(&self, host: HostId) -> Option<usize> {
        self.by_host.get(host)
    }

    /// Registration index of a host the caller requires to be
    /// registered; panics naming `what` the caller was doing otherwise.
    fn known(&self, host: HostId, what: &str) -> usize {
        self.by_host.get(host).unwrap_or_else(|| panic!("{what} unknown host {host:?}"))
    }

    /// Take or release a node administratively.
    pub fn set_offline(&mut self, host: HostId, offline: bool) {
        let Some(idx) = self.by_host.get(host) else { return };
        if self.nodes[idx].offline == offline {
            return;
        }
        self.dirty.insert(idx);
        // De-index before the flip (rebucket skips offline nodes), then
        // flip, then re-index with the node's current occupancy.
        let n = &self.nodes[idx];
        match (n.role, offline) {
            (NodeRole::Compute, true) => {
                let free = n.cores_free;
                self.bucket(free).remove(idx);
            }
            (NodeRole::Compute, false) => {
                let free = n.cores_free;
                self.bucket(free).insert(idx);
            }
            (NodeRole::Accelerator, true) => {
                self.free_accs.remove(idx);
            }
            (NodeRole::Accelerator, false) => {
                if n.cores_free == n.cores_total {
                    self.free_accs.insert(idx);
                }
            }
        }
        self.nodes[idx].offline = offline;
    }

    /// Compute hosts with at least `ppn` free cores, in registration order.
    pub fn free_compute(&self, ppn: u32) -> Vec<HostId> {
        let fitting = self.compute_by_free.get(ppn as usize..).unwrap_or(&[]);
        BitSet::union(fitting).map(|i| self.nodes[i].host).collect()
    }

    /// Fully free accelerator hosts, in registration order.
    pub fn free_accelerators(&self) -> Vec<HostId> {
        self.free_accs.iter().map(|i| self.nodes[i].host).collect()
    }

    /// Linear-scan reference for [`NodeDb::free_compute`] (retained for
    /// the index-consistency property tests).
    #[doc(hidden)]
    pub fn free_compute_linear(&self, ppn: u32) -> Vec<HostId> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::Compute && !n.offline && n.cores_free >= ppn)
            .map(|n| n.host)
            .collect()
    }

    /// Linear-scan reference for [`NodeDb::free_accelerators`].
    #[doc(hidden)]
    pub fn free_accelerators_linear(&self) -> Vec<HostId> {
        self.nodes
            .iter()
            .filter(|n| n.role == NodeRole::Accelerator && n.is_free())
            .map(|n| n.host)
            .collect()
    }

    /// Allocate `ppn` cores on a compute node to a job. Panics if the
    /// node cannot satisfy it — the scheduler must only hand out feasible
    /// allocations (this invariant is property-tested).
    pub fn allocate_compute(&mut self, host: HostId, job: JobId, ppn: u32) {
        let idx = self.known(host, "allocating");
        let n = &mut self.nodes[idx];
        assert_eq!(n.role, NodeRole::Compute, "allocate_compute on an accelerator");
        assert!(!n.offline, "allocate on offline node");
        assert!(n.cores_free >= ppn, "over-allocation of {host:?}");
        let old_free = n.cores_free;
        n.cores_free -= ppn;
        let first_on_host = n.jobs.insert(job, n.jobs.get(&job).copied().unwrap_or(0) + ppn);
        let new_free = old_free - ppn;
        self.compute_free_sum -= ppn;
        self.dirty.insert(idx);
        self.rebucket_compute(idx, old_free, new_free);
        if first_on_host.is_none() {
            self.job_hosts.entry(job).or_default().push(host);
        }
    }

    /// Allocate an accelerator node exclusively to a job (the job takes
    /// every slice of the device).
    pub fn allocate_accelerator(&mut self, host: HostId, job: JobId) {
        let idx = self.known(host, "allocating");
        let n = &mut self.nodes[idx];
        assert_eq!(n.role, NodeRole::Accelerator, "allocate_accelerator on a compute node");
        assert!(n.is_free(), "accelerator {host:?} double-allocated");
        n.cores_free = 0;
        n.jobs.insert(job, n.cores_total);
        self.dirty.insert(idx);
        self.free_accs.remove(idx);
        self.job_hosts.entry(job).or_default().push(host);
    }

    /// Allocate one slice of an accelerator to a job; returns the slice
    /// id (lowest free id). Panics on infeasible allocations, exactly
    /// like the whole-device path — the caller must validate first (see
    /// [`NodeRecord::can_slice`]).
    pub fn allocate_accelerator_slice(&mut self, host: HostId, job: JobId) -> u32 {
        let idx = self.known(host, "allocating");
        let n = &mut self.nodes[idx];
        assert_eq!(n.role, NodeRole::Accelerator, "allocate_accelerator_slice on a compute node");
        assert!(!n.offline, "slice allocation on offline node");
        assert!(!n.jobs.contains_key(&job), "job {job} already holds a slice of {host:?}");
        // With a slice free, no job holds the whole device, so every
        // held slice has a `job_slices` entry.
        assert!(n.cores_free >= 1, "accelerator {host:?} has no free slice");
        let id = (1..=n.cores_total)
            .find(|id| !n.job_slices.values().any(|held| held == id))
            .expect("a free slice has an id no job holds");
        n.cores_free -= 1;
        n.jobs.insert(job, 1);
        n.job_slices.insert(job, id);
        self.dirty.insert(idx);
        self.free_accs.remove(idx);
        self.job_hosts.entry(job).or_default().push(host);
        id
    }

    /// Release everything `job` holds on `host`.
    pub fn release(&mut self, host: HostId, job: JobId) {
        if self.release_on(host, job) {
            // Keep the job->hosts index consistent for per-host releases
            // (grant-abort paths); wholesale `release_job` bypasses this.
            if let Some(hosts) = self.job_hosts.get_mut(&job) {
                hosts.retain(|h| *h != host);
                if hosts.is_empty() {
                    self.job_hosts.remove(&job);
                }
            }
        }
    }

    /// Release bookkeeping on one host, without touching `job_hosts`.
    /// Returns whether the job actually held anything there.
    fn release_on(&mut self, host: HostId, job: JobId) -> bool {
        let idx = self.known(host, "releasing");
        let n = &mut self.nodes[idx];
        let Some(held) = remove_compact(&mut n.jobs, &job) else { return false };
        let old_free = n.cores_free;
        n.cores_free += held;
        debug_assert!(n.cores_free <= n.cores_total, "release overflow on {host:?}");
        match n.role {
            NodeRole::Compute => {
                let new_free = n.cores_free;
                self.compute_free_sum += held;
                self.rebucket_compute(idx, old_free, new_free);
            }
            NodeRole::Accelerator => {
                remove_compact(&mut n.job_slices, &job);
                if n.is_free() {
                    self.free_accs.insert(idx);
                }
            }
        }
        self.dirty.insert(idx);
        true
    }

    /// Release everything `job` holds anywhere: O(hosts the job holds),
    /// via the job->hosts index.
    pub fn release_job(&mut self, job: JobId) {
        if let Some(hosts) = self.job_hosts.remove(&job) {
            for h in hosts {
                self.release_on(h, job);
            }
        }
    }

    /// Total free / total cores over compute nodes (utilisation metrics).
    pub fn compute_core_usage(&self) -> (u32, u32) {
        (self.compute_free_sum, self.compute_total_sum)
    }

    /// (free, total) accelerator node counts.
    pub fn accelerator_usage(&self) -> (usize, usize) {
        (self.free_accs.len(), self.acc_total)
    }

    /// Linear recomputation of [`NodeDb::compute_core_usage`] (property
    /// tests cross-check the running sums against it).
    #[doc(hidden)]
    pub fn compute_core_usage_linear(&self) -> (u32, u32) {
        let mut free = 0;
        let mut total = 0;
        for n in &self.nodes {
            if n.role == NodeRole::Compute {
                free += n.cores_free;
                total += n.cores_total;
            }
        }
        (free, total)
    }

    /// Linear recomputation of [`NodeDb::accelerator_usage`].
    #[doc(hidden)]
    pub fn accelerator_usage_linear(&self) -> (usize, usize) {
        let mut free = 0;
        let mut total = 0;
        for n in &self.nodes {
            if n.role == NodeRole::Accelerator {
                total += 1;
                if n.is_free() {
                    free += 1;
                }
            }
        }
        (free, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: usize) -> HostId {
        HostId::from_raw(i)
    }

    fn db() -> NodeDb {
        let mut db = NodeDb::new();
        db.add_compute(h(0), 8);
        db.add_compute(h(1), 8);
        db.add_accelerator(h(2));
        db.add_accelerator(h(3));
        db
    }

    #[test]
    fn free_lists_respect_roles() {
        let db = db();
        assert_eq!(db.free_compute(1), vec![h(0), h(1)]);
        assert_eq!(db.free_accelerators(), vec![h(2), h(3)]);
    }

    #[test]
    fn compute_allocation_shares_cores() {
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 6);
        assert_eq!(db.free_compute(4), vec![h(1)]);
        assert_eq!(db.free_compute(2), vec![h(0), h(1)]);
        db.allocate_compute(h(0), JobId(2), 2);
        assert_eq!(db.free_compute(1), vec![h(1)]);
        db.release(h(0), JobId(1));
        assert_eq!(db.free_compute(6), vec![h(0), h(1)]);
    }

    #[test]
    fn accelerator_allocation_is_exclusive() {
        let mut db = db();
        db.allocate_accelerator(h(2), JobId(1));
        assert_eq!(db.free_accelerators(), vec![h(3)]);
        db.release(h(2), JobId(1));
        assert_eq!(db.free_accelerators(), vec![h(2), h(3)]);
    }

    #[test]
    #[should_panic(expected = "double-allocated")]
    fn double_accelerator_allocation_panics() {
        let mut db = db();
        db.allocate_accelerator(h(2), JobId(1));
        db.allocate_accelerator(h(2), JobId(2));
    }

    #[test]
    #[should_panic(expected = "over-allocation")]
    fn core_overallocation_panics() {
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 8);
        db.allocate_compute(h(0), JobId(2), 1);
    }

    #[test]
    fn release_job_clears_everywhere() {
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 2);
        db.allocate_compute(h(1), JobId(1), 2);
        db.allocate_accelerator(h(2), JobId(1));
        db.release_job(JobId(1));
        assert_eq!(db.compute_core_usage(), (16, 16));
        assert_eq!(db.accelerator_usage(), (2, 2));
    }

    #[test]
    fn offline_nodes_are_hidden() {
        let mut db = db();
        db.set_offline(h(1), true);
        db.set_offline(h(3), true);
        assert_eq!(db.free_compute(1), vec![h(0)]);
        assert_eq!(db.free_accelerators(), vec![h(2)]);
        db.set_offline(h(1), false);
        assert_eq!(db.free_compute(1), vec![h(0), h(1)]);
    }

    #[test]
    fn usage_counters() {
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 3);
        db.allocate_accelerator(h(2), JobId(1));
        assert_eq!(db.compute_core_usage(), (13, 16));
        assert_eq!(db.accelerator_usage(), (1, 2));
    }

    #[test]
    fn repeat_allocation_on_same_host_releases_wholesale() {
        // A job growing on a host it already occupies (dyn compute
        // grant) must not duplicate the job->hosts index entry.
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 2);
        db.allocate_compute(h(0), JobId(1), 3);
        assert_eq!(db.free_compute(4), vec![h(1)]);
        db.release_job(JobId(1));
        assert_eq!(db.compute_core_usage(), (16, 16));
        assert_eq!(db.free_compute(8), vec![h(0), h(1)]);
    }

    #[test]
    fn offline_release_reindexes_on_return() {
        // Reclaim pattern: node goes offline while allocated, the job
        // is released while it is offline, then the node comes back.
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 8);
        db.allocate_accelerator(h(2), JobId(1));
        db.set_offline(h(0), true);
        db.set_offline(h(2), true);
        db.release_job(JobId(1));
        assert_eq!(db.free_compute(1), vec![h(1)]);
        assert_eq!(db.free_accelerators(), vec![h(3)]);
        db.set_offline(h(0), false);
        db.set_offline(h(2), false);
        assert_eq!(db.free_compute(8), vec![h(0), h(1)]);
        assert_eq!(db.free_accelerators(), vec![h(2), h(3)]);
    }

    #[test]
    fn slice_allocation_shares_a_device() {
        let mut db = NodeDb::new();
        db.add_accelerator_device(h(0), DeviceClass::GpuLike, 4);
        let a = db.allocate_accelerator_slice(h(0), JobId(1));
        let b = db.allocate_accelerator_slice(h(0), JobId(2));
        assert_eq!((a, b), (1, 2));
        // Partially used: not in the fully-free pool, but sliceable.
        assert!(db.free_accelerators().is_empty());
        assert!(db.get(h(0)).unwrap().can_slice(DeviceClass::GpuLike, JobId(3)));
        assert!(!db.get(h(0)).unwrap().can_slice(DeviceClass::DpuRankLike, JobId(3)));
        assert!(!db.get(h(0)).unwrap().can_slice(DeviceClass::GpuLike, JobId(1)));
        db.release(h(0), JobId(1));
        // Lowest free id is recycled.
        assert_eq!(db.allocate_accelerator_slice(h(0), JobId(3)), 1);
        db.release(h(0), JobId(2));
        db.release(h(0), JobId(3));
        assert_eq!(db.free_accelerators(), vec![h(0)]);
    }

    #[test]
    fn whole_device_allocation_takes_every_slice() {
        let mut db = NodeDb::new();
        db.add_accelerator_device(h(0), DeviceClass::DpuRankLike, 3);
        db.allocate_accelerator(h(0), JobId(1));
        assert!(!db.get(h(0)).unwrap().can_slice(DeviceClass::DpuRankLike, JobId(2)));
        db.release(h(0), JobId(1));
        assert_eq!(db.get(h(0)).unwrap().cores_free, 3);
        assert_eq!(db.free_accelerators(), vec![h(0)]);
        // Every slice came back: they are handed out again from id 1.
        let ids: Vec<u32> = (2..5).map(|j| db.allocate_accelerator_slice(h(0), JobId(j))).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "no free slice")]
    fn slice_of_a_whole_device_grant_panics() {
        let mut db = NodeDb::new();
        db.add_accelerator_device(h(0), DeviceClass::DpuRankLike, 3);
        db.allocate_accelerator(h(0), JobId(1));
        db.allocate_accelerator_slice(h(0), JobId(2));
    }

    #[test]
    fn take_dirty_yields_ascending_registration_indices() {
        // Registered in descending host-id order: index 0 is h(15).
        let mut db = NodeDb::new();
        for i in (0..6).rev() {
            if i % 2 == 0 {
                db.add_compute(h(10 + i), 4);
            } else {
                db.add_accelerator(h(10 + i));
            }
        }
        assert_eq!(db.take_dirty(), (0..6).collect::<Vec<_>>(), "registration dirties every node");
        assert!(db.take_dirty().is_empty(), "a drain empties the set");
        // Dirtied in scrambled order, some twice.
        db.set_offline(h(10), true); // index 5
        db.allocate_accelerator(h(13), JobId(1)); // index 2
        db.allocate_compute(h(14), JobId(1), 1); // index 1
        db.mark_dirty(h(15)); // index 0
        db.mark_dirty(h(99)); // never registered: ignored
        db.release_job(JobId(1));
        assert_eq!(db.take_dirty(), vec![0, 1, 2, 5]);
    }

    #[test]
    fn indexed_paths_match_linear_references() {
        let mut db = db();
        db.allocate_compute(h(0), JobId(1), 6);
        db.allocate_accelerator(h(3), JobId(1));
        db.set_offline(h(1), true);
        for ppn in 0..=8 {
            assert_eq!(db.free_compute(ppn), db.free_compute_linear(ppn));
        }
        assert_eq!(db.free_accelerators(), db.free_accelerators_linear());
        assert_eq!(db.compute_core_usage(), db.compute_core_usage_linear());
        assert_eq!(db.accelerator_usage(), db.accelerator_usage_linear());
    }
}
