//! Node selection: tracking free resources during an iteration and
//! picking compute/accelerator nodes for a job.
//!
//! ## Indexed free-pools
//!
//! The tracker answers "k hosts with ≥ ppn free cores" for every job in
//! every scheduler pass; a linear scan makes each pass O(jobs × hosts),
//! which dominates at datacenter scale. Hosts are therefore bucketed by
//! free-core count (`by_free`): feasibility checks sum a handful of
//! bucket sizes, BestFit walks buckets ascending (exactly the linear
//! version's `(free, index)` sort order), and FirstFit merges the k
//! lowest registration indices out of the matching buckets —
//! O(buckets + k) instead of O(hosts) per decision, since distinct
//! free-core values are bounded by the largest node's core count, not
//! the cluster size. The pre-index implementation is retained as
//! [`reference::LinearFreeTracker`] and a property test
//! (`tests/alloc_props.rs`) checks both agree on randomized
//! take/give-back sequences.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use darms_net::HostId;
use darms_rms::proto::{ClusterSnapshot, DeviceClass, QueuedJobSnap};
use darms_rms::NodeRole;

/// How compute nodes are chosen among those that fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocPolicy {
    /// First fitting node in registration order.
    FirstFit,
    /// Node with the fewest free cores that still fits (reduces
    /// fragmentation for mixed ppn workloads).
    BestFit,
}

/// Per-accelerator-host slice accounting: device class, free/total slice
/// counts and liveness, plus the registration rank that breaks placement
/// ties deterministically.
#[derive(Clone, Copy, Debug)]
struct AccState {
    class: DeviceClass,
    free: u32,
    total: u32,
    offline: bool,
    reg: usize,
}

/// Free-resource view maintained by the scheduler during one iteration,
/// decremented as it hands out allocations so that later decisions in the
/// same iteration never double-book (the server re-validates anyway).
#[derive(Clone, Debug)]
pub struct FreeTracker {
    /// (host, free cores, total cores) per compute host, registration
    /// order. Offline hosts keep their slot (so delta patches preserve
    /// FirstFit's registration order) but are absent from every bucket.
    compute: Vec<(HostId, u32, u32)>,
    /// Offline flag per compute slot.
    offline: Vec<bool>,
    /// Compute indices bucketed by current free-core count.
    by_free: BTreeMap<u32, BTreeSet<usize>>,
    /// Fully-free accelerator hosts, in registration (= FIFO grant) order.
    /// Whole-device grants (static `acpn`, dynamic `Accelerators`) come
    /// from here; a partially sliced device is never in this pool.
    accs: VecDeque<HostId>,
    /// Membership mirror of `accs` for O(log n) duplicate checks.
    acc_set: BTreeSet<HostId>,
    /// Slice-level view of every accelerator host (including offline
    /// ones, so delta patches can revive them in place).
    acc_state: BTreeMap<HostId, AccState>,
    index: BTreeMap<HostId, usize>,
}

impl FreeTracker {
    /// Build from a full snapshot.
    pub fn from_snapshot(snap: &ClusterSnapshot) -> Self {
        let mut compute = Vec::new();
        let mut offline = Vec::new();
        let mut by_free: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        let mut accs = VecDeque::new();
        let mut acc_set = BTreeSet::new();
        let mut acc_state = BTreeMap::new();
        let mut index = BTreeMap::new();
        for n in &snap.nodes {
            match n.role {
                NodeRole::Compute => {
                    let i = compute.len();
                    index.insert(n.host, i);
                    if !n.offline {
                        by_free.entry(n.cores_free).or_default().insert(i);
                    }
                    compute.push((n.host, n.cores_free, n.cores_total));
                    offline.push(n.offline);
                }
                NodeRole::Accelerator => {
                    if !n.offline && n.cores_free == n.cores_total {
                        accs.push_back(n.host);
                        acc_set.insert(n.host);
                    }
                    let reg = acc_state.len();
                    acc_state.insert(
                        n.host,
                        AccState {
                            class: n.class,
                            free: n.cores_free,
                            total: n.cores_total,
                            offline: n.offline,
                            reg,
                        },
                    );
                }
            }
        }
        FreeTracker { compute, offline, by_free, accs, acc_set, acc_state, index }
    }

    /// Patch one node's state from a delta snapshot: overwrite with the
    /// server's authoritative view, moving the node in or out of the
    /// free pools as needed. Returns `false` for a compute host this
    /// tracker has never seen — the caller should drop its cache and
    /// request a full snapshot.
    pub fn apply(&mut self, n: &darms_rms::proto::NodeSnap) -> bool {
        match n.role {
            NodeRole::Compute => {
                let Some(&i) = self.index.get(&n.host) else { return false };
                let was_offline = self.offline[i];
                let old_free = self.compute[i].1;
                self.compute[i].1 = n.cores_free;
                self.compute[i].2 = n.cores_total;
                self.offline[i] = n.offline;
                match (was_offline, n.offline) {
                    (false, false) => self.rebucket(i, old_free, n.cores_free),
                    (false, true) => self.unbucket(i, old_free),
                    (true, false) => {
                        self.by_free.entry(n.cores_free).or_default().insert(i);
                    }
                    (true, true) => {}
                }
                true
            }
            NodeRole::Accelerator => {
                let free = !n.offline && n.cores_free == n.cores_total;
                if free {
                    if self.acc_set.insert(n.host) {
                        self.accs.push_back(n.host);
                    }
                } else if self.acc_set.remove(&n.host) {
                    // Rare: the server took (or offlined) an accelerator
                    // the scheduler did not hand out itself.
                    self.accs.retain(|h| *h != n.host);
                }
                let reg = self.acc_state.len();
                let s = self.acc_state.entry(n.host).or_insert(AccState {
                    class: n.class,
                    free: n.cores_free,
                    total: n.cores_total,
                    offline: n.offline,
                    reg,
                });
                s.class = n.class;
                s.free = n.cores_free;
                s.total = n.cores_total;
                s.offline = n.offline;
                true
            }
        }
    }

    /// Number of currently free accelerator nodes.
    pub fn free_acc_count(&self) -> usize {
        self.accs.len()
    }

    /// Free cores on one compute host.
    pub fn free_cores(&self, host: HostId) -> u32 {
        self.index.get(&host).map_or(0, |&i| if self.offline[i] { 0 } else { self.compute[i].1 })
    }

    /// Remove one compute host from its free-count bucket.
    fn unbucket(&mut self, i: usize, free: u32) {
        if let Some(b) = self.by_free.get_mut(&free) {
            b.remove(&i);
            if b.is_empty() {
                self.by_free.remove(&free);
            }
        }
    }

    /// Move one compute host between free-count buckets.
    fn rebucket(&mut self, i: usize, old_free: u32, new_free: u32) {
        if old_free == new_free {
            return;
        }
        self.unbucket(i, old_free);
        self.by_free.entry(new_free).or_default().insert(i);
    }

    /// Number of compute hosts with at least `ppn` free cores: a sum of
    /// bucket sizes, O(distinct free-core values).
    fn fitting_count(&self, ppn: u32) -> usize {
        self.by_free.range(ppn..).map(|(_, b)| b.len()).sum()
    }

    /// Pick `k` compute hosts with at least `ppn` free cores each.
    /// Returns `None` (and changes nothing) if impossible.
    ///
    /// FirstFit picks the k lowest registration indices among fitting
    /// hosts; BestFit picks in ascending `(free, index)` order (the
    /// fullest node that still fits, ties by registration). Both match
    /// the linear reference exactly — the property test insists on it.
    pub fn take_compute(&mut self, k: usize, ppn: u32, policy: AllocPolicy) -> Option<Vec<HostId>> {
        if self.fitting_count(ppn) < k {
            return None;
        }
        let chosen: Vec<usize> = match policy {
            AllocPolicy::BestFit => {
                // Buckets ascend by free count and each set ascends by
                // index, so in-order traversal IS the (free, index) sort.
                self.by_free.range(ppn..).flat_map(|(_, b)| b.iter().copied()).take(k).collect()
            }
            AllocPolicy::FirstFit => {
                // k smallest indices across the fitting buckets: take at
                // most k from each (they are sorted), then merge.
                let mut cand: Vec<usize> = self
                    .by_free
                    .range(ppn..)
                    .flat_map(|(_, b)| b.iter().copied().take(k))
                    .collect();
                cand.sort_unstable();
                cand.truncate(k);
                cand
            }
        };
        let hosts = chosen.iter().map(|&i| self.compute[i].0).collect();
        for i in chosen {
            let old = self.compute[i].1;
            self.compute[i].1 = old - ppn;
            self.rebucket(i, old, old - ppn);
        }
        Some(hosts)
    }

    /// Return a running job's resources to the pool (used by the backfill
    /// shadow-time simulation, never against the live snapshot).
    pub fn give_back(&mut self, compute_hosts: &[HostId], ppn: u32, accs: &[HostId]) {
        for h in compute_hosts {
            if let Some(&i) = self.index.get(h) {
                if self.offline[i] {
                    continue;
                }
                let (_, free, total) = self.compute[i];
                let new = (free + ppn).min(total);
                self.compute[i].1 = new;
                self.rebucket(i, free, new);
            }
        }
        for h in accs {
            if self.acc_set.insert(*h) {
                self.accs.push_back(*h);
            }
            if let Some(s) = self.acc_state.get_mut(h) {
                s.free = s.total;
            }
        }
    }

    /// Pick `n` free accelerator hosts. Returns `None` (and changes
    /// nothing) if fewer are free — the all-or-nothing semantics of both
    /// the static `acpn` request and the dynamic `AC_Get`.
    pub fn take_accelerators(&mut self, n: usize) -> Option<Vec<HostId>> {
        if self.accs.len() < n {
            return None;
        }
        let taken: Vec<HostId> = self.accs.drain(..n).collect();
        for h in &taken {
            self.acc_set.remove(h);
            if let Some(s) = self.acc_state.get_mut(h) {
                s.free = 0;
            }
        }
        Some(taken)
    }

    fn class_of(&self, h: HostId) -> DeviceClass {
        self.acc_state.get(&h).map_or_else(DeviceClass::default, |s| s.class)
    }

    /// Class-constrained, partial [`Self::take_accelerators`]: the first
    /// `min(free, max)` fully free accelerator hosts of `class` in FIFO
    /// grant order, or `None` (and nothing changes) if fewer than `min`,
    /// or none at all, are free. The scan stops at the `max`-th match, so
    /// a grant costs O(scanned prefix), not O(pool); hosts of other
    /// classes in that prefix keep their order at the front of the pool.
    /// In an all-GpuLike cluster the taken prefix is exactly the matches.
    pub fn take_accelerators_upto(
        &mut self,
        max: usize,
        min: usize,
        class: DeviceClass,
    ) -> Option<Vec<HostId>> {
        let (mut matched, mut end) = (0, 0);
        for h in &self.accs {
            if matched == max {
                break;
            }
            end += 1;
            if self.class_of(*h) == class {
                matched += 1;
            }
        }
        if matched < min.max(1) {
            return None;
        }
        let prefix: Vec<HostId> = self.accs.drain(..end).collect();
        let (taken, other): (Vec<HostId>, Vec<HostId>) =
            prefix.into_iter().partition(|h| self.class_of(*h) == class);
        for h in other.into_iter().rev() {
            self.accs.push_front(h);
        }
        for h in &taken {
            self.acc_set.remove(h);
            if let Some(s) = self.acc_state.get_mut(h) {
                s.free = 0;
            }
        }
        Some(taken)
    }

    /// Number of devices of `class` that could host one more slice for a
    /// new request (online, ≥ 1 free slice, not in `exclude`). A request
    /// takes at most one slice per device, so this is also the largest
    /// satisfiable slice grant.
    pub fn free_slice_count(&self, class: DeviceClass, exclude: &[HostId]) -> usize {
        self.acc_state
            .iter()
            .filter(|(h, s)| s.class == class && !s.offline && s.free >= 1 && !exclude.contains(h))
            .count()
    }

    /// Pick `count` slice hosts of `class`, at most one slice per device,
    /// skipping hosts in `exclude` (the requesting job's current hosts — a
    /// mom keeps one resource record per job, so a second concurrent grant
    /// on the same host would be destroyed by the first DISJOIN).
    ///
    /// Placement packs partially used devices first (fewest free slices,
    /// ties by registration order): co-resident slices share as few
    /// physical devices as possible, keeping fully free devices available
    /// for whole-device grants and data movement local to the device.
    pub fn take_slices(
        &mut self,
        count: usize,
        class: DeviceClass,
        exclude: &[HostId],
    ) -> Option<Vec<HostId>> {
        let mut cand: Vec<(u32, usize, HostId)> = self
            .acc_state
            .iter()
            .filter(|(h, s)| s.class == class && !s.offline && s.free >= 1 && !exclude.contains(h))
            .map(|(h, s)| (s.free, s.reg, *h))
            .collect();
        if cand.len() < count {
            return None;
        }
        cand.sort_unstable();
        cand.truncate(count);
        let hosts: Vec<HostId> = cand.iter().map(|&(_, _, h)| h).collect();
        for h in &hosts {
            let s = self.acc_state.get_mut(h).expect("candidate host tracked");
            s.free -= 1;
            if self.acc_set.remove(h) {
                self.accs.retain(|x| x != h);
            }
        }
        Some(hosts)
    }

    /// Return one slice per listed host to the pool (shadow simulation and
    /// property tests; live state comes back via snapshots).
    pub fn give_back_slices(&mut self, hosts: &[HostId]) {
        for h in hosts {
            if let Some(s) = self.acc_state.get_mut(h) {
                s.free = (s.free + 1).min(s.total);
                if !s.offline && s.free == s.total && self.acc_set.insert(*h) {
                    self.accs.push_back(*h);
                }
            }
        }
    }

    /// Free slices currently tracked on one accelerator host.
    pub fn free_slices_of(&self, host: HostId) -> u32 {
        self.acc_state.get(&host).map_or(0, |s| if s.offline { 0 } else { s.free })
    }

    /// Whether `job` could start right now (without taking anything).
    pub fn fits(&self, job: &QueuedJobSnap) -> bool {
        self.fitting_count(job.ppn) >= job.nodes && self.accs.len() >= job.nodes * job.acpn as usize
    }

    /// A give-back view of this tracker for jobs of `ppn` cores per
    /// node (the EASY shadow simulation).
    pub(crate) fn give_back_view(&self, ppn: u32) -> GiveBackView<'_> {
        GiveBackView {
            base: self,
            ppn,
            fitting: self.fitting_count(ppn),
            free_accs: self.accs.len(),
            cores: BTreeMap::new(),
            returned_accs: BTreeSet::new(),
        }
    }
}

/// What [`FreeTracker::fits`] would answer for one `ppn` after a series
/// of [`FreeTracker::give_back`] calls on a clone, counted on top of the
/// unchanged tracker: the number of compute hosts with at least `ppn`
/// free cores and the number of free accelerators. Costs O(hosts given
/// back) instead of a clone of the whole tracker.
pub(crate) struct GiveBackView<'a> {
    base: &'a FreeTracker,
    ppn: u32,
    fitting: usize,
    free_accs: usize,
    /// Free cores of every compute slot given back to so far.
    cores: BTreeMap<usize, u32>,
    /// Accelerators given back that the tracker's pool lacks.
    returned_accs: BTreeSet<HostId>,
}

impl GiveBackView<'_> {
    /// [`FreeTracker::give_back`], counted.
    pub(crate) fn give_back(&mut self, compute_hosts: &[HostId], ppn: u32, accs: &[HostId]) {
        let base = self.base;
        for h in compute_hosts {
            let Some(&i) = base.index.get(h) else { continue };
            if base.offline[i] {
                continue;
            }
            let (_, base_free, total) = base.compute[i];
            let free = self.cores.entry(i).or_insert(base_free);
            let new = (*free + ppn).min(total);
            if *free < self.ppn && new >= self.ppn {
                self.fitting += 1;
            }
            *free = new;
        }
        for h in accs {
            if !base.acc_set.contains(h) && self.returned_accs.insert(*h) {
                self.free_accs += 1;
            }
        }
    }

    /// [`FreeTracker::fits`] for a job of this view's `ppn`.
    pub(crate) fn fits(&self, job: &QueuedJobSnap) -> bool {
        debug_assert_eq!(job.ppn, self.ppn, "view built for another ppn");
        self.fitting >= job.nodes && self.free_accs >= job.nodes * job.acpn as usize
    }
}

/// The pre-index linear-scan tracker, kept verbatim as the behavioral
/// reference for the free-pool property tests.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Linear-scan twin of [`FreeTracker`]: same API, O(hosts) queries.
    #[derive(Clone, Debug)]
    pub struct LinearFreeTracker {
        compute: Vec<(HostId, u32, u32)>,
        accs: Vec<HostId>,
        /// (host, class, free slices, total slices, offline) per
        /// accelerator host in registration order — the linear twin of
        /// `FreeTracker::acc_state`.
        acc_info: Vec<(HostId, DeviceClass, u32, u32, bool)>,
        index: BTreeMap<HostId, usize>,
    }

    impl LinearFreeTracker {
        /// Build from a snapshot, skipping offline nodes in the free
        /// pools (slice records keep them, flagged, like the fast path).
        pub fn from_snapshot(snap: &ClusterSnapshot) -> Self {
            let mut compute = Vec::new();
            let mut accs = Vec::new();
            let mut acc_info = Vec::new();
            let mut index = BTreeMap::new();
            for n in &snap.nodes {
                if n.role == NodeRole::Accelerator {
                    acc_info.push((n.host, n.class, n.cores_free, n.cores_total, n.offline));
                }
                if n.offline {
                    continue;
                }
                match n.role {
                    NodeRole::Compute => {
                        index.insert(n.host, compute.len());
                        compute.push((n.host, n.cores_free, n.cores_total));
                    }
                    NodeRole::Accelerator => {
                        if n.cores_free == n.cores_total {
                            accs.push(n.host);
                        }
                    }
                }
            }
            LinearFreeTracker { compute, accs, acc_info, index }
        }

        /// Accelerator-only twin of [`FreeTracker::apply`] (test support:
        /// drives offline/free transitions through the slice records).
        pub fn apply_acc(&mut self, n: &darms_rms::proto::NodeSnap) {
            assert_eq!(n.role, NodeRole::Accelerator, "apply_acc is accelerator-only");
            let fully_free = !n.offline && n.cores_free == n.cores_total;
            if fully_free {
                if !self.accs.contains(&n.host) {
                    self.accs.push(n.host);
                }
            } else {
                self.accs.retain(|h| *h != n.host);
            }
            match self.acc_info.iter_mut().find(|e| e.0 == n.host) {
                Some(e) => *e = (n.host, n.class, n.cores_free, n.cores_total, n.offline),
                None => {
                    self.acc_info.push((n.host, n.class, n.cores_free, n.cores_total, n.offline))
                }
            }
        }

        /// See [`FreeTracker::free_acc_count`].
        pub fn free_acc_count(&self) -> usize {
            self.accs.len()
        }

        /// See [`FreeTracker::free_cores`].
        pub fn free_cores(&self, host: HostId) -> u32 {
            self.index.get(&host).map_or(0, |&i| self.compute[i].1)
        }

        /// See [`FreeTracker::take_compute`].
        pub fn take_compute(
            &mut self,
            k: usize,
            ppn: u32,
            policy: AllocPolicy,
        ) -> Option<Vec<HostId>> {
            let mut fitting: Vec<usize> =
                (0..self.compute.len()).filter(|&i| self.compute[i].1 >= ppn).collect();
            if fitting.len() < k {
                return None;
            }
            if policy == AllocPolicy::BestFit {
                fitting.sort_by_key(|&i| (self.compute[i].1, i));
            }
            let chosen: Vec<usize> = fitting.into_iter().take(k).collect();
            let hosts = chosen.iter().map(|&i| self.compute[i].0).collect();
            for i in chosen {
                self.compute[i].1 -= ppn;
            }
            Some(hosts)
        }

        /// See [`FreeTracker::give_back`].
        pub fn give_back(&mut self, compute_hosts: &[HostId], ppn: u32, accs: &[HostId]) {
            for h in compute_hosts {
                if let Some(&i) = self.index.get(h) {
                    let (_, free, total) = &mut self.compute[i];
                    *free = (*free + ppn).min(*total);
                }
            }
            for h in accs {
                if !self.accs.contains(h) {
                    self.accs.push(*h);
                }
                if let Some(e) = self.acc_info.iter_mut().find(|e| e.0 == *h) {
                    e.2 = e.3;
                }
            }
        }

        /// See [`FreeTracker::take_accelerators`].
        pub fn take_accelerators(&mut self, n: usize) -> Option<Vec<HostId>> {
            if self.accs.len() < n {
                return None;
            }
            let taken: Vec<HostId> = self.accs.drain(..n).collect();
            for h in &taken {
                if let Some(e) = self.acc_info.iter_mut().find(|e| e.0 == *h) {
                    e.2 = 0;
                }
            }
            Some(taken)
        }

        fn class_of(&self, h: HostId) -> DeviceClass {
            self.acc_info.iter().find(|e| e.0 == h).map_or_else(DeviceClass::default, |e| e.1)
        }

        /// See [`FreeTracker::take_accelerators_upto`]: counts every free
        /// host of `class`, then takes the first `min(free, max)`.
        pub fn take_accelerators_upto(
            &mut self,
            max: usize,
            min: usize,
            class: DeviceClass,
        ) -> Option<Vec<HostId>> {
            let free = self.accs.iter().filter(|h| self.class_of(**h) == class).count();
            let n = free.min(max);
            if n < min.max(1) {
                return None;
            }
            let taken: Vec<HostId> =
                self.accs.iter().copied().filter(|h| self.class_of(*h) == class).take(n).collect();
            for h in &taken {
                self.accs.retain(|x| x != h);
                if let Some(e) = self.acc_info.iter_mut().find(|e| e.0 == *h) {
                    e.2 = 0;
                }
            }
            Some(taken)
        }

        /// See [`FreeTracker::free_slice_count`].
        pub fn free_slice_count(&self, class: DeviceClass, exclude: &[HostId]) -> usize {
            self.acc_info
                .iter()
                .filter(|(h, c, free, _, off)| {
                    *c == class && !*off && *free >= 1 && !exclude.contains(h)
                })
                .count()
        }

        /// See [`FreeTracker::take_slices`]: same (free, registration)
        /// packing order, computed by a linear scan and sort.
        pub fn take_slices(
            &mut self,
            count: usize,
            class: DeviceClass,
            exclude: &[HostId],
        ) -> Option<Vec<HostId>> {
            let mut cand: Vec<(u32, usize, HostId)> = self
                .acc_info
                .iter()
                .enumerate()
                .filter(|(_, (h, c, free, _, off))| {
                    *c == class && !*off && *free >= 1 && !exclude.contains(h)
                })
                .map(|(i, (h, _, free, _, _))| (*free, i, *h))
                .collect();
            if cand.len() < count {
                return None;
            }
            cand.sort_unstable();
            cand.truncate(count);
            let hosts: Vec<HostId> = cand.iter().map(|&(_, _, h)| h).collect();
            for h in &hosts {
                let e = self.acc_info.iter_mut().find(|e| e.0 == *h).expect("candidate tracked");
                e.2 -= 1;
                self.accs.retain(|x| x != h);
            }
            Some(hosts)
        }

        /// See [`FreeTracker::give_back_slices`].
        pub fn give_back_slices(&mut self, hosts: &[HostId]) {
            for h in hosts {
                if let Some(e) = self.acc_info.iter_mut().find(|e| e.0 == *h) {
                    e.2 = (e.2 + 1).min(e.3);
                    if !e.4 && e.2 == e.3 && !self.accs.contains(h) {
                        self.accs.push(*h);
                    }
                }
            }
        }

        /// See [`FreeTracker::free_slices_of`].
        pub fn free_slices_of(&self, host: HostId) -> u32 {
            self.acc_info.iter().find(|e| e.0 == host).map_or(0, |e| if e.4 { 0 } else { e.2 })
        }

        /// See [`FreeTracker::fits`].
        pub fn fits(&self, job: &QueuedJobSnap) -> bool {
            let fitting = self.compute.iter().filter(|(_, free, _)| *free >= job.ppn).count();
            fitting >= job.nodes && self.accs.len() >= job.nodes * job.acpn as usize
        }
    }
}

/// Split a flat accelerator grant into per-compute-node sets of `acpn`.
pub fn split_accs(accs: &[HostId], nodes: usize, acpn: u32) -> Vec<Vec<HostId>> {
    assert_eq!(accs.len(), nodes * acpn as usize, "grant size mismatch");
    accs.chunks(acpn.max(1) as usize)
        .map(|c| c.to_vec())
        .take(nodes)
        .collect::<Vec<_>>()
        .into_iter()
        .chain(std::iter::repeat(Vec::new()))
        .take(nodes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_rms::proto::NodeSnap;
    use darms_rms::JobId;
    use darms_sim::{SimDuration, SimTime};

    fn h(i: usize) -> HostId {
        HostId::from_raw(i)
    }

    fn snap() -> ClusterSnapshot {
        let mk = |i, role, total, free| NodeSnap {
            host: h(i),
            role,
            cores_total: total,
            cores_free: free,
            offline: false,
            class: DeviceClass::default(),
        };
        ClusterSnapshot {
            nodes: vec![
                mk(0, NodeRole::Compute, 8, 8),
                mk(1, NodeRole::Compute, 8, 4),
                mk(2, NodeRole::Compute, 8, 2),
                mk(3, NodeRole::Accelerator, 1, 1),
                mk(4, NodeRole::Accelerator, 1, 0),
                mk(5, NodeRole::Accelerator, 1, 1),
            ],
            queued: vec![],
            running: vec![],
            dyn_pending: None,
        }
    }

    #[test]
    fn first_fit_takes_registration_order() {
        let mut t = FreeTracker::from_snapshot(&snap());
        let hosts = t.take_compute(2, 2, AllocPolicy::FirstFit).unwrap();
        assert_eq!(hosts, vec![h(0), h(1)]);
        assert_eq!(t.free_cores(h(0)), 6);
    }

    #[test]
    fn best_fit_prefers_fullest_fitting_node() {
        let mut t = FreeTracker::from_snapshot(&snap());
        let hosts = t.take_compute(1, 2, AllocPolicy::BestFit).unwrap();
        assert_eq!(hosts, vec![h(2)]); // 2 free cores, tightest fit
    }

    #[test]
    fn compute_allocation_is_all_or_nothing() {
        let mut t = FreeTracker::from_snapshot(&snap());
        assert!(t.take_compute(3, 6, AllocPolicy::FirstFit).is_none());
        // nothing was consumed
        assert_eq!(t.free_cores(h(0)), 8);
    }

    #[test]
    fn accelerator_pool_excludes_busy_nodes() {
        let mut t = FreeTracker::from_snapshot(&snap());
        assert_eq!(t.free_acc_count(), 2); // host 4 is busy
        assert!(t.take_accelerators(3).is_none());
        let got = t.take_accelerators(2).unwrap();
        assert_eq!(got, vec![h(3), h(5)]);
        assert_eq!(t.free_acc_count(), 0);
    }

    #[test]
    fn fits_checks_both_resources() {
        let t = FreeTracker::from_snapshot(&snap());
        let job = |nodes, ppn, acpn| QueuedJobSnap {
            job: JobId(1),
            owner: "u".into(),
            submitted: SimTime::ZERO,
            nodes,
            ppn,
            acpn,
            walltime_estimate: SimDuration::from_secs(1),
        };
        assert!(t.fits(&job(2, 4, 1)));
        assert!(!t.fits(&job(2, 4, 2))); // needs 4 accs, only 2 free
        assert!(!t.fits(&job(3, 8, 0))); // only one node has 8 free cores
    }

    #[test]
    fn split_accs_chunks_per_node() {
        let flat = vec![h(1), h(2), h(3), h(4)];
        let per_cn = split_accs(&flat, 2, 2);
        assert_eq!(per_cn, vec![vec![h(1), h(2)], vec![h(3), h(4)]]);
    }

    #[test]
    fn split_accs_zero_acpn() {
        let per_cn = split_accs(&[], 3, 0);
        assert_eq!(per_cn, vec![Vec::<HostId>::new(), vec![], vec![]]);
    }

    #[test]
    fn slices_pack_partially_used_devices_first() {
        let mut s = snap();
        // Two 4-slice DPU-rank devices, one with a slice already in use.
        s.nodes.push(NodeSnap {
            host: h(6),
            role: NodeRole::Accelerator,
            cores_total: 4,
            cores_free: 4,
            offline: false,
            class: DeviceClass::DpuRankLike,
        });
        s.nodes.push(NodeSnap {
            host: h(7),
            role: NodeRole::Accelerator,
            cores_total: 4,
            cores_free: 3,
            offline: false,
            class: DeviceClass::DpuRankLike,
        });
        let mut t = FreeTracker::from_snapshot(&s);
        // GPU whole-device pool is untouched by DPU slicing.
        assert_eq!(t.clone().take_accelerators_upto(9, 1, DeviceClass::GpuLike).unwrap().len(), 2);
        assert_eq!(t.free_slice_count(DeviceClass::DpuRankLike, &[]), 2);
        // Partially used device (h7, 3 free) is preferred over the idle one.
        assert_eq!(t.take_slices(1, DeviceClass::DpuRankLike, &[]).unwrap(), vec![h(7)]);
        // Excluding the packed device forces the idle one, which then
        // leaves the whole-device pool.
        assert_eq!(t.take_slices(1, DeviceClass::DpuRankLike, &[h(7)]).unwrap(), vec![h(6)]);
        assert!(t.take_accelerators_upto(1, 1, DeviceClass::DpuRankLike).is_none());
        // One slice per device per request: only 2 devices exist, however
        // many slices remain free on each.
        assert!(t.take_slices(3, DeviceClass::DpuRankLike, &[]).is_none());
        t.give_back_slices(&[h(6)]);
        assert_eq!(t.free_slices_of(h(6)), 4);
        let got = t.take_accelerators_upto(1, 1, DeviceClass::DpuRankLike);
        assert_eq!(got.unwrap(), vec![h(6)]);
    }

    #[test]
    fn bounded_take_keeps_other_classes_in_fifo_order() {
        let mk = |i, class| NodeSnap {
            host: h(i),
            role: NodeRole::Accelerator,
            cores_total: 1,
            cores_free: 1,
            offline: false,
            class,
        };
        let (g, d) = (DeviceClass::GpuLike, DeviceClass::DpuRankLike);
        let nodes = vec![mk(0, g), mk(1, d), mk(2, g), mk(3, d), mk(4, g)];
        let s = ClusterSnapshot { nodes, ..ClusterSnapshot::empty() };
        let mut t = FreeTracker::from_snapshot(&s);
        // Fewer than `min` free: nothing changes.
        assert!(t.take_accelerators_upto(3, 3, d).is_none());
        // The scan stops at h3; h0 and h2 go back in front, in order.
        assert_eq!(t.take_accelerators_upto(2, 1, d).unwrap(), vec![h(1), h(3)]);
        assert!(t.take_accelerators_upto(1, 1, d).is_none());
        assert_eq!(t.take_accelerators(3).unwrap(), vec![h(0), h(2), h(4)]);
    }

    #[test]
    fn offline_nodes_are_excluded() {
        let mut s = snap();
        s.nodes[0].offline = true;
        let t = FreeTracker::from_snapshot(&s);
        assert_eq!(t.free_cores(h(0)), 0);
    }
}
