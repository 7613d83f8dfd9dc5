//! The device back-end: one [`Backend`] type serves every accelerator
//! class in the fabric (memory management, kernel dispatch weighting,
//! data movement, collective capabilities). A class is data, not a type:
//! its [`DeviceClass`] decides the broadcast fan-out (a `GpuLike` device
//! has few devices, large memory and unicast fan-out; a `DpuRankLike`
//! rank has many small devices and hardware multicast) and its
//! [`DeviceProps`] the timing and capacity.
//!
//! ## Slicing
//!
//! A device is carved into `slices_total` equal slices (MIG-style static
//! partitioning). A slice is identified by a 1-based [`SliceId`];
//! [`SliceId::EXCLUSIVE`] (`0` on the wire) denotes the historic
//! whole-device grant and bypasses every slice bound, so pre-fabric
//! clusters behave byte-identically:
//!
//! - **memory quota**: a slice may allocate at most
//!   `mem_bytes / slices_total`; exhausting the quota fails with the same
//!   [`DevError::OutOfMemory`] shape as a full device, and never affects
//!   a co-resident slice's headroom;
//! - **dispatch weight**: a slice owns `1/slices_total` of the dispatch
//!   engine, so its kernels run `slices_total×` slower than an exclusive
//!   owner's — a *static* fair share that is independent of co-resident
//!   activity, which keeps dispatch latency deterministic and isolation
//!   observable (a noisy neighbour cannot slow a sibling slice down).

use std::collections::BTreeMap;

use darms_rms::proto::DeviceClass;

use crate::device::{AccDevice, DevError, DevPtr, DeviceProps};

/// Identity of a device slice. `SliceId(0)` is the exclusive whole-device
/// grant (the only kind that existed before the fabric extension); real
/// slices are numbered `1..=slices_total` by the server's node database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SliceId(pub u32);

impl SliceId {
    /// The whole-device (non-sliced) grant.
    pub const EXCLUSIVE: SliceId = SliceId(0);

    /// Whether this is the whole-device grant.
    pub fn is_exclusive(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for SliceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exclusive() {
            write!(f, "slice:*")
        } else {
            write!(f, "slice:{}", self.0)
        }
    }
}

/// One accelerator host's device as the fabric sees it: the device, its
/// class and the per-slice bookkeeping. One instance exists per
/// accelerator host; daemons of different jobs (one per granted slice)
/// share it through the runtime's device pool. The classes differ only
/// in data: their [`DeviceProps`] and whether broadcasts multicast.
pub struct Backend {
    class: DeviceClass,
    dev: AccDevice,
    /// Number of slices the device is carved into (1 = unsliced).
    slices: u32,
    /// Bytes allocated per slice id.
    used: BTreeMap<u32, u64>,
    /// Owning slice per live pointer (exclusive allocations are absent).
    owner: BTreeMap<u64, u32>,
}

impl Backend {
    /// A `class` device with `props`, carved into `slices` slices.
    pub fn new(class: DeviceClass, props: DeviceProps, slices: u32) -> Self {
        Backend {
            class,
            dev: AccDevice::new(props),
            slices: slices.max(1),
            used: BTreeMap::new(),
            owner: BTreeMap::new(),
        }
    }

    /// The underlying device (timing parameters, kernel buffers).
    pub(crate) fn device(&self) -> &AccDevice {
        &self.dev
    }

    /// Mutable access to the underlying device (kernel bodies).
    pub(crate) fn device_mut(&mut self) -> &mut AccDevice {
        &mut self.dev
    }

    /// Allocate `size` bytes charged to `slice`'s memory quota.
    /// [`SliceId::EXCLUSIVE`] bypasses the quota (whole-device semantics).
    pub fn mem_alloc(&mut self, slice: SliceId, size: u64) -> Result<DevPtr, DevError> {
        if slice.is_exclusive() {
            // Whole-device grant: the pre-fabric path, byte-identical.
            return self.dev.malloc(size);
        }
        let used = self.used.get(&slice.0).copied().unwrap_or(0);
        let quota = self.dev.props().mem_bytes / u64::from(self.slices);
        if used + size > quota {
            return Err(DevError::OutOfMemory { requested: size, free: quota - used });
        }
        let ptr = self.dev.malloc(size)?;
        self.used.insert(slice.0, used + size);
        self.owner.insert(ptr.0, slice.0);
        Ok(ptr)
    }

    /// Free an allocation, crediting its owner slice's quota. A slice can
    /// only free its own pointers (cross-slice frees report
    /// [`DevError::BadPointer`] — the pointer is not visible there).
    pub fn mem_free(&mut self, slice: SliceId, ptr: DevPtr) -> Result<(), DevError> {
        match self.owner.get(&ptr.0) {
            Some(&s) if !slice.is_exclusive() && s != slice.0 => {
                // Another slice's pointer is not visible here.
                return Err(DevError::BadPointer(ptr));
            }
            None if !slice.is_exclusive() => {
                // Either dead or an exclusive allocation: invisible to a slice.
                return Err(DevError::BadPointer(ptr));
            }
            _ => {}
        }
        let size = self.dev.buffer(ptr)?.len() as u64;
        self.dev.mem_free(ptr)?;
        if let Some(s) = self.owner.remove(&ptr.0) {
            if let Some(u) = self.used.get_mut(&s) {
                *u = u.saturating_sub(size);
            }
        }
        Ok(())
    }

    /// Kernel dispatch time multiplier for `slice`: 1.0 for the exclusive
    /// owner, `slices` for a slice (its static fair share of the dispatch
    /// engine).
    pub fn dispatch_weight(&self, slice: SliceId) -> f64 {
        if slice.is_exclusive() {
            1.0
        } else {
            f64::from(self.slices)
        }
    }

    /// Whether broadcast fan-out from this device uses hardware multicast
    /// (one setup, payload replicated in the fabric) rather than per-peer
    /// unicast serialisation: only the DPU rank fabric replicates.
    pub(crate) fn multicast(&self) -> bool {
        self.class == DeviceClass::DpuRankLike
    }

    /// Bytes `slice` currently has allocated against its quota.
    pub fn slice_used(&self, slice: SliceId) -> u64 {
        if slice.is_exclusive() {
            self.dev.used()
        } else {
            self.used.get(&slice.0).copied().unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(slices: u32) -> Backend {
        Backend::new(DeviceClass::GpuLike, DeviceProps::tiny(4096), slices)
    }

    #[test]
    fn exclusive_grant_bypasses_quota() {
        let mut b = gpu(4);
        // Whole-device semantics: more than one slice quota succeeds.
        let p = b.mem_alloc(SliceId::EXCLUSIVE, 3000).unwrap();
        b.mem_free(SliceId::EXCLUSIVE, p).unwrap();
    }

    #[test]
    fn slice_quota_is_enforced_and_credited() {
        let mut b = gpu(4); // quota = 1024
        let s = SliceId(1);
        let p = b.mem_alloc(s, 900).unwrap();
        match b.mem_alloc(s, 200) {
            Err(DevError::OutOfMemory { requested: 200, free: 124 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        b.mem_free(s, p).unwrap();
        assert_eq!(b.slice_used(s), 0);
        b.mem_alloc(s, 1000).unwrap();
    }

    #[test]
    fn sibling_slice_keeps_headroom_when_one_exhausts() {
        let mut b = gpu(4); // quota = 1024 each
        let (a, s) = (SliceId(1), SliceId(2));
        while b.mem_alloc(a, 256).is_ok() {}
        // Slice 1 is exhausted; slice 2 still has its full quota.
        assert_eq!(b.slice_used(s), 0);
        b.mem_alloc(s, 1024).unwrap();
    }

    #[test]
    fn cross_slice_pointers_are_invisible() {
        let mut b = gpu(4);
        let p = b.mem_alloc(SliceId(1), 64).unwrap();
        assert_eq!(b.mem_free(SliceId(2), p), Err(DevError::BadPointer(p)));
        // The exclusive owner (teardown paths) may still free it.
        b.mem_free(SliceId::EXCLUSIVE, p).unwrap();
    }

    #[test]
    fn dispatch_weight_is_the_static_fair_share() {
        let b = gpu(4);
        assert_eq!(b.dispatch_weight(SliceId::EXCLUSIVE), 1.0);
        assert_eq!(b.dispatch_weight(SliceId(3)), 4.0);
    }

    #[test]
    fn classes_declare_their_fanout_capability() {
        assert!(!gpu(1).multicast());
        assert!(Backend::new(DeviceClass::DpuRankLike, DeviceProps::dpu_rank(), 8).multicast());
    }
}
