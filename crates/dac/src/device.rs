//! The accelerator device model: a GPU-like device with its own memory
//! (real byte buffers, so kernels compute real results), a first-fit
//! allocator, and bandwidth/compute parameters for timing.

use std::collections::BTreeMap;
use std::fmt;

use darms_sim::SimDuration;

/// A device memory handle (the `cudaMalloc` pointer analogue).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DevPtr(pub u64);

impl fmt::Display for DevPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev:0x{:x}", self.0)
    }
}

/// Performance/capacity parameters of a device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProps {
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Host-to-device copy bandwidth (bytes/s) — the on-accelerator part
    /// of a transfer, overlappable with the wire under pipelining.
    pub h2d_bw: f64,
    /// Device-to-host copy bandwidth (bytes/s).
    pub d2h_bw: f64,
    /// Peak arithmetic rate in FLOP/s (drives default kernel costs).
    pub flops: f64,
}

impl DeviceProps {
    /// A 2013-era CUDA GPU (Fermi/Kepler class): 6 GiB, ~6 GB/s PCIe
    /// copies, ~1 TFLOP/s single precision.
    pub fn gpu_2013() -> Self {
        DeviceProps { mem_bytes: 6 << 30, h2d_bw: 6.0e9, d2h_bw: 6.0e9, flops: 1.0e12 }
    }

    /// A near-memory DPU rank (UPMEM-style): 1 GiB of rank memory, DDR
    /// streaming bandwidth shared by the rank, and modest arithmetic
    /// throughput — the "thousands of small devices" end of the fabric.
    pub fn dpu_rank() -> Self {
        DeviceProps { mem_bytes: 1 << 30, h2d_bw: 2.0e9, d2h_bw: 2.0e9, flops: 5.0e10 }
    }

    /// A tiny device for allocator stress tests.
    pub fn tiny(mem_bytes: u64) -> Self {
        DeviceProps { mem_bytes, h2d_bw: 1e9, d2h_bw: 1e9, flops: 1e9 }
    }

    /// Time to move `bytes` across the host-to-device engine.
    pub fn h2d_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.h2d_bw.max(1.0))
    }

    /// Time to move `bytes` across the device-to-host engine.
    pub fn d2h_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.d2h_bw.max(1.0))
    }
}

/// Errors from device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DevError {
    /// Not enough free device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// Pointer is not a live allocation.
    BadPointer(DevPtr),
    /// Access outside an allocation's bounds.
    OutOfBounds {
        /// The allocation accessed.
        ptr: DevPtr,
        /// Offset attempted.
        offset: u64,
        /// Length attempted.
        len: u64,
        /// The allocation's size.
        size: u64,
    },
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfMemory { requested, free } => {
                write!(f, "device out of memory: requested {requested}, free {free}")
            }
            DevError::BadPointer(p) => write!(f, "bad device pointer {p}"),
            DevError::OutOfBounds { ptr, offset, len, size } => {
                write!(f, "out of bounds on {ptr}: [{offset}, {offset}+{len}) of {size}")
            }
        }
    }
}

impl std::error::Error for DevError {}

/// One accelerator's memory and state.
pub struct AccDevice {
    props: DeviceProps,
    used: u64,
    buffers: BTreeMap<u64, Vec<u8>>,
    next: u64,
}

impl AccDevice {
    /// Create a device with the given properties.
    pub fn new(props: DeviceProps) -> Self {
        AccDevice { props, used: 0, buffers: BTreeMap::new(), next: 0x1000 }
    }

    /// The device's parameters.
    pub fn props(&self) -> DeviceProps {
        self.props
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.props.mem_bytes - self.used
    }

    /// Allocate `size` bytes (zero-initialised).
    pub fn malloc(&mut self, size: u64) -> Result<DevPtr, DevError> {
        if size > self.free_bytes() {
            return Err(DevError::OutOfMemory { requested: size, free: self.free_bytes() });
        }
        let ptr = self.next;
        // Pointer space is virtual: bump by size (min 1) with alignment.
        self.next += size.max(1).next_multiple_of(256);
        self.used += size;
        self.buffers.insert(ptr, vec![0u8; size as usize]);
        Ok(DevPtr(ptr))
    }

    /// Free an allocation.
    pub fn mem_free(&mut self, ptr: DevPtr) -> Result<(), DevError> {
        match self.buffers.remove(&ptr.0) {
            Some(b) => {
                self.used -= b.len() as u64;
                Ok(())
            }
            None => Err(DevError::BadPointer(ptr)),
        }
    }

    fn check(&self, ptr: DevPtr, offset: u64, len: u64) -> Result<(), DevError> {
        let size =
            self.buffers.get(&ptr.0).map(|b| b.len() as u64).ok_or(DevError::BadPointer(ptr))?;
        if offset.saturating_add(len) > size {
            return Err(DevError::OutOfBounds { ptr, offset, len, size });
        }
        Ok(())
    }

    /// Copy host bytes into device memory.
    pub fn write(&mut self, ptr: DevPtr, offset: u64, data: &[u8]) -> Result<(), DevError> {
        self.check(ptr, offset, data.len() as u64)?;
        let buf = self.buffers.get_mut(&ptr.0).expect("checked");
        buf[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Copy device memory out to the host.
    pub fn read(&self, ptr: DevPtr, offset: u64, len: u64) -> Result<Vec<u8>, DevError> {
        self.check(ptr, offset, len)?;
        let buf = self.buffers.get(&ptr.0).expect("checked");
        Ok(buf[offset as usize..(offset + len) as usize].to_vec())
    }

    /// Borrow an allocation immutably (kernel inputs).
    pub fn buffer(&self, ptr: DevPtr) -> Result<&[u8], DevError> {
        self.buffers.get(&ptr.0).map(|b| b.as_slice()).ok_or(DevError::BadPointer(ptr))
    }
}

/// View a byte slice as `f64`s (device buffers hold raw bytes).
pub fn as_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Serialise `f64`s into device-transferable bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> AccDevice {
        AccDevice::new(DeviceProps::tiny(4096))
    }

    #[test]
    fn malloc_free_accounting() {
        let mut d = dev();
        let a = d.malloc(1000).unwrap();
        let b = d.malloc(2000).unwrap();
        assert_ne!(a, b);
        assert_eq!(d.used(), 3000);
        d.mem_free(a).unwrap();
        assert_eq!(d.used(), 2000);
        assert_eq!(d.mem_free(a), Err(DevError::BadPointer(a)));
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut d = dev();
        d.malloc(4000).unwrap();
        match d.malloc(200) {
            Err(DevError::OutOfMemory { requested: 200, free: 96 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = dev();
        let p = d.malloc(64).unwrap();
        d.write(p, 8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(d.read(p, 8, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(d.read(p, 0, 8).unwrap(), vec![0; 8]); // zero-initialised
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = dev();
        let p = d.malloc(16).unwrap();
        assert!(matches!(d.write(p, 12, &[0; 8]), Err(DevError::OutOfBounds { .. })));
        assert!(matches!(d.read(p, 0, 17), Err(DevError::OutOfBounds { .. })));
        assert!(matches!(d.read(DevPtr(0xdead), 0, 1), Err(DevError::BadPointer(_))));
    }

    #[test]
    fn f64_round_trip() {
        let v = vec![1.5, -2.25, 1e9];
        assert_eq!(as_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn copy_times_scale_with_bytes() {
        let p = DeviceProps::gpu_2013();
        assert!(p.h2d_time(1 << 30) > p.h2d_time(1 << 20));
        assert_eq!(p.h2d_time(0), SimDuration::ZERO);
    }
}
