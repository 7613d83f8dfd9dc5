//! Slice-isolation property: whatever a co-resident "hog" slice does —
//! including exhausting its entire memory quota and churning
//! alloc/free — a tenant slice observes *exactly* the same outcomes
//! (allocation success/failure shapes, accounted usage, dispatch
//! weight) as it would on a device it shares with nobody. Verified for
//! both fabric device classes against a hog-free reference execution
//! of the same tenant op sequence.

use darms_dac::{Backend, SliceId};
use darms_rms::proto::DeviceClass;
use proptest::prelude::*;

const MEM: u64 = 4096;
const SIZES: [u64; 7] = [1, 64, 256, 512, 1024, 2048, 4096];

fn make(class: u8, slices: u32) -> Backend {
    let class = if class == 0 { DeviceClass::GpuLike } else { DeviceClass::DpuRankLike };
    Backend::new(class, darms_dac::DeviceProps::tiny(MEM), slices)
}

/// Abstract outcome of one op, with device pointers erased so runs with
/// different allocation histories stay comparable.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Allocated,
    OutOfMemory { requested: u64, free: u64 },
    Freed,
    BadPointer,
    Skipped,
}

/// One actor op: `(kind, selector)` — even kind allocates
/// `SIZES[sel % 7]`, odd kind frees the `sel`-th live pointer (skip when
/// none are live).
type Op = (u8, u8);

/// Apply one op for `slice`, tracking its live pointers, and return the
/// abstract outcome plus the slice's accounted usage afterwards.
fn step(
    b: &mut Backend,
    slice: SliceId,
    live: &mut Vec<darms_dac::DevPtr>,
    op: Op,
) -> (Outcome, u64) {
    let (kind, sel) = op;
    let out = if kind % 2 == 0 {
        let size = SIZES[sel as usize % SIZES.len()];
        match b.mem_alloc(slice, size) {
            Ok(p) => {
                live.push(p);
                Outcome::Allocated
            }
            Err(darms_dac::DevError::OutOfMemory { requested, free }) => {
                Outcome::OutOfMemory { requested, free }
            }
            Err(darms_dac::DevError::BadPointer(_)) => Outcome::BadPointer,
            Err(e) => panic!("unexpected alloc error {e:?}"),
        }
    } else if live.is_empty() {
        Outcome::Skipped
    } else {
        let p = live.remove(sel as usize % live.len());
        match b.mem_free(slice, p) {
            Ok(()) => Outcome::Freed,
            Err(darms_dac::DevError::BadPointer(_)) => Outcome::BadPointer,
            Err(e) => panic!("unexpected free error {e:?}"),
        }
    };
    (out, b.slice_used(slice))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, .. ProptestConfig::default() })]

    /// Interleave arbitrary hog activity with a tenant op sequence; the
    /// tenant's outcome trace must be byte-identical to running the same
    /// sequence on an otherwise idle device.
    #[test]
    fn tenant_outcomes_are_independent_of_a_hog(
        class in 0u8..2,
        slices in 2u32..5,
        tenant_ops in prop::collection::vec((0u8..2, 0u8..=0xff), 1..24),
        hog_ops in prop::collection::vec((0u8..2, 0u8..=0xff), 0..24),
        schedule in prop::collection::vec(0u8..2, 0..48),
    ) {
        let tenant = SliceId(1);
        let hog = SliceId(2);

        // Reference: the tenant alone on a fresh device.
        let mut reference = Vec::new();
        {
            let mut b = make(class, slices);
            let mut live = Vec::new();
            for &op in &tenant_ops {
                reference.push(step(&mut b, tenant, &mut live, op));
            }
        }

        // Interleaved: the hog's ops woven in per the schedule (then
        // drained), tenant ops in the same order as the reference.
        let mut b = make(class, slices);
        let mut t_live = Vec::new();
        let mut h_live = Vec::new();
        let mut observed = Vec::new();
        let mut ti = tenant_ops.iter();
        let mut hi = hog_ops.iter();
        for &tenant_turn in &schedule {
            if tenant_turn == 1 {
                if let Some(&op) = ti.next() {
                    observed.push(step(&mut b, tenant, &mut t_live, op));
                }
            } else if let Some(&op) = hi.next() {
                let _ = step(&mut b, hog, &mut h_live, op);
            }
        }
        for &op in ti {
            observed.push(step(&mut b, tenant, &mut t_live, op));
        }
        for &op in hi {
            let _ = step(&mut b, hog, &mut h_live, op);
        }

        prop_assert_eq!(&observed, &reference,
            "tenant observed the hog (class {}, {} slices)", class, slices);

        // Static fair share: the tenant's dispatch weight never moves,
        // no matter what the hog queued.
        prop_assert_eq!(b.dispatch_weight(tenant), f64::from(slices));

        // The hog's pointers stay invisible to the tenant.
        if let Some(&p) = h_live.first() {
            prop_assert_eq!(
                b.mem_free(tenant, p),
                Err(darms_dac::DevError::BadPointer(p))
            );
        }
    }
}
