//! NodeDb index property test: the free-pool buckets, job->hosts index
//! and running usage counters must agree with linear recomputation over
//! the flat records after every mutation, across randomized
//! allocate/release/offline sequences (including releases while a host
//! is offline — the reclaim pattern).

use darms_net::HostId;
use darms_rms::{JobId, NodeDb};
use proptest::prelude::*;

fn h(i: usize) -> HostId {
    HostId::from_raw(i)
}

/// Host ids for `n` nodes in registration order, by layout: 0 dense
/// (`0..n`); 1 a never-registered head at id 0 and a gap of `gap - 1`
/// ids between nodes; 2 the same ids registered in descending order.
fn layout_ids(layout: u8, n: usize, gap: usize) -> Vec<HostId> {
    match layout {
        0 => (0..n).map(h).collect(),
        1 => (0..n).map(|i| h(1 + i * gap)).collect(),
        _ => (0..n).rev().map(|i| h(1 + i * gap)).collect(),
    }
}

const CORE_PALETTE: [u32; 4] = [4, 8, 16, 1];

/// Every indexed query must equal its linear twin.
fn assert_consistent(db: &NodeDb) {
    for ppn in [0u32, 1, 2, 4, 8, 16] {
        assert_eq!(db.free_compute(ppn), db.free_compute_linear(ppn), "free_compute({ppn})");
    }
    assert_eq!(db.free_accelerators(), db.free_accelerators_linear());
    assert_eq!(db.compute_core_usage(), db.compute_core_usage_linear());
    assert_eq!(db.accelerator_usage(), db.accelerator_usage_linear());
}

/// Every query about a host the database never registered answers
/// "unknown" and changes nothing.
fn assert_unregistered(db: &mut NodeDb, host: HostId) {
    assert!(db.get(host).is_none(), "get({host:?})");
    assert!(db.index_of(host).is_none(), "index_of({host:?})");
    let before = (db.free_compute(0), db.free_accelerators());
    db.set_offline(host, true);
    db.set_offline(host, false);
    assert_eq!((db.free_compute(0), db.free_accelerators()), before, "set_offline({host:?})");
}

/// Drive `db`, whose nodes are `ids` in registration order (`n_computes`
/// compute nodes first), through `ops`, checking every index against its
/// linear twin after each step; then drain it and check the pools are
/// whole again.
fn drive(db: &mut NodeDb, ids: &[HostId], n_computes: usize, ops: &[(u8, usize, u64, u32)]) {
    assert_consistent(db);
    for &(op, pick, job, ppn) in ops {
        let job = JobId(job);
        let host = ids[pick % ids.len()];
        match op {
            0 => {
                // Allocate ppn cores on some currently-fitting host
                // (free_compute excludes offline, so no panics).
                let ppn = ppn.max(1);
                let free = db.free_compute(ppn);
                if !free.is_empty() {
                    db.allocate_compute(free[pick % free.len()], job, ppn);
                }
            }
            1 => {
                let free = db.free_accelerators();
                if !free.is_empty() {
                    db.allocate_accelerator(free[pick % free.len()], job);
                }
            }
            // Per-host release: a no-op when the job holds nothing
            // there, which the index must also survive.
            2 => db.release(host, job),
            3 => db.release_job(job),
            4 => db.set_offline(host, true),
            _ => db.set_offline(host, false),
        }
        assert_consistent(db);
    }
    for j in 0..6 {
        db.release_job(JobId(j));
    }
    for &host in ids {
        db.set_offline(host, false);
    }
    assert_consistent(db);
    assert_eq!(db.free_accelerators().len(), ids.len() - n_computes);
    let (free, total) = db.compute_core_usage();
    assert_eq!(free, total);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn nodedb_indexes_match_linear_scans(
        computes in prop::collection::vec(0usize..CORE_PALETTE.len(), 1..16),
        n_accs in 0usize..8,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0u64..6, 0u32..5), 1..60),
    ) {
        let ids = layout_ids(0, computes.len() + n_accs, 1);
        let mut db = NodeDb::new();
        for (&c, &host) in computes.iter().zip(&ids) {
            db.add_compute(host, CORE_PALETTE[c]);
        }
        for &host in &ids[computes.len()..] {
            db.add_accelerator(host);
        }
        drive(&mut db, &ids, computes.len(), &ops);
    }

    /// The same check over host ids that are not `0..n`: gaps, a head
    /// host that is never registered, and registration in descending id
    /// order. The indexed queries must still list hosts in registration
    /// order, and every unregistered id must stay unknown.
    #[test]
    fn nodedb_indexes_hold_for_sparse_host_ids(
        computes in prop::collection::vec(0usize..CORE_PALETTE.len(), 1..16),
        n_accs in 0usize..8,
        layout in 1u8..3,
        gap in 1usize..5,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0u64..6, 0u32..5), 1..60),
    ) {
        let ids = layout_ids(layout, computes.len() + n_accs, gap);
        let mut db = NodeDb::with_capacity(ids.len());
        for (&c, &host) in computes.iter().zip(&ids) {
            db.add_compute(host, CORE_PALETTE[c]);
        }
        for &host in &ids[computes.len()..] {
            db.add_accelerator(host);
        }
        for (i, &host) in ids.iter().enumerate() {
            prop_assert_eq!(db.index_of(host), Some(i));
            prop_assert_eq!(db.get(host).map(|n| n.host), Some(host));
        }
        let top = ids.iter().map(|h| h.index()).max().unwrap_or(0);
        let mut unknown: Vec<HostId> = (0..top + 3).map(h).filter(|x| !ids.contains(x)).collect();
        unknown.push(h(usize::MAX));
        for &host in &unknown {
            assert_unregistered(&mut db, host);
        }
        drive(&mut db, &ids, computes.len(), &ops);
        for &host in &unknown {
            assert_unregistered(&mut db, host);
        }
    }
}
