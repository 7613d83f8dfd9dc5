//! Deterministic chaos harness: seeded, end-to-end fault-injection
//! scenarios over the full batch system, with invariant auditing.
//!
//! Each seed deterministically derives a cluster shape, a job mix, and a
//! [`FaultPlan`](darms_net::FaultPlan) (lossy/duplicating/reordering
//! links, transient partitions, host outages), installs the plan
//! together with the standard retry policy, runs the scenario, and
//! audits the safety invariants the hardened control plane must uphold
//! (see [`crate::invariants`] for the shared checker):
//!
//! 1. no simulated process panics and the engine's event cap is not hit;
//! 2. every submitted job reaches a terminal state before the horizon
//!    (no wedged job, no leaked queue entry) — requeue-then-cancel after
//!    repeated node failures counts as terminal, a hang does not;
//! 3. pool accounting is conserved per node (`free + allocated ==
//!    capacity`) and at the end every node is fully free: no leaked
//!    cores, no leaked dynamically granted accelerator set;
//! 4. the virtual clock of the serialized trace never goes backwards;
//! 5. the run is byte-for-byte reproducible from its seed (the
//!    serialized trace is the witness; [`run_chaos_checked`] reruns the
//!    scenario and compares).
//!
//! Since the soak refactor the harness is a thin wrapper over
//! [`crate::soak`]: `run_chaos(seed)` runs exactly the soak cell
//! `(seed, WorkloadClass::Classic, FaultClass::Chaotic)` — pinned
//! byte-for-byte by the chaos golden trace — and the soak matrix
//! generalises the same scenario across workload and fault classes.
//!
//! Scope: the chaos plan exercises the **RMS control plane** (IFL,
//! server ↔ mom, monitor) — the layers hardened with retries and
//! idempotent request ids. The MPI data plane intentionally stays on
//! reliable links; see DESIGN.md §11 for the fault-model boundary.

use crate::soak::{run_cell, run_cell_checked, CellOutcome, SoakCell};

/// Run one seeded chaos scenario and audit it.
pub fn run_chaos(seed: u64) -> CellOutcome {
    run_cell(&SoakCell::classic(seed))
}

/// Run `seed` twice and additionally check byte-identical reproduction;
/// a mismatch is reported as a violation on the returned outcome.
pub fn run_chaos_checked(seed: u64) -> CellOutcome {
    run_cell_checked(&SoakCell::classic(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_runs_clean_and_reproduces() {
        let o = run_chaos_checked(1);
        assert!(o.clean(), "violations: {:?}", o.violations);
        assert_eq!(o.jobs, o.completed + o.cancelled);
    }
}
