//! `darms-soak`: the continuously-runnable chaos + scale soak.
//!
//! A soak run sweeps a matrix of **cells** — one cell per
//! `(seed × fault-plan class × workload class)` combination — on the
//! parallel trial runner, runs every cell **twice**, and audits the
//! shared safety invariants ([`crate::invariants`]) per cell:
//!
//! - engine health (no process panics, no event-cap hit),
//! - pool conservation (mid-run samples and final state),
//! - no wedged jobs / leaked allocations,
//! - a monotone event clock,
//! - byte-identical trace on the second run.
//!
//! Alongside the invariants every cell reports its latency SLO samples
//! (`qsub→run` and `dynget→grant`, in seconds) so the sweep can
//! aggregate exact p50/p99/p999 quantiles with and without faults
//! (see [`darms_sim::QuantileEstimator`]).
//!
//! On any violation the cell is packaged into a **triage bundle** — a
//! self-contained directory under `soak_triage/` holding the cell
//! config, the seed, the fault-plan class, the violations, the full
//! serialized trace and a slice around the first divergence — that
//! [`replay_bundle`] can re-run and compare byte-for-byte.
//!
//! The classic chaos harness ([`crate::chaos`]) is now a thin wrapper
//! over one fixed cell class: `run_chaos(seed)` ≡
//! `run_cell(SoakCell::classic(seed))`, pinned by the chaos golden
//! trace.

use std::path::{Path, PathBuf};

use darms::prelude::*;
use darms_net::HostId;
use darms_rms::MonitorConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::golden;
use crate::invariants::{self, Audit};

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Virtual-time horizon of every soak cell.
const HORIZON_SECS: u64 = 400;

/// Trace lines kept on each side of the anchor in a bundle's slice.
const SLICE_CONTEXT: usize = 25;

/// Bundle format version written into `cell.json`.
pub const BUNDLE_SCHEMA: u32 = 1;

// ---------------------------------------------------------------------
// Cell axes
// ---------------------------------------------------------------------

/// The job-mix class of a soak cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadClass {
    /// The classic chaos mix (PR 4): 4–8 mid-sized jobs, up to 3
    /// dynget/hold/dynfree rounds each. `run_chaos` runs exactly this.
    Classic,
    /// Accelerator-hungry: fewer jobs, 2–5 dynamic rounds with longer
    /// holds — stresses the dynget/dynfree path and pool reclamation.
    DynHeavy,
    /// Arrival churn: 8–14 short jobs — stresses queueing, backfill and
    /// start/exit bookkeeping under faults.
    Churn,
}

impl WorkloadClass {
    /// Every workload class, in matrix order.
    pub const ALL: [WorkloadClass; 3] =
        [WorkloadClass::Classic, WorkloadClass::DynHeavy, WorkloadClass::Churn];

    /// Stable lower-case name (used in cell ids and `cell.json`).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Classic => "classic",
            WorkloadClass::DynHeavy => "dynheavy",
            WorkloadClass::Churn => "churn",
        }
    }

    /// Inverse of [`WorkloadClass::name`].
    pub fn parse(s: &str) -> Option<WorkloadClass> {
        WorkloadClass::ALL.into_iter().find(|w| w.name() == s)
    }

    fn params(self) -> WorkloadParams {
        match self {
            // Must stay identical to PR 4's chaos generator: the chaos
            // golden pins the resulting trace byte-for-byte.
            WorkloadClass::Classic => WorkloadParams {
                compute: (2, 3),
                accs: (3, 4),
                n_jobs: (4, 8),
                arrival_ms: 60_000,
                max_nodes: 2,
                max_ppn: 2,
                runtime_ms: (2_000, 8_000),
                dyn_rounds: (0, 3),
                dyn_hold_ms: (1_000, 3_000),
            },
            WorkloadClass::DynHeavy => WorkloadParams {
                compute: (2, 3),
                accs: (3, 4),
                n_jobs: (3, 6),
                arrival_ms: 40_000,
                max_nodes: 2,
                max_ppn: 2,
                runtime_ms: (1_000, 5_000),
                dyn_rounds: (2, 5),
                dyn_hold_ms: (2_000, 5_000),
            },
            WorkloadClass::Churn => WorkloadParams {
                compute: (2, 3),
                accs: (3, 4),
                n_jobs: (8, 14),
                arrival_ms: 60_000,
                max_nodes: 2,
                max_ppn: 2,
                runtime_ms: (500, 2_000),
                dyn_rounds: (0, 1),
                dyn_hold_ms: (500, 1_500),
            },
        }
    }
}

/// The fault-plan class of a soak cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// No fault plan: the baseline the SLO quantiles are compared
    /// against (and a determinism check of the fault-free path).
    None,
    /// Link-level faults only: drop, duplicate, jitter, reorder.
    Lossy,
    /// The full PR 4 schedule: lossy links plus transient partitions
    /// and host outages.
    Chaotic,
}

impl FaultClass {
    /// Every fault class, in matrix order.
    pub const ALL: [FaultClass; 3] = [FaultClass::None, FaultClass::Lossy, FaultClass::Chaotic];

    /// Stable lower-case name (used in cell ids and `cell.json`).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Lossy => "lossy",
            FaultClass::Chaotic => "chaotic",
        }
    }

    /// Inverse of [`FaultClass::name`].
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|f| f.name() == s)
    }

    /// True when the cell runs with an installed fault plan.
    pub fn faulty(self) -> bool {
        self != FaultClass::None
    }
}

/// One cell of the soak matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoakCell {
    /// Scenario seed: derives the cluster shape, job mix and fault plan.
    pub seed: u64,
    /// Job-mix class.
    pub workload: WorkloadClass,
    /// Fault-plan class.
    pub faults: FaultClass,
    /// Testing hook: mark the cell as violating regardless of the audit
    /// (the trace is untouched). Lets the triage-bundle round trip be
    /// exercised without needing a real invariant bug.
    pub force_failure: bool,
}

impl SoakCell {
    /// A cell of the soak matrix.
    pub fn new(seed: u64, workload: WorkloadClass, faults: FaultClass) -> SoakCell {
        SoakCell { seed, workload, faults, force_failure: false }
    }

    /// The cell `run_chaos(seed)` runs: classic workload, full chaos.
    pub fn classic(seed: u64) -> SoakCell {
        SoakCell::new(seed, WorkloadClass::Classic, FaultClass::Chaotic)
    }

    /// Stable identifier, also the bundle directory name:
    /// `s<seed>-<workload>-<faults>[-forced]`.
    pub fn id(&self) -> String {
        let forced = if self.force_failure { "-forced" } else { "" };
        format!("s{}-{}-{}{forced}", self.seed, self.workload.name(), self.faults.name())
    }
}

/// The full soak matrix for a seed range: every
/// `(seed × workload × fault)` combination, seed-major, in
/// deterministic order.
pub fn matrix(seeds: std::ops::Range<u64>) -> Vec<SoakCell> {
    let mut cells = Vec::new();
    for seed in seeds {
        for workload in WorkloadClass::ALL {
            for faults in FaultClass::ALL {
                cells.push(SoakCell::new(seed, workload, faults));
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// Scenario generation (shared with the classic chaos harness)
// ---------------------------------------------------------------------

/// Inclusive `(lo, hi)` bounds except `arrival_ms` (exclusive upper,
/// lower 0) — the bounds are threaded through `gen_range` in exactly
/// PR 4's call order so the `Classic` class reproduces the chaos golden.
struct WorkloadParams {
    compute: (usize, usize),
    accs: (usize, usize),
    n_jobs: (usize, usize),
    arrival_ms: u64,
    max_nodes: usize,
    max_ppn: u32,
    runtime_ms: (u64, u64),
    dyn_rounds: (u32, u32),
    dyn_hold_ms: (u64, u64),
}

/// One generated job of the soak workload.
#[derive(Clone, Debug)]
struct SoakJob {
    arrival: SimDuration,
    nodes: usize,
    ppn: u32,
    runtime: SimDuration,
    /// Number of `pbs_dynget(1)` → hold → `pbs_dynfree` rounds the
    /// mother-superior task performs before its compute phase.
    dyn_rounds: u32,
    dyn_hold: SimDuration,
}

/// Deterministically derive the cluster shape and job mix.
fn generate(p: &WorkloadParams, rng: &mut SmallRng) -> (usize, usize, Vec<SoakJob>) {
    let compute = rng.gen_range(p.compute.0..=p.compute.1);
    let accs = rng.gen_range(p.accs.0..=p.accs.1);
    let n_jobs = rng.gen_range(p.n_jobs.0..=p.n_jobs.1);
    let jobs = (0..n_jobs)
        .map(|_| SoakJob {
            arrival: SimDuration::from_millis(rng.gen_range(0u64..p.arrival_ms)),
            nodes: rng.gen_range(1usize..=p.max_nodes.min(compute)),
            ppn: rng.gen_range(1u32..=p.max_ppn),
            runtime: SimDuration::from_millis(rng.gen_range(p.runtime_ms.0..=p.runtime_ms.1)),
            dyn_rounds: rng.gen_range(p.dyn_rounds.0..=p.dyn_rounds.1),
            dyn_hold: SimDuration::from_millis(rng.gen_range(p.dyn_hold_ms.0..=p.dyn_hold_ms.1)),
        })
        .collect();
    (compute, accs, jobs)
}

/// Derive the fault plan for the cell's fault class. Hosts must already
/// exist (plan windows name [`HostId`]s), so this runs after
/// [`Cluster::build`]. `FaultClass::Chaotic` draws in exactly PR 4's
/// order (golden-pinned); `Lossy` stops after the link faults; `None`
/// draws nothing.
fn generate_plan(class: FaultClass, rng: &mut SmallRng, cluster: &Cluster) -> Option<FaultPlan> {
    if class == FaultClass::None {
        return None;
    }
    let lf = LinkFaults {
        drop: rng.gen_range(0.05..0.25),
        duplicate: rng.gen_range(0.0..0.15),
        jitter: SimDuration::from_millis(rng.gen_range(0u64..=20)),
        reorder: rng.gen_range(0.0..0.2),
        reorder_window: SimDuration::from_millis(50),
    };
    let mut plan = FaultPlan::new(rng.gen_range(0u64..=u64::MAX)).with_default_link(lf);
    if class == FaultClass::Lossy {
        return Some(plan);
    }
    let others: Vec<HostId> = cluster.compute.iter().chain(cluster.accs.iter()).copied().collect();
    for _ in 0..rng.gen_range(0u32..=2) {
        let from = SimTime::ZERO + secs(rng.gen_range(20u64..=90));
        let len = secs(rng.gen_range(5u64..=15));
        let host = others[rng.gen_range(0usize..others.len())];
        plan = plan.with_partition(vec![host], from, from + len);
    }
    for _ in 0..rng.gen_range(0u32..=2) {
        let from = SimTime::ZERO + secs(rng.gen_range(20u64..=90));
        let len = secs(rng.gen_range(5u64..=15));
        let host = others[rng.gen_range(0usize..others.len())];
        plan = plan.with_outage(host, from, from + len);
    }
    Some(plan)
}

// ---------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------

/// What one audited soak cell produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell that ran.
    pub cell: SoakCell,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Jobs submitted by the generated workload.
    pub jobs: usize,
    /// Jobs that finished normally.
    pub completed: usize,
    /// Jobs cancelled by the server (requeue budget exhausted after
    /// repeated node failures) or by walltime enforcement.
    pub cancelled: usize,
    /// Server-side host reclamations triggered by offline reports.
    pub reclaims: u64,
    /// Events the engine dispatched (per single run).
    pub events: u64,
    /// Processes still running when the engine stopped.
    pub still_running: u64,
    /// qsub→run latency samples, in seconds (`rms.qsub_to_run`).
    pub qsub_to_run: Vec<f64>,
    /// dynget→grant latency samples, in seconds
    /// (`rms.dynget_to_grant`; grants only, rejections excluded).
    pub dynget_to_grant: Vec<f64>,
    /// Serialized trace + deterministic engine stats: the byte-identity
    /// witness for this cell.
    pub trace: String,
    /// The second run's trace, kept only when it diverged from the
    /// first (for triage slicing).
    pub rerun_trace: Option<String>,
}

impl CellOutcome {
    /// True when every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Zero-based line of the first trace divergence, when the second
    /// run diverged.
    pub fn divergence_line(&self) -> Option<usize> {
        let rerun = self.rerun_trace.as_deref()?;
        invariants::first_divergence(&self.trace, rerun)
    }
}

/// Run one soak cell (a single run) and audit every invariant except
/// replay identity — for that, use [`run_cell_checked`].
pub fn run_cell(cell: &SoakCell) -> CellOutcome {
    let mut rng = SmallRng::seed_from_u64(cell.seed ^ 0xC4A0_5EED);
    let (compute, accs, jobs) = generate(&cell.workload.params(), &mut rng);
    let horizon = SimTime::ZERO + secs(HORIZON_SECS);
    // A higher miss threshold than the default keeps purely probabilistic
    // ping loss from constantly flapping nodes offline; sustained outages
    // are still detected within ~12 s.
    let mc = MonitorConfig { interval: secs(2), miss_threshold: 5, ctl_bytes: 64 };
    let config = ClusterConfig::fast(cell.seed)
        .with_split(compute, accs)
        .with_monitor(mc, horizon)
        .with_retry(RetryPolicy::standard())
        .with_trace();
    let mut cluster = Cluster::build(config);
    if let Some(plan) = generate_plan(cell.faults, &mut rng, &cluster) {
        cluster.net.install_fault_plan(plan);
    }

    let n_jobs = jobs.len();
    for (i, j) in jobs.iter().enumerate() {
        let jc_cfg = j.clone();
        let spec = JobSpec::synthetic(format!("chaos{i}"), j.runtime)
            .nodes(j.nodes)
            .ppn(j.ppn)
            .walltime(secs(120))
            .script(script(move |mut jc| {
                let jc_cfg = jc_cfg.clone();
                async move {
                    if jc.node_index == 0 {
                        for _ in 0..jc_cfg.dyn_rounds {
                            if let Ok(grant) = jc.dynget(1).await {
                                jc.proc.sleep(jc_cfg.dyn_hold).await;
                                let _ = jc.dynfree(grant.client_id).await;
                            }
                        }
                    }
                    let _ = jc.sleep_interruptible(jc_cfg.runtime).await;
                }
            }));
        cluster.qsub_after(j.arrival, spec);
    }

    // First look at 15 s, then every 10 s, until every job is terminal
    // or the horizon closes in.
    let audit = Audit::watch(&mut cluster, n_jobs, secs(15), secs(10));
    let (stats, report) = audit.run(&mut cluster);
    let trace = golden::serialize(&cluster.tracer.snapshot(), &stats);
    let mut violations = report.violations;
    if cell.force_failure {
        violations.push("forced failure (cell ran with force_failure set)".to_string());
    }
    let completed = report.statuses.iter().filter(|s| s.state == JobState::Complete).count();
    let terminal = report.statuses.iter().filter(|s| s.state.is_terminal()).count();

    CellOutcome {
        cell: *cell,
        violations,
        jobs: n_jobs,
        completed,
        cancelled: terminal - completed,
        reclaims: cluster.metrics.counter("rms.reclaims"),
        events: stats.events,
        still_running: report.still_running,
        qsub_to_run: cluster.metrics.histogram_samples("rms.qsub_to_run"),
        dynget_to_grant: cluster.metrics.histogram_samples("rms.dynget_to_grant"),
        trace,
        rerun_trace: None,
    }
}

/// Run the cell **twice** and additionally check byte-identical
/// reproduction; a divergence is reported as a violation (with the
/// first diverging trace line) and the second trace is kept for
/// triage slicing.
pub fn run_cell_checked(cell: &SoakCell) -> CellOutcome {
    let mut first = run_cell(cell);
    let second = run_cell(cell);
    let identity = invariants::check_replay_identity(&first.trace, &second.trace);
    if !identity.is_empty() {
        first.violations.extend(identity);
        first.rerun_trace = Some(second.trace);
    }
    first
}

// ---------------------------------------------------------------------
// Triage bundles
// ---------------------------------------------------------------------

/// Write a self-contained triage bundle for a violating cell under
/// `root` and return the bundle directory
/// (`<root>/<cell-id>/`). Contents:
///
/// - `cell.json` — schema, seed, workload/fault class, forced flag and
///   (when the rerun diverged) the zero-based divergence line;
/// - `violations.txt` — one violation per line;
/// - `trace.jsonl` — the full first-run serialized trace;
/// - `rerun_trace.jsonl` — the second run's trace, only on divergence;
/// - `slice.jsonl` — ±25 trace lines around the anchor (the divergence
///   line, or the trace tail for end-of-run invariant violations).
pub fn write_triage_bundle(root: &Path, out: &CellOutcome) -> std::io::Result<PathBuf> {
    let dir = root.join(out.cell.id());
    std::fs::create_dir_all(&dir)?;

    let divergence = out.divergence_line();
    let mut cell_json = String::new();
    cell_json.push_str("{\n");
    cell_json.push_str(&format!("  \"schema\": {BUNDLE_SCHEMA},\n"));
    cell_json.push_str(&format!("  \"seed\": {},\n", out.cell.seed));
    cell_json.push_str(&format!("  \"workload\": \"{}\",\n", out.cell.workload.name()));
    cell_json.push_str(&format!("  \"faults\": \"{}\",\n", out.cell.faults.name()));
    cell_json.push_str(&format!("  \"force_failure\": {},\n", out.cell.force_failure));
    match divergence {
        Some(line) => cell_json.push_str(&format!("  \"divergence_line\": {line}\n")),
        None => cell_json.push_str("  \"divergence_line\": null\n"),
    }
    cell_json.push_str("}\n");
    std::fs::write(dir.join("cell.json"), cell_json)?;

    let mut violations = out.violations.join("\n");
    violations.push('\n');
    std::fs::write(dir.join("violations.txt"), violations)?;
    std::fs::write(dir.join("trace.jsonl"), &out.trace)?;
    if let Some(rerun) = &out.rerun_trace {
        std::fs::write(dir.join("rerun_trace.jsonl"), rerun)?;
    }

    // Slice: context around the divergence, or the trace tail when the
    // violation was detected by the end-of-run audit.
    let lines: Vec<&str> = out.trace.lines().collect();
    let anchor = divergence.unwrap_or(lines.len().saturating_sub(1));
    let from = anchor.saturating_sub(SLICE_CONTEXT);
    let to = (anchor + SLICE_CONTEXT + 1).min(lines.len());
    let mut slice = String::new();
    for l in &lines[from..to] {
        slice.push_str(l);
        slice.push('\n');
    }
    std::fs::write(dir.join("slice.jsonl"), slice)?;

    Ok(dir)
}

/// The result of replaying a triage bundle.
#[derive(Clone, Debug)]
pub struct BundleReplay {
    /// The cell reconstructed from `cell.json`.
    pub cell: SoakCell,
    /// True when the fresh run's trace equals the bundled
    /// `trace.jsonl` byte-for-byte.
    pub byte_identical: bool,
    /// The fresh run's invariant violations.
    pub violations: Vec<String>,
}

/// Extract the value following `"key":` in the hand-written `cell.json`
/// format (one key per line).
fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    let rest = &text[at + needle.len()..];
    let end = rest.find(['\n', ',']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Re-run the cell recorded in a triage bundle and compare the fresh
/// trace against the bundled one byte-for-byte. Errors describe a
/// malformed or unreadable bundle.
pub fn replay_bundle(bundle: &Path) -> Result<BundleReplay, String> {
    let cell_path = bundle.join("cell.json");
    let text = std::fs::read_to_string(&cell_path)
        .map_err(|e| format!("cannot read {}: {e}", cell_path.display()))?;
    let field =
        |key: &str| json_field(&text, key).ok_or_else(|| format!("cell.json is missing \"{key}\""));
    let schema: u32 =
        field("schema")?.parse().map_err(|e| format!("cell.json: bad schema: {e}"))?;
    if schema != BUNDLE_SCHEMA {
        return Err(format!("unsupported bundle schema {schema} (expected {BUNDLE_SCHEMA})"));
    }
    let seed: u64 = field("seed")?.parse().map_err(|e| format!("cell.json: bad seed: {e}"))?;
    let workload_name = field("workload")?.trim_matches('"');
    let workload = WorkloadClass::parse(workload_name)
        .ok_or_else(|| format!("cell.json: unknown workload class \"{workload_name}\""))?;
    let faults_name = field("faults")?.trim_matches('"');
    let faults = FaultClass::parse(faults_name)
        .ok_or_else(|| format!("cell.json: unknown fault class \"{faults_name}\""))?;
    let force_failure = field("force_failure")? == "true";

    let trace_path = bundle.join("trace.jsonl");
    let expected = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;

    let cell = SoakCell { seed, workload, faults, force_failure };
    let fresh = run_cell(&cell);
    Ok(BundleReplay { cell, byte_identical: fresh.trace == expected, violations: fresh.violations })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_of_each_fault_class_runs_clean() {
        for faults in FaultClass::ALL {
            let cell = SoakCell::new(3, WorkloadClass::Classic, faults);
            let o = run_cell_checked(&cell);
            assert!(o.clean(), "{}: violations: {:?}", cell.id(), o.violations);
            assert_eq!(o.jobs, o.completed + o.cancelled);
            assert_eq!(o.still_running, 0, "{}: processes left running", cell.id());
            assert!(o.events > 0);
        }
    }

    #[test]
    fn workload_classes_differ_and_reproduce() {
        let traces: Vec<String> = WorkloadClass::ALL
            .iter()
            .map(|&w| {
                let cell = SoakCell::new(5, w, FaultClass::Lossy);
                let o = run_cell_checked(&cell);
                assert!(o.clean(), "{}: violations: {:?}", cell.id(), o.violations);
                assert_eq!(o.still_running, 0, "{}: processes left running", cell.id());
                o.trace
            })
            .collect();
        assert_ne!(traces[0], traces[1], "classic and dynheavy must generate distinct scenarios");
        assert_ne!(traces[1], traces[2], "dynheavy and churn must generate distinct scenarios");
    }

    #[test]
    fn matrix_is_seed_major_and_complete() {
        let cells = matrix(0..2);
        assert_eq!(cells.len(), 2 * WorkloadClass::ALL.len() * FaultClass::ALL.len());
        assert_eq!(cells[0].id(), "s0-classic-none");
        assert_eq!(cells[cells.len() - 1].id(), "s1-churn-chaotic");
    }

    #[test]
    fn fault_free_cells_record_slo_samples() {
        let o = run_cell(&SoakCell::new(1, WorkloadClass::DynHeavy, FaultClass::None));
        assert!(o.clean(), "violations: {:?}", o.violations);
        assert!(!o.qsub_to_run.is_empty(), "every started job records qsub→run");
        assert!(!o.dynget_to_grant.is_empty(), "dynheavy cells must see at least one grant");
    }
}
