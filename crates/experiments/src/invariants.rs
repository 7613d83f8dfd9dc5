//! The one auditor of every experiment harness, and the invariants it
//! checks.
//!
//! [`Audit`] is the only auditor in this crate. The figure trials, the
//! EXT studies, SWF replay, `gantt`, the fabric scenarios, the
//! datacenter scenario, soak and chaos all run under it, and so do the
//! property tests (`tests/chaos_properties.rs`). It has two parts:
//!
//! - an optional in-sim **watcher** ([`Audit::watch`]): a head-node
//!   client that polls `qstat` until every submitted job is terminal or
//!   the horizon closes in, checks each answer for resurrected jobs and
//!   samples pool conservation out of band;
//! - one **end-of-run pass** ([`Audit::run`]) over the engine's
//!   statistics, the node database and, when tracing is on, the trace.
//!
//! The checks themselves:
//!
//! 1. **Engine health** — no simulated-process panic, event cap not hit
//!    ([`check_engine`]);
//! 2. **Pool conservation** — per node, `free + allocated == capacity`,
//!    sampled mid-run and at the end ([`check_pool`]);
//! 3. **No leaked allocations** — once every job is terminal, or once
//!    the engine drained, no node may still hold cores or a dynamically
//!    granted accelerator set ([`check_no_leaks`]);
//! 4. **Monotone event clock** — the trace's virtual timestamps never
//!    decrease ([`check_monotone_clock`]);
//! 5. **Replay identity** — a rerun from the same seed reproduces the
//!    serialized trace byte-for-byte ([`check_replay_identity`];
//!    [`first_divergence`] locates the first differing line for triage);
//! 6. **No resurrection** — a job the server stamped completed is still
//!    terminal in every `qstat` ([`check_no_resurrection`]);
//! 7. **Quiescence** — the watcher saw every submitted job terminal;
//!    otherwise the report carries a stuck-run summary.
//!
//! Every check returns a `Vec<String>` of human-readable violations —
//! empty means the invariant held — so callers can aggregate freely.

use std::collections::BTreeMap;
use std::sync::Arc;

use darms::prelude::*;
use darms_rms::{ifl, NodeDb};
use parking_lot::Mutex;

/// How long before the horizon the watcher stops polling, so its last
/// `qstat` is answered inside the run.
const LAST_CALL: SimDuration = SimDuration::from_secs(30);

/// What the watcher saw.
#[derive(Default)]
struct Seen {
    /// The last `qstat` and when it was answered.
    last: Vec<JobStatus>,
    at: SimTime,
    /// Violations of the first `qstat` showing a resurrected job.
    resurrected: Vec<String>,
    /// Violations of the mid-run pool samples.
    pool: Vec<String>,
}

/// The auditor of one cluster run: an optional `qstat` watcher plus the
/// end-of-run pass.
pub struct Audit {
    /// Jobs the watcher waits for; `None` without a watcher.
    jobs: Option<usize>,
    seen: Arc<Mutex<Seen>>,
}

impl Audit {
    /// The end-of-run pass alone, for a harness that watches no `qstat`.
    pub fn end_of_run() -> Audit {
        Audit { jobs: None, seen: Arc::default() }
    }

    /// Spawn the watcher on `cluster`'s head node. It takes its first
    /// `qstat` at `first` and then one every `every`, and stops once all
    /// `jobs` submitted jobs are terminal or the horizon is near. A
    /// failed `qstat` is skipped. Each observation also samples pool
    /// conservation from [`Cluster::node_db`], which sends no message.
    pub fn watch(
        cluster: &mut Cluster,
        jobs: usize,
        first: SimDuration,
        every: SimDuration,
    ) -> Audit {
        let seen: Arc<Mutex<Seen>> = Arc::default();
        let out = seen.clone();
        let node_db = cluster.node_db.clone();
        let last_call = cluster.config().sim.horizon - LAST_CALL;
        cluster.client_after("auditor", first, move |c| async move {
            loop {
                let now = c.proc.now();
                let pool = check_pool(&node_db.lock(), "mid-run");
                let answer = ifl::try_qstat(&c.proc, &c.net, c.head, c.server).await;
                {
                    let mut s = out.lock();
                    s.pool.extend(pool);
                    if let Ok(st) = answer {
                        if s.resurrected.is_empty() {
                            s.resurrected = check_no_resurrection(&st);
                        }
                        let done = st.len() == jobs && st.iter().all(|j| j.state.is_terminal());
                        s.last = st;
                        s.at = c.proc.now();
                        if done {
                            return;
                        }
                    }
                }
                if now >= last_call {
                    return;
                }
                c.proc.sleep(every).await;
            }
        });
        Audit { jobs: Some(jobs), seen }
    }

    /// Run `cluster` to the end, then make the end-of-run pass: engine
    /// health, the watcher's findings, a stuck-run summary when the
    /// watcher last saw a job still live, a final pool check, leaks once
    /// every job is terminal or the engine drained (a drained engine can
    /// release nothing more), and the event clock when tracing is on.
    pub fn run(self, cluster: &mut Cluster) -> (SimStats, AuditReport) {
        let stats = cluster.run();
        let seen = std::mem::take(&mut *self.seen.lock());
        let mut violations = check_engine(&stats);
        violations.extend(seen.pool);
        violations.extend(seen.resurrected);
        let quiescent = self.jobs.map(|jobs| {
            let all = seen.last.len() == jobs && seen.last.iter().all(|s| s.state.is_terminal());
            if !all {
                let horizon = cluster.config().sim.horizon;
                violations.push(stuck_summary(&seen.last, seen.at, jobs, horizon));
            }
            all
        });
        let drained = !stats.hit_horizon && !stats.hit_event_cap;
        {
            let db = cluster.node_db.lock();
            violations.extend(check_pool(&db, "final"));
            if quiescent == Some(true) || drained {
                violations.extend(check_no_leaks(&db));
            }
        }
        if cluster.tracer.enabled() {
            violations.extend(check_monotone_clock(&cluster.tracer.snapshot()));
        }
        let still_running = stats.processes_spawned - stats.processes_finished;
        (stats, AuditReport { violations, still_running, statuses: seen.last })
    }
}

/// What [`Audit::run`] found.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Processes still running when the engine stopped. Reported, not a
    /// violation: a kill does not yet end a process blocked outside the
    /// job's kill-aware waits, such as the daemon of a job that never
    /// opened an `AcSession`.
    pub still_running: u64,
    /// The watcher's last `qstat` (empty without a watcher).
    pub statuses: Vec<JobStatus>,
}

impl AuditReport {
    /// True when every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation unless the run of `what` was clean.
    pub fn assert_clean(&self, what: &str) {
        assert!(self.clean(), "{what} failed its audit: {}", self.violations.join("; "));
    }
}

/// Stuck-run summary: jobs per state in the last `qstat` (answered at
/// `at`), and the first non-terminal jobs with their completion times.
fn stuck_summary(last: &[JobStatus], at: SimTime, jobs: usize, horizon: SimTime) -> String {
    let mut per_state: BTreeMap<String, usize> = BTreeMap::new();
    for s in last {
        *per_state.entry(format!("{:?}", s.state)).or_default() += 1;
    }
    let live: Vec<String> = last
        .iter()
        .filter(|s| !s.state.is_terminal())
        .take(10)
        .map(|s| match s.completed {
            Some(t) => format!("{} {:?} completed {t}s", s.id, s.state),
            None => format!("{} {:?} completed -", s.id, s.state),
        })
        .collect();
    format!(
        "run not quiescent (horizon {horizon}s): last qstat at {at}s lists {} of {jobs} jobs; \
         per state {per_state:?}; first non-terminal [{}]",
        last.len(),
        live.join(", ")
    )
}

/// Engine-health invariant: the run must finish without a simulated
/// process panicking and without hitting the engine's event cap (a cap
/// hit means the scenario never quiesced — a wedge or a livelock).
pub fn check_engine(stats: &SimStats) -> Vec<String> {
    let mut v = Vec::new();
    if stats.process_panics != 0 {
        v.push(format!("{} process panic(s)", stats.process_panics));
    }
    if stats.hit_event_cap {
        v.push("engine event cap hit (scenario did not quiesce)".to_string());
    }
    v
}

/// Pool-conservation invariant: on every node, free cores plus cores
/// held by jobs must equal the node's capacity. `phase` labels the
/// sample point in the violation text (e.g. `"mid-run"`, `"final"`).
pub fn check_pool(db: &NodeDb, phase: &str) -> Vec<String> {
    let mut v = Vec::new();
    for n in db.nodes() {
        let allocated: u32 = n.jobs.values().sum();
        if n.cores_free + allocated != n.cores_total {
            v.push(format!(
                "{phase} pool accounting broken on host{}: {} free + {} allocated != {} total",
                n.host.index(),
                n.cores_free,
                allocated,
                n.cores_total
            ));
        }
    }
    v
}

/// Full-reclamation invariant: with every job terminal, no node may
/// still hold an allocation (leaked cores or accelerator sets). Only
/// meaningful once the caller has observed all jobs terminal.
pub fn check_no_leaks(db: &NodeDb) -> Vec<String> {
    let mut v = Vec::new();
    for n in db.nodes() {
        if !n.jobs.is_empty() {
            v.push(format!(
                "leaked allocation on host{}: jobs {:?} still hold cores/sets",
                n.host.index(),
                n.jobs.keys().collect::<Vec<_>>()
            ));
        }
    }
    v
}

/// No-resurrection invariant: a job with a completion time (it exited,
/// timed out or was cancelled) must be in a terminal state. A live state
/// over a completion time means something wrote the job back to life
/// (the known-wrong expose row of DESIGN.md §11). A requeued job carries no completion time, so it is
/// not flagged.
pub fn check_no_resurrection(statuses: &[JobStatus]) -> Vec<String> {
    statuses
        .iter()
        .filter_map(|s| match s.completed {
            Some(at) if !s.state.is_terminal() => {
                Some(format!("{} resurrected: {:?} after completing at {at}", s.id, s.state))
            }
            _ => None,
        })
        .collect()
}

/// Monotone-clock invariant: virtual timestamps in the event stream
/// never decrease (the engine dispatches in `(time, seq)` order; a
/// decrease means trace corruption or an engine bug).
pub fn check_monotone_clock(events: &[TraceEvent]) -> Vec<String> {
    for (i, w) in events.windows(2).enumerate() {
        if w[1].time < w[0].time {
            return vec![format!(
                "event clock went backwards at event {}: {} after {} ({} after {})",
                i + 1,
                w[1].time,
                w[0].time,
                w[1].name,
                w[0].name
            )];
        }
    }
    Vec::new()
}

/// Replay-identity invariant: `second` (a rerun from the same seed)
/// must equal `first` byte-for-byte. On divergence the violation names
/// the first differing trace line (see [`first_divergence`]).
pub fn check_replay_identity(first: &str, second: &str) -> Vec<String> {
    if first == second {
        return Vec::new();
    }
    let at = first_divergence(first, second);
    vec![match at {
        Some(line) => format!(
            "rerun of the same seed diverged (trace not byte-identical; first divergence at \
             trace line {line})"
        ),
        None => "rerun of the same seed diverged (trace not byte-identical)".to_string(),
    }]
}

/// Zero-based index of the first line where two serialized traces
/// differ (a missing line on one side counts as a difference). `None`
/// when the traces are identical.
pub fn first_divergence(first: &str, second: &str) -> Option<usize> {
    let mut a = first.lines();
    let mut b = second.lines();
    let mut i = 0usize;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x == y => i += 1,
            _ => return Some(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::{HostId, HostKind, LatencyModel, Network};
    use darms_rms::JobId;

    fn db_with_one_node() -> (NodeDb, HostId) {
        let net = Network::new(LatencyModel::ideal(), 1);
        let h = net.add_host("cn00", HostKind::Compute);
        let mut db = NodeDb::new();
        db.add_compute(h, 4);
        (db, h)
    }

    fn one_job_cluster(runtime_s: u64) -> Cluster {
        let mut cfg = ClusterConfig::fast(1).with_split(1, 1);
        cfg.sim.horizon = SimTime::ZERO + SimDuration::from_secs(60);
        let mut cluster = Cluster::build(cfg);
        let runtime = SimDuration::from_secs(runtime_s);
        cluster.qsub(JobSpec::synthetic("job", runtime).walltime(runtime * 2));
        cluster
    }

    #[test]
    fn audit_of_a_drained_run_is_clean_and_keeps_the_last_qstat() {
        let mut cluster = one_job_cluster(5);
        let audit =
            Audit::watch(&mut cluster, 1, SimDuration::from_secs(1), SimDuration::from_secs(2));
        let (stats, report) = audit.run(&mut cluster);
        assert!(!stats.hit_horizon);
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.still_running, 0);
        assert_eq!(report.statuses.len(), 1);
        assert_eq!(report.statuses[0].state, JobState::Complete);
    }

    #[test]
    fn audit_of_a_run_cut_at_the_horizon_is_not_quiescent() {
        let mut cluster = one_job_cluster(600);
        let audit =
            Audit::watch(&mut cluster, 1, SimDuration::from_secs(1), SimDuration::from_secs(10));
        let (stats, report) = audit.run(&mut cluster);
        assert!(stats.hit_horizon);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("not quiescent"), "{:?}", report.violations);
        assert!(report.violations[0].contains("Running"), "{:?}", report.violations);
        // The job's task was still sleeping when the horizon stopped it.
        assert!(report.still_running >= 1);
    }

    #[test]
    fn healthy_engine_and_conserved_pool_pass() {
        let stats = SimStats::default();
        assert!(check_engine(&stats).is_empty());
        let (db, _) = db_with_one_node();
        assert!(check_pool(&db, "final").is_empty());
        assert!(check_no_leaks(&db).is_empty());
    }

    #[test]
    fn allocation_is_conserved_but_leaks_are_reported() {
        let (mut db, h) = db_with_one_node();
        db.allocate_compute(h, JobId(1), 2);
        // Allocation moves cores, it does not break conservation.
        assert!(check_pool(&db, "mid-run").is_empty());
        // But with all jobs terminal it is a leak.
        let leaks = check_no_leaks(&db);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].contains("leaked allocation"), "{leaks:?}");
        db.release(h, JobId(1));
        assert!(check_no_leaks(&db).is_empty());
    }

    #[test]
    fn engine_failures_are_reported() {
        let stats = SimStats { process_panics: 2, hit_event_cap: true, ..Default::default() };
        let v = check_engine(&stats);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("panic"));
        assert!(v[1].contains("event cap"));
    }

    fn status(id: u64, state: JobState, completed: Option<u64>) -> JobStatus {
        JobStatus {
            id: JobId(id),
            name: format!("j{id}"),
            owner: "sim".into(),
            state,
            submitted: SimTime::ZERO,
            started: None,
            completed: completed.map(|s| SimTime::ZERO + SimDuration::from_secs(s)),
            compute_hosts: Vec::new(),
            static_accs: Vec::new(),
            dyn_sets: Vec::new(),
        }
    }

    #[test]
    fn resurrected_job_is_flagged_and_requeued_job_is_not() {
        let ok = [
            status(1, JobState::Complete, Some(10)),
            status(2, JobState::TimedOut, Some(20)),
            status(3, JobState::Running, None),
            // Requeued after losing a node: live again, but never completed.
            status(4, JobState::Queued, None),
        ];
        assert!(check_no_resurrection(&ok).is_empty());
        let v = check_no_resurrection(&[
            status(5, JobState::Running, Some(30)),
            status(6, JobState::DynQueued, Some(40)),
            status(7, JobState::Cancelled, Some(50)),
        ]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("job5 resurrected: Running"), "{v:?}");
        assert!(v[1].starts_with("job6 resurrected: DynQueued"), "{v:?}");
    }

    #[test]
    fn monotone_clock_detects_a_backwards_step() {
        let mk = |secs: u64| TraceEvent {
            time: SimTime::ZERO + SimDuration::from_secs(secs),
            source: TraceSource::Kernel,
            source_name: "kernel".into(),
            name: "tick".to_string(),
            detail: String::new(),
            kind: TraceEventKind::Instant,
        };
        assert!(check_monotone_clock(&[]).is_empty());
        assert!(check_monotone_clock(&[mk(1), mk(1), mk(2)]).is_empty());
        let v = check_monotone_clock(&[mk(1), mk(3), mk(2)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("event 2"), "{v:?}");
    }

    #[test]
    fn divergence_names_the_first_differing_line() {
        assert!(check_replay_identity("a\nb\n", "a\nb\n").is_empty());
        assert_eq!(first_divergence("a\nb\nc\n", "a\nX\nc\n"), Some(1));
        assert_eq!(first_divergence("a\n", "a\nb\n"), Some(1), "length mismatch diverges");
        let v = check_replay_identity("a\nb\n", "a\nc\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("trace line 1"), "{v:?}");
    }
}
