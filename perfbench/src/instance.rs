//! One benchmark instance: generate a job stream, assemble a cluster,
//! submit through the front door, run, check, and measure.

use std::sync::Arc;
use std::time::Instant;

use darms::ClusterConfig;
use darms_experiments::invariants::{check_engine, check_no_leaks, check_pool};
use darms_rms::JobState;
use darms_sim::{SimDuration, SimStats, SimTime};
use parking_lot::Mutex;

use crate::assemble::Assembly;
use crate::script::{job_spec, submit, timed, watch, Busy, Log};
use crate::workload::{Plan, Shape, CORES_PER_NODE};

/// How long before the horizon the watcher makes its last `qstat`, so
/// the reply arrives inside the horizon.
const LAST_QSTAT_BEFORE_HORIZON: SimDuration = SimDuration::from_secs(60);

/// Everything an instance reports that depends only on its seed. A
/// simulator-only speed-up leaves all of it identical.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs that completed.
    pub complete: u64,
    /// Jobs killed for exceeding their walltime.
    pub timed_out: u64,
    /// Jobs not terminal at the horizon.
    pub unfinished: u64,
    /// Jobs that started.
    pub started: u64,
    /// Scheduled arrival to start, per job; the horizon for jobs that
    /// never start (s).
    pub qsub_to_run_s: Vec<f64>,
    /// Issue-to-grant latency of granted `AC_Get`s (s).
    pub acget_s: Vec<f64>,
    /// `AC_Free` durations (s).
    pub acfree_s: Vec<f64>,
    /// `AC_Init` durations (s).
    pub init_s: Vec<f64>,
    /// `AC_Get`s issued.
    pub acget_issued: u64,
    /// `AC_Get`s refused for lack of free accelerators.
    pub acget_refused: u64,
    /// Last completion of a job that reached a terminal state (s).
    pub makespan_s: f64,
    /// Accelerator-seconds held by the benchmark's scripts.
    pub held_acc_s: f64,
    /// Accelerator pool size.
    pub pool: u64,
    /// `net.messages` counter.
    pub net_messages: u64,
    /// `net.bytes` counter.
    pub net_bytes: u64,
    /// `sched.iterations` counter.
    pub sched_iterations: u64,
    /// `sched.backfill_hits` counter.
    pub backfill_hits: u64,
    /// `rms.dynjoin` counter.
    pub dynjoin: u64,
    /// `rms.disjoin` counter.
    pub disjoin: u64,
    /// `rms.dyn_rejected` counter.
    pub dyn_rejected: u64,
    /// `rms.dyn_wait` samples: the wait in the server's serial FIFO (s).
    pub dyn_wait_s: Vec<f64>,
    /// `sched.queue_depth` samples.
    pub queue_depth: Vec<f64>,
    /// `qstat` calls made by the watcher.
    pub qstat_calls: u64,
}

impl SimOutcome {
    /// `AC_Get`s granted.
    pub fn acget_granted(&self) -> u64 {
        self.acget_s.len() as u64
    }

    /// Jobs that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.complete + self.timed_out
    }
}

/// Wall time of each timed layer of a traced instance (ms, calls).
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `pbs_server` per class, in `SERVER_CLASSES` order.
    pub server: Vec<(f64, u64)>,
    /// Maui scheduler.
    pub sched: (f64, u64),
    /// All moms.
    pub moms: (f64, u64),
    /// Job-script polls.
    pub scripts: (f64, u64),
    /// `qsub` client polls.
    pub qsub: (f64, u64),
    /// Watcher polls.
    pub watch: (f64, u64),
}

impl LayerTimes {
    /// Sum of every timed layer (ms).
    pub fn total_ms(&self) -> f64 {
        self.server.iter().map(|s| s.0).sum::<f64>()
            + self.sched.0
            + self.moms.0
            + self.scripts.0
            + self.qsub.0
            + self.watch.0
    }
}

/// The result of one instance run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Engine statistics.
    pub stats: SimStats,
    /// Deterministic outcome.
    pub sim: SimOutcome,
    /// Job-stream generation (s).
    pub gen_s: f64,
    /// Cluster build plus submission of the job stream (s).
    pub build_s: f64,
    /// Wall time of the simulation run (s).
    pub run_s: f64,
    /// Layer timings of a traced run.
    pub layers: Option<LayerTimes>,
}

impl Outcome {
    /// Set-up time: generation, build and submission (s).
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s
    }
}

/// The cluster configuration of an instance.
fn cluster_config(shape: &Shape, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(seed).with_split(shape.compute(), shape.pool());
    cfg.cores_per_node = CORES_PER_NODE;
    // As in the datacenter scenario: one poll chain and node deltas,
    // without which a 10k-host scheduler pass is O(hosts).
    cfg.sched.poll_coalesce = true;
    cfg.sched.incremental_snapshots = true;
    cfg.sim.horizon = SimTime::ZERO + SimDuration::from_secs(shape.horizon_s);
    cfg
}

/// Run one instance of `shape` from `seed`. Any broken invariant is an
/// error naming every violation.
pub fn run(shape: Shape, seed: u64, traced: bool) -> Result<Outcome, String> {
    let t = Instant::now();
    let plan = Plan::generate(shape, seed);
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cfg = cluster_config(&shape, seed);
    let horizon = cfg.sim.horizon;
    let mut a = Assembly::build(cfg, traced);
    let n = plan.jobs.len();
    let log = Arc::new(Mutex::new(Log::new(n)));
    let (scripts, qsub, watcher) = match a.layers() {
        Some(l) => (Some(l.scripts.clone()), Some(l.qsub.clone()), Some(l.watch.clone())),
        None => (None, None, None),
    };
    for (i, job) in plan.jobs.iter().enumerate() {
        let spec = job_spec(i, job, &log, a.dac(), scripts.clone());
        let (log, qsub) = (log.clone(), qsub.clone());
        a.client_after(format!("qsub:{i}"), job.arrival, move |c| {
            timed(submit(c, i, spec, log), qsub)
        });
    }
    let cut = horizon - LAST_QSTAT_BEFORE_HORIZON;
    let wlog = log.clone();
    a.client_after("watch".into(), SimDuration::ZERO, move |c| {
        timed(watch(c, n, cut, wlog), watcher)
    });
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let stats = a.run();
    let run_s = t.elapsed().as_secs_f64();

    let log = std::mem::take(&mut *log.lock());
    let sim = judge(&plan, &a, &stats, log, horizon)?;
    let layers = a.layers().map(|l| {
        let pair = |b: &Busy| (b.ms(), b.calls());
        LayerTimes {
            server: l.server.iter().map(pair).collect(),
            sched: pair(&l.sched[0]),
            moms: pair(&l.moms[0]),
            scripts: pair(&l.scripts),
            qsub: pair(&l.qsub),
            watch: pair(&l.watch),
        }
    });
    Ok(Outcome { stats, sim, gen_s, build_s, run_s, layers })
}

/// Check the run and derive its deterministic outcome.
fn judge(
    plan: &Plan,
    a: &Assembly,
    stats: &SimStats,
    log: Log,
    horizon: SimTime,
) -> Result<SimOutcome, String> {
    let mut v = check_engine(stats);
    v.extend(check_pool(&a.node_db().lock(), "final"));
    let n = plan.jobs.len();
    let statuses = log.final_status.unwrap_or_default();
    if statuses.len() != n {
        v.push(format!("final qstat lists {} jobs, {n} were submitted", statuses.len()));
    }
    let by_id: std::collections::BTreeMap<_, _> = statuses.iter().map(|s| (s.id, s)).collect();
    let (mut complete, mut timed_out, mut unfinished, mut started) = (0, 0, 0, 0);
    let mut qsub_to_run_s = Vec::with_capacity(n);
    let mut last_done = SimTime::ZERO;
    let end = stats.end_time;
    let mut held_acc_s = 0.0;
    let mut job_end = Vec::with_capacity(n);
    for (i, job) in plan.jobs.iter().enumerate() {
        let Some(s) = log.ids[i].and_then(|id| by_id.get(&id)) else {
            v.push(format!("job {i} was never acknowledged or is missing from qstat"));
            job_end.push(end);
            continue;
        };
        match s.state {
            JobState::Complete => complete += 1,
            JobState::TimedOut => timed_out += 1,
            JobState::Cancelled => v.push(format!("{} was cancelled; nothing cancels jobs", s.id)),
            _ => unfinished += 1,
        }
        // A terminal job holds nothing after its completion, whatever its
        // script still does; a job that is not terminal holds until the end.
        let until = if s.state.is_terminal() { s.completed.unwrap_or(end) } else { end };
        if s.state.is_terminal() {
            last_done = last_done.max(until);
        }
        let arrival = SimTime::ZERO + job.arrival;
        started += u64::from(s.started.is_some());
        qsub_to_run_s.push((s.started.unwrap_or(horizon) - arrival).as_secs_f64());
        if let Some(t0) = log.ms_start[i] {
            let t1 = log.ms_end[i].unwrap_or(end).min(until);
            held_acc_s += (job.nodes as u64 * u64::from(job.acpn)) as f64 * span_s(t0, t1);
        }
        job_end.push(until);
    }
    if unfinished == 0 && v.is_empty() {
        v.extend(check_no_leaks(&a.node_db().lock()));
    }
    if !v.is_empty() {
        return Err(v.join("; "));
    }
    for &(job, t0, t1, count) in &log.held {
        held_acc_s += f64::from(count) * span_s(t0, t1.unwrap_or(end).min(job_end[job]));
    }
    let m = a.metrics();
    Ok(SimOutcome {
        submitted: n as u64,
        complete,
        timed_out,
        unfinished,
        started,
        qsub_to_run_s,
        acget_s: log.acget_s,
        acfree_s: log.acfree_s,
        init_s: log.init_s,
        acget_issued: log.acget_issued,
        acget_refused: log.acget_refused,
        makespan_s: span_s(SimTime::ZERO, last_done),
        held_acc_s,
        pool: plan.shape.pool() as u64,
        net_messages: m.counter("net.messages"),
        net_bytes: m.counter("net.bytes"),
        sched_iterations: m.counter("sched.iterations"),
        backfill_hits: m.counter("sched.backfill_hits"),
        dynjoin: m.counter("rms.dynjoin"),
        disjoin: m.counter("rms.disjoin"),
        dyn_rejected: m.counter("rms.dyn_rejected"),
        dyn_wait_s: m.histogram_samples("rms.dyn_wait"),
        queue_depth: m.histogram_samples("sched.queue_depth"),
        qstat_calls: log.qstat_calls,
    })
}

/// Seconds from `t0` to `t1`, or 0 if `t1` is not later.
fn span_s(t0: SimTime, t1: SimTime) -> f64 {
    if t1 > t0 {
        (t1 - t0).as_secs_f64()
    } else {
        0.0
    }
}
