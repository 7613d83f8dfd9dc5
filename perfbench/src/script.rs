//! The benchmark's own code inside the simulation: job scripts, the
//! front-door clients that submit them, and the completion watcher. All
//! of it records into one [`Log`] that the benchmark reads after the run.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use darms::ClientCtx;
use darms_dac::{AcSession, DacError, DacRuntime};
use darms_rms::proto::DynReject;
use darms_rms::{JobCtx, JobId, JobScript, JobSpec, JobStatus};
use darms_sim::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::workload::JobPlan;

/// What the benchmark's code observed during one run.
#[derive(Debug, Default)]
pub struct Log {
    /// Job id per plan index, set when `qsub` returns.
    pub ids: Vec<Option<JobId>>,
    /// Mother-superior script start per plan index.
    pub ms_start: Vec<Option<SimTime>>,
    /// Mother-superior script end per plan index.
    pub ms_end: Vec<Option<SimTime>>,
    /// Mother-superior scripts that have ended.
    pub ms_ended: usize,
    /// `AC_Init` durations, one per compute node task (s).
    pub init_s: Vec<f64>,
    /// `AC_Get` issue-to-grant latencies of granted requests (s).
    pub acget_s: Vec<f64>,
    /// `AC_Free` durations (s).
    pub acfree_s: Vec<f64>,
    /// `AC_Get` requests issued.
    pub acget_issued: u64,
    /// `AC_Get` requests refused because the pool was busy (§III-E).
    pub acget_refused: u64,
    /// Dynamic holdings: plan index, grant time, release time (if
    /// released), count.
    pub held: Vec<(usize, SimTime, Option<SimTime>, u32)>,
    /// `qstat` calls made by the watcher.
    pub qstat_calls: u64,
    /// The watcher's last `qstat`: every job's final status.
    pub final_status: Option<Vec<JobStatus>>,
}

impl Log {
    /// An empty log for `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        Log {
            ids: vec![None; jobs],
            ms_start: vec![None; jobs],
            ms_end: vec![None; jobs],
            ..Default::default()
        }
    }
}

/// Shared handle to the run's log.
pub type SharedLog = Arc<Mutex<Log>>;

/// Wall time spent polling one class of futures, and the poll count.
#[derive(Debug, Default)]
pub struct Busy {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Busy {
    /// Add one timed call.
    pub fn add(&self, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: plain statistics, read after the single-threaded run.
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulated busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A future whose every poll is timed into a [`Busy`].
struct Timed<F> {
    inner: Pin<Box<F>>,
    busy: Arc<Busy>,
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t = Instant::now();
        let out = self.inner.as_mut().poll(cx);
        self.busy.add(t);
        out
    }
}

/// Wrap `fut` in a poll timer when `busy` is given.
pub fn timed<F: Future<Output = ()> + 'static>(
    fut: F,
    busy: Option<Arc<Busy>>,
) -> Pin<Box<dyn Future<Output = ()>>> {
    match busy {
        Some(busy) => Box::pin(Timed { inner: Box::pin(fut), busy }),
        None => Box::pin(fut),
    }
}

/// The job's spec with the benchmark's script: every compute node task
/// runs `AC_Init`; a dynamic job's mother superior then loops
/// `AC_Get`/`AC_Free` `gets` times, holding each grant for one slot of
/// its runtime; everything else sleeps out the runtime. All sleeps end
/// early when the batch system kills the job.
pub fn job_spec(
    i: usize,
    job: &JobPlan,
    log: &SharedLog,
    dac: &DacRuntime,
    busy: Option<Arc<Busy>>,
) -> JobSpec {
    let (log, dac) = (log.clone(), dac.clone());
    let (runtime, gets, count) = (job.runtime, job.gets, job.get_count);
    let script: JobScript = Arc::new(move |jc: JobCtx| {
        timed(task(i, jc, runtime, gets, count, log.clone(), dac.clone()), busy.clone())
    });
    JobSpec::synthetic(format!("b{i:05}"), job.runtime)
        .owner(job.owner)
        .nodes(job.nodes)
        .ppn(job.ppn)
        .acpn(job.acpn)
        .walltime(job.walltime)
        .script(script)
}

async fn task(
    i: usize,
    mut jc: JobCtx,
    runtime: SimDuration,
    gets: u32,
    count: u32,
    log: SharedLog,
    dac: DacRuntime,
) {
    let ms = jc.node_index == 0;
    let t0 = jc.proc.now();
    if ms {
        log.lock().ms_start[i] = Some(t0);
    }
    let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
    assert_eq!(handles.len(), jc.acc_hosts.len(), "AC_Init connects every static accelerator");
    log.lock().init_s.push((jc.proc.now() - t0).as_secs_f64());
    if ms && gets > 0 {
        let slot = runtime / u64::from(2 * gets + 1);
        let mut killed = false;
        for _ in 0..gets {
            if jc.sleep_interruptible(slot).await {
                killed = true;
                break;
            }
            let t = jc.proc.now();
            log.lock().acget_issued += 1;
            match ses.ac_get(count).await {
                Ok(set) => {
                    let granted = jc.proc.now();
                    let at = {
                        let mut l = log.lock();
                        l.acget_s.push((granted - t).as_secs_f64());
                        l.held.push((i, granted, None, count));
                        l.held.len() - 1
                    };
                    killed = jc.sleep_interruptible(slot).await;
                    let f = jc.proc.now();
                    let freed = ses.ac_free(&set).await.is_ok();
                    let done = jc.proc.now();
                    let mut l = log.lock();
                    l.held[at].2 = Some(done);
                    if freed {
                        l.acfree_s.push((done - f).as_secs_f64());
                    }
                }
                Err(e) => {
                    if matches!(e, DacError::Rejected(DynReject::Unavailable)) {
                        log.lock().acget_refused += 1;
                    }
                    killed = jc.sleep_interruptible(slot).await;
                }
            }
            if killed {
                break;
            }
        }
        if !killed {
            jc.sleep_interruptible(slot).await;
        }
    } else {
        jc.sleep_interruptible(runtime).await;
    }
    ses.finalize();
    if ms {
        let mut l = log.lock();
        l.ms_end[i] = Some(jc.proc.now());
        l.ms_ended += 1;
    }
}

/// The front-door client that submits job `i` and records its id.
pub async fn submit(c: ClientCtx, i: usize, spec: JobSpec, log: SharedLog) {
    let id = c.qsub(spec).await;
    log.lock().ids[i] = Some(id);
}

/// How often the watcher looks at the log; it costs one timer event and
/// no messages.
const WATCH_STEP: SimDuration = SimDuration::from_secs(60);
/// First re-check interval once every script has ended but some job is
/// still in its exit protocol; it doubles on every further check, so a
/// job that never becomes terminal costs a few `qstat`s, not one per
/// step.
const EXIT_STEP: SimDuration = SimDuration::from_secs(5);

/// The completion watcher. It reads the log, which costs the cluster
/// nothing, and calls `qstat` only once every mother-superior script has
/// ended, or for a last time just before `cut`. Its final `qstat` is the
/// status the benchmark judges the run by.
pub async fn watch(c: ClientCtx, jobs: usize, cut: SimTime, log: SharedLog) {
    let mut step = WATCH_STEP;
    loop {
        c.proc.sleep(step).await;
        let last = c.proc.now() + step >= cut;
        if !last && log.lock().ms_ended < jobs {
            continue;
        }
        let st = c.qstat().await;
        let mut l = log.lock();
        l.qstat_calls += 1;
        let done = st.len() == jobs && st.iter().all(|s| s.state.is_terminal());
        if done || last {
            l.final_status = Some(st);
            return;
        }
        step = if step == WATCH_STEP { EXIT_STEP } else { step * 2 };
    }
}
