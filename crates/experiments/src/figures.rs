//! Scenario functions regenerating Figures 7(a), 7(b), 8 and 9 of the
//! paper's evaluation (§IV).
//!
//! Setup mirrors the paper: 8-host testbed shape (1 head + 7 hosts used
//! as compute nodes or accelerators, never both at once), paper-calibrated
//! cost models, results averaged over seeded trials.

use darms::prelude::*;

use crate::invariants::Audit;
use crate::runner;

/// Trials averaged per data point (the paper uses 10).
pub const TRIALS: usize = 10;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// One data point of Fig. 7(a) or 7(b): a stacked pair of components.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Row {
    /// Number of accelerators (x axis).
    pub count: usize,
    /// Fig 7(a): waiting time; Fig 7(b): batch-system time. Seconds.
    pub dominant: f64,
    /// Fig 7(a): connect time; Fig 7(b): MPI (RM library) time. Seconds.
    pub secondary: f64,
    /// Standard deviation of the total across trials (seeded jitter).
    pub stddev: f64,
}

impl Fig7Row {
    /// Total stacked height.
    pub fn total(&self) -> f64 {
        self.dominant + self.secondary
    }
}

/// Fig. 7(a): time for completion of `AC_Init()` for 1..=6 statically
/// allocated accelerators, split into waiting (until the daemons were
/// ready) and connect (MPI communicator construction).
pub fn fig7a(trials: usize) -> Vec<Fig7Row> {
    let grid = runner::run_grid(6, trials, |p, t| fig7a_trial(p + 1, 1000 + t as u64));
    grid.iter().enumerate().map(|(p, cells)| fold_fig7(p + 1, cells)).collect()
}

/// Fold one point's trial cells (in trial order, matching the serial
/// accumulation order exactly) into a [`Fig7Row`].
fn fold_fig7(count: usize, cells: &[(f64, f64)]) -> Fig7Row {
    let trials = cells.len();
    let mut dominant_sum = 0.0;
    let mut secondary_sum = 0.0;
    let mut totals = Vec::with_capacity(trials);
    for &(d, s) in cells {
        dominant_sum += d;
        secondary_sum += s;
        totals.push(d + s);
    }
    Fig7Row {
        count,
        dominant: dominant_sum / trials as f64,
        secondary: secondary_sum / trials as f64,
        stddev: stddev(&totals),
    }
}

/// Population standard deviation of the trial totals.
fn stddev(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// One Fig. 7(a) trial: returns (waiting, connect) seconds.
pub fn fig7a_trial(x: usize, seed: u64) -> (f64, f64) {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(seed).with_split(1, 6));
    let dac = cluster.dac.clone();
    let rec = cluster.recorder.clone();
    let spec = JobSpec::synthetic("acinit", secs(1)).acpn(x as u32).script(script(move |jc| {
        let dac = dac.clone();
        let rec = rec.clone();
        async move {
            let (ses, _) = AcSession::init(&jc, &dac, Some(rec)).await;
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    Audit::end_of_run().run(&mut cluster).1.assert_clean("fig7a trial");
    let wait = cluster.recorder.summary("acinit.wait").expect("recorded").mean;
    let connect = cluster.recorder.summary("acinit.connect").expect("recorded").mean;
    (wait, connect)
}

/// Fig. 7(b): time for completion of a dynamic request for 1..=6
/// accelerators, split into the batch-system portion (`pbs_dynget`
/// through the grant) and the resource-management-library portion
/// (`MPI_Comm_spawn` + communicator construction).
pub fn fig7b(trials: usize) -> Vec<Fig7Row> {
    let grid = runner::run_grid(6, trials, |p, t| fig7b_trial(p + 1, 2000 + t as u64));
    grid.iter().enumerate().map(|(p, cells)| fold_fig7(p + 1, cells)).collect()
}

/// One Fig. 7(b) trial: returns (batch, mpi) seconds. As in the paper,
/// the system is otherwise idle and the requesting compute node holds one
/// statically allocated accelerator.
pub fn fig7b_trial(y: usize, seed: u64) -> (f64, f64) {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(seed).with_split(1, 7));
    let dac = cluster.dac.clone();
    let rec = cluster.recorder.clone();
    let spec = JobSpec::synthetic("acget", secs(5)).acpn(1).script(script(move |jc| {
        let dac = dac.clone();
        let rec = rec.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, Some(rec)).await;
            let set = ses.ac_get(y as u32).await.expect("idle pool satisfies the request");
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(spec);
    Audit::end_of_run().run(&mut cluster).1.assert_clean("fig7b trial");
    let batch = cluster.recorder.summary("acget.batch").expect("recorded").mean;
    let mpi = cluster.recorder.summary("acget.mpi").expect("recorded").mean;
    (batch, mpi)
}

/// One bar of Fig. 8: servicing a dynamic request for one accelerator
/// while the scheduler is busy with `load` other qsub requests.
#[derive(Clone, Copy, Debug)]
pub struct Fig8Row {
    /// Number of concurrent qsub requests on load (x axis).
    pub load: usize,
    /// Time the scheduler spent on the other requests before reaching the
    /// dynamic one (light region). Seconds.
    pub sched_others: f64,
    /// Time spent servicing the dynamic request itself (dark region).
    /// Seconds.
    pub service: f64,
}

impl Fig8Row {
    /// Total bar height.
    pub fn total(&self) -> f64 {
        self.sched_others + self.service
    }
}

/// The paper's Fig. 8 x-axis: scheduler load of 0, 16 and 20 other
/// qsub requests.
pub const FIG8_LOADS: [usize; 3] = [0, 16, 20];

/// Fig. 8: dynamic allocation of one accelerator under scheduler load of
/// 0, 16 and 20 other qsub requests (the paper's grid).
pub fn fig8(trials: usize) -> Vec<Fig8Row> {
    let grid = runner::run_grid(FIG8_LOADS.len(), trials, |p, t| {
        fig8_trial(FIG8_LOADS[p], 3000 + t as u64)
    });
    grid.iter()
        .zip(FIG8_LOADS)
        .map(|(cells, load)| {
            let mut others = 0.0;
            let mut service = 0.0;
            for &(o, s) in cells {
                others += o;
                service += s;
            }
            Fig8Row { load, sched_others: others / trials as f64, service: service / trials as f64 }
        })
        .collect()
}

/// One Fig. 8 trial: returns (scheduler-on-others, service) seconds.
///
/// Setup: two compute nodes — one runs the DAC job, the other a filler —
/// so the `load` background jobs stay queued and do not interfere with
/// the DAC job's hosts (as the paper took care to arrange). The burst of
/// background submissions lands just before the `AC_Get`, so the dynamic
/// request finds the scheduler mid-iteration.
pub fn fig8_trial(load: usize, seed: u64) -> (f64, f64) {
    let (others, service, _) = fig8_trial_full(load, seed);
    (others, service)
}

/// [`fig8_trial`] variant that also returns the run's [`SimStats`].
///
/// The determinism tests and the perf-regression harness use this to
/// check that a parallel sweep reproduces not just the derived figures
/// but the exact engine behaviour (event count, end time, context
/// switches, …) of the serial run.
pub fn fig8_trial_full(load: usize, seed: u64) -> (f64, f64, SimStats) {
    let (others, service, stats, _) = fig8_trial_run(load, seed, false);
    (others, service, stats)
}

/// [`fig8_trial_full`] with structured tracing enabled; returns the
/// drained event stream alongside the stats. The golden-trace
/// determinism test serializes this to prove the async runtime
/// reproduces the pre-refactor threaded runtime byte-for-byte.
pub fn fig8_trial_traced(load: usize, seed: u64) -> (Vec<TraceEvent>, SimStats) {
    let (_, _, stats, events) = fig8_trial_run(load, seed, true);
    (events, stats)
}

fn fig8_trial_run(load: usize, seed: u64, trace: bool) -> (f64, f64, SimStats, Vec<TraceEvent>) {
    let mut cfg = ClusterConfig::paper_testbed(seed).with_split(2, 1);
    if trace {
        cfg = cfg.with_trace();
    }
    let mut cluster = Cluster::build(cfg);
    let dac = cluster.dac.clone();
    let rec = cluster.recorder.clone();

    // Filler job pins the second compute node for the whole run.
    let filler = JobSpec::synthetic("filler", secs(120)).ppn(8).walltime(secs(150));
    cluster.qsub(filler);

    // Background burst: jobs that cannot start (all cores busy), arriving
    // at t = 10 s.
    for i in 0..load {
        let spec = JobSpec::synthetic(format!("bg{i}"), secs(30)).ppn(8).walltime(secs(60));
        cluster.qsub_after(secs(10), spec);
    }

    // The DAC job issues AC_Get(1) right after the burst.
    let spec = JobSpec::synthetic("dac", secs(60)).ppn(8).script(script(move |jc| {
        let dac = dac.clone();
        let rec = rec.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, Some(rec)).await;
            let now = jc.proc.now();
            let target = SimTime::ZERO + secs(10) + SimDuration::from_millis(5);
            if target > now {
                jc.proc.sleep(target - now).await;
            }
            let set = ses.ac_get(1).await.expect("one accelerator free");
            ses.ac_free(&set).await.unwrap();
            ses.finalize();
        }
    }));
    cluster.qsub(spec);

    let (stats, report) = Audit::end_of_run().run(&mut cluster);
    report.assert_clean("fig8 trial");
    let events = cluster.sim.take_events();
    let batch = cluster.recorder.summary("acget.batch").expect("recorded").mean;
    let mpi = cluster.recorder.summary("acget.mpi").expect("recorded").mean;
    // The Fig. 8 waiting quantity comes straight from the scheduler's
    // registry instrumentation (`sched.dyn_wait` histogram).
    let others = cluster.metrics.histogram("sched.dyn_wait").expect("instrumented").mean;
    (others, (batch + mpi - others).max(0.0), stats, events)
}

/// One bar of Fig. 9: a compute node's dynamic-request completion time
/// when three distinct jobs request simultaneously.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Row {
    /// Compute node label (A, B, C) in completion order.
    pub node: char,
    /// Batch-system time of the request (MPI excluded, as in the paper).
    /// Seconds.
    pub batch: f64,
}

/// Fig. 9: three compute nodes from three distinct jobs issue
/// `AC_Get(1)` at the same instant; the server's serial processing makes
/// the completion times a staircase.
pub fn fig9(trials: usize) -> Vec<Fig9Row> {
    let per_trial = runner::run_indexed(trials, |t| fig9_trial(4000 + t as u64));
    let mut sums = [0.0f64; 3];
    for lat in &per_trial {
        for (i, v) in lat.iter().enumerate() {
            sums[i] += v;
        }
    }
    ['A', 'B', 'C']
        .iter()
        .zip(sums.iter())
        .map(|(&node, &s)| Fig9Row { node, batch: s / trials as f64 })
        .collect()
}

/// One Fig. 9 trial: returns the three batch-system latencies sorted
/// ascending (completion order A, B, C).
pub fn fig9_trial(seed: u64) -> [f64; 3] {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(seed).with_split(3, 4));
    let dac = cluster.dac.clone();
    let rec = cluster.recorder.clone();
    for i in 0..3 {
        let d = dac.clone();
        let r = rec.clone();
        let spec = JobSpec::synthetic(format!("job{i}"), secs(30)).script(script(move |jc| {
            let d = d.clone();
            let r = r.clone();
            async move {
                let (mut ses, _) = AcSession::init(&jc, &d, Some(r)).await;
                let now = jc.proc.now();
                let target = SimTime::ZERO + secs(5);
                if target > now {
                    jc.proc.sleep(target - now).await;
                }
                let set = ses.ac_get(1).await.expect("pool of 4 covers 3 requests");
                ses.ac_free(&set).await.unwrap();
                ses.finalize();
            }
        }));
        cluster.qsub(spec);
    }
    Audit::end_of_run().run(&mut cluster).1.assert_clean("fig9 trial");
    let mut lat = cluster.recorder.values("acget.batch");
    assert_eq!(lat.len(), 3);
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    [lat[0], lat[1], lat[2]]
}

/// Shared shape assertions used by the integration tests and binaries.
pub mod shape {
    use super::*;

    /// Fig. 7(a): waiting dominates, grows with x; totals sub-second.
    pub fn check_fig7a(rows: &[Fig7Row]) {
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.dominant > r.secondary, "waiting dominates at x={}", r.count);
            assert!(r.total() < 1.0, "sub-second at x={}", r.count);
        }
        assert!(rows[5].dominant > rows[0].dominant, "waiting grows with accelerators: {:?}", rows);
    }

    /// Fig. 7(b): batch dominates and grows; MPI roughly flat; totals
    /// sub-second.
    pub fn check_fig7b(rows: &[Fig7Row]) {
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.dominant > r.secondary, "batch dominates at y={}", r.count);
            assert!(r.total() < 1.2, "≈sub-second at y={}", r.count);
        }
        assert!(rows[5].dominant > 1.5 * rows[0].dominant, "batch grows: {rows:?}");
        let mpi_min = rows.iter().map(|r| r.secondary).fold(f64::MAX, f64::min);
        let mpi_max = rows.iter().map(|r| r.secondary).fold(0.0, f64::max);
        assert!(mpi_max < 1.8 * mpi_min, "MPI roughly constant: {rows:?}");
    }

    /// Fig. 8: service similar across loads; waiting grows with load.
    pub fn check_fig8(rows: &[Fig8Row]) {
        assert_eq!(rows.len(), 3);
        assert!(rows[0].sched_others < 0.1, "idle scheduler adds no wait: {rows:?}");
        assert!(rows[1].sched_others > 0.15, "16 jobs delay the request: {rows:?}");
        assert!(rows[2].sched_others > rows[1].sched_others, "20 > 16: {rows:?}");
        for r in rows {
            assert!(r.total() < 1.5, "bounded total at load {}", r.load);
        }
    }

    /// Fig. 9: strictly increasing staircase.
    pub fn check_fig9(rows: &[Fig9Row]) {
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].batch < rows[1].batch && rows[1].batch < rows[2].batch,
            "staircase: {rows:?}"
        );
        assert!(rows[2].batch < 1.5, "bounded: {rows:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-trial smoke of every figure scenario (the binaries run 10
    /// trials; one suffices to validate the harness in `cargo test`).
    #[test]
    fn single_trial_figures_have_paper_shapes() {
        let (wait, connect) = fig7a_trial(3, 1);
        assert!(wait > connect && wait + connect < 1.0, "fig7a: {wait} {connect}");
        let (batch, mpi) = fig7b_trial(2, 2);
        assert!(batch > 0.1 && mpi > 0.05 && batch + mpi < 1.2, "fig7b: {batch} {mpi}");
        let (others, service) = fig8_trial(0, 3);
        assert!(others < 0.1 && service > 0.1, "fig8 idle: {others} {service}");
        let lat = fig9_trial(4);
        assert!(lat[0] < lat[1] && lat[1] < lat[2], "fig9 staircase: {lat:?}");
    }

    #[test]
    fn stddev_matches_hand_computation() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[2.0, 2.0]), 0.0);
        let s = stddev(&[1.0, 3.0]);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
