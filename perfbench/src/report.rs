//! Metrics of a benchmark run, pooled over its instances, and the JSON
//! line the benchmark ends with.
//!
//! A run measures a fixed set of instances (sub-seeds of the run's
//! seed), each one or more times. Simulated-time metrics pool the
//! instances' samples; they are identical on every repetition. Host
//! times take each instance's median over its repetitions and then sum
//! or pool over instances.

use std::fmt::Write as _;

use darms_sim::exact_quantile;

use crate::assemble::SERVER_CLASSES;
use crate::instance::{LayerTimes, Outcome, SimOutcome};

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Median of the values: the middle one, or the mean of the middle two
/// (0 when there are none).
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values (0 when there are none).
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// Mean of the values without the lowest and the highest, once there
/// are at least four (0 when there are none).
fn trimmed_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let keep = if v.len() >= 4 { &v[1..v.len() - 1] } else { &v[..] };
    mean(keep.iter().copied())
}

/// Exact nearest-rank quantile of the values (0 when there are none).
fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    exact_quantile(&v, q).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Repetitions of each instance; the first repetition stands for the
/// instance's deterministic outcome.
pub type Reps = [Vec<Outcome>];

fn sims(runs: &Reps) -> impl Iterator<Item = &SimOutcome> + '_ {
    runs.iter().map(|reps| &reps[0].sim)
}

/// Sum over instances of the instance's median of `f` over repetitions.
fn sum_median(runs: &Reps, f: impl Fn(&Outcome) -> f64) -> f64 {
    runs.iter().map(|reps| median(reps.iter().map(&f))).sum()
}

fn total(runs: &Reps, f: impl Fn(&SimOutcome) -> u64) -> u64 {
    sims(runs).map(f).sum()
}

/// Jobs submitted and jobs that did not complete, over all instances.
pub fn attempted_failed(runs: &Reps) -> (u64, u64) {
    (total(runs, |s| s.submitted), total(runs, |s| s.timed_out + s.unfinished))
}

/// The end-to-end metrics of an untraced run. Quantiles are taken over
/// the samples of all instances together and ratios over their sums.
/// Means and the makespan are trimmed means over instances, so one
/// instance with an unusual tail does not swing the run.
pub fn end_to_end(runs: &Reps, peak_rss_mib: f64) -> Vec<Metric> {
    let run_s = sum_median(runs, |o| o.run_s);
    let sim_h: f64 = runs.iter().map(|r| (r[0].stats.end_time.as_nanos() as f64) / 3.6e12).sum();
    let setup_s = median(runs.iter().flatten().map(Outcome::setup_s));
    let sum = |f: fn(&SimOutcome) -> f64| sims(runs).map(f).sum::<f64>();
    let per = |f: fn(&SimOutcome) -> f64| trimmed_mean(sims(runs).map(f));
    let q2r = || sims(runs).flat_map(|s| s.qsub_to_run_s.iter().copied());
    let acget = || sims(runs).flat_map(|s| s.acget_s.iter().copied());
    vec![
        metric("setup_s", setup_s, "s"),
        metric("jobs_per_s", ratio(sum(|s| s.terminal() as f64), run_s), "jobs/s"),
        metric("wall_s_per_sim_h", ratio(run_s, sim_h), "s/h"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
        metric(
            "jobs_done_ratio",
            ratio(sum(|s| s.complete as f64), sum(|s| s.submitted as f64)),
            "ratio",
        ),
        metric("qsub_to_run_mean_s", per(|s| mean(s.qsub_to_run_s.iter().copied())), "s"),
        metric("qsub_to_run_p99_s", quantile(q2r(), 0.99), "s"),
        metric("acget_mean_s", per(|s| mean(s.acget_s.iter().copied())), "s"),
        metric("acget_p99_s", quantile(acget(), 0.99), "s"),
        metric(
            "acget_granted_ratio",
            ratio(sum(|s| s.acget_granted() as f64), sum(|s| s.acget_issued as f64)),
            "ratio",
        ),
        metric("makespan_s", per(|s| s.makespan_s), "s"),
        metric(
            "acc_util",
            ratio(sum(|s| s.held_acc_s), sum(|s| s.pool as f64 * s.makespan_s)),
            "ratio",
        ),
    ]
}

/// The per-layer metrics of a traced run. `untraced` holds the same
/// instances run without tracing, for the per-event cost and the
/// tracing overhead.
pub fn per_layer(untraced: &Reps, traced: &Reps) -> Vec<Metric> {
    let jobs = total(traced, |s| s.submitted) as f64;
    let events = traced.iter().map(|r| r[0].stats.events).sum::<u64>() as f64;
    let depth_sum = traced.iter().map(|r| r[0].stats.queue_depth_sum).sum::<u64>() as f64;
    let peak_depth = traced.iter().map(|r| r[0].stats.peak_queue_depth).max().unwrap_or(0);
    let switches = traced.iter().map(|r| r[0].stats.context_switches).sum::<u64>();
    let loop_ms = sum_median(traced, |o| o.stats.wall_nanos as f64 / 1e6);
    let plain_loop_ms = sum_median(untraced, |o| o.stats.wall_nanos as f64 / 1e6);
    let layer = |f: &dyn Fn(&LayerTimes) -> (f64, u64)| -> (f64, u64) {
        let ms = sum_median(traced, |o| f(o.layers.as_ref().expect("traced")).0);
        let calls = traced.iter().map(|r| f(r[0].layers.as_ref().expect("traced")).1).sum();
        (ms, calls)
    };
    let timed_ms = sum_median(traced, |o| o.layers.as_ref().expect("traced").total_ms());
    let mut m = vec![
        metric("sim.events", events, "count"),
        metric("sim.events_per_job", ratio(events, jobs), "count"),
        metric("sim.context_switches", switches as f64, "count"),
        metric("sim.peak_queue_depth", peak_depth as f64, "count"),
        metric("sim.mean_queue_depth", ratio(depth_sum, events), "count"),
        metric("sim.loop_ms", loop_ms, "ms"),
        metric("sim.ns_per_event", ratio(plain_loop_ms * 1e6, events), "ns"),
        metric("sim.self_ms", loop_ms - timed_ms, "ms"),
    ];
    let messages = total(traced, |s| s.net_messages) as f64;
    m.push(metric("net.messages", messages, "count"));
    m.push(metric("net.messages_per_job", ratio(messages, jobs), "count"));
    m.push(metric("net.bytes", total(traced, |s| s.net_bytes) as f64, "bytes"));

    let classes: Vec<(f64, u64)> =
        (0..SERVER_CLASSES.len()).map(|c| layer(&|l: &LayerTimes| l.server[c])).collect();
    m.push(metric("rms.server.calls", classes.iter().map(|c| c.1).sum::<u64>() as f64, "count"));
    m.push(metric("rms.server.busy_ms", classes.iter().map(|c| c.0).sum(), "ms"));
    for (name, (ms, calls)) in SERVER_CLASSES.iter().zip(&classes) {
        m.push(metric(format!("rms.server.{name}_ms"), *ms, "ms"));
        m.push(metric(format!("rms.server.{name}_calls"), *calls as f64, "count"));
    }
    m.push(metric("rms.dynjoin", total(traced, |s| s.dynjoin) as f64, "count"));
    m.push(metric("rms.disjoin", total(traced, |s| s.disjoin) as f64, "count"));
    m.push(metric("rms.dyn_rejected", total(traced, |s| s.dyn_rejected) as f64, "count"));
    let dyn_wait = || sims(traced).flat_map(|s| s.dyn_wait_s.iter().copied());
    m.push(metric("rms.dyn_wait_p50_s", quantile(dyn_wait(), 0.5), "s"));
    m.push(metric("rms.dyn_wait_p99_s", quantile(dyn_wait(), 0.99), "s"));
    let moms = layer(&|l: &LayerTimes| l.moms);
    m.push(metric("rms.mom.calls", moms.1 as f64, "count"));
    m.push(metric("rms.mom.busy_ms", moms.0, "ms"));

    let sched = layer(&|l: &LayerTimes| l.sched);
    let iterations = total(traced, |s| s.sched_iterations) as f64;
    let outcomes = total(traced, |s| s.started + s.dynjoin) as f64;
    let depth = || sims(traced).flat_map(|s| s.queue_depth.iter().copied());
    m.push(metric("sched.calls", sched.1 as f64, "count"));
    m.push(metric("sched.busy_ms", sched.0, "ms"));
    m.push(metric("sched.us_per_call", ratio(sched.0 * 1e3, sched.1 as f64), "us"));
    m.push(metric("sched.iterations", iterations, "count"));
    m.push(metric("sched.iterations_per_job", ratio(iterations, jobs), "count"));
    m.push(metric("sched.starts_per_iteration", ratio(outcomes, iterations), "ratio"));
    m.push(metric("sched.backfill_hits", total(traced, |s| s.backfill_hits) as f64, "count"));
    m.push(metric("sched.queue_depth_p50", quantile(depth(), 0.5), "count"));
    m.push(metric("sched.queue_depth_max", quantile(depth(), 1.0), "count"));

    let scripts = layer(&|l: &LayerTimes| l.scripts);
    let init = || sims(traced).flat_map(|s| s.init_s.iter().copied());
    let acfree = || sims(traced).flat_map(|s| s.acfree_s.iter().copied());
    m.push(metric("dac.job_busy_ms", scripts.0, "ms"));
    m.push(metric("dac.job_polls", scripts.1 as f64, "count"));
    m.push(metric("dac.init_p50_s", quantile(init(), 0.5), "s"));
    m.push(metric("dac.acfree_p50_s", quantile(acfree(), 0.5), "s"));
    m.push(metric("dac.acget_issued", total(traced, |s| s.acget_issued) as f64, "count"));
    m.push(metric("dac.acget_granted", total(traced, SimOutcome::acget_granted) as f64, "count"));
    m.push(metric("dac.acget_refused", total(traced, |s| s.acget_refused) as f64, "count"));

    m.push(metric("ifl.qsub_busy_ms", layer(&|l: &LayerTimes| l.qsub).0, "ms"));
    m.push(metric("ifl.watch_busy_ms", layer(&|l: &LayerTimes| l.watch).0, "ms"));
    m.push(metric("ifl.qstat_calls", total(traced, |s| s.qstat_calls) as f64, "count"));

    m.push(metric("core.build_ms", sum_median(untraced, |o| o.build_s * 1e3), "ms"));
    m.push(metric("workload.gen_ms", sum_median(untraced, |o| o.gen_s * 1e3), "ms"));
    let plain_run = sum_median(untraced, |o| o.run_s);
    m.push(metric("trace.overhead", ratio(sum_median(traced, |o| o.run_s), plain_run), "ratio"));
    m
}

/// A human-readable table of the metrics.
pub fn table(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(s, "  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    s
}

/// The final result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
