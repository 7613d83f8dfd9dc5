//! Perf-regression harness: runs a fixed macro suite and writes
//! `BENCH_sim.json` so engine-throughput regressions show up as a diff.
//!
//! ```text
//! cargo run --release -p darms-experiments --bin perf_report -- \
//!     [--smoke] [--out PATH] [--check BASELINE] [--swf-jobs N] [--fig8-load N]
//! ```
//!
//! The suite:
//! 1. **datacenter** — the diurnal front-door scenario at 1k and 10k
//!    hosts: events, messages and context switches, events/sec, peak
//!    RSS (`VmHWM`) and the median `Cluster::build` time per scale, plus
//!    (full mode) the 10k-vs-1k per-event wall ratio that proves no
//!    O(hosts) work is left on a per-event path, as the median and range
//!    of alternating 1k/10k run pairs. It runs first, so the peak RSS it
//!    samples is its own and not another row's.
//! 2. **ping-pong** — two processes bouncing a message 200k times: the
//!    pure kernel hot path (send, deliver, future-poll hand-off). The
//!    pre-PR baseline measured with the same probe on the same class of
//!    machine is embedded for comparison.
//! 3. **spawn-churn** — 10k short-lived processes spawned, slept and
//!    retired: process-lifecycle throughput. Impossible at this scale
//!    with an OS thread per process; trivial for stackless futures.
//! 4. **fig8** — the paper's scheduler-under-load scenario (the most
//!    actor-heavy figure), serially, events/sec and wall per simulated
//!    second.
//! 5. **swf_replay** — a scaled SWF replay (process heavy).
//! 6. **sweep** — the same swf_replay cells serial vs parallel on the
//!    trial runner with `available_parallelism()` workers: records both
//!    rows (serial and parallel) and that the results are identical.
//! 7. **soak** — a small `(seed × fault-plan × workload)` soak matrix
//!    (every cell run twice for byte-identity, invariants audited):
//!    cells run, violations, events/sec, and the exact p50/p99/p999
//!    latency SLOs (qsub→run and dynget→grant, split faulty vs
//!    fault-free) — "production readiness" as a number.
//! 8. **fabric** — dispatch latency of one kernel probe on every device
//!    class, in virtual seconds.
//! 9. **volume** — the same scenario at 1k hosts, seed 42, with 500,
//!    1000, 2000 and 3000 jobs: event, network message and
//!    process-resume (context switch) counts and ns/event per volume, so
//!    per-event cost that grows with job volume shows up.
//!
//! `--swf-jobs` / `--fig8-load` override the historical 120-job and
//! load-16 defaults — they are defaults, not ceilings. `--smoke`
//! shrinks every dimension (one trial, tiny workload) so the harness
//! can run in CI alongside `make verify` (ping-pong and both datacenter
//! cells run at full scale in both modes; only the alternating wall
//! pairs behind the 10k/1k ratio are full-only).
//! `--check BASELINE` compares against a committed `BENCH_sim.json`
//! and exits non-zero on **any** soak invariant violation, on fabric
//! dispatch p99 drift of more than 20%, or when an exact count differs
//! at all from the baseline: ping-pong events and context switches,
//! and the event, message and context-switch counts of both datacenter
//! cells and of every job-volume cell. The counts are deterministic,
//! so any difference is a behaviour change; events/sec, ns/event,
//! build times and the 10k/1k ratio are wall time and are reported, not
//! gated —
//! this is what `make bench-check` (part of `make verify`) runs.

use std::fmt::Write as _;
use std::time::Instant;

use darms::Cluster;
use darms_experiments::{
    datacenter, figures, hostmem, replay, runner, soak, DatacenterConfig, ReplayConfig,
};
use darms_sim::{percentile, Engine, SimConfig, SimDuration, SloSummary};

/// Job volumes of the `volume` row (1k hosts, seed 42). 4000 jobs does
/// not quiesce yet (the overload wedge pinned by
/// `overloaded_datacenter_wedge_fails_at_the_horizon`).
const VOLUMES: [usize; 4] = [500, 1_000, 2_000, 3_000];

/// Ping-pong events/sec measured immediately before this PR's kernel
/// optimizations (best of 4 runs of the identical probe on the same
/// machine). Kept fixed so the JSON shows the cumulative effect.
const PRE_PR_PINGPONG_EPS: f64 = 108_013.0;

fn pingpong_once(round_trips: u32) -> (u64, u64, f64) {
    let n = round_trips;
    let mut sim = Engine::new(SimConfig { seed: 1, ..Default::default() });
    let pong = sim.spawn_process("pong", move |p| async move {
        for _ in 0..n {
            let (v, src) = p.recv_as::<u32>().await;
            p.send(src.unwrap(), v + 1, SimDuration::from_micros(1));
        }
    });
    sim.spawn_process("ping", move |p| async move {
        for i in 0..n {
            p.send(pong.into(), i, SimDuration::from_micros(1));
            let _ = p.recv_as::<u32>().await;
        }
    });
    let stats = sim.run();
    (stats.events, stats.context_switches, stats.wall_secs())
}

/// Spawn-churn probe: `procs` short-lived processes, each sleeping a few
/// microseconds and exiting, plus a final full-population wave that is
/// alive at once. Exercises spawn, first-poll, park and retirement — the
/// paths that used to cost an OS thread each.
fn spawn_churn_once(procs: u32) -> (u64, f64, u32) {
    let mut sim = Engine::with_seed(1);
    for i in 0..procs {
        sim.spawn_process_after(
            format!("churn{i}"),
            SimDuration::from_micros((i % 97) as u64),
            move |p| async move {
                p.sleep(SimDuration::from_micros(5)).await;
            },
        );
    }
    let stats = sim.run();
    (stats.events, stats.wall_secs(), procs)
}

/// One `volume` cell: the datacenter scenario at one job count.
struct VolumeCell {
    jobs: usize,
    counts: [(&'static str, u64); 3],
    ns_per_event: f64,
}

/// The exact, gated counts of one datacenter run, by their
/// `BENCH_sim.json` key prefix.
fn datacenter_counts(o: &datacenter::DatacenterOutcome) -> [(&'static str, u64); 3] {
    [
        ("events", o.stats.events),
        ("messages", o.messages),
        ("context_switches", o.stats.context_switches),
    ]
}

/// Exit with a bench-check failure unless every count equals the
/// baseline's `<key>{suffix}` in `row`.
fn check_counts(baseline: &str, row: &str, suffix: &str, counts: &[(&str, u64)]) {
    for &(what, n) in counts {
        let key = format!("{what}{suffix}");
        let base = baseline_field(baseline, row, &key);
        if n as f64 != base {
            eprintln!(
                "bench-check FAILED: {row} {key} is {n}, the committed baseline {base} \
                 ({baseline})"
            );
            std::process::exit(1);
        }
    }
}

/// Alternating 1k/10k datacenter run pairs behind the wall-time
/// medians and the per-event ratio (full mode).
const DC_PAIRS: usize = 5;

/// `Cluster::build` samples per datacenter scale.
const DC_BUILDS: usize = 9;

/// Median and range of a few wall samples.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Spread { median: percentile(&sorted, 0.5), min: sorted[0], max: sorted[sorted.len() - 1] }
    }
}

/// One datacenter cell's row: its counts come from `outcome`, its wall
/// time and `Cluster::build` time are medians.
struct DcCell<'a> {
    key: &'static str,
    hosts: usize,
    outcome: &'a datacenter::DatacenterOutcome,
    wall: f64,
    walls: usize,
    rss: Option<f64>,
    build_ms: f64,
}

impl<'a> DcCell<'a> {
    fn new(
        key: &'static str,
        hosts: usize,
        outcome: &'a datacenter::DatacenterOutcome,
        walls: &[f64],
        rss: Option<f64>,
        builds: &[f64],
    ) -> Self {
        let wall = Spread::of(walls).median;
        let build_ms = Spread::of(builds).median;
        DcCell { key, hosts, outcome, wall, walls: walls.len(), rss, build_ms }
    }

    fn eps(&self) -> f64 {
        self.outcome.stats.events as f64 / self.wall
    }
}

struct Macro {
    events: u64,
    virtual_secs: f64,
    wall_secs: f64,
}

impl Macro {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }
    fn wall_per_sim_second(&self) -> f64 {
        self.wall_secs / self.virtual_secs
    }
    fn push_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"events\":{},\"virtual_secs\":{:.1},\"wall_secs\":{:.3},\
             \"events_per_sec\":{:.0},\"wall_per_sim_second\":{:.6}",
            self.events,
            self.virtual_secs,
            self.wall_secs,
            self.events_per_sec(),
            self.wall_per_sim_second()
        );
    }
}

/// Pull one numeric field out of a committed `BENCH_sim.json`.
fn baseline_field(path: &str, row: &str, key: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("--check: cannot read baseline {path}: {e}"));
    json_field(&text, row, key).unwrap_or_else(|e| panic!("--check: {e} in {path}"))
}

/// The number at `key` directly inside the object at `row` of the
/// top-level JSON object in `text`. A scanner that tracks strings and
/// nesting instead of a JSON dependency, so any whitespace and line
/// layout reads the same, and a key of a nested object or a string
/// value that looks like a key never matches.
fn json_field(text: &str, row: &str, key: &str) -> Result<f64, String> {
    let b = text.as_bytes();
    let skip_ws = |mut j: usize| {
        while b.get(j).is_some_and(u8::is_ascii_whitespace) {
            j += 1;
        }
        j
    };
    let (mut depth, mut in_row, mut saw_row) = (0usize, false, false);
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let mut end = i + 1;
                while end < b.len() && b[end] != b'"' {
                    end += if b[end] == b'\\' { 2 } else { 1 };
                }
                let name = text.get(i + 1..end).ok_or("unterminated string")?;
                let colon = skip_ws(end + 1);
                i = end + 1;
                if b.get(colon) != Some(&b':') {
                    continue; // a string value, not a key
                }
                let value = skip_ws(colon + 1);
                if depth == 1 && name == row && b.get(value) == Some(&b'{') {
                    (in_row, saw_row) = (true, true);
                } else if in_row && depth == 2 && name == key {
                    let len = b[value..]
                        .iter()
                        .position(|c| matches!(c, b',' | b'}' | b']') || c.is_ascii_whitespace())
                        .unwrap_or(b.len() - value);
                    let num = &text[value..value + len];
                    return num.parse().map_err(|e| format!("bad {row}.{key} {num:?}: {e}"));
                }
                i = value;
            }
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                in_row &= depth >= 2;
                i += 1;
            }
            _ => i += 1,
        }
    }
    Err(if saw_row { format!("no {key} in the {row:?} row") } else { format!("no {row:?} row") })
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_sim.json");
    let mut check_path: Option<String> = None;
    // The historical constants (120 SWF jobs, fig8 load 16) are
    // defaults, not ceilings: both macros take their scale from the
    // command line.
    let mut swf_jobs_arg: Option<usize> = None;
    let mut fig8_load_arg: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let usage = "usage: perf_report [--smoke] [--out PATH] [--check BASELINE] \
                     [--swf-jobs N] [--fig8-load N]";
        let num = |v: Option<String>, flag: &str| -> usize {
            v.unwrap_or_else(|| panic!("{flag} needs a number; {usage}"))
                .parse()
                .unwrap_or_else(|e| panic!("{flag} needs a number: {e}"))
        };
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a baseline path")),
            "--swf-jobs" => swf_jobs_arg = Some(num(args.next(), "--swf-jobs")),
            "--fig8-load" => fig8_load_arg = Some(num(args.next(), "--fig8-load")),
            other => {
                eprintln!("unknown argument {other}; {usage}");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The sweep's parallel row always uses the machine's full
    // parallelism so the recorded speedup is comparable across runs
    // (DARMS_SWEEP_THREADS and set_threads() still govern other sweeps).
    let threads = cores;
    let mode = if smoke { "smoke" } else { "full" };
    println!("perf_report: mode={mode} cores={cores} sweep_threads={threads}");

    // 1. Datacenter scale: the whole stack — kernel hot path, server
    // indexes, scheduler free-pools, incremental snapshots — under a
    // diurnal front door at 1k and 10k hosts. The two cells run first,
    // 1k then 10k, because `VmHWM` is a process-lifetime high-water mark:
    // sampled after any other row it would report that row's peak, and
    // ascending order keeps the 10k run out of the 1k sample. `--check`
    // gates both cells' counts. Wall time is sampled only after both RSS
    // samples: full mode runs `DC_PAIRS` alternating 1k/10k pairs and
    // takes medians, so one slow run cannot swing the 10k/1k ratio.
    let dc_cfg = |hosts: usize| DatacenterConfig::at_scale(hosts, 42);
    let timed_run = |hosts: usize| {
        let t0 = Instant::now();
        let o = datacenter::run_datacenter(&dc_cfg(hosts));
        (o, t0.elapsed().as_secs_f64())
    };
    let (dc1, first1) = timed_run(1_000);
    let dc1_rss = hostmem::peak_rss_mib();
    let (dc10, first10) = timed_run(10_000);
    let dc10_rss = hostmem::peak_rss_mib();
    let pairs = if smoke { 0 } else { DC_PAIRS };
    let (mut walls1, mut walls10, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let (o1, w1) = timed_run(1_000);
        let (o10, w10) = timed_run(10_000);
        walls1.push(w1);
        walls10.push(w10);
        ratios.push((w10 / o10.stats.events as f64) / (w1 / o1.stats.events as f64));
    }
    if pairs == 0 {
        (walls1, walls10) = (vec![first1], vec![first10]);
    }
    // `Cluster::build` alone, alternating scales; the drop is not timed.
    let build_ms = |hosts: usize| {
        let cfg = datacenter::cluster_config(&dc_cfg(hosts));
        let t0 = Instant::now();
        let cluster = Cluster::build(cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(cluster);
        ms
    };
    let (mut builds1, mut builds10) = (Vec::new(), Vec::new());
    for _ in 0..DC_BUILDS {
        builds1.push(build_ms(1_000));
        builds10.push(build_ms(10_000));
    }
    let rss = |r: Option<f64>| r.map_or_else(|| "null".into(), |m| format!("{m:.1}"));
    let dc_cells = [
        DcCell::new("1k", 1_000, &dc1, &walls1, dc1_rss, &builds1),
        DcCell::new("10k", 10_000, &dc10, &walls10, dc10_rss, &builds10),
    ];
    for c in &dc_cells {
        println!(
            "  datacenter ({} hosts, {} jobs): {} events in {:.3}s (median of {}) -> {:.0} \
             events/sec, peak RSS {} MiB, Cluster::build {:.2} ms (median of {DC_BUILDS})",
            c.hosts,
            c.outcome.jobs,
            c.outcome.stats.events,
            c.wall,
            c.walls,
            c.eps(),
            rss(c.rss),
            c.build_ms
        );
    }
    let per_event_ratio = (!ratios.is_empty()).then(|| {
        let r = Spread::of(&ratios);
        println!(
            "  per-event wall 10k/1k: {:.2}x (median of {pairs} alternating pairs, {:.2}–{:.2})",
            r.median, r.min, r.max
        );
        r
    });

    // 2. Ping-pong: best of several runs (first doubles as warm-up).
    // Full size in both modes, so its exact counts are comparable.
    let round_trips: u32 = 200_000;
    let runs = if smoke { 2 } else { 4 };
    let (mut pp_events, mut pp_switches) = (0u64, 0u64);
    let mut pp_best_wall = f64::MAX;
    for _ in 0..runs {
        let (ev, switches, wall) = pingpong_once(round_trips);
        (pp_events, pp_switches) = (ev, switches);
        pp_best_wall = pp_best_wall.min(wall);
    }
    let pp_eps = pp_events as f64 / pp_best_wall;
    println!(
        "  pingpong: {pp_events} events in {pp_best_wall:.3}s -> {pp_eps:.0} events/sec \
         ({:.2}x pre-PR baseline)",
        pp_eps / PRE_PR_PINGPONG_EPS
    );

    // 3. Spawn churn: thousands of short-lived processes.
    let churn_procs: u32 = if smoke { 1_000 } else { 10_000 };
    let (churn_events, churn_wall, _) = spawn_churn_once(churn_procs);
    let churn_pps = churn_procs as f64 / churn_wall;
    let churn_eps = churn_events as f64 / churn_wall;
    println!(
        "  spawn_churn: {churn_procs} processes, {churn_events} events in {churn_wall:.3}s \
         -> {churn_pps:.0} procs/sec, {churn_eps:.0} events/sec"
    );

    // 4. fig8 scenario, serial (stable macro numbers).
    let fig8_trials = if smoke { 1 } else { 5 };
    let fig8_load = fig8_load_arg.unwrap_or(16);
    let t0 = Instant::now();
    let fig8_cells = runner::run_indexed_with(1, fig8_trials, |t| {
        figures::fig8_trial_full(fig8_load, 3000 + t as u64)
    });
    let fig8 = Macro {
        events: fig8_cells.iter().map(|(_, _, s)| s.events).sum(),
        virtual_secs: fig8_cells.iter().map(|(_, _, s)| s.end_time.as_secs_f64()).sum(),
        wall_secs: t0.elapsed().as_secs_f64(),
    };
    println!(
        "  fig8 (load {fig8_load}, {fig8_trials} trials): {:.0} events/sec, \
         {:.6} wall s per sim s",
        fig8.events_per_sec(),
        fig8.wall_per_sim_second()
    );

    // 5. Scaled SWF replay.
    let swf_jobs = swf_jobs_arg.unwrap_or(if smoke { 10 } else { 120 });
    let cfg = ReplayConfig { jobs: swf_jobs, seed: 4242, ..ReplayConfig::default() };
    let t0 = Instant::now();
    let outcome = replay(&cfg);
    let swf = Macro {
        events: outcome.stats.events,
        virtual_secs: outcome.stats.end_time.as_secs_f64(),
        wall_secs: t0.elapsed().as_secs_f64(),
    };
    println!(
        "  swf_replay ({swf_jobs} jobs): {:.0} events/sec, {:.6} wall s per sim s",
        swf.events_per_sec(),
        swf.wall_per_sim_second()
    );

    // 6. Serial vs parallel sweep of identical swf_replay cells (the
    // heaviest per-cell scenario, so the speedup is not noise-bound).
    let sweep_cells = if smoke { 2 } else { 8 };
    let cell = |i: usize| {
        replay(&ReplayConfig { jobs: swf_jobs, seed: 4242 + i as u64, ..ReplayConfig::default() })
    };
    let t0 = Instant::now();
    let serial = runner::run_indexed_with(1, sweep_cells, cell);
    let serial_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = runner::run_indexed_with(threads, sweep_cells, cell);
    let parallel_secs = t0.elapsed().as_secs_f64();
    // Reports compared byte-for-byte (f64 Debug is round-trip exact);
    // SimStats by its deterministic-field equality (wall time excluded).
    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            format!("{:?}", a.report) == format!("{:?}", b.report)
                && a.stats == b.stats
                && (a.jobs, a.acc_jobs, a.pool) == (b.jobs, b.acc_jobs, b.pool)
        });
    let speedup = serial_secs / parallel_secs;
    println!(
        "  sweep ({sweep_cells} cells, {threads} threads): serial {serial_secs:.2}s, \
         parallel {parallel_secs:.2}s -> {speedup:.2}x, identical={identical}"
    );
    assert!(identical, "parallel sweep must reproduce the serial results exactly");

    // 7. Soak matrix: chaos + scale with invariant auditing and SLO
    // quantiles (see darms_experiments::soak and the darms_soak bin).
    let soak_seeds = if smoke { 1 } else { 3 };
    let soak_cells = soak::matrix(0..soak_seeds);
    let t0 = Instant::now();
    let soak_outcomes =
        runner::run_indexed(soak_cells.len(), |i| soak::run_cell_checked(&soak_cells[i]));
    let soak_wall = t0.elapsed().as_secs_f64();
    let soak_violations: usize = soak_outcomes.iter().map(|o| o.violations.len()).sum();
    // Each cell runs twice (byte-identity), so both runs' events count.
    let soak_events: u64 = soak_outcomes.iter().map(|o| o.events * 2).sum();
    let soak_eps = soak_events as f64 / soak_wall;
    let (mut q_free, mut q_faulty, mut g_free, mut g_faulty) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for o in &soak_outcomes {
        let (q, g) = if o.cell.faults.faulty() {
            (&mut q_faulty, &mut g_faulty)
        } else {
            (&mut q_free, &mut g_free)
        };
        q.extend_from_slice(&o.qsub_to_run);
        g.extend_from_slice(&o.dynget_to_grant);
    }
    let slo_json = |samples: &[f64]| match SloSummary::of(samples) {
        Some(s) => format!(
            "{{\"count\": {}, \"p50\": {:.6}, \"p99\": {:.6}, \"p999\": {:.6}}}",
            s.count, s.p50, s.p99, s.p999
        ),
        None => "null".to_string(),
    };
    println!(
        "  soak ({} cells, {soak_violations} violations): {soak_events} events in \
         {soak_wall:.2}s -> {soak_eps:.0} events/sec",
        soak_cells.len()
    );
    for o in soak_outcomes.iter().filter(|o| !o.clean()) {
        println!("    cell {}: {:?}", o.cell.id(), o.violations);
    }

    // 8. Fabric dispatch latency: the identical kernel probe against
    // every device class of the heterogeneous fabric, folded to
    // p50/p99 round-trip latency in *virtual* seconds — deterministic
    // for the fixed seed, so the row doubles as a cost-model pin:
    // `--check` fails if either class's p99 drifts more than 20% from
    // the committed baseline (same tolerance both directions; a
    // deliberate cost-model change updates the baseline).
    let fabric_kernels = if smoke { 64 } else { 256 };
    let fabric_rows = darms_experiments::fabric_sweep(fabric_kernels, 77);
    for r in &fabric_rows {
        println!(
            "  fabric ({}, {} kernels): dispatch p50 {:.6}s, p99 {:.6}s",
            r.class, r.kernels, r.p50, r.p99
        );
    }

    // 9. Job volume at 1k hosts: identical in smoke and full mode. The
    // event, message and context-switch counts are exact; ns/event is
    // one wall sample per cell.
    let volume: Vec<VolumeCell> = VOLUMES
        .iter()
        .map(|&jobs| {
            let cfg = DatacenterConfig { jobs, ..DatacenterConfig::at_scale(1_000, 42) };
            let t0 = Instant::now();
            let o = datacenter::run_datacenter(&cfg);
            let ns_per_event = t0.elapsed().as_secs_f64() * 1e9 / o.stats.events as f64;
            println!(
                "  volume (1k hosts, {jobs} jobs): {} events, {} messages, \
                 {} context switches, {ns_per_event:.0} ns/event",
                o.stats.events, o.messages, o.stats.context_switches
            );
            VolumeCell { jobs, counts: datacenter_counts(&o), ns_per_event }
        })
        .collect();

    let mut json = String::with_capacity(1024);
    let _ = writeln!(
        json,
        "{{\n  \"schema\": 1,\n  \"mode\": \"{mode}\",\n  \"cores\": {cores},\n  \
         \"sweep_threads\": {threads},"
    );
    let _ = writeln!(
        json,
        "  \"pingpong\": {{\"round_trips\": {round_trips}, \"events\": {pp_events}, \
         \"context_switches\": {pp_switches}, \"wall_secs\": {pp_best_wall:.3}, \
         \"events_per_sec\": {pp_eps:.0}, \"pre_pr_events_per_sec\": {PRE_PR_PINGPONG_EPS:.0}, \
         \"speedup_vs_pre_pr\": {:.2}}},",
        pp_eps / PRE_PR_PINGPONG_EPS
    );
    let _ = writeln!(
        json,
        "  \"spawn_churn\": {{\"processes\": {churn_procs}, \"events\": {churn_events}, \
         \"wall_secs\": {churn_wall:.3}, \"procs_per_sec\": {churn_pps:.0}, \
         \"events_per_sec\": {churn_eps:.0}}},"
    );
    json.push_str(&format!("  \"fig8\": {{\"trials\": {fig8_trials}, \"load\": {fig8_load}, "));
    fig8.push_json(&mut json);
    json.push_str("},\n");
    json.push_str(&format!("  \"swf_replay\": {{\"jobs\": {swf_jobs}, "));
    swf.push_json(&mut json);
    json.push_str("},\n");
    let _ = writeln!(
        json,
        "  \"sweep\": {{\"scenario\": \"swf_replay(jobs={swf_jobs})\", \"cells\": {sweep_cells}, \
         \"threads\": {threads}, \"serial_secs\": {serial_secs:.3}, \
         \"parallel_secs\": {parallel_secs:.3}, \"speedup\": {speedup:.2}, \
         \"byte_identical\": {identical}}},"
    );
    let _ = writeln!(
        json,
        "  \"soak\": {{\"cells\": {}, \"violations\": {soak_violations}, \
         \"events\": {soak_events}, \"wall_secs\": {soak_wall:.3}, \
         \"events_per_sec\": {soak_eps:.0}, \
         \"qsub_to_run\": {{\"fault_free\": {}, \"faulty\": {}}}, \
         \"dynget_to_grant\": {{\"fault_free\": {}, \"faulty\": {}}}}},",
        soak_cells.len(),
        slo_json(&q_free),
        slo_json(&q_faulty),
        slo_json(&g_free),
        slo_json(&g_faulty),
    );
    let fabric_key = |r: &darms_experiments::FabricLatencyRow| match format!("{}", r.class) {
        s if s.contains("dpu") => "dpu_rank_like",
        _ => "gpu_like",
    };
    // Flat keys (`gpu_like_dispatch_p99` etc.) so `baseline_field`'s
    // single-line (row, key) scan stays unambiguous.
    let fabric_cells = fabric_rows
        .iter()
        .map(|r| {
            format!(
                "\"{k}_dispatch_p50\": {:.6}, \"{k}_dispatch_p99\": {:.6}",
                r.p50,
                r.p99,
                k = fabric_key(r)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(json, "  \"fabric\": {{\"kernels\": {fabric_kernels}, {fabric_cells}}},");
    let mut dc_row = String::from("  \"datacenter\": {");
    for c in &dc_cells {
        let k = c.key;
        let _ = write!(
            dc_row,
            "\"hosts_{k}\": {}, \"jobs_{k}\": {}, {}\"wall_secs_{k}\": {:.3}, \
             \"events_per_sec_{k}\": {:.0}, \"peak_rss_mib_{k}\": {}, \"build_ms_{k}\": {:.3}, ",
            c.hosts,
            c.outcome.jobs,
            datacenter_counts(c.outcome).map(|(what, n)| format!("\"{what}_{k}\": {n}, ")).concat(),
            c.wall,
            c.eps(),
            rss(c.rss),
            c.build_ms
        );
    }
    if let Some(r) = &per_event_ratio {
        let _ = write!(
            dc_row,
            "\"per_event_ratio_10k_vs_1k\": {:.2}, \"per_event_ratio_min\": {:.2}, \
             \"per_event_ratio_max\": {:.2}, ",
            r.median, r.min, r.max
        );
    }
    let _ = writeln!(dc_row, "\"pairs\": {pairs}}},");
    json.push_str(&dc_row);
    let volume_cells = volume
        .iter()
        .map(|c| {
            let jobs = c.jobs;
            let counts = c.counts.map(|(what, n)| format!("\"{what}_{jobs}\": {n}, "));
            format!("{}\"ns_per_event_{jobs}\": {:.0}", counts.concat(), c.ns_per_event)
        })
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(json, "  \"volume\": {{\"hosts\": 1000, \"seed\": 42, {volume_cells}}}\n}}");

    std::fs::write(&out_path, &json).expect("write bench report");
    println!("wrote {out_path}");

    if let Some(baseline) = check_path {
        if soak_violations > 0 {
            eprintln!(
                "bench-check FAILED: the soak matrix reported {soak_violations} invariant \
                 violation(s) — see the cell lines above"
            );
            std::process::exit(1);
        }
        // Exact counts: deterministic, so any difference is a behaviour
        // change, not noise. Ping-pong and the datacenter 1k cell are
        // identical in smoke and full mode.
        let pp_counts = [("events", pp_events), ("context_switches", pp_switches)];
        check_counts(&baseline, "pingpong", "", &pp_counts);
        for c in &dc_cells {
            check_counts(
                &baseline,
                "datacenter",
                &format!("_{}", c.key),
                &datacenter_counts(c.outcome),
            );
        }
        for c in &volume {
            check_counts(&baseline, "volume", &format!("_{}", c.jobs), &c.counts);
        }
        // Fabric dispatch latency is virtual time — deterministic — so
        // drift in either direction means the cost model changed.
        for r in &fabric_rows {
            let key = format!("{}_dispatch_p99", fabric_key(r));
            let base_p99 = baseline_field(&baseline, "fabric", &key);
            if r.p99 > base_p99 * 1.2 || r.p99 < base_p99 * 0.8 {
                eprintln!(
                    "bench-check FAILED: fabric {} dispatch p99 {:.6}s drifted more than 20% \
                     from the committed baseline {base_p99:.6}s ({baseline})",
                    r.class, r.p99
                );
                std::process::exit(1);
            }
        }
        println!(
            "bench-check ok: pingpong, datacenter@1k/10k and volume counts match the baseline, \
             soak matrix clean, fabric dispatch p99 within 20% of baseline for every class"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::json_field;

    /// The committed layout: one row per line, `"key": value` spacing.
    const COMMITTED: &str = r#"{
  "schema": 1,
  "pingpong": {"round_trips": 200000, "events_per_sec": 15411980},
  "fig8": {"trials": 5, "load": 16, "events":11095,"events_per_sec":2875875},
  "soak": {"cells": 27, "qsub_to_run": {"fault_free": {"count": 77}}},
  "volume": {"hosts": 1000, "events_500": 44474, "messages_500": 18348}
}"#;

    #[test]
    fn reads_the_committed_layout() {
        assert_eq!(json_field(COMMITTED, "pingpong", "events_per_sec"), Ok(15411980.0));
        assert_eq!(json_field(COMMITTED, "fig8", "events"), Ok(11095.0));
        assert_eq!(json_field(COMMITTED, "fig8", "events_per_sec"), Ok(2875875.0));
        assert_eq!(json_field(COMMITTED, "volume", "messages_500"), Ok(18348.0));
    }

    /// The same data re-serialised with `indent=2` (one key per line)
    /// and compactly (`"key":value`, no whitespace at all).
    #[test]
    fn reads_any_whitespace_and_line_layout() {
        let indented = r#"{
  "schema": 1,
  "pingpong": {
    "round_trips": 200000,
    "events_per_sec": 15411980
  },
  "fig8": {
    "trials": 5,
    "events": 11095
  },
  "volume": {
    "hosts": 1000,
    "events_500": 44474,
    "messages_500": 18348
  }
}"#;
        let compact = r#"{"schema":1,"pingpong":{"round_trips":200000,"events_per_sec":15411980},"fig8":{"trials":5,"events":11095},"volume":{"hosts":1000,"events_500":44474,"messages_500":18348}}"#;
        for text in [indented, compact] {
            assert_eq!(json_field(text, "pingpong", "events_per_sec"), Ok(15411980.0));
            assert_eq!(json_field(text, "fig8", "events"), Ok(11095.0));
            assert_eq!(json_field(text, "volume", "events_500"), Ok(44474.0));
            assert_eq!(json_field(text, "volume", "messages_500"), Ok(18348.0));
        }
    }

    /// Only a key directly inside the named top-level row matches: not
    /// a nested key, not the same key in another row, not a string
    /// value that spells the key.
    #[test]
    fn matches_only_direct_keys_of_the_row() {
        let text = r#"{"a": {"note": "count", "inner": {"count": 1}}, "b": {"count": 2}}"#;
        assert_eq!(json_field(text, "b", "count"), Ok(2.0));
        assert!(json_field(text, "a", "count").is_err());
        assert!(json_field(COMMITTED, "soak", "count").is_err());
        assert!(json_field(COMMITTED, "nope", "events").is_err());
        assert!(json_field(COMMITTED, "fig8", "nope").is_err());
        assert!(json_field(r#"{"a": {"x": "1"}}"#, "a", "x").is_err());
    }
}
