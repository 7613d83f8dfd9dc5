//! `darms-soak`: continuously-runnable chaos + scale soak over the
//! `(seed × fault-plan × workload)` cell matrix.
//!
//! Every cell is run **twice** on the parallel trial runner and audited
//! against the shared invariants (`darms_experiments::invariants`):
//! pool conservation, no wedged jobs, a monotone event clock, and
//! byte-identity of the second run. Latency SLO samples (qsub→run and
//! dynget→grant) are pooled into exact p50/p99/p999 quantiles, split by
//! faulty vs fault-free cells. Any violating cell is packaged into a
//! self-contained triage bundle under `soak_triage/`.
//!
//! Usage:
//!   darms_soak                         # smoke matrix: seeds 0..4 (36 cells)
//!   darms_soak --smoke                 # same, explicitly
//!   darms_soak --seeds 0..50           # a bigger matrix (450 cells)
//!   darms_soak --budget-secs 300       # keep sweeping batches for ~5 min
//!   darms_soak --triage-dir DIR        # where bundles go (default soak_triage/)
//!   darms_soak --force-failure         # mark the first cell violating (triage demo)
//!   darms_soak --replay BUNDLE_DIR     # re-run a bundle, compare byte-for-byte
//!
//! Exits non-zero if any cell violates an invariant (or a replayed
//! bundle fails to reproduce).

use std::path::Path;

use darms_experiments::{runner, soak};
use darms_sim::SloSummary;

fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once("..")?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

fn usage() -> ! {
    eprintln!(
        "usage: darms_soak [--smoke | --seeds A..B] [--budget-secs S] \
         [--triage-dir DIR] [--force-failure] [--replay BUNDLE_DIR]"
    );
    std::process::exit(2);
}

fn quantile_line(label: &str, samples: &[f64]) -> String {
    match SloSummary::of(samples) {
        Some(s) => format!(
            "{label}: n={} p50={:.6}s p99={:.6}s p999={:.6}s",
            s.count, s.p50, s.p99, s.p999
        ),
        None => format!("{label}: no samples"),
    }
}

fn replay(bundle: &str) -> ! {
    match soak::replay_bundle(Path::new(bundle)) {
        Ok(r) => {
            println!(
                "replayed {} from {bundle}: byte_identical={} fresh_violations={}",
                r.cell.id(),
                r.byte_identical,
                r.violations.len()
            );
            for v in &r.violations {
                println!("  - {v}");
            }
            std::process::exit(if r.byte_identical { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("darms_soak: replay failed: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut range = (0u64, 4u64);
    let mut budget_secs: Option<u64> = None;
    let mut triage_dir = String::from("soak_triage");
    let mut force_failure = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => range = (0, 4),
            "--seeds" => {
                let spec = args.next().unwrap_or_default();
                range = parse_range(&spec).unwrap_or_else(|| {
                    eprintln!("darms_soak: bad --seeds '{spec}' (expected A..B)");
                    std::process::exit(2);
                });
            }
            "--budget-secs" => {
                let spec = args.next().unwrap_or_default();
                budget_secs = Some(spec.parse().unwrap_or_else(|_| {
                    eprintln!("darms_soak: bad --budget-secs '{spec}'");
                    std::process::exit(2);
                }));
            }
            "--triage-dir" => triage_dir = args.next().unwrap_or_else(|| usage()),
            "--force-failure" => force_failure = true,
            "--replay" => {
                let bundle = args.next().unwrap_or_else(|| usage());
                replay(&bundle);
            }
            _ => usage(),
        }
    }
    let (from, to) = range;
    if from >= to {
        eprintln!("darms_soak: empty seed range {from}..{to}");
        std::process::exit(2);
    }

    // The wall-clock budget makes the soak *continuously runnable*: it
    // keeps sweeping fresh seed batches until the budget is spent. The
    // budget only decides how MANY cells run — each cell itself stays a
    // pure function of its seed, so reading real time here cannot leak
    // into any trace.
    // darms-lint: allow(nondet, reason = "soak wall-clock budget: decides how many cells run, never what a cell does")
    let started = std::time::Instant::now();
    let batch = to - from;

    let mut dirty = 0usize;
    let mut cells_run = 0usize;
    let mut total_events = 0u64;
    let (mut jobs, mut completed, mut cancelled) = (0usize, 0usize, 0usize);
    let (mut q_faultfree, mut q_faulty, mut g_faultfree, mut g_faulty) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bundles: Vec<String> = Vec::new();

    let mut batch_from = from;
    loop {
        let mut cells = soak::matrix(batch_from..batch_from + batch);
        if force_failure && batch_from == from {
            cells[0].force_failure = true;
        }
        let outcomes = runner::run_indexed(cells.len(), |i| soak::run_cell_checked(&cells[i]));
        for o in &outcomes {
            cells_run += 1;
            // Both runs of the cell dispatched this many events.
            total_events += o.events * 2;
            jobs += o.jobs;
            completed += o.completed;
            cancelled += o.cancelled;
            let (q, g) = if o.cell.faults.faulty() {
                (&mut q_faulty, &mut g_faulty)
            } else {
                (&mut q_faultfree, &mut g_faultfree)
            };
            q.extend_from_slice(&o.qsub_to_run);
            g.extend_from_slice(&o.dynget_to_grant);
            if !o.clean() {
                dirty += 1;
                println!("cell {}: VIOLATIONS", o.cell.id());
                for v in &o.violations {
                    println!("  - {v}");
                }
                match soak::write_triage_bundle(Path::new(&triage_dir), o) {
                    Ok(dir) => {
                        println!("  triage bundle: {}", dir.display());
                        bundles.push(dir.display().to_string());
                    }
                    Err(e) => eprintln!("  failed to write triage bundle: {e}"),
                }
            }
        }
        batch_from += batch;
        match budget_secs {
            // darms-lint: allow(nondet, reason = "soak wall-clock budget: decides how many cells run, never what a cell does")
            Some(budget) if started.elapsed().as_secs() < budget => continue,
            _ => break,
        }
    }

    // darms-lint: allow(nondet, reason = "events/sec is a wall-clock throughput report, not simulation state")
    let wall = started.elapsed().as_secs_f64();
    let eps = total_events as f64 / wall.max(1e-9);
    println!(
        "darms_soak: {cells_run} cells ({} workloads x {} fault classes, seeds from {from}), \
         each run twice for byte-identity: {jobs} jobs ({completed} completed, \
         {cancelled} cancelled), {dirty} cell(s) with violations, \
         {total_events} events in {wall:.2}s ({eps:.0} events/sec)",
        soak::WorkloadClass::ALL.len(),
        soak::FaultClass::ALL.len(),
    );
    println!("  {}", quantile_line("qsub->run     fault-free", &q_faultfree));
    println!("  {}", quantile_line("qsub->run     faulty    ", &q_faulty));
    println!("  {}", quantile_line("dynget->grant fault-free", &g_faultfree));
    println!("  {}", quantile_line("dynget->grant faulty    ", &g_faulty));
    for b in &bundles {
        println!("  bundle: {b}");
    }
    if dirty > 0 {
        std::process::exit(1);
    }
}
