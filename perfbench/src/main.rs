//! Command line of the darms benchmark:
//!
//! ```text
//! darms-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload's instances (sub-seeds of `--seed`) once, then
//! repeats them while `--seconds` allow, checking every run. Prints a
//! table of the metrics and, as the last line, one JSON object. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` each
//! repetition is a pair of an untraced and a traced run of the same
//! instance, and the metrics are the per-layer ones. Exits with 2 when a
//! correctness check fails, and with 1 on a usage error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use darms_perfbench::instance::{self, Outcome};
use darms_perfbench::report::{self, attempted_failed, json_line};
use darms_perfbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The seed of instance `k` of a run seeded with `seed`.
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k as u64)
}

/// Host fingerprint: wall times compare only between runs on one host.
fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // darms-lint: allow(nondet, reason = "bench observability: the CPU model labels wall-time results and never feeds a simulation")
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("cores={cores} cpu=\"{cpu}\"")
}

/// Run instance `k` once (a pair of runs when tracing), checking it
/// against its earlier repetitions.
fn rep(
    args: &Args,
    k: usize,
    plain: &mut Vec<Outcome>,
    traced: &mut Vec<Outcome>,
) -> Result<(), String> {
    let shape = args.workload.shape();
    let seed = sub_seed(args.seed, k);
    let o = instance::run(shape, seed, false)?;
    if let Some(first) = plain.first() {
        if o.stats != first.stats || o.sim != first.sim {
            return Err(format!("instance {k} (seed {seed}) did not repeat its first run"));
        }
    }
    plain.push(o);
    if args.trace {
        let t = instance::run(shape, seed, true)?;
        if t.stats != plain[0].stats || t.sim != plain[0].sim {
            return Err(format!(
                "traced run of instance {k} (seed {seed}) differs from the untraced run: \
                 {:?} vs {:?}",
                t.stats, plain[0].stats
            ));
        }
        traced.push(t);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("darms-perfbench: {e}");
            eprintln!(
                "usage: darms-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(1);
        }
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let n = args.workload.shape().instances;
    let mut plain: Vec<Vec<Outcome>> = (0..n).map(|_| Vec::new()).collect();
    let mut traced: Vec<Vec<Outcome>> = (0..n).map(|_| Vec::new()).collect();
    let mut last = vec![Duration::ZERO; n];
    let mut k = 0;
    // Peak RSS right after the first instance: the footprint of one
    // instance of the workload, whatever the number of repetitions.
    let mut peak_rss_mib = 0.0;
    let result = loop {
        // Every instance runs once; further repetitions only while the
        // next one is expected to end inside the budget.
        if k >= n && start.elapsed() + last[k % n] > budget {
            break Ok(());
        }
        let t = Instant::now();
        if let Err(e) = rep(&args, k % n, &mut plain[k % n], &mut traced[k % n]) {
            break Err(e);
        }
        last[k % n] = t.elapsed();
        if k == 0 {
            peak_rss_mib = darms_experiments::hostmem::peak_rss_mib().unwrap_or(0.0);
        }
        k += 1;
    };
    println!(
        "darms-perfbench: workload={} seed={} host: {}",
        args.workload.name(),
        args.seed,
        host()
    );
    if let Err(e) = result {
        eprintln!("darms-perfbench: correctness check failed: {e}");
        println!("{}", json_line(false, 1, 1, &[]));
        return ExitCode::from(2);
    }
    let metrics = if args.trace {
        report::per_layer(&plain, &traced)
    } else {
        report::end_to_end(&plain, peak_rss_mib)
    };
    let (attempted, failed) = attempted_failed(&plain);
    println!(
        "instances={n} runs={} jobs={attempted} not_completed={failed} wall={:.1}s",
        k,
        start.elapsed().as_secs_f64()
    );
    print!("{}", report::table(&metrics));
    println!("{}", json_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
