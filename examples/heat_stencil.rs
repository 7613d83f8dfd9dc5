//! An evolving stencil application: 1-D heat diffusion, domain-decomposed
//! across network-attached accelerators with host-mediated halo exchange.
//! Mid-run the application enters a finer-resolution phase, acquires more
//! accelerators with `AC_Get`, **re-partitions the live domain** onto the
//! grown set, and finishes. The final temperature field is verified
//! against a host-side reference step for step.
//!
//! This is the paper's motivating usage scenario end-to-end: an evolving
//! job whose accelerator demand changes with its computational phase (§I).
//!
//! Run with: `cargo run --release --example heat_stencil`

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

const N: usize = 4096; // grid points
const ALPHA: f64 = 0.25;
const PHASE1_STEPS: usize = 40;
const PHASE2_STEPS: usize = 40;

/// Host-side reference Jacobi step (same arithmetic as the device kernel).
fn reference_step(u: &[f64]) -> Vec<f64> {
    let mut v = u.to_vec();
    for i in 1..u.len() - 1 {
        v[i] = u[i] + ALPHA * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
    }
    v
}

/// Partition `N` points into contiguous slices (one per accelerator).
fn partition(n_parts: usize) -> Vec<(usize, usize)> {
    let base = N / n_parts;
    (0..n_parts)
        .map(|i| {
            let lo = i * base;
            let hi = if i + 1 == n_parts { N } else { (i + 1) * base };
            (lo, hi)
        })
        .collect()
}

/// One distributed Jacobi step over the current accelerator set.
/// Each device holds its slice plus one halo cell on each side.
async fn distributed_step(
    ses: &mut AcSession,
    parts: &[(AcHandle, DevPtr, DevPtr, usize, usize)],
    field: &mut [f64],
) {
    // Upload slices with halos (async across the set).
    let mut pending = Vec::new();
    for &(h, src, _dst, lo, hi) in parts {
        let halo_lo = lo.saturating_sub(1);
        let halo_hi = (hi + 1).min(N);
        let slice = f64s_to_bytes(&field[halo_lo..halo_hi]);
        pending.push(ses.mem_write_async(h, src, slice).await.unwrap());
    }
    for l in pending {
        ses.op_wait(l).await.unwrap();
    }
    // Launch the stencil everywhere, then drain (kernels overlap).
    let mut launches = Vec::new();
    for &(h, src, dst, lo, hi) in parts {
        let halo_lo = lo.saturating_sub(1);
        let halo_hi = (hi + 1).min(N);
        let m = (halo_hi - halo_lo) as u64;
        let l = ses
            .kernel_launch(
                h,
                "stencil3",
                KernelArgs::new(
                    64,
                    256,
                    vec![Param::Ptr(src), Param::Ptr(dst), Param::U64(m), Param::F64(ALPHA)],
                ),
            )
            .await
            .unwrap();
        launches.push(l);
    }
    for l in launches {
        ses.op_wait(l).await.unwrap();
    }
    // Gather interiors back (the halo cells come from the neighbours'
    // interiors on the next upload — host-mediated halo exchange).
    for &(h, _src, dst, lo, hi) in parts {
        let halo_lo = lo.saturating_sub(1);
        let off = (lo - halo_lo) as u64 * 8;
        let bytes = ses.mem_read_at(h, dst, off, ((hi - lo) * 8) as u64).await.unwrap();
        field[lo..hi].copy_from_slice(&as_f64s(&bytes));
    }
}

async fn setup_parts(
    ses: &mut AcSession,
    handles: &[AcHandle],
) -> Vec<(AcHandle, DevPtr, DevPtr, usize, usize)> {
    let ranges = partition(handles.len());
    let mut parts = Vec::new();
    for (&h, (lo, hi)) in handles.iter().zip(ranges) {
        let m = (hi - lo + 2) * 8; // slice + halos
        let src = ses.mem_alloc(h, m as u64).await.unwrap();
        let dst = ses.mem_alloc(h, m as u64).await.unwrap();
        parts.push((h, src, dst, lo, hi));
    }
    parts
}

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(17).with_split(1, 6));
    let dac = cluster.dac.clone();
    let log = Arc::new(Mutex::new(Vec::<String>::new()));
    let result = Arc::new(Mutex::new(None));

    let out = log.clone();
    let res = result.clone();
    let spec =
        JobSpec::synthetic("heat", SimDuration::from_secs(120)).acpn(2).script(script(move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            let res = res.clone();
            async move {
                let say = |jc: &JobCtx, s: String| {
                    out.lock().push(format!("[t={:>7.3}s] {s}", jc.proc.now().as_secs_f64()));
                };
                // Initial condition: a heat spike in the middle.
                let mut field = vec![0.0f64; N];
                field[N / 2] = 1000.0;
                let mut reference = field.clone();

                let (mut ses, statics) = AcSession::init(&jc, &dac, None).await;
                say(
                    &jc,
                    format!(
                        "phase 1: {} accelerators, {} points, {} steps",
                        statics.len(),
                        N,
                        PHASE1_STEPS
                    ),
                );
                let parts = setup_parts(&mut ses, &statics).await;
                for _ in 0..PHASE1_STEPS {
                    distributed_step(&mut ses, &parts, &mut field).await;
                    reference = reference_step(&reference);
                }
                for &(h, src, dst, ..) in &parts {
                    ses.mem_free(h, src).await.unwrap();
                    ses.mem_free(h, dst).await.unwrap();
                }

                // Phase 2: the interesting region has grown — double the
                // parallelism by acquiring two more accelerators.
                let set = ses.ac_get(2).await.expect("pool of 6 has 4 free");
                let all: Vec<AcHandle> =
                    statics.iter().chain(set.handles.iter()).copied().collect();
                say(&jc, format!("phase 2: grown to {} accelerators, re-partitioned", all.len()));
                let parts = setup_parts(&mut ses, &all).await;
                for _ in 0..PHASE2_STEPS {
                    distributed_step(&mut ses, &parts, &mut field).await;
                    reference = reference_step(&reference);
                }
                ses.ac_free(&set).await.unwrap();
                say(&jc, "released the dynamic set".into());
                ses.finalize();
                *res.lock() = Some((field, reference));
            }
        }));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);

    println!("== heat_stencil: evolving 1-D diffusion across a growing accelerator set ==\n");
    for line in log.lock().iter() {
        println!("{line}");
    }
    let (field, reference) = result.lock().take().expect("job produced a field");
    let max_err = field.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    let total: f64 = field.iter().sum();
    println!(
        "\nafter {} steps: max |device - reference| = {max_err:e}",
        PHASE1_STEPS + PHASE2_STEPS
    );
    println!("heat conservation: Σu = {total:.6} (expected 1000)");
    assert_eq!(max_err, 0.0, "distributed stencil must match the reference exactly");
    assert!((total - 1000.0).abs() < 1e-6, "diffusion conserves heat");
    println!("PASS — re-partitioned mid-run without losing a single bit of state");
    println!(
        "\nsimulation: {} events, virtual time {:.3} s",
        stats.events,
        stats.end_time.as_secs_f64()
    );
}
