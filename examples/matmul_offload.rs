//! Blocked matrix multiplication across several network-attached
//! accelerators: C = A×B with row-blocks of A distributed over the
//! accelerator set, kernels running concurrently, results gathered and
//! verified against a host-side reference — the "offload multiple kernels
//! in parallel to a set of network-attached accelerators" scenario from
//! the paper's introduction.
//!
//! Run with: `cargo run --release --example matmul_offload`

use std::sync::Arc;

use darms::prelude::*;
use parking_lot::Mutex;

const M: usize = 96; // rows of A / C
const K: usize = 64; // cols of A, rows of B
const N: usize = 80; // cols of B / C

fn main() {
    let mut cluster = Cluster::build(ClusterConfig::paper_testbed(5).with_split(1, 4));
    let dac = cluster.dac.clone();
    let result = Arc::new(Mutex::new(None));
    let timing = Arc::new(Mutex::new(Vec::new()));

    let out = result.clone();
    let tm = timing.clone();
    let spec = JobSpec::synthetic("matmul", SimDuration::from_secs(30)).acpn(4).script(script(
        move |jc| {
            let dac = dac.clone();
            let out = out.clone();
            let tm = tm.clone();
            async move {
                let (mut ses, handles) = AcSession::init(&jc, &dac, None).await;
                let acc_count = handles.len();

                // Host-side input matrices (deterministic pattern).
                let a: Vec<f64> = (0..M * K).map(|i| ((i % 7) as f64) - 3.0).collect();
                let b: Vec<f64> = (0..K * N).map(|i| ((i % 5) as f64) * 0.5).collect();

                // Partition A's rows over the accelerators.
                let rows_per = M.div_ceil(acc_count);
                let t0 = jc.proc.now();
                let mut parts = Vec::new();
                for (ix, &h) in handles.iter().enumerate() {
                    let lo = ix * rows_per;
                    let hi = ((ix + 1) * rows_per).min(M);
                    if lo >= hi {
                        break;
                    }
                    let m_part = hi - lo;
                    let a_part = &a[lo * K..hi * K];
                    let pa = ses.mem_alloc(h, (m_part * K * 8) as u64).await.unwrap();
                    let pb = ses.mem_alloc(h, (K * N * 8) as u64).await.unwrap();
                    let pc = ses.mem_alloc(h, (m_part * N * 8) as u64).await.unwrap();
                    ses.mem_write(h, pa, f64s_to_bytes(a_part)).await.unwrap();
                    ses.mem_write(h, pb, f64s_to_bytes(&b)).await.unwrap();
                    parts.push((h, pa, pb, pc, lo, m_part));
                }
                let t_upload = jc.proc.now();
                // Launch all block-GEMMs, then drain (kernels overlap).
                let mut pending = Vec::new();
                for &(h, pa, pb, pc, _, m_part) in &parts {
                    let l = ses
                        .kernel_launch(
                            h,
                            "matmul",
                            KernelArgs::new(
                                64,
                                256,
                                vec![
                                    Param::Ptr(pa),
                                    Param::Ptr(pb),
                                    Param::Ptr(pc),
                                    Param::U64(m_part as u64),
                                    Param::U64(K as u64),
                                    Param::U64(N as u64),
                                ],
                            ),
                        )
                        .await
                        .unwrap();
                    pending.push(l);
                }
                for l in pending {
                    ses.op_wait(l).await.unwrap();
                }
                let t_compute = jc.proc.now();
                // Gather C.
                let mut c = vec![0.0f64; M * N];
                for &(h, _, _, pc, lo, m_part) in &parts {
                    let block =
                        as_f64s(&ses.mem_read(h, pc, (m_part * N * 8) as u64).await.unwrap());
                    c[lo * N..(lo + m_part) * N].copy_from_slice(&block);
                }
                let t_download = jc.proc.now();
                tm.lock().extend_from_slice(&[
                    ("upload", (t_upload - t0).as_secs_f64()),
                    ("compute", (t_compute - t_upload).as_secs_f64()),
                    ("download", (t_download - t_compute).as_secs_f64()),
                ]);
                *out.lock() = Some((a, b, c, acc_count));
                ses.finalize();
            }
        },
    ));
    cluster.qsub(spec);
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);

    let (a, b, c, acc_count) = result.lock().take().expect("job produced a result");
    // Host reference.
    let mut expect = vec![0.0f64; M * N];
    for i in 0..M {
        for p in 0..K {
            let aip = a[i * K + p];
            for j in 0..N {
                expect[i * N + j] += aip * b[p * N + j];
            }
        }
    }
    let max_err = c.iter().zip(&expect).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max);
    println!(
        "== matmul_offload: {M}x{K} × {K}x{N} over {acc_count} network-attached accelerators =="
    );
    for (what, secs) in timing.lock().iter() {
        println!("  {what:>9}: {secs:.4} s (virtual)");
    }
    println!("  max |C - C_ref| = {max_err:e}");
    assert_eq!(max_err, 0.0, "offloaded result must match the host reference exactly");
    println!("  PASS: distributed result matches the host reference");
}
