//! The mother superior's accelerator-daemon starter: the DAC
//! implementation of the RMS hook ([`AcDaemonStarter`]). For a static
//! allocation it launches one daemon per accelerator host under a single
//! `MPI_COMM_WORLD` (§III-C), staggering the starts as TORQUE does.

use darms_mpi::{launch_world, WorldSpec};
use darms_rms::{AcDaemonStarter, StaticDaemonRequest};
use darms_sim::{Ctx, ProcessId};

use crate::runtime::{DacRuntime, DAEMON_EXE};

/// [`AcDaemonStarter`] implementation backed by the DAC runtime.
pub struct DacStarter {
    dac: DacRuntime,
}

impl DacStarter {
    /// Wrap the runtime.
    pub fn new(dac: DacRuntime) -> Self {
        DacStarter { dac }
    }
}

impl AcDaemonStarter for DacStarter {
    fn start_static(&self, ctx: &mut Ctx<'_>, req: &StaticDaemonRequest) -> Vec<ProcessId> {
        let jitter = self.dac.cost.startup_jitter;
        let specs: Vec<WorldSpec> = req
            .accs
            .iter()
            .enumerate()
            .map(|(i, &host)| {
                let nominal =
                    self.dac.cost.daemon_startup + self.dac.cost.daemon_stagger * i as u64;
                let start_delay = if jitter > 0.0 {
                    let f = ctx.with_rng(|r| rand::Rng::gen_range(r, -jitter..=jitter));
                    nominal.mul_f64(1.0 + f)
                } else {
                    nominal
                };
                WorldSpec {
                    host,
                    exe: DAEMON_EXE.to_string(),
                    args: vec![
                        req.job.0.to_string(),
                        req.cn_index.to_string(),
                        "static".to_string(),
                    ],
                    start_delay,
                }
            })
            .collect();
        ctx.trace(format_args!(
            "{}: starting {} accelerator daemon(s) for cn{}",
            req.job,
            specs.len(),
            req.cn_index
        ));
        let members =
            launch_world(ctx, self.dac.mpi(), specs).expect("daemon executable is registered");
        members.into_iter().map(|m| m.pid).collect()
    }
}
