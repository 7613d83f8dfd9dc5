//! A tiny job-scoped pseudo-filesystem.
//!
//! The paper's implementation passes two pieces of information through
//! files: the `PBS_NODEFILE` written by the mom for the application, and
//! the MPI port name written by the accelerator daemons' root for
//! `AC_Init()` (§III-C). This store models that shared medium. A reader
//! waiting for a file polls it like the real library polls the file
//! system, but through [`Proc::poll_until`]: the reader parks beside the
//! file and the writer wakes it at the poll tick that would have seen
//! the write, so an idle wait costs no events.

use std::collections::BTreeMap;
use std::sync::Arc;

use darms_sim::{PollWaiter, Proc, SimDuration};
use parking_lot::Mutex;

use crate::job::JobId;

/// Well-known file names.
pub mod files {
    /// The list of compute hosts allocated to a job.
    pub const NODEFILE: &str = "PBS_NODEFILE";
    /// The MPI port name of a compute node's static accelerator daemons;
    /// suffixed with the compute-node host index.
    pub const AC_PORT_PREFIX: &str = "ac_port_cn";
}

/// One job's files, plus the readers parked until a name is written.
#[derive(Default)]
struct JobFiles {
    files: BTreeMap<String, String>,
    waiters: Vec<(String, PollWaiter)>,
}

/// Cloneable handle to the shared pseudo-filesystem. Files are keyed by
/// job, then by name: a read looks the name up as a `&str`, and
/// end-of-job cleanup drops one job's entry, parked readers included.
#[derive(Clone, Default)]
pub struct PseudoFs {
    inner: Arc<Mutex<BTreeMap<JobId, JobFiles>>>,
}

impl PseudoFs {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a job-scoped file. Returns the readers
    /// parked on it; the writer passes them to
    /// [`Proc::wake_pollers`] or `Ctx::wake_pollers`.
    #[must_use = "readers parked on the file must be woken"]
    pub fn write(
        &self,
        job: JobId,
        name: impl Into<String>,
        content: impl Into<String>,
    ) -> Vec<PollWaiter> {
        let name = name.into();
        let mut inner = self.inner.lock();
        let entry = inner.entry(job).or_default();
        let mut woken = Vec::new();
        entry.waiters.retain(|(file, w)| {
            let hit = *file == name;
            if hit {
                woken.push(*w);
            }
            !hit
        });
        entry.files.insert(name, content.into());
        woken
    }

    /// Read a job-scoped file.
    pub fn read(&self, job: JobId, name: &str) -> Option<String> {
        self.inner.lock().get(&job)?.files.get(name).cloned()
    }

    /// Read a file, or leave `waiter` parked on it until it is written.
    fn read_or_park(&self, job: JobId, name: &str, waiter: PollWaiter) -> Option<String> {
        let mut inner = self.inner.lock();
        let entry = inner.entry(job).or_default();
        match entry.files.get(name) {
            Some(content) => Some(content.clone()),
            None => {
                entry.waiters.push((name.to_owned(), waiter));
                None
            }
        }
    }

    /// Wait from within `proc` until a job-scoped file exists and return
    /// its content: a poll of period `period` whose first read is now,
    /// with no events while the file is missing. A file that is never
    /// written keeps the process parked until its job's files are
    /// removed.
    pub async fn wait_for(
        &self,
        proc: &Proc,
        job: JobId,
        name: &str,
        period: SimDuration,
    ) -> String {
        proc.poll_until(period, |w| self.read_or_park(job, name, w)).await
    }

    /// Remove a file; returns true if it existed.
    pub fn remove(&self, job: JobId, name: &str) -> bool {
        self.inner.lock().get_mut(&job).is_some_and(|j| j.files.remove(name).is_some())
    }

    /// Remove everything belonging to a job (end-of-job cleanup),
    /// including the registrations of readers still waiting.
    pub fn remove_job(&self, job: JobId) {
        self.inner.lock().remove(&job);
    }

    /// Number of files currently stored (leak checks in tests).
    pub fn len(&self) -> usize {
        self.inner.lock().values().map(|j| j.files.len()).sum()
    }

    /// True if no files are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().values().all(|j| j.files.is_empty())
    }

    /// The conventional port-file name for a compute node's static
    /// accelerator set.
    pub fn ac_port_file(cn_index: usize) -> String {
        format!("{}{}", files::AC_PORT_PREFIX, cn_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_remove() {
        let fs = PseudoFs::new();
        let j = JobId(1);
        assert!(fs.read(j, "x").is_none());
        assert!(fs.write(j, "x", "hello").is_empty());
        assert_eq!(fs.read(j, "x").as_deref(), Some("hello"));
        assert!(fs.write(j, "x", "world").is_empty());
        assert_eq!(fs.read(j, "x").as_deref(), Some("world"));
        assert!(fs.remove(j, "x"));
        assert!(!fs.remove(j, "x"));
    }

    #[test]
    fn job_scoping_and_cleanup() {
        let fs = PseudoFs::new();
        assert!(fs.write(JobId(1), "a", "1").is_empty());
        assert!(fs.write(JobId(1), "b", "2").is_empty());
        assert!(fs.write(JobId(2), "a", "3").is_empty());
        assert_eq!(fs.len(), 3);
        fs.remove_job(JobId(1));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.read(JobId(2), "a").as_deref(), Some("3"));
        assert!(!fs.is_empty());
    }

    #[test]
    fn remove_job_keeps_other_jobs_files() {
        let fs = PseudoFs::new();
        for j in 1..=3 {
            assert!(fs.write(JobId(j), files::NODEFILE, format!("cn{j}")).is_empty());
            assert!(fs.write(JobId(j), PseudoFs::ac_port_file(0), "port").is_empty());
        }
        fs.remove_job(JobId(2));
        fs.remove_job(JobId(9));
        assert_eq!(fs.len(), 4);
        assert!(fs.read(JobId(2), files::NODEFILE).is_none());
        for j in [1, 3] {
            assert_eq!(fs.read(JobId(j), files::NODEFILE), Some(format!("cn{j}")));
            assert_eq!(fs.read(JobId(j), "ac_port_cn0").as_deref(), Some("port"));
        }
        for j in [1, 3] {
            assert!(fs.remove(JobId(j), files::NODEFILE));
            assert!(fs.remove(JobId(j), "ac_port_cn0"));
        }
        assert!(!fs.remove(JobId(1), "ac_port_cn0"));
        assert!(fs.is_empty());
    }

    fn parked(fs: &PseudoFs, job: JobId) -> usize {
        fs.inner.lock().get(&job).map_or(0, |j| j.waiters.len())
    }

    /// A reader sees a write at its next poll tick, woken once: no event
    /// for the idle ticks in between.
    #[test]
    fn a_write_wakes_its_reader_at_the_next_tick() {
        use darms_sim::{Engine, SimTime};
        let fs = PseudoFs::new();
        let seen = Arc::new(Mutex::new(None));
        let mut sim = Engine::with_seed(1);
        let (f, s) = (fs.clone(), seen.clone());
        sim.spawn_process("reader", move |p| async move {
            let port = f.wait_for(&p, JobId(1), "port", SimDuration::from_millis(2)).await;
            *s.lock() = Some((port, p.now()));
        });
        let f = fs.clone();
        sim.spawn_process("writer", move |p| async move {
            p.sleep(SimDuration::from_millis(5)).await;
            let woken = f.write(JobId(1), "port", "p0");
            assert_eq!(woken.len(), 1);
            p.wake_pollers(woken);
        });
        let stats = sim.run();
        let at = SimTime::ZERO + SimDuration::from_millis(6);
        assert_eq!(*seen.lock(), Some(("p0".to_string(), at)));
        // Two spawns, the writer's sleep and the reader's one wake.
        assert_eq!(stats.events, 4);
        assert_eq!(parked(&fs, JobId(1)), 0);
    }

    /// A reader whose file is never written costs no events, and its
    /// registration goes with its job's files.
    #[test]
    fn an_unwritten_file_costs_nothing_and_dies_with_its_job() {
        use darms_sim::Engine;
        let fs = PseudoFs::new();
        let mut sim = Engine::with_seed(1);
        let f = fs.clone();
        sim.spawn_process("reader", move |p| async move {
            f.wait_for(&p, JobId(3), "never", SimDuration::from_millis(1)).await;
            unreachable!("nobody writes the file");
        });
        sim.run_until(darms_sim::SimTime::ZERO + SimDuration::from_secs(3600));
        assert_eq!(sim.stats().events, 1, "only the spawn");
        assert_eq!(parked(&fs, JobId(3)), 1);
        fs.remove_job(JobId(3));
        assert_eq!(parked(&fs, JobId(3)), 0);
        assert!(fs.inner.lock().is_empty());
    }

    #[test]
    fn port_file_naming() {
        assert_eq!(PseudoFs::ac_port_file(0), "ac_port_cn0");
        assert_eq!(PseudoFs::ac_port_file(3), "ac_port_cn3");
    }
}
