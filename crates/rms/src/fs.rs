//! A tiny job-scoped pseudo-filesystem.
//!
//! The paper's implementation passes two pieces of information through
//! files: the `PBS_NODEFILE` written by the mom for the application, and
//! the MPI port name written by the accelerator daemons' root for
//! `AC_Init()` (§III-C). This store models that shared medium; readers
//! poll it exactly like the real library polls the file system.

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Cloneable handle to the shared pseudo-filesystem. Files are keyed by
/// job, then by name: a read looks the name up as a `&str`, and
/// end-of-job cleanup drops one job's entry.
#[derive(Clone, Default)]
pub struct PseudoFs {
    inner: Arc<Mutex<BTreeMap<JobId, BTreeMap<String, String>>>>,
}

impl PseudoFs {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a job-scoped file.
    pub fn write(&self, job: JobId, name: impl Into<String>, content: impl Into<String>) {
        self.inner.lock().entry(job).or_default().insert(name.into(), content.into());
    }

    /// Read a job-scoped file.
    pub fn read(&self, job: JobId, name: &str) -> Option<String> {
        self.inner.lock().get(&job)?.get(name).cloned()
    }

    /// Remove a file; returns true if it existed.
    pub fn remove(&self, job: JobId, name: &str) -> bool {
        self.inner.lock().get_mut(&job).is_some_and(|files| files.remove(name).is_some())
    }

    /// Remove everything belonging to a job (end-of-job cleanup).
    pub fn remove_job(&self, job: JobId) {
        self.inner.lock().remove(&job);
    }

    /// Number of files currently stored (leak checks in tests).
    pub fn len(&self) -> usize {
        self.inner.lock().values().map(BTreeMap::len).sum()
    }

    /// True if no files are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().values().all(BTreeMap::is_empty)
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
        fs.write(j, "x", "hello");
        assert_eq!(fs.read(j, "x").as_deref(), Some("hello"));
        fs.write(j, "x", "world");
        assert_eq!(fs.read(j, "x").as_deref(), Some("world"));
        assert!(fs.remove(j, "x"));
        assert!(!fs.remove(j, "x"));
    }

    #[test]
    fn job_scoping_and_cleanup() {
        let fs = PseudoFs::new();
        fs.write(JobId(1), "a", "1");
        fs.write(JobId(1), "b", "2");
        fs.write(JobId(2), "a", "3");
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
            fs.write(JobId(j), files::NODEFILE, format!("cn{j}"));
            fs.write(JobId(j), PseudoFs::ac_port_file(0), "port");
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

    #[test]
    fn port_file_naming() {
        assert_eq!(PseudoFs::ac_port_file(0), "ac_port_cn0");
        assert_eq!(PseudoFs::ac_port_file(3), "ac_port_cn3");
    }
}
