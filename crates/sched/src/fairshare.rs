//! Fairshare accounting: exponentially decayed per-user core-seconds,
//! in the spirit of Maui's fairshare component.

use std::collections::BTreeMap;

use darms_rms::proto::RunningJobSnap;
use darms_rms::JobId;
use darms_sim::{SimDuration, SimTime};

/// Decayed usage per owner.
///
/// Each owner gets a slot on its first accrual. An update reuses the
/// slot of every job it accrued last time by walking both job lists in
/// job-id order, so a running job costs no name lookup. Each owner's
/// usage still takes its additions in running-job order, so every value
/// is bit-identical to accruing into a map keyed by name.
#[derive(Clone, Debug)]
pub struct Fairshare {
    /// Owner name → slot.
    slots: BTreeMap<String, usize>,
    /// Owner name of each slot.
    names: Vec<String>,
    /// Decayed usage of each slot; an owner whose usage decayed below
    /// the floor reads 0.
    usage: Vec<f64>,
    /// `(job, slot)` of every job the last accrual saw, in its order.
    roster: Vec<(JobId, usize)>,
    /// Empty buffer the next accrual writes its roster into; the two
    /// swap on every accrual, so neither is reallocated.
    spare: Vec<(JobId, usize)>,
    /// The heaviest usage: the normaliser, refreshed by each update.
    max: f64,
    last_update: SimTime,
    half_life: SimDuration,
}

impl Fairshare {
    /// Create with the given decay half-life.
    pub fn new(half_life: SimDuration) -> Self {
        Fairshare {
            slots: BTreeMap::new(),
            names: Vec::new(),
            usage: Vec::new(),
            roster: Vec::new(),
            spare: Vec::new(),
            max: 0.0,
            last_update: SimTime::ZERO,
            half_life,
        }
    }

    /// Decay all usage to `now` and accrue `cores × Δt` for every running
    /// job's owner.
    pub fn update<'a>(
        &mut self,
        now: SimTime,
        running: impl IntoIterator<Item = &'a RunningJobSnap>,
    ) {
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            let hl = self.half_life.as_secs_f64().max(1e-9);
            let decay = 0.5f64.powf(dt / hl);
            for v in &mut self.usage {
                *v *= decay;
            }
            let mut last = std::mem::replace(&mut self.roster, std::mem::take(&mut self.spare));
            let mut cursor = 0;
            for job in running {
                while last.get(cursor).is_some_and(|&(id, _)| id < job.job) {
                    cursor += 1;
                }
                let slot = match last.get(cursor) {
                    Some(&(id, slot)) if id == job.job && self.names[slot] == *job.owner => {
                        cursor += 1;
                        slot
                    }
                    _ => self.slot_of(&job.owner),
                };
                self.roster.push((job.job, slot));
                let cores = (job.compute_hosts.len() as f64) * job.ppn as f64;
                self.usage[slot] += cores * dt;
            }
            last.clear();
            self.spare = last;
            self.last_update = now;
        }
        for v in &mut self.usage {
            if *v <= 1e-9 {
                *v = 0.0;
            }
        }
        self.max = self.usage.iter().copied().fold(0.0, f64::max);
    }

    /// The slot of `owner`, assigned on first use.
    fn slot_of(&mut self, owner: &str) -> usize {
        if let Some(&slot) = self.slots.get(owner) {
            return slot;
        }
        let slot = self.usage.len();
        self.slots.insert(owner.to_owned(), slot);
        self.names.push(owner.to_owned());
        self.usage.push(0.0);
        slot
    }

    /// Current decayed usage of one owner.
    pub fn usage_of(&self, owner: &str) -> f64 {
        self.slots.get(owner).map_or(0.0, |&slot| self.usage[slot])
    }

    /// Usage normalised to the heaviest user (0..=1); 0 when idle.
    pub fn normalised(&self, owner: &str) -> f64 {
        if self.max <= 0.0 {
            0.0
        } else {
            self.usage_of(owner) / self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::HostId;
    use proptest::prelude::*;

    fn running(owner: &str, nodes: usize, ppn: u32) -> RunningJobSnap {
        RunningJobSnap {
            job: JobId(1),
            owner: owner.into(),
            started: SimTime::ZERO,
            walltime_estimate: SimDuration::from_secs(100),
            compute_hosts: (0..nodes).map(HostId::from_raw).collect(),
            ppn,
            acc_hosts: vec![],
        }
    }

    #[test]
    fn usage_accrues_with_cores_and_time() {
        let mut fs = Fairshare::new(SimDuration::from_secs(3600));
        fs.update(SimTime::from_nanos(10_000_000_000), &[running("alice", 2, 4)]);
        // 8 cores for 10 seconds ~ 80 core-seconds (minus negligible decay)
        let u = fs.usage_of("alice");
        assert!(u > 75.0 && u <= 80.0, "usage {u}");
        assert_eq!(fs.usage_of("bob"), 0.0);
    }

    #[test]
    fn usage_decays_towards_zero() {
        let hl = SimDuration::from_secs(100);
        let mut fs = Fairshare::new(hl);
        fs.update(SimTime::from_nanos(10_000_000_000), &[running("alice", 1, 1)]);
        let before = fs.usage_of("alice");
        // One half-life later with no running jobs.
        fs.update(SimTime::from_nanos(110_000_000_000), &[]);
        let after = fs.usage_of("alice");
        assert!((after - before / 2.0).abs() < before * 0.05, "{before} -> {after}");
    }

    #[test]
    fn normalisation_is_relative_to_heaviest() {
        let mut fs = Fairshare::new(SimDuration::from_secs(3600));
        fs.update(
            SimTime::from_nanos(5_000_000_000),
            &[running("alice", 4, 4), running("bob", 1, 1)],
        );
        assert!((fs.normalised("alice") - 1.0).abs() < 1e-9);
        assert!(fs.normalised("bob") > 0.0 && fs.normalised("bob") < 0.1);
        assert_eq!(fs.normalised("carol"), 0.0);
    }

    #[test]
    fn idle_system_normalises_to_zero() {
        let fs = Fairshare::new(SimDuration::from_secs(10));
        assert_eq!(fs.normalised("nobody"), 0.0);
    }

    /// The name-keyed accounting the slots replace.
    struct ByName(BTreeMap<String, f64>, SimTime, SimDuration);

    impl ByName {
        fn update(&mut self, now: SimTime, running: &[RunningJobSnap]) {
            let dt = (now - self.1).as_secs_f64();
            if dt > 0.0 {
                let decay = 0.5f64.powf(dt / self.2.as_secs_f64().max(1e-9));
                for v in self.0.values_mut() {
                    *v *= decay;
                }
                for job in running {
                    let cores = (job.compute_hosts.len() as f64) * job.ppn as f64;
                    *self.0.entry(job.owner.to_string()).or_insert(0.0) += cores * dt;
                }
                self.1 = now;
            }
            self.0.retain(|_, v| *v > 1e-9);
        }

        fn normalised(&self, owner: &str) -> f64 {
            let max = self.0.values().cloned().fold(0.0, f64::max);
            let usage = self.0.get(owner).copied().unwrap_or(0.0);
            if max <= 0.0 {
                0.0
            } else {
                usage / max
            }
        }
    }

    proptest! {
        /// Slots give every owner the same usage, to the bit, as a map
        /// keyed by name, as jobs come and go, owners decay away and
        /// return, and a job id shows up under another owner.
        #[test]
        fn slots_match_name_keyed_usage_bit_for_bit(
            steps in prop::collection::vec(
                (0u64..4_000, prop::collection::vec((0u64..12, 0usize..5, 1usize..4, 1u32..9), 0..8)),
                1..16,
            ),
        ) {
            const OWNERS: [&str; 5] = ["ann", "bob", "cy", "dee", "eve"];
            let half_life = SimDuration::from_secs(300);
            let mut slots = Fairshare::new(half_life);
            let mut by_name = ByName(BTreeMap::new(), SimTime::ZERO, half_life);
            let mut now = SimTime::ZERO;
            for (dt, jobs) in steps {
                now += SimDuration::from_secs(dt);
                let mut running: Vec<RunningJobSnap> = jobs
                    .into_iter()
                    .map(|(id, owner, nodes, ppn)| RunningJobSnap {
                        job: JobId(id),
                        ..running(OWNERS[owner], nodes, ppn)
                    })
                    .collect();
                running.sort_by_key(|r| r.job);
                slots.update(now, &running);
                by_name.update(now, &running);
                for owner in OWNERS {
                    let want = by_name.0.get(owner).copied().unwrap_or(0.0);
                    prop_assert_eq!(slots.usage_of(owner).to_bits(), want.to_bits());
                    prop_assert_eq!(
                        slots.normalised(owner).to_bits(),
                        by_name.normalised(owner).to_bits()
                    );
                }
            }
        }
    }
}
