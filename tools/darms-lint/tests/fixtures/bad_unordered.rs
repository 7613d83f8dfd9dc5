// Fixture: iteration over hash containers in a trace-affecting scope.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

pub struct Registry {
    entries: HashMap<u64, String>,
    pending: Mutex<HashSet<u64>>,
}

impl Registry {
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (_, name) in self.entries.iter() {
            out.push(name.clone());
        }
        out
    }

    pub fn drop_even(&mut self) {
        self.entries.retain(|k, _| k % 2 == 1);
    }

    pub fn first_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (_, name) in &self.entries {
            out.push(name.clone());
        }
        out
    }

    pub fn drop_pending(&self) {
        self.pending.lock().unwrap().retain(|k| *k > 3);
    }
}

pub fn bucket(xs: &[u64]) -> Vec<u64> {
    let mut by_mod = HashMap::new();
    for x in xs {
        by_mod.insert(x % 4, *x);
    }
    by_mod.into_values().collect()
}

pub fn total(counts: &HashMap<u32, u64>) -> u64 {
    let mut sum = 0;
    for i in 0..counts.len() as u32 {
        sum += counts.get(&i).copied().unwrap_or(0);
    }
    sum + counts.values().sum::<u64>()
}

pub fn seen_order(ids: &[u64]) -> Vec<u64> {
    let seen: HashSet<u64> = ids.iter().copied().collect();
    seen.iter().copied().collect()
}
