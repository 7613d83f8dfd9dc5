//! Dense per-host tables. [`Network::add_host`](crate::Network::add_host)
//! hands out host ids as the indices `0..n`, so state keyed by host (or
//! by a registration index) fits in a flat array: a lookup is one load,
//! and a table for 10k hosts is one allocation instead of a B-tree of
//! hundreds of nodes. Both types iterate in ascending index order, the
//! order the ordered maps they replace gave.

use crate::host::HostId;

/// A dense map from [`HostId`] to a slot number (typically a
/// registration index): one `u32` per host id up to the largest one
/// inserted, so memory is proportional to the largest id, not to the
/// number of entries.
#[derive(Clone, Debug, Default)]
pub struct HostSlots {
    slots: Vec<u32>,
}

impl HostSlots {
    /// Marks a host id without a slot.
    const NONE: u32 = u32::MAX;

    /// An empty map with room for the host ids `0..hosts`.
    pub fn with_capacity(hosts: usize) -> Self {
        HostSlots { slots: Vec::with_capacity(hosts) }
    }

    /// The slot of `host`, if it has one.
    pub fn get(&self, host: HostId) -> Option<usize> {
        match self.slots.get(host.0) {
            Some(&s) if s != Self::NONE => Some(s as usize),
            _ => None,
        }
    }

    /// Give `host` the slot `slot`. Returns `false`, and changes nothing,
    /// if `host` already has one.
    pub fn insert(&mut self, host: HostId, slot: usize) -> bool {
        if host.0 >= self.slots.len() {
            self.slots.resize(host.0 + 1, Self::NONE);
        }
        if self.slots[host.0] != Self::NONE {
            return false;
        }
        self.slots[host.0] = u32::try_from(slot)
            .ok()
            .filter(|&s| s != Self::NONE)
            .expect("slot number fits in a u32");
        true
    }
}

/// A set of small indices stored as one bit each: O(1) insert, remove
/// and membership, and iteration in ascending order. Memory is
/// proportional to the largest index ever inserted.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with room for the indices `0..bits`.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Add `i`; returns `true` if it was not a member.
    pub fn insert(&mut self, i: usize) -> bool {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        let added = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(added);
        added
    }

    /// Remove `i`; returns `true` if it was a member.
    pub fn remove(&mut self, i: usize) -> bool {
        let Some(word) = self.words.get_mut(i / 64) else { return false };
        let bit = 1u64 << (i % 64);
        let removed = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(removed);
        removed
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words.iter().copied())
    }

    /// Remove every member and return them in ascending order. The
    /// storage stays allocated for the next round of inserts.
    pub fn drain(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter());
        self.words.fill(0);
        self.len = 0;
        out
    }

    /// The members of the union of `sets`, in ascending order, without
    /// building the union.
    pub fn union(sets: &[BitSet]) -> impl Iterator<Item = usize> + '_ {
        let words = sets.iter().map(|s| s.words.len()).max().unwrap_or(0);
        ones(
            (0..words).map(move |w| {
                sets.iter().fold(0, |acc, s| acc | s.words.get(w).copied().unwrap_or(0))
            }),
        )
    }
}

/// The positions of the set bits of a word sequence, ascending.
fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(w * 64 + bit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_slots_map_sparse_ids() {
        let mut s = HostSlots::default();
        assert!(s.insert(HostId(5), 0));
        assert!(s.insert(HostId(2), 1));
        assert!(!s.insert(HostId(5), 7), "a second insert keeps the first slot");
        assert_eq!(s.get(HostId(5)), Some(0));
        assert_eq!(s.get(HostId(2)), Some(1));
        assert_eq!(s.get(HostId(3)), None, "a gap has no slot");
        assert_eq!(s.get(HostId(0)), None);
        assert_eq!(s.get(HostId(1000)), None, "past the end has no slot");
    }

    #[test]
    fn bit_set_iterates_ascending_whatever_the_insert_order() {
        let mut b = BitSet::default();
        for i in [130, 3, 64, 63, 0, 200, 3] {
            b.insert(i);
        }
        assert_eq!(b.len(), 6);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 130, 200]);
        assert!(b.remove(64));
        assert!(!b.remove(64));
        assert!(!b.remove(10_000), "removing past the end is a no-op");
        assert!(b.contains(130) && !b.contains(64) && !b.contains(10_000));
        assert_eq!(b.drain(), vec![0, 3, 63, 130, 200]);
        assert!(b.is_empty());
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn union_merges_in_index_order() {
        let mut a = BitSet::default();
        let mut b = BitSet::default();
        for i in [1, 70, 300] {
            a.insert(i);
        }
        for i in [0, 70, 71] {
            b.insert(i);
        }
        let sets = [a, BitSet::default(), b];
        assert_eq!(BitSet::union(&sets).collect::<Vec<_>>(), vec![0, 1, 70, 71, 300]);
        assert_eq!(BitSet::union(&[]).count(), 0);
    }
}
