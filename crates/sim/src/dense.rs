//! Dense index sets for the simulation hot path.
//!
//! The engine's ready-task and idle-GPU sets are dense over a small fixed
//! universe (task indices, GPU indices), so a bitset holds them
//! allocation-free with O(1) mutation and membership, and iteration over
//! set bits is naturally ascending. Policies read the engine's two sets
//! in place through [`crate::SimView`]; only the engine mutates them.

/// A set of `usize` indices over a fixed universe `0..capacity`, backed by
/// a bit vector. Outside this crate the set is read-only: membership,
/// size and ascending iteration.
#[derive(Clone, Debug)]
pub struct DenseSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseSet {
    /// An empty set over `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        DenseSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// The full set `0..capacity`.
    pub(crate) fn full(capacity: usize) -> Self {
        let mut s = DenseSet::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Insert `i`; returns false if it was already present.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & b != 0 {
            return false;
        }
        self.words[w] |= b;
        self.len += 1;
        true
    }

    /// Remove `i`; returns false if it was absent.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & b == 0 {
            return false;
        }
        self.words[w] &= !b;
        self.len -= 1;
        true
    }

    /// Remove every member.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Is `i` a member? Indices outside the universe are not.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest member, if any — O(words), no iterator machinery, for the
    /// dispatch hot path's "lowest-id idle GPU of this kind" lookup.
    pub(crate) fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * 64 + w.trailing_zeros() as usize)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_btreeset_semantics() {
        use std::collections::BTreeSet;
        let mut dense = DenseSet::new(200);
        let mut tree = BTreeSet::new();
        // Deterministic pseudo-random walk of inserts and removes.
        let mut x = 0x1234_5678u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % 200;
            if x & 1 == 0 {
                assert_eq!(dense.insert(i), tree.insert(i));
            } else {
                assert_eq!(dense.remove(i), tree.remove(&i));
            }
            assert_eq!(dense.len(), tree.len());
            assert_eq!(dense.contains(i), tree.contains(&i));
        }
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            tree.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_set_iterates_its_universe() {
        let s = DenseSet::full(70);
        assert_eq!(s.len(), 70);
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..70).collect::<Vec<_>>());
        assert!(s.contains(69));
        assert!(!s.contains(70), "outside the universe");
    }

    #[test]
    fn first_is_the_minimum_member() {
        let mut s = DenseSet::new(200);
        assert_eq!(s.first(), None);
        for i in [150, 70, 3, 64, 199] {
            s.insert(i);
        }
        assert_eq!(s.first(), Some(3));
        s.remove(3);
        assert_eq!(s.first(), Some(64));
        s.remove(64);
        s.remove(70);
        assert_eq!(s.first(), Some(150));
        s.clear();
        assert_eq!((s.first(), s.len()), (None, 0));
        assert!(s.insert(150), "a cleared member can rejoin");
    }
}
