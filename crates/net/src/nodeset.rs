//! Compact membership sets over dense [`NodeId`]s.
//!
//! The router's hot loop asks "has this packet visited node X?" and "is
//! destination Y already covered?" thousands of times per simulated second.
//! [`NodeSet`] answers in O(1) from u64 bitset words: overlays of up to 256
//! brokers — the paper's scale and the largest routinely simulated here —
//! fit in the inline words with zero heap allocation, so cloning a packet's
//! path record never allocates for them; larger topologies spill into extra
//! words on demand.

use crate::graph::NodeId;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

const WORD_BITS: usize = 64;
/// Words stored inline: node indices below `INLINE_WORDS * 64` never touch
/// the heap.
const INLINE_WORDS: usize = 4;

/// A set of [`NodeId`]s backed by u64 bitset words.
///
/// Node indices `0..256` live in inline words; indices `≥256` lazily
/// allocate spill words. All operations are O(1) in the number of members
/// (O(words) for [`clear`](NodeSet::clear) and equality).
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    /// Bits for node indices `0..256`.
    low: [u64; INLINE_WORDS],
    /// Spill words for indices `≥256`; word `w` holds indices
    /// `64*(w+4) .. 64*(w+5)`. Empty until a large index is inserted.
    high: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    #[must_use]
    pub const fn new() -> Self {
        NodeSet {
            low: [0; INLINE_WORDS],
            high: Vec::new(),
        }
    }

    #[inline]
    fn split(node: NodeId) -> (usize, u64) {
        let idx = node.index();
        (idx / WORD_BITS, 1u64 << (idx % WORD_BITS))
    }

    /// The word holding bit index `64 * word ..`, zero if never allocated.
    #[inline]
    fn word(&self, word: usize) -> u64 {
        match self.low.get(word) {
            Some(w) => *w,
            None => self.high.get(word - INLINE_WORDS).copied().unwrap_or(0),
        }
    }

    /// The existing word `word`, if it is inline or already spilled.
    #[inline]
    fn word_mut(&mut self, word: usize) -> Option<&mut u64> {
        if word < INLINE_WORDS {
            self.low.get_mut(word)
        } else {
            self.high.get_mut(word - INLINE_WORDS)
        }
    }

    /// Inserts a node; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (word, bit) = Self::split(node);
        if word >= INLINE_WORDS && self.high.len() <= word - INLINE_WORDS {
            self.high.resize(word - INLINE_WORDS + 1, 0);
        }
        // Present: inline, or guaranteed by the resize above.
        let Some(slot) = self.word_mut(word) else {
            return false;
        };
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Removes a node; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (word, bit) = Self::split(node);
        let Some(slot) = self.word_mut(word) else {
            return false;
        };
        let present = *slot & bit != 0;
        *slot &= !bit;
        present
    }

    /// Whether the node is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = Self::split(node);
        self.word(word) & bit != 0
    }

    /// Empties the set, keeping any spill capacity for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.low = [0; INLINE_WORDS];
        for w in &mut self.high {
            *w = 0;
        }
    }

    /// Adds every member of `other` to `self`.
    pub fn union_with(&mut self, other: &NodeSet) {
        for (into, from) in self.low.iter_mut().zip(&other.low) {
            *into |= *from;
        }
        if self.high.len() < other.high.len() {
            self.high.resize(other.high.len(), 0);
        }
        for (into, from) in self.high.iter_mut().zip(&other.high) {
            *into |= *from;
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        let ones: u32 = self
            .low
            .iter()
            .chain(&self.high)
            .map(|w| w.count_ones())
            .sum();
        ones as usize
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.low.iter().chain(&self.high).all(|&w| w == 0)
    }
}

/// Logical equality: trailing zero spill words are insignificant, so a set
/// that grew and was cleared equals a freshly built one.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.low == other.low && self.significant_high() == other.significant_high()
    }
}

impl Eq for NodeSet {}

impl NodeSet {
    /// Spill words with insignificant trailing zeros trimmed — the canonical
    /// form that [`PartialEq`], [`Ord`] and [`Hash`] all agree on.
    #[inline]
    fn significant_high(&self) -> &[u64] {
        let mut end = self.high.len();
        while end > 0 && self.high[end - 1] == 0 {
            end -= 1;
        }
        &self.high[..end]
    }
}

/// Total order consistent with the capacity-ignoring [`PartialEq`]: sets
/// compare word by word, lowest indices first, as if padded with zero words
/// (so the order does not depend on how many words are inline). The order
/// itself is arbitrary but deterministic, so `NodeSet` can key a `BTreeMap`
/// without spill capacity leaking into iteration order.
impl Ord for NodeSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.low
            .cmp(&other.low)
            .then_with(|| self.significant_high().cmp(other.significant_high()))
    }
}

impl PartialOrd for NodeSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hash over the canonical (capacity-trimmed) form, so `a == b` implies
/// equal hashes even when one set grew spill words and was cleared.
impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.low.hash(state);
        self.significant_high().hash(state);
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = NodeSet::new();
        for node in iter {
            set.insert(node);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn inline_word_membership() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(n(0)));
        assert!(s.insert(n(63)));
        assert!(!s.insert(n(63)), "re-insert reports already present");
        assert!(s.insert(n(64)));
        assert!(s.insert(n(255)));
        assert!(s.contains(n(0)));
        assert!(s.contains(n(63)));
        assert!(s.contains(n(64)));
        assert!(s.contains(n(255)));
        assert!(!s.contains(n(7)));
        assert!(!s.contains(n(256)));
        assert_eq!(s.len(), 4);
        assert!(s.high.is_empty(), "indices < 256 must not allocate");
        assert!(s.clone().high.capacity() == 0, "nor does cloning them");
    }

    #[test]
    fn spill_words_cover_large_indices() {
        let mut s = NodeSet::new();
        assert!(s.insert(n(256)));
        assert!(s.insert(n(1000)));
        assert!(s.contains(n(256)));
        assert!(s.contains(n(1000)));
        assert!(!s.contains(n(999)));
        assert!(!s.contains(n(257)));
        assert_eq!(s.len(), 2);
        assert!(!s.high.is_empty());
        assert!(s.remove(n(1000)));
        assert!(!s.remove(n(1000)));
        assert!(!s.contains(n(1000)));
    }

    #[test]
    fn remove_and_clear() {
        let mut s: NodeSet = [n(1), n(70), n(130), n(300)].into_iter().collect();
        assert_eq!(s.len(), 4);
        assert!(s.remove(n(70)));
        assert!(!s.contains(n(70)));
        assert!(s.remove(n(300)));
        assert!(!s.remove(n(300)));
        assert!(!s.remove(n(9000)), "never-allocated word");
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(n(1)));
        assert!(!s.contains(n(130)));
        assert!(!s.contains(n(300)));
    }

    #[test]
    fn equality_ignores_spill_capacity() {
        let mut grown = NodeSet::new();
        grown.insert(n(500));
        grown.remove(n(500));
        grown.insert(n(3));
        let mut fresh = NodeSet::new();
        fresh.insert(n(3));
        assert_eq!(grown, fresh);
        fresh.insert(n(80));
        assert_ne!(grown, fresh);
        let mut spilled = grown.clone();
        spilled.insert(n(300));
        assert_ne!(grown, spilled);
    }

    /// Regression (PR 10): `Ord` and `Hash` must agree with the
    /// capacity-ignoring `Eq`. A set that grew spill words and was cleared
    /// used to be `==` to a fresh set while any future `Ord`/`Hash` derive
    /// would have seen the capacity difference — keeping sets with identical
    /// membership apart in a `BTreeMap`/`HashSet`.
    #[test]
    fn ord_and_hash_ignore_spill_capacity() {
        use std::collections::hash_map::DefaultHasher;

        fn fingerprint(s: &NodeSet) -> u64 {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }

        let mut grown = NodeSet::new();
        grown.insert(n(500)); // allocates spill words...
        grown.remove(n(500)); // ...then leaves them as zeroed capacity
        grown.insert(n(3));
        grown.insert(n(70));
        let fresh: NodeSet = [n(3), n(70)].into_iter().collect();
        assert_eq!(grown, fresh);
        assert_eq!(grown.cmp(&fresh), Ordering::Equal);
        assert_eq!(grown.partial_cmp(&fresh), Some(Ordering::Equal));
        assert_eq!(fingerprint(&grown), fingerprint(&fresh));

        // Unequal sets order deterministically regardless of which side
        // carries the spare capacity.
        let bigger: NodeSet = [n(3), n(71)].into_iter().collect();
        assert_ne!(grown, bigger);
        assert_eq!(grown.cmp(&bigger), Ordering::Less);
        assert_eq!(bigger.cmp(&grown), Ordering::Greater);

        // Membership confined to the inline word still compares against a
        // spill-capacity set without reading past the trimmed prefix.
        let inline_only: NodeSet = [n(3)].into_iter().collect();
        assert_ne!(inline_only, grown);
        assert_eq!(inline_only.cmp(&grown), Ordering::Less);
        assert_ne!(fingerprint(&inline_only), fingerprint(&grown));
    }

    #[test]
    fn union_merges_both_ranges() {
        let a: NodeSet = [n(1), n(65), n(400)].into_iter().collect();
        let mut b: NodeSet = [n(2)].into_iter().collect();
        b.union_with(&a);
        for i in [1, 2, 65, 400] {
            assert!(b.contains(n(i)));
        }
        assert_eq!(b.len(), 4);
    }
}
