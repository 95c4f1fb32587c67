//! Short ordered lists of [`NodeId`]s that live inline.
//!
//! A forwarded packet copy carries two node lists — the destinations it is
//! responsible for and the brokers on its routing path (§III-D) — and the
//! router builds, clones and drops them on every hop. Both are short: a
//! handful of subscribers share a next hop, and a path is a few brokers
//! long. [`NodeList`] keeps up to [`NodeList::INLINE`] ids inside the
//! value itself, so building, cloning and dropping such a list never
//! touches the heap; a longer list spills into a `Vec` and behaves exactly
//! like one. It dereferences to `[NodeId]`, so every slice method
//! (`contains`, `iter`, `first`, indexing, …) is available.

use crate::graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// Ids a [`NodeList`] holds without a heap allocation.
const INLINE: usize = 8;

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` are the members; the rest is padding.
    Inline { len: u8, buf: [NodeId; INLINE] },
    /// More than [`INLINE`] members at some point in the list's life.
    Heap(Vec<NodeId>),
}

/// An ordered list of [`NodeId`]s (duplicates allowed) with inline storage
/// for short lists. Equality, ordering of elements and `Debug` output are
/// those of the `Vec<NodeId>` holding the same ids.
#[derive(Clone, Serialize, Deserialize)]
#[serde(from = "Vec<NodeId>", into = "Vec<NodeId>")]
pub struct NodeList(Repr);

impl NodeList {
    /// Ids held without a heap allocation.
    pub const INLINE: usize = INLINE;

    /// An empty list. Never allocates.
    #[must_use]
    pub const fn new() -> Self {
        NodeList(Repr::Inline {
            len: 0,
            buf: [NodeId::new(0); INLINE],
        })
    }

    /// An empty list with room for `capacity` ids: inline when they fit,
    /// one exact heap reservation otherwise — so filling it never regrows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE {
            NodeList::new()
        } else {
            NodeList(Repr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// A list holding a copy of `nodes`.
    #[must_use]
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        let mut list = NodeList::with_capacity(nodes.len());
        list.extend_from_slice(nodes);
        list
    }

    /// The members, in order.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(buf),
            Repr::Heap(v) => v,
        }
    }

    /// Appends `node`. Allocates only when the list outgrows its inline
    /// storage (and then as a `Vec` would).
    pub fn push(&mut self, node: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                if let Some(slot) = buf.get_mut(usize::from(*len)) {
                    *slot = node;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE);
                    spilled.extend_from_slice(buf);
                    spilled.push(node);
                    self.0 = Repr::Heap(spilled);
                }
            }
            Repr::Heap(v) => v.push(node),
        }
    }

    /// Appends every id of `nodes`, in order.
    pub fn extend_from_slice(&mut self, nodes: &[NodeId]) {
        if let Repr::Heap(v) = &mut self.0 {
            v.extend_from_slice(nodes);
        } else if self.len() + nodes.len() > INLINE {
            let mut spilled = Vec::with_capacity(self.len() + nodes.len());
            spilled.extend_from_slice(self);
            spilled.extend_from_slice(nodes);
            self.0 = Repr::Heap(spilled);
        } else {
            for &node in nodes {
                self.push(node);
            }
        }
    }

    /// Removes and returns the id at `index`, moving the last id into its
    /// place (order is not preserved). `None` when `index` is out of
    /// range — unlike `Vec::swap_remove`, which panics.
    pub fn swap_remove(&mut self, index: usize) -> Option<NodeId> {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let last = usize::from(*len).checked_sub(1)?;
                let removed = *buf.get(index).filter(|_| index <= last)?;
                let moved = *buf.get(last)?;
                if let Some(slot) = buf.get_mut(index) {
                    *slot = moved;
                }
                *len -= 1;
                Some(removed)
            }
            Repr::Heap(v) => (index < v.len()).then(|| v.swap_remove(index)),
        }
    }

    /// Empties the list, keeping any heap capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl Default for NodeList {
    fn default() -> Self {
        NodeList::new()
    }
}

impl Deref for NodeList {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeList {}

impl PartialEq<Vec<NodeId>> for NodeList {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[NodeId]> for NodeList {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.as_slice() == other
    }
}

/// Short vectors move inline (the vector's buffer is released); longer
/// ones are adopted as they are.
impl From<Vec<NodeId>> for NodeList {
    fn from(nodes: Vec<NodeId>) -> Self {
        if nodes.len() <= INLINE {
            NodeList::from_slice(&nodes)
        } else {
            NodeList(Repr::Heap(nodes))
        }
    }
}

impl From<NodeList> for Vec<NodeId> {
    fn from(list: NodeList) -> Self {
        match list.0 {
            Repr::Inline { .. } => list.as_slice().to_vec(),
            Repr::Heap(v) => v,
        }
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        // Sized from the iterator's lower bound, so collecting a long list
        // of known length reserves once, as `Vec` does.
        let iter = iter.into_iter();
        let mut list = NodeList::with_capacity(iter.size_hint().0);
        for node in iter {
            list.push(node);
        }
        list
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    fn is_inline(list: &NodeList) -> bool {
        matches!(list.0, Repr::Inline { .. })
    }

    /// Every operation, applied in lock-step to a `NodeList` and the `Vec`
    /// it replaces, across the inline/spill boundary.
    #[test]
    fn behaves_like_the_vec_it_replaces() {
        for n in [0, 1, INLINE - 1, INLINE, INLINE + 1, 300] {
            let reference = ids(0..n as u32);
            let mut list = NodeList::new();
            for &id in &reference {
                list.push(id);
            }
            assert_eq!(list, reference, "push ×{n}");
            assert_eq!(list.len(), n);
            assert_eq!(is_inline(&list), n <= INLINE, "storage for {n} ids");
            assert_eq!(format!("{list:?}"), format!("{reference:?}"));

            let copy = list.clone();
            assert_eq!(copy, list, "clone ×{n}");
            assert_eq!(is_inline(&copy), n <= INLINE);
            assert_eq!(NodeList::from(reference.clone()), list);
            assert_eq!(NodeList::from_slice(&reference), list);
            assert_eq!(reference.iter().copied().collect::<NodeList>(), list);
            assert_eq!(Vec::from(list.clone()), reference);

            let mut vec = reference.clone();
            for index in [0, n / 2, n] {
                let expect = (index < vec.len()).then(|| vec.swap_remove(index));
                assert_eq!(
                    list.swap_remove(index),
                    expect,
                    "swap_remove({index}) of {n}"
                );
                assert_eq!(list, vec);
            }
            list.clear();
            assert!(list.is_empty());
            assert_eq!(list.swap_remove(0), None);
        }
    }

    #[test]
    fn spills_exactly_past_the_inline_capacity() {
        let mut list = NodeList::from_slice(&ids(0..INLINE as u32));
        assert!(is_inline(&list));
        list.push(NodeId::new(99));
        assert!(!is_inline(&list));
        assert_eq!(list.last(), Some(&NodeId::new(99)));
        assert_eq!(list.len(), INLINE + 1);
        // A spilled list stays on the heap and keeps behaving.
        assert_eq!(list.swap_remove(0), Some(NodeId::new(0)));
        assert_eq!(list.first(), Some(&NodeId::new(99)));
    }

    #[test]
    fn extend_keeps_order_on_both_sides_of_the_boundary() {
        let mut list = NodeList::from_slice(&ids(0..3));
        list.extend_from_slice(&ids(3..INLINE as u32));
        assert!(is_inline(&list));
        list.extend_from_slice(&ids(INLINE as u32..20));
        assert!(!is_inline(&list));
        assert_eq!(list, ids(0..20));
        list.extend_from_slice(&ids(20..22));
        assert_eq!(list, ids(0..22));
    }

    #[test]
    fn reserved_capacity_is_exact_and_never_regrows() {
        let list = NodeList::with_capacity(INLINE);
        assert!(is_inline(&list));
        let mut list = NodeList::with_capacity(INLINE + 1);
        let Repr::Heap(v) = &list.0 else {
            panic!("past the inline capacity the reservation is on the heap");
        };
        let reserved = v.capacity();
        assert!(reserved > INLINE);
        list.extend_from_slice(&ids(0..INLINE as u32 + 1));
        let Repr::Heap(v) = &list.0 else {
            panic!("stays on the heap");
        };
        assert_eq!(v.capacity(), reserved);
    }

    #[test]
    fn equality_ignores_the_representation() {
        let short = ids(0..3);
        let mut spilled = NodeList::from_slice(&ids(0..INLINE as u32 + 1));
        while spilled.len() > 3 {
            spilled.swap_remove(spilled.len() - 1);
        }
        assert!(!is_inline(&spilled));
        assert_eq!(spilled, NodeList::from_slice(&short));
        assert_eq!(spilled, short);
        assert_eq!(spilled, *short.as_slice());
    }
}
