//! Struct-of-arrays containers for per-packet hot state.
//!
//! The runtime's delivery ledger and the router's custody state are keyed
//! by `(PacketId, NodeId)`. With a `BTreeMap` every probe on the hot path
//! (one per arrival, ACK, timer) is a pointer-chasing tree descent
//! comparing 12-byte tuples. Runtime packet ids are dense counters
//! (`0, 1, 2, …`), so the natural layout is an array indexed by packet id
//! whose slots hold the (tiny — one entry per involved broker) per-packet
//! rows, with a spill map for the sparse recovery-packet id space (NACK
//! ids carry the top bit).
//!
//! Iteration yields ascending `(PacketId, NodeId)` order — dense rows by
//! id, each row sorted by broker, then the spill (whose ids are all
//! larger) — exactly the order the `BTreeMap` layout produced, so metric
//! and trace consumers observe no reordering. The digest-equivalence pins
//! in `tests/csr_wheel_equivalence.rs` hold this promise to the byte.

use crate::packet::PacketId;
use dcrd_net::{NodeId, NodeSet};
use std::collections::{BTreeMap, BTreeSet};

/// Ids below this populate the dense array; ids at or above it (the NACK
/// recovery id space) go to the spill map. Well above any realistic
/// sequential id, well below the tagged `1 << 63` ranges.
const DENSE_LIMIT: u64 = 1 << 32;

#[inline]
fn dense_index(id: PacketId) -> Option<usize> {
    let raw = id.raw();
    (raw < DENSE_LIMIT).then_some(raw as usize)
}

/// Gives an emptied row's buffer back. Packet ids are never reused, so a
/// row that emptied (every broker concluded the packet) stays empty; keeping
/// its buffer would retain every packet's peak row for the whole run.
#[inline]
fn release_if_empty<T>(row: &mut Vec<T>) {
    if row.is_empty() {
        *row = Vec::new();
    }
}

/// A map keyed by `(packet id, broker)` with a dense packet-id-indexed
/// fast path.
#[derive(Debug, Clone)]
pub struct PacketNodeMap<V> {
    /// `dense[id][..]` = this packet's per-broker entries, sorted by
    /// broker id. Rows are tiny (one entry per involved broker), so a
    /// sorted `Vec` beats any nested map.
    dense: Vec<Vec<(NodeId, V)>>,
    /// Sparse id ranges (NACK recovery ids).
    spill: BTreeMap<(PacketId, NodeId), V>,
    len: usize,
}

impl<V> Default for PacketNodeMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PacketNodeMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        PacketNodeMap {
            dense: Vec::new(),
            spill: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry for `key`, if present.
    #[inline]
    pub fn get(&self, key: &(PacketId, NodeId)) -> Option<&V> {
        match dense_index(key.0) {
            Some(i) => {
                let row = self.dense.get(i)?;
                let at = row.binary_search_by_key(&key.1, |&(n, _)| n).ok()?;
                row.get(at).map(|(_, v)| v)
            }
            None => self.spill.get(key),
        }
    }

    /// The mutable entry for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &(PacketId, NodeId)) -> Option<&mut V> {
        match dense_index(key.0) {
            Some(i) => {
                let row = self.dense.get_mut(i)?;
                let at = row.binary_search_by_key(&key.1, |&(n, _)| n).ok()?;
                row.get_mut(at).map(|(_, v)| v)
            }
            None => self.spill.get_mut(key),
        }
    }

    /// Whether `key` has an entry.
    #[inline]
    #[must_use]
    pub fn contains_key(&self, key: &(PacketId, NodeId)) -> bool {
        self.get(key).is_some()
    }

    /// Inserts (or replaces) the entry for `key`, returning the previous
    /// value.
    pub fn insert(&mut self, key: (PacketId, NodeId), value: V) -> Option<V> {
        match dense_index(key.0) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, Vec::new);
                }
                // Present after the resize above; a `None` here would mean a
                // broken `Vec`, so the degraded path drops the write.
                let row = self.dense.get_mut(i)?;
                match row.binary_search_by_key(&key.1, |&(n, _)| n) {
                    Ok(at) => row.get_mut(at).map(|e| std::mem::replace(&mut e.1, value)),
                    Err(at) => {
                        row.insert(at, (key.1, value));
                        self.len += 1;
                        None
                    }
                }
            }
            None => {
                let old = self.spill.insert(key, value);
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
        }
    }

    /// Removes and returns the entry for `key`.
    pub fn remove(&mut self, key: &(PacketId, NodeId)) -> Option<V> {
        let removed = match dense_index(key.0) {
            Some(i) => {
                let row = self.dense.get_mut(i)?;
                let at = row.binary_search_by_key(&key.1, |&(n, _)| n).ok()?;
                let value = row.remove(at).1;
                release_if_empty(row);
                Some(value)
            }
            None => self.spill.remove(key),
        };
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Keeps only the entries the predicate approves — the crash-wipe
    /// primitive ("drop everything broker X holds").
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut V) -> bool) {
        let mut len = 0;
        for row in &mut self.dense {
            row.retain_mut(|(node, value)| keep(*node, value));
            release_if_empty(row);
            len += row.len();
        }
        self.spill.retain(|&(_, node), value| keep(node, value));
        self.len = len + self.spill.len();
    }

    /// Iterates in ascending `(packet id, broker)` order — the same order
    /// the `BTreeMap` layout produced.
    pub fn iter(&self) -> impl Iterator<Item = ((PacketId, NodeId), &V)> {
        self.dense
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .map(move |(node, v)| ((PacketId::new(i as u64), *node), v))
            })
            .chain(self.spill.iter().map(|(&key, v)| (key, v)))
    }

    /// Iterates over the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// A set of `(packet id, broker)` pairs with a dense packet-id-indexed
/// bitset fast path — the subscriber-side delivery log.
#[derive(Debug, Clone, Default)]
pub struct PacketNodeSet {
    /// `dense[id]` = the brokers involved with packet `id`, as a bitset.
    dense: Vec<NodeSet>,
    /// Sparse id ranges (NACK recovery ids).
    spill: BTreeSet<(PacketId, NodeId)>,
}

impl PacketNodeSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        PacketNodeSet {
            dense: Vec::new(),
            spill: BTreeSet::new(),
        }
    }

    /// Inserts a pair; returns `true` if it was not already present.
    pub fn insert(&mut self, key: (PacketId, NodeId)) -> bool {
        match dense_index(key.0) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, NodeSet::new);
                }
                // Present after the resize above.
                self.dense.get_mut(i).is_some_and(|s| s.insert(key.1))
            }
            None => self.spill.insert(key),
        }
    }

    /// Whether the pair is in the set.
    #[must_use]
    pub fn contains(&self, key: &(PacketId, NodeId)) -> bool {
        match dense_index(key.0) {
            Some(i) => self.dense.get(i).is_some_and(|s| s.contains(key.1)),
            None => self.spill.contains(key),
        }
    }
}

/// A map keyed by dense [`NodeId`] — plain indexed storage for per-node
/// values like the router's cached per-publisher shortest-path trees.
#[derive(Debug, Clone, Default)]
pub struct NodeMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> NodeMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        NodeMap { slots: Vec::new() }
    }

    /// The value for `node`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&V> {
        self.slots.get(node.index()).and_then(Option::as_ref)
    }

    /// Inserts (or replaces) the value for `node`.
    pub fn insert(&mut self, node: NodeId, value: V) {
        let i = node.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if let Some(slot) = self.slots.get_mut(i) {
            *slot = Some(value);
        }
    }

    /// The value for `node`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, node: NodeId, make: impl FnOnce() -> V) -> &V {
        let i = node.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(make)
    }

    /// Drops every value, keeping the slot capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPARSE: u64 = 1 << 63;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn id(raw: u64) -> PacketId {
        PacketId::new(raw)
    }

    #[test]
    fn dense_and_spill_roundtrip() {
        let mut m: PacketNodeMap<&str> = PacketNodeMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert((id(0), n(3)), "a"), None);
        assert_eq!(m.insert((id(0), n(1)), "b"), None);
        assert_eq!(m.insert((id(SPARSE), n(9)), "nack"), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&(id(0), n(3))), Some(&"a"));
        assert_eq!(m.get(&(id(SPARSE), n(9))), Some(&"nack"));
        assert!(m.contains_key(&(id(0), n(1))));
        assert!(!m.contains_key(&(id(1), n(1))));
        assert_eq!(m.insert((id(0), n(3)), "a2"), Some("a"));
        assert_eq!(m.len(), 3, "replacement does not grow the map");
        *m.get_mut(&(id(0), n(1))).unwrap() = "b2";
        assert_eq!(m.remove(&(id(0), n(1))), Some("b2"));
        assert_eq!(m.remove(&(id(0), n(1))), None);
        assert_eq!(m.remove(&(id(SPARSE), n(9))), Some("nack"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_matches_btreemap_order() {
        let mut m: PacketNodeMap<u32> = PacketNodeMap::new();
        let mut reference: BTreeMap<(PacketId, NodeId), u32> = BTreeMap::new();
        for (raw, node, v) in [
            (5, 2, 52),
            (0, 7, 7),
            (0, 1, 1),
            (SPARSE, 0, 90),
            (3, 4, 34),
            (SPARSE + 1, 6, 96),
        ] {
            m.insert((id(raw), n(node)), v);
            reference.insert((id(raw), n(node)), v);
        }
        let got: Vec<_> = m.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, want.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    }

    #[test]
    fn retain_wipes_a_broker_across_both_ranges() {
        let mut m: PacketNodeMap<u32> = PacketNodeMap::new();
        m.insert((id(0), n(1)), 10);
        m.insert((id(0), n(2)), 20);
        m.insert((id(5), n(1)), 50);
        m.insert((id(SPARSE), n(1)), 99);
        m.retain(|node, _| node != n(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&(id(0), n(2))), Some(&20));
        assert!(!m.contains_key(&(id(5), n(1))));
        assert!(!m.contains_key(&(id(SPARSE), n(1))));
    }

    /// Regression: `remove` used to keep an emptied row's buffer, so a run
    /// retained one peak-sized row per packet ever published.
    #[test]
    fn emptied_rows_release_their_buffers() {
        let row_capacity =
            |m: &PacketNodeMap<[u64; 8]>| m.dense.iter().map(Vec::capacity).sum::<usize>();
        let mut m: PacketNodeMap<[u64; 8]> = PacketNodeMap::new();
        // 1000 packets, each held by three brokers and then concluded —
        // two by `remove`, one by a crash wipe — while a few stay live.
        for raw in 0..1000 {
            for node in 0..3 {
                m.insert((id(raw), n(node)), [raw; 8]);
            }
            if raw % 250 == 0 {
                continue;
            }
            assert_eq!(m.remove(&(id(raw), n(1))), Some([raw; 8]));
            assert_eq!(m.remove(&(id(raw), n(0))), Some([raw; 8]));
            m.retain(|node, v| node != n(2) || v[0] % 250 == 0);
        }
        assert_eq!(m.len(), 4 * 3);
        assert!(
            row_capacity(&m) <= 4 * 8,
            "only the four live rows may hold a buffer, got {} entries of capacity",
            row_capacity(&m)
        );
        // A released row is still a usable row.
        assert_eq!(m.insert((id(1), n(5)), [7; 8]), None);
        assert_eq!(m.get(&(id(1), n(5))), Some(&[7; 8]));
    }

    #[test]
    fn set_tracks_dense_and_sparse_pairs() {
        let mut s = PacketNodeSet::new();
        assert!(s.insert((id(2), n(7))));
        assert!(!s.insert((id(2), n(7))), "second insert reports stale");
        assert!(s.insert((id(SPARSE), n(7))));
        assert!(s.contains(&(id(2), n(7))));
        assert!(s.contains(&(id(SPARSE), n(7))));
        assert!(!s.contains(&(id(3), n(7))));
    }

    #[test]
    fn node_map_clear_and_reinsert() {
        let mut m: NodeMap<u32> = NodeMap::new();
        assert!(m.get(n(4)).is_none());
        m.insert(n(4), 44);
        assert_eq!(m.get(n(4)), Some(&44));
        assert_eq!(*m.get_or_insert_with(n(4), || 0), 44);
        assert_eq!(*m.get_or_insert_with(n(6), || 66), 66);
        m.clear();
        assert!(m.get(n(4)).is_none());
        assert!(m.get(n(6)).is_none());
    }
}
