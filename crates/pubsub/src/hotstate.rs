//! Struct-of-arrays containers for per-packet hot state.
//!
//! The router's custody state and its per-subscriber delivery log are
//! keyed by `(PacketId, NodeId)`. With a `BTreeMap` every probe on the hot
//! path (one per arrival, ACK, timer) is a pointer-chasing tree descent
//! comparing 12-byte tuples. Runtime packet ids are dense counters
//! (`0, 1, 2, …`), so the natural layout is an array indexed by packet id
//! whose slots hold the (tiny — one entry per involved broker) per-packet
//! rows, with a spill map for the sparse recovery-packet id space (NACK
//! ids carry the top bit).
//!
//! [`PacketNodeMap`]'s rows hold `(broker, slot)` pairs, not the values:
//! the values sit in a slab of reused slots, so opening or concluding one
//! broker's state shifts 8-byte row entries instead of the neighbouring
//! brokers' values, and a value never moves while it lives.

use crate::packet::PacketId;
use dcrd_net::{NodeId, NodeSet};
use std::collections::{BTreeMap, BTreeSet};

/// Ids below this populate the dense array; ids at or above it (the NACK
/// recovery id space) go to the spill map. Well above any realistic
/// sequential id, well below the tagged `1 << 63` ranges.
const DENSE_LIMIT: u64 = 1 << 32;

/// The dense-array index of `id`, or `None` for the spill range.
#[inline]
pub(crate) fn dense_index(id: PacketId) -> Option<usize> {
    let raw = id.raw();
    (raw < DENSE_LIMIT).then_some(raw as usize)
}

/// One packet's `(broker, slot)` entries, sorted by broker id.
type Row = Vec<(NodeId, u32)>;

/// Moves an emptied row's buffer to the free list. Packet ids are never
/// reused, so a row that emptied (every broker concluded the packet) stays
/// empty; keeping its buffer would retain every packet's peak row for the
/// whole run, and dropping it would make the next packet allocate afresh.
/// A buffer only reaches the list from a live row and only leaves it for a
/// new one, so the list never holds more buffers than the peak number of
/// live rows.
#[inline]
fn recycle_if_empty(row: &mut Row, spare: &mut Vec<Row>) {
    if row.is_empty() && row.capacity() > 0 {
        spare.push(std::mem::take(row));
    }
}

/// Dense row `i`, created if absent. A row without a buffer takes a
/// recycled one first.
#[inline]
fn open_row<'a>(dense: &'a mut Vec<Row>, spare: &mut Vec<Row>, i: usize) -> Option<&'a mut Row> {
    if dense.len() <= i {
        dense.resize_with(i + 1, Vec::new);
    }
    let row = dense.get_mut(i)?;
    if row.capacity() == 0 {
        if let Some(buffer) = spare.pop() {
            *row = buffer;
        }
    }
    Some(row)
}

/// Values in reused slots: a freed slot is handed to the next value, so
/// the slab never holds more slots than the peak number of live values.
/// It holds [`PacketNodeMap`]'s values, and the runtime's packets between
/// their send and their receiver's routing logic.
#[derive(Debug, Clone)]
pub(crate) struct Slab<V> {
    slots: Vec<Option<V>>,
    /// Freed slots, reused most recently freed first.
    free: Vec<u32>,
}

impl<V> Slab<V> {
    pub(crate) const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Stores `value` and returns its slot.
    pub(crate) fn put(&mut self, value: V) -> u32 {
        if let Some(slot) = self.free.pop() {
            if let Some(seat) = self.slots.get_mut(slot as usize) {
                *seat = Some(value);
                return slot;
            }
        }
        self.slots.push(Some(value));
        (self.slots.len() - 1) as u32
    }

    /// Takes the value out of `slot` and frees the slot.
    pub(crate) fn take(&mut self, slot: u32) -> Option<V> {
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&V> {
        self.slots.get(slot as usize)?.as_ref()
    }

    #[inline]
    fn get_mut(&mut self, slot: u32) -> Option<&mut V> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }
}

/// A map keyed by `(packet id, broker)` with a dense packet-id-indexed
/// fast path and slab-resident values.
#[derive(Debug, Clone)]
pub struct PacketNodeMap<V> {
    /// `dense[id][..]` = this packet's `(broker, slot)` entries, sorted by
    /// broker id. Rows are tiny (one entry per involved broker), so a
    /// sorted `Vec` beats any nested map.
    dense: Vec<Row>,
    /// Buffers of emptied rows, handed to the next rows opened.
    spare: Vec<Row>,
    /// Sparse id ranges (NACK recovery ids), also by slot.
    spill: BTreeMap<(PacketId, NodeId), u32>,
    /// Every value, at the slot its key's entry names.
    slab: Slab<V>,
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
            spare: Vec::new(),
            spill: BTreeMap::new(),
            slab: Slab::new(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slab.live()
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot holding `key`'s value, if present.
    #[inline]
    fn slot(&self, key: &(PacketId, NodeId)) -> Option<u32> {
        match dense_index(key.0) {
            Some(i) => {
                let row = self.dense.get(i)?;
                let at = row.binary_search_by_key(&key.1, |&(n, _)| n).ok()?;
                row.get(at).map(|&(_, slot)| slot)
            }
            None => self.spill.get(key).copied(),
        }
    }

    /// The entry for `key`, if present.
    #[inline]
    pub fn get(&self, key: &(PacketId, NodeId)) -> Option<&V> {
        self.slab.get(self.slot(key)?)
    }

    /// The mutable entry for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &(PacketId, NodeId)) -> Option<&mut V> {
        let slot = self.slot(key)?;
        self.slab.get_mut(slot)
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
        let Self {
            dense,
            spare,
            spill,
            slab,
        } = self;
        match dense_index(key.0) {
            Some(i) => {
                // `None` would mean a broken `Vec`, so the degraded path
                // drops the write.
                let row = open_row(dense, spare, i)?;
                match row.binary_search_by_key(&key.1, |&(n, _)| n) {
                    Ok(at) => {
                        let slot = row.get(at)?.1;
                        slab.get_mut(slot).map(|old| std::mem::replace(old, value))
                    }
                    Err(at) => {
                        row.insert(at, (key.1, slab.put(value)));
                        None
                    }
                }
            }
            None => match spill.get(&key) {
                Some(&slot) => slab.get_mut(slot).map(|old| std::mem::replace(old, value)),
                None => {
                    spill.insert(key, slab.put(value));
                    None
                }
            },
        }
    }

    /// Removes and returns the entry for `key`.
    pub fn remove(&mut self, key: &(PacketId, NodeId)) -> Option<V> {
        let slot = match dense_index(key.0) {
            Some(i) => {
                let row = self.dense.get_mut(i)?;
                let at = row.binary_search_by_key(&key.1, |&(n, _)| n).ok()?;
                let (_, slot) = row.remove(at);
                recycle_if_empty(row, &mut self.spare);
                slot
            }
            None => self.spill.remove(key)?,
        };
        self.slab.take(slot)
    }

    /// Keeps only the entries the predicate approves — the crash-wipe
    /// primitive ("drop everything broker X holds").
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut V) -> bool) {
        let Self {
            dense,
            spare,
            spill,
            slab,
        } = self;
        let mut keep_slot = |node: NodeId, slot: u32| {
            let kept = slab.get_mut(slot).is_some_and(|value| keep(node, value));
            if !kept {
                slab.take(slot);
            }
            kept
        };
        for row in dense.iter_mut() {
            row.retain(|&(node, slot)| keep_slot(node, slot));
            recycle_if_empty(row, spare);
        }
        spill.retain(|&(_, node), &mut slot| keep_slot(node, slot));
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

    /// Every value, in node order, for the caller to refill in place.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().filter_map(Option::as_mut)
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
    /// retained one peak-sized row per packet ever published. Rows now hold
    /// `(broker, slot)` pairs and the values sit in a slab whose freed slots
    /// are reused, and an emptied row's buffer goes to a free list the next
    /// new row takes from, so the footprint is bounded by the peak of live
    /// entries and rows rather than by the packets ever seen.
    #[test]
    fn emptied_rows_release_their_buffers() {
        let row_capacity =
            |m: &PacketNodeMap<[u64; 8]>| m.dense.iter().map(Vec::capacity).sum::<usize>();
        let mut m: PacketNodeMap<[u64; 8]> = PacketNodeMap::new();
        // 1000 packets, each held by three brokers and then concluded —
        // two by `remove`, one by a crash wipe — while a few stay live.
        let mut peak = 0;
        let mut peak_rows = 0;
        for raw in 0..1000 {
            for node in 0..3 {
                m.insert((id(raw), n(node)), [raw; 8]);
            }
            peak = peak.max(m.len());
            peak_rows = peak_rows.max(m.dense.iter().filter(|r| !r.is_empty()).count());
            if raw % 250 == 0 {
                continue;
            }
            assert_eq!(m.remove(&(id(raw), n(1))), Some([raw; 8]));
            assert_eq!(m.remove(&(id(raw), n(0))), Some([raw; 8]));
            m.retain(|node, v| node != n(2) || v[0] % 250 == 0);
            let live_rows = m.dense.iter().filter(|r| !r.is_empty()).count();
            assert!(
                m.spare.len() + live_rows <= peak_rows,
                "{} spare buffers beside {live_rows} live rows, peak {peak_rows}",
                m.spare.len()
            );
        }
        assert_eq!(m.len(), 4 * 3);
        assert!(
            row_capacity(&m) <= 4 * 8,
            "only the four live rows may hold a buffer, got {} entries of capacity",
            row_capacity(&m)
        );
        // The twelve kept entries plus one packet's three in flight.
        assert_eq!(peak, 15);
        assert_eq!(m.slab.slots.len(), peak, "the slab grew past the peak");
        // One buffer circulates: every concluded packet handed its row's
        // buffer to the next one.
        assert_eq!(peak_rows, 5);
        assert_eq!(m.spare.len(), 1);
        // A released row is still a usable row; it takes the recycled
        // buffer and fills a freed slot.
        assert_eq!(m.insert((id(1), n(5)), [7; 8]), None);
        assert_eq!(m.get(&(id(1), n(5))), Some(&[7; 8]));
        assert!(m.spare.is_empty());
        assert_eq!(m.slab.slots.len(), peak);
        assert_eq!(m.len(), 13);
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
        m.insert(n(6), 66);
        m.clear();
        assert!(m.get(n(4)).is_none());
        assert!(m.get(n(6)).is_none());
    }

    #[test]
    fn node_map_values_mut_visits_each_value_in_node_order() {
        let mut m: NodeMap<u32> = NodeMap::new();
        for i in [5, 1, 3] {
            m.insert(n(i), i * 10);
        }
        let mut seen = Vec::new();
        for v in m.values_mut() {
            seen.push(*v);
            *v += 1;
        }
        assert_eq!(seen, vec![10, 30, 50]);
        assert_eq!((m.get(n(1)), m.get(n(5))), (Some(&11), Some(&51)));
        assert!(m.get(n(2)).is_none());
    }
}
