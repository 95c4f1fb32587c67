//! The overlay packet.
//!
//! Per the paper (§III-D), each packet carries **both** the set of
//! destination subscribers it is currently responsible for and the record of
//! brokers that have been on its routing path. The path record serves two
//! purposes: loop avoidance (a broker never forwards to a broker already on
//! the path) and upstream rerouting (a broker that exhausts its sending list
//! reads its upstream hop out of the packet instead of keeping per-packet
//! state).
//!
//! # Hot-path layout
//!
//! Forwarding fans one packet out into many per-hop copies, so [`Packet`]
//! splits into an [`Arc`]-shared immutable [`PacketBody`] (message identity
//! and kind — identical across every copy) and a small mutable per-copy
//! header (destinations, path record, route, tag). [`Packet::forward`]
//! bumps the body's refcount instead of cloning a NACK's sequence list, and
//! a pinned route is an `Arc<[_]>` shared the same way.
//!
//! The destinations are a [`NodeList`] and the path a [`PathRecord`], both
//! holding 8 ids inline, so **a forwarded copy allocates nothing** while it
//! carries at most [`NodeList::INLINE`] destinations and has visited at
//! most [`PathRecord::INLINE`] brokers; the same holds for cloning it (the
//! router's pending record, the custody journal's entry) and dropping it.
//! A longer path is shared: its first hops sit in an `Arc<[NodeId]>` prefix
//! every copy forwarded from it points at, and only the last few hops are
//! per-copy, so cloning a copy with a long path bumps a refcount and
//! forwarding it allocates once per [`PathRecord::TAIL`] hops. The whole
//! copy is 112 bytes, under two cache lines, which is what every hop moves:
//! into the action sink, into the runtime's parked-packet slab, and out
//! again.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use dcrd_net::{NodeId, NodeList};
use dcrd_sim::SimTime;

use crate::topic::TopicId;

/// Identifier of a published message. Every copy/retransmission of the same
/// logical message shares one `PacketId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet id from a raw counter value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// What a packet is: application data or recovery control traffic.
///
/// NACKs travel through the same overlay links as data (they are packets
/// too — subject to loss, blocking and hop-by-hop ACKs), but strategies
/// route them toward the publisher instead of down the sending lists, and
/// the runtime never creates delivery expectations for them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PacketKind {
    /// A copy of a published message.
    #[default]
    Data,
    /// A subscriber-side negative acknowledgement: `subscriber` detected
    /// that the listed per-(topic, publisher) sequence numbers never
    /// arrived and asks the nearest upstream custodian to re-send them.
    Nack {
        /// The subscriber requesting recovery.
        subscriber: NodeId,
        /// The missing sequence numbers, ascending.
        missing: Vec<u64>,
    },
}

/// The immutable identity of a published message, shared by every in-flight
/// copy via [`Arc`]. Forwarding a packet clones the header around this body
/// without touching it.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketBody {
    /// The logical message this copy belongs to.
    pub id: PacketId,
    /// Topic the message was published on.
    pub topic: TopicId,
    /// The publishing broker.
    pub publisher: NodeId,
    /// When the message was published.
    pub published_at: SimTime,
    /// Per-(topic, publisher) publish sequence number (the publish round):
    /// the k-th message a publisher emits on a topic carries `seq = k`.
    /// Subscribers use it for gap detection and replay deduplication.
    pub seq: u64,
    /// Data or recovery control (see [`PacketKind`]). Every copy of a
    /// message is the same kind, and every copy of a NACK asks for the same
    /// sequence numbers, so the kind is shared with the rest of the body.
    pub kind: PacketKind,
}

impl PacketBody {
    fn new(
        id: PacketId,
        topic: TopicId,
        publisher: NodeId,
        published_at: SimTime,
        seq: u64,
        kind: PacketKind,
    ) -> Self {
        PacketBody {
            id,
            topic,
            publisher,
            published_at,
            seq,
            kind,
        }
    }
}

/// Brokers a [`PathRecord`] holds inline before it spills.
const INLINE: usize = 8;

/// Hops a spilled [`PathRecord`] holds inline after its shared prefix.
const TAIL: usize = 4;

#[derive(Clone)]
enum Hops {
    /// `buf[..len]` is the whole path.
    Inline { len: u8, buf: [NodeId; INLINE] },
    /// `prefix` then `tail[..len]`. The prefix is frozen and shared by
    /// every copy forwarded from this one; only the tail is per-copy.
    Spilled {
        prefix: Arc<[NodeId]>,
        len: u8,
        tail: [NodeId; TAIL],
    },
}

/// A packet's routing-path record: the brokers that have carried this copy,
/// in order (revisits re-append, consecutive duplicates collapse).
///
/// Up to [`PathRecord::INLINE`] brokers live inline. Past that the record
/// keeps a frozen `Arc<[NodeId]>` prefix plus an inline tail of up to
/// [`PathRecord::TAIL`] hops; a hop that finds the tail full freezes prefix
/// and tail into a new prefix. So cloning a copy only bumps a refcount, and
/// forwarding allocates once per `TAIL` hops past the first `INLINE`.
///
/// Membership — the router's loop-avoidance check — scans the list. A path
/// is a handful of brokers, so the scan reads a cache line or two; a bitset
/// shadow beside it cost more bytes per copy than the scan costs time.
/// Equality, `Debug` and iteration see the hop sequence only, never where
/// the hops are stored.
#[derive(Clone)]
pub struct PathRecord {
    hops: Hops,
}

impl PathRecord {
    /// Brokers held without a heap allocation.
    pub const INLINE: usize = INLINE;

    /// Hops a spilled record appends before its next allocation.
    pub const TAIL: usize = TAIL;

    /// An empty path.
    #[must_use]
    pub const fn new() -> Self {
        PathRecord {
            hops: Hops::Inline {
                len: 0,
                buf: [NodeId::new(0); INLINE],
            },
        }
    }

    /// The path as its stored prefix and tail, in order.
    #[inline]
    fn parts(&self) -> (&[NodeId], &[NodeId]) {
        match &self.hops {
            Hops::Inline { len, buf } => (buf.get(..usize::from(*len)).unwrap_or(buf), &[]),
            Hops::Spilled { prefix, len, tail } => {
                (prefix, tail.get(..usize::from(*len)).unwrap_or(tail))
            }
        }
    }

    /// Appends `node` unconditionally. Allocates only when the inline
    /// buffer or the tail is full: the stored hops are frozen into one new
    /// shared prefix, and `node` starts the tail.
    fn append(&mut self, node: NodeId) {
        match &mut self.hops {
            Hops::Inline { len, buf } => {
                if let Some(slot) = buf.get_mut(usize::from(*len)) {
                    *slot = node;
                    *len += 1;
                } else {
                    self.hops = Hops::Spilled {
                        prefix: Arc::from(buf.as_slice()),
                        len: 1,
                        tail: [node; TAIL],
                    };
                }
            }
            Hops::Spilled { prefix, len, tail } => {
                if let Some(slot) = tail.get_mut(usize::from(*len)) {
                    *slot = node;
                    *len += 1;
                } else {
                    // Slice iterators chained are `TrustedLen`, so this
                    // collects into one exact allocation.
                    *prefix = prefix.iter().chain(tail.iter()).copied().collect();
                    *len = 1;
                    *tail = [node; TAIL];
                }
            }
        }
    }

    /// A copy of this path with `node` appended (see [`push`](Self::push)).
    /// A spilled prefix is shared with `self`, not copied.
    fn with_hop(&self, node: NodeId) -> Self {
        let mut path = self.clone();
        path.push(node);
        path
    }

    /// Appends `node`, collapsing a consecutive duplicate (forwarding twice
    /// in a row from one broker keeps a single entry).
    pub fn push(&mut self, node: NodeId) {
        if self.last() != Some(node) {
            self.append(node);
        }
    }

    /// Whether `node` appears anywhere on the path. A scan of the list.
    #[inline]
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let (prefix, tail) = self.parts();
        tail.contains(&node) || prefix.contains(&node)
    }

    /// Appends every node of `other` not already on this path, preserving
    /// `other`'s order.
    pub fn merge(&mut self, other: &PathRecord) {
        for &node in other {
            if !self.contains(node) {
                self.append(node);
            }
        }
    }

    /// The `i`-th path entry, if the path has that many.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Option<NodeId> {
        let (prefix, tail) = self.parts();
        match i.checked_sub(prefix.len()) {
            None => prefix.get(i).copied(),
            Some(j) => tail.get(j).copied(),
        }
    }

    /// Iterates the ordered node list.
    pub fn iter(&self) -> Iter<'_> {
        let (prefix, tail) = self.parts();
        prefix.iter().chain(tail)
    }

    /// The most recent path entry (the broker that physically sent this
    /// copy).
    #[must_use]
    pub fn last(&self) -> Option<NodeId> {
        let (prefix, tail) = self.parts();
        tail.last().or(prefix.last()).copied()
    }

    /// Number of path entries (counting revisits).
    #[must_use]
    pub fn len(&self) -> usize {
        let (prefix, tail) = self.parts();
        prefix.len() + tail.len()
    }

    /// Whether the path has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the record, releasing its share of any spilled prefix.
    pub fn clear(&mut self) {
        *self = PathRecord::new();
    }
}

/// The iterator of [`PathRecord::iter`]: the shared prefix, then the tail.
pub type Iter<'a> = std::iter::Chain<std::slice::Iter<'a, NodeId>, std::slice::Iter<'a, NodeId>>;

impl Default for PathRecord {
    fn default() -> Self {
        PathRecord::new()
    }
}

impl fmt::Debug for PathRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for PathRecord {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl Eq for PathRecord {}

impl PartialEq<Vec<NodeId>> for PathRecord {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        *self == **other
    }
}

impl PartialEq<[NodeId]> for PathRecord {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

/// Builds the record from an ordered node list **verbatim** (duplicates and
/// all — wire decode must round-trip exactly).
impl From<Vec<NodeId>> for PathRecord {
    fn from(nodes: Vec<NodeId>) -> Self {
        if nodes.len() > INLINE {
            return PathRecord {
                hops: Hops::Spilled {
                    prefix: nodes.into(),
                    len: 0,
                    tail: [NodeId::new(0); TAIL],
                },
            };
        }
        let mut path = PathRecord::new();
        for node in nodes {
            path.append(node);
        }
        path
    }
}

impl From<PathRecord> for Vec<NodeId> {
    fn from(path: PathRecord) -> Self {
        path.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a PathRecord {
    type Item = &'a NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One in-flight copy of a published message: a shared [`PacketBody`] plus
/// this copy's mutable routing header.
///
/// The runtime treats most of this as opaque strategy state; it only uses
/// `id` (for the delivery log) and the `tag` echoed back in ACKs. The body
/// fields read through [`Deref`], so `packet.id`, `packet.kind` etc. work as
/// if they were inline; changing the body goes through dedicated methods
/// ([`Packet::with_seq`], [`Packet::with_kind`]) since it may be shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// The shared immutable message identity and kind.
    pub body: Arc<PacketBody>,
    /// Subscribers this copy is responsible for reaching.
    pub destinations: NodeList,
    /// Brokers that have been on this copy's routing path, in order.
    pub path: PathRecord,
    /// Optional pinned source route (used by Multipath), shared by every
    /// copy that follows it; `None` for strategies that pick hops
    /// dynamically.
    pub route: Option<Arc<[NodeId]>>,
    /// Strategy-private cookie echoed back in ACKs (e.g. a send sequence
    /// number); opaque to the runtime.
    pub tag: u64,
}

impl Deref for Packet {
    type Target = PacketBody;

    #[inline]
    fn deref(&self) -> &PacketBody {
        &self.body
    }
}

impl Packet {
    /// Creates a fresh packet for a newly published message.
    #[must_use]
    pub fn new(
        id: PacketId,
        topic: TopicId,
        publisher: NodeId,
        published_at: SimTime,
        destinations: impl Into<NodeList>,
    ) -> Self {
        Packet::from_body(
            PacketBody::new(id, topic, publisher, published_at, 0, PacketKind::Data),
            destinations,
        )
    }

    /// A fresh copy of `body` addressed to `destinations`, with an empty
    /// path, no route and tag 0.
    fn from_body(body: PacketBody, destinations: impl Into<NodeList>) -> Self {
        Packet {
            body: Arc::new(body),
            destinations: destinations.into(),
            path: PathRecord::new(),
            route: None,
            tag: 0,
        }
    }

    /// Sets the publish sequence number (builder style). Copies the body
    /// only if it is already shared (it never is on a fresh packet).
    #[must_use]
    pub fn with_seq(mut self, seq: u64) -> Self {
        Arc::make_mut(&mut self.body).seq = seq;
        self
    }

    /// This copy with its kind replaced (builder style), e.g. a relayed
    /// NACK asking for fewer sequence numbers than it arrived with. The
    /// body may be shared, so the copy gets a fresh one holding the same
    /// message identity: one allocation, and the old kind is never cloned.
    #[must_use]
    pub fn with_kind(mut self, kind: PacketKind) -> Self {
        let b = &self.body;
        let body = PacketBody::new(b.id, b.topic, b.publisher, b.published_at, b.seq, kind);
        self.body = Arc::new(body);
        self
    }

    /// Creates a NACK asking the custodians of `(topic, publisher)` to
    /// re-send the `missing` sequence numbers to `subscriber`. The single
    /// destination is the publisher (the NACK's ultimate terminus); brokers
    /// relay it hop-by-hop toward that destination.
    #[must_use]
    pub fn nack(
        id: PacketId,
        topic: TopicId,
        publisher: NodeId,
        now: SimTime,
        subscriber: NodeId,
        missing: Vec<u64>,
    ) -> Self {
        let kind = PacketKind::Nack {
            subscriber,
            missing,
        };
        Packet::from_body(
            PacketBody::new(id, topic, publisher, now, 0, kind),
            NodeList::from_slice(&[publisher]),
        )
    }

    /// What a sender learns from a hop-by-hop ACK: the acknowledged copy's
    /// shared body (message identity and kind) and the `tag` it was sent
    /// with. An ACK does not echo the routing header — the view's
    /// destinations, path and route are empty whatever the acknowledged
    /// copy carried — so building one allocates nothing.
    #[must_use]
    pub fn ack_view(body: Arc<PacketBody>, tag: u64) -> Self {
        Packet {
            body,
            destinations: NodeList::new(),
            path: PathRecord::new(),
            route: None,
            tag,
        }
    }

    /// Whether this packet is recovery control traffic.
    #[must_use]
    pub fn is_nack(&self) -> bool {
        matches!(self.kind, PacketKind::Nack { .. })
    }

    /// Whether `node` has already been on this copy's routing path.
    #[inline]
    #[must_use]
    pub fn visited(&self, node: NodeId) -> bool {
        self.path.contains(node)
    }

    /// A derived copy responsible for `destinations`, with `node` appended
    /// to the routing path — the packet a broker actually puts on the wire
    /// (§III-D, Algorithm 2 lines 20–21).
    ///
    /// The node is appended even when it already appears earlier (a packet
    /// rerouted back upstream revisits brokers): the *last* entry must
    /// always be the broker that physically sent this copy, which is what
    /// receivers read their upstream hop from, while loop avoidance only
    /// needs set membership. Consecutive duplicates are collapsed.
    ///
    /// Zero-copy: the body, the route and a spilled path's prefix are
    /// shared, not cloned, and the header lists stay inline up to
    /// [`NodeList::INLINE`] entries.
    #[must_use]
    pub fn forward(&self, node: NodeId, destinations: impl Into<NodeList>, tag: u64) -> Packet {
        Packet {
            body: Arc::clone(&self.body),
            destinations: destinations.into(),
            path: self.path.with_hop(node),
            route: self.route.clone(),
            tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Packet {
        Packet::new(
            PacketId::new(1),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![NodeId::new(5), NodeId::new(6)],
        )
    }

    #[test]
    fn fresh_packet_has_no_history() {
        let p = base();
        assert!(p.path.is_empty());
        assert!(!p.visited(NodeId::new(0)));
        assert_eq!(p.id.raw(), 1);
        assert_eq!(p.id.to_string(), "pkt1");
    }

    #[test]
    fn forward_appends_to_path() {
        let p = base();
        let f = p.forward(NodeId::new(0), vec![NodeId::new(5)], 7);
        assert_eq!(f.path, vec![NodeId::new(0)]);
        assert_eq!(f.tag, 7);
        assert_eq!(f.destinations, vec![NodeId::new(5)]);
        // Forwarding twice in a row from the same node collapses the entry.
        let f2 = f.forward(NodeId::new(0), vec![NodeId::new(6)], 8);
        assert_eq!(f2.path, vec![NodeId::new(0)]);
    }

    #[test]
    fn forward_shares_one_body() {
        let p = base();
        let f = p.forward(NodeId::new(0), vec![NodeId::new(5)], 7);
        assert!(
            Arc::ptr_eq(&p.body, &f.body),
            "forward must share the body, not clone it"
        );
        let f2 = f.forward(NodeId::new(1), vec![NodeId::new(5)], 8);
        assert!(Arc::ptr_eq(&p.body, &f2.body));
    }

    #[test]
    fn forward_reappends_on_revisit() {
        // 0 → 1 → back to 0 → 3: after the detour, 0 re-appends itself so
        // node 3 sees its physical sender (0) as the last path entry.
        let p = base();
        let at1 = p.forward(NodeId::new(0), vec![NodeId::new(5)], 0).forward(
            NodeId::new(1),
            vec![NodeId::new(5)],
            0,
        );
        let back_at0 = at1.forward(NodeId::new(0), vec![NodeId::new(5)], 0);
        assert_eq!(
            back_at0.path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(0)]
        );
        assert_eq!(back_at0.path.last(), Some(NodeId::new(0)));
    }

    #[test]
    fn return_trip_keeps_the_whole_path() {
        // 0 → 1 → 2, then 2 returns the packet to 1.
        let mut p = base();
        p.path = vec![NodeId::new(0), NodeId::new(1)].into();
        let at2 = p.forward(NodeId::new(2), vec![NodeId::new(5)], 0);
        assert_eq!(
            at2.path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        let back_at1 = at2.forward(NodeId::new(1), vec![NodeId::new(5)], 0);
        assert_eq!(
            back_at1.path,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(1)
            ]
        );
        // Loop avoidance still sees 2 on the path.
        assert!(back_at1.visited(NodeId::new(2)));
    }

    #[test]
    fn path_record_round_trips_verbatim() {
        // Wire decode goes Vec → PathRecord → Vec and must be the identity,
        // including duplicates (revisits) and consecutive duplicates.
        let raw = vec![
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            NodeId::new(70),
        ];
        let rec: PathRecord = raw.clone().into();
        assert_eq!(Vec::<NodeId>::from(rec.clone()), raw);
        assert!(rec.contains(NodeId::new(70)));
        assert!(rec.contains(NodeId::new(1)));
        assert!(!rec.contains(NodeId::new(2)));
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn path_record_clear_resets_membership() {
        let mut rec: PathRecord = vec![NodeId::new(3), NodeId::new(9)].into();
        rec.clear();
        assert!(rec.is_empty());
        assert!(!rec.contains(NodeId::new(3)));
        rec.push(NodeId::new(9));
        assert_eq!(rec, vec![NodeId::new(9)]);
    }

    #[test]
    fn path_record_merge_appends_only_novel_nodes() {
        let mut into: PathRecord = vec![NodeId::new(0), NodeId::new(1)].into();
        let from: PathRecord = vec![NodeId::new(1), NodeId::new(2), NodeId::new(0)].into();
        into.merge(&from);
        assert_eq!(into, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        // Merging again is a no-op.
        into.merge(&from);
        assert_eq!(into.len(), 3);
    }

    #[test]
    fn seq_and_kind_survive_forwarding() {
        let p = base().with_seq(17);
        assert_eq!(p.seq, 17);
        assert_eq!(p.kind, PacketKind::Data);
        assert!(!p.is_nack());
        let f = p.forward(NodeId::new(0), vec![NodeId::new(5)], 3);
        assert_eq!(f.seq, 17);
        assert_eq!(f.kind, PacketKind::Data);
    }

    #[test]
    fn nack_targets_the_publisher() {
        let n = Packet::nack(
            PacketId::new(9),
            TopicId::new(2),
            NodeId::new(4),
            SimTime::from_millis(50),
            NodeId::new(7),
            vec![3, 5],
        );
        assert!(n.is_nack());
        assert_eq!(n.destinations, vec![NodeId::new(4)]);
        let PacketKind::Nack {
            subscriber,
            ref missing,
        } = n.kind
        else {
            panic!("nack kind expected");
        };
        assert_eq!(subscriber, NodeId::new(7));
        assert_eq!(missing, &vec![3, 5]);
        // NACKs forward like any packet, sharing their kind with the body.
        let f = n.forward(NodeId::new(7), vec![NodeId::new(4)], 0);
        assert!(f.is_nack());
        assert!(Arc::ptr_eq(&n.body, &f.body));
        // A relay asking for less gets its own body; the rest is kept.
        let narrowed = f.clone().with_kind(PacketKind::Nack {
            subscriber: NodeId::new(7),
            missing: vec![5],
        });
        assert!(!Arc::ptr_eq(&f.body, &narrowed.body));
        assert_eq!(
            narrowed.kind,
            PacketKind::Nack {
                subscriber: NodeId::new(7),
                missing: vec![5],
            }
        );
        assert_eq!((narrowed.id, narrowed.topic), (f.id, f.topic));
        assert_eq!((narrowed.publisher, narrowed.seq), (f.publisher, f.seq));
        assert_eq!(narrowed.published_at, f.published_at);
        assert_eq!(
            (&narrowed.destinations, &narrowed.path),
            (&f.destinations, &f.path)
        );
        assert_eq!(narrowed.tag, f.tag);
        assert_eq!(n.kind, f.kind, "the relayed copy's source is untouched");
    }

    /// `push`, `merge`, `contains`, `get`, `iter` and the verbatim list,
    /// applied in lock-step to a record and to a `Vec` + `BTreeSet`
    /// reference, on paths well past the record's inline capacity: every
    /// case that grows past 8 entries crosses the inline → shared switch,
    /// and every 4 entries after that freeze the tail into a new prefix.
    #[test]
    fn path_record_matches_a_set_reference() {
        use dcrd_sim::rng::rng_for;
        use std::collections::BTreeSet;

        let mut rng = rng_for(7, "path-record");
        let mut longest = 0;
        for case in 0..200 {
            // Few distinct ids, so revisits and consecutive repeats are common.
            let ids = rng.gen_range(2..24u32);
            let mut rec = PathRecord::new();
            let mut list: Vec<NodeId> = Vec::new();
            let mut set: BTreeSet<NodeId> = BTreeSet::new();
            for _ in 0..rng.gen_range(0..40) {
                match rng.gen_range(0..10u32) {
                    0 | 1 => {
                        let other: Vec<NodeId> = (0..rng.gen_range(0..12))
                            .map(|_| NodeId::new(rng.gen_range(0..ids)))
                            .collect();
                        rec.merge(&other.clone().into());
                        for node in other {
                            if set.insert(node) {
                                list.push(node);
                            }
                        }
                    }
                    // A record rebuilt from its wire list stores a long path
                    // as one prefix with an empty tail.
                    2 => rec = Vec::from(rec.clone()).into(),
                    _ => {
                        let node = NodeId::new(rng.gen_range(0..ids));
                        rec.push(node);
                        if list.last() != Some(&node) {
                            list.push(node);
                        }
                        set.insert(node);
                    }
                }
                assert_eq!(rec, list, "case {case}");
                assert_eq!(rec.len(), list.len());
                assert_eq!(rec.last(), list.last().copied());
                assert!(rec.iter().eq(&list), "case {case}");
                for i in 0..=list.len() {
                    assert_eq!(rec.get(i), list.get(i).copied(), "case {case}: get({i})");
                }
                for i in 0..=ids {
                    let node = NodeId::new(i);
                    assert_eq!(
                        rec.contains(node),
                        set.contains(&node),
                        "case {case}: {node}"
                    );
                }
            }
            longest = longest.max(list.len());
            assert_eq!(Vec::<NodeId>::from(rec.clone()), list);
            let hop = NodeId::new(ids + 1);
            let forwarded = rec.with_hop(hop);
            assert_eq!(forwarded.len(), list.len() + 1);
            assert_eq!(forwarded.last(), Some(hop));
            assert!(forwarded.contains(hop) && !rec.contains(hop));
            assert_eq!(rec, list, "forwarding leaves the source intact");
        }
        assert!(
            longest > PathRecord::INLINE + 4 * PathRecord::TAIL,
            "longest path {longest}"
        );
    }

    /// Two clones of one spilled record share its prefix; extending each
    /// with a different hop — inside the shared tail and across a freeze —
    /// must leave the other, and the source, untouched.
    #[test]
    fn clones_of_a_spilled_path_diverge() {
        let ids = |range: std::ops::Range<u32>| range.map(NodeId::new).collect::<Vec<_>>();
        for len in [PathRecord::INLINE, 9, 10, 12, 13, 20] {
            let source: PathRecord = ids(0..len as u32).into();
            let mut spilled = PathRecord::new();
            for node in ids(0..len as u32) {
                spilled.push(node);
            }
            for base in [source, spilled] {
                let mut left = base.clone();
                let mut right = base.clone();
                left.push(NodeId::new(100));
                right.push(NodeId::new(200));
                right.push(NodeId::new(201));
                let mut want = ids(0..len as u32);
                assert_eq!(base, want, "len {len}");
                want.push(NodeId::new(100));
                assert_eq!(left, want, "len {len}");
                assert!(!left.contains(NodeId::new(200)));
                want.pop();
                want.extend([NodeId::new(200), NodeId::new(201)]);
                assert_eq!(right, want, "len {len}");
                assert!(!right.contains(NodeId::new(100)));
                assert!(!base.contains(NodeId::new(100)) && !base.contains(NodeId::new(200)));
                // A forwarded copy diverges the same way.
                let f = base.with_hop(NodeId::new(300));
                assert_eq!(f.len(), len + 1);
                assert!(!left.contains(NodeId::new(300)) && !base.contains(NodeId::new(300)));
            }
        }
    }

    #[test]
    fn visited_checks_path_membership() {
        let mut p = base();
        p.path = vec![NodeId::new(3)].into();
        assert!(p.visited(NodeId::new(3)));
        assert!(!p.visited(NodeId::new(4)));
    }
}
