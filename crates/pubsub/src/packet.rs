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
//! and payload — identical across every copy) and a small mutable per-copy
//! header (destinations, path record, route, tag). [`Packet::forward`]
//! bumps the body's refcount instead of cloning the payload, and the
//! [`PathRecord`] keeps a bitset shadow of its nodes so loop checks are
//! O(1) instead of a linear scan.
//!
//! Both header lists are [`NodeList`]s and the shadow is a [`NodeSet`], so
//! **a forwarded copy allocates nothing** while it carries at most
//! [`NodeList::INLINE`] destinations, has visited at most that many
//! brokers, and the overlay's node ids fit the set's inline words; the
//! same holds for cloning it (the router's pending record) and dropping it.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use dcrd_net::{NodeId, NodeList, NodeSet};
use dcrd_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::topic::TopicId;

/// Identifier of a published message. Every copy/retransmission of the same
/// logical message shares one `PacketId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
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
/// without touching the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    #[serde(default)]
    pub seq: u64,
    /// Application payload.
    #[serde(skip)]
    pub payload: Bytes,
}

impl PacketBody {
    /// Assembles a body from its parts (codec decode, tests).
    #[must_use]
    pub fn new(
        id: PacketId,
        topic: TopicId,
        publisher: NodeId,
        published_at: SimTime,
        seq: u64,
        payload: Bytes,
    ) -> Self {
        PacketBody {
            id,
            topic,
            publisher,
            published_at,
            seq,
            payload,
        }
    }
}

/// A packet's routing-path record: the brokers that have carried this copy,
/// in order (revisits re-append, consecutive duplicates collapse), shadowed
/// by a [`NodeSet`] so membership queries — the router's loop-avoidance
/// check — are O(1).
///
/// Serializes as the plain ordered node list; the bitset is rebuilt on
/// deserialization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<NodeId>", into = "Vec<NodeId>")]
pub struct PathRecord {
    nodes: NodeList,
    seen: NodeSet,
}

impl PathRecord {
    /// An empty path.
    #[must_use]
    pub const fn new() -> Self {
        PathRecord {
            nodes: NodeList::new(),
            seen: NodeSet::new(),
        }
    }

    /// A copy of this path with `node` appended (see [`push`](Self::push)),
    /// built with room for the extra hop so the copy is never followed by a
    /// regrow.
    fn with_hop(&self, node: NodeId) -> Self {
        let mut nodes = NodeList::with_capacity(self.nodes.len() + 1);
        nodes.extend_from_slice(&self.nodes);
        let mut path = PathRecord {
            nodes,
            seen: self.seen.clone(),
        };
        path.push(node);
        path
    }

    /// Appends `node`, collapsing a consecutive duplicate (forwarding twice
    /// in a row from one broker keeps a single entry).
    pub fn push(&mut self, node: NodeId) {
        if self.nodes.last() != Some(&node) {
            self.nodes.push(node);
        }
        self.seen.insert(node);
    }

    /// Whether `node` appears anywhere on the path. O(1).
    #[inline]
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.seen.contains(node)
    }

    /// Appends every node of `other` not already on this path, preserving
    /// `other`'s order. Linear in `other` thanks to the bitset shadow.
    pub fn merge(&mut self, other: &PathRecord) {
        for &node in &other.nodes {
            if self.seen.insert(node) {
                self.nodes.push(node);
            }
        }
    }

    /// The ordered node list.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterates the ordered node list.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.nodes.iter()
    }

    /// The most recent path entry (the broker that physically sent this
    /// copy).
    #[must_use]
    pub fn last(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Number of path entries (counting revisits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the path has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Empties the record, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.seen.clear();
    }
}

/// Path equality is the ordered node list; the bitset shadow is derived.
impl PartialEq for PathRecord {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl Eq for PathRecord {}

impl PartialEq<Vec<NodeId>> for PathRecord {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self.nodes == *other
    }
}

impl PartialEq<[NodeId]> for PathRecord {
    fn eq(&self, other: &[NodeId]) -> bool {
        self.nodes == *other
    }
}

/// Builds the record from an ordered node list **verbatim** (duplicates and
/// all — wire decode must round-trip exactly).
impl From<Vec<NodeId>> for PathRecord {
    fn from(nodes: Vec<NodeId>) -> Self {
        let seen = nodes.iter().copied().collect();
        PathRecord {
            nodes: nodes.into(),
            seen,
        }
    }
}

impl From<PathRecord> for Vec<NodeId> {
    fn from(path: PathRecord) -> Self {
        path.nodes.into()
    }
}

impl<'a> IntoIterator for &'a PathRecord {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter()
    }
}

/// One in-flight copy of a published message: a shared [`PacketBody`] plus
/// this copy's mutable routing header.
///
/// The runtime treats most of this as opaque strategy state; it only uses
/// `id` (for the delivery log) and the `tag` echoed back in ACKs. The body
/// fields read through [`Deref`], so `packet.id`, `packet.seq` etc. work as
/// if they were inline; mutating the body goes through dedicated methods
/// ([`Packet::with_seq`]) since it may be shared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// The shared immutable message identity + payload.
    pub body: Arc<PacketBody>,
    /// Data or recovery control (see [`PacketKind`]).
    #[serde(default)]
    pub kind: PacketKind,
    /// Subscribers this copy is responsible for reaching.
    pub destinations: NodeList,
    /// Brokers that have been on this copy's routing path, in order.
    pub path: PathRecord,
    /// Optional pinned source route (used by Multipath and tree baselines);
    /// `None` for strategies that pick hops dynamically.
    pub route: Option<Vec<NodeId>>,
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
        Packet {
            body: Arc::new(PacketBody::new(
                id,
                topic,
                publisher,
                published_at,
                0,
                Bytes::new(),
            )),
            kind: PacketKind::Data,
            destinations: destinations.into(),
            path: PathRecord::new(),
            route: None,
            tag: 0,
        }
    }

    /// Assembles a packet around an existing body (codec decode, tests).
    #[must_use]
    pub fn from_body(
        body: PacketBody,
        kind: PacketKind,
        destinations: impl Into<NodeList>,
        path: PathRecord,
        route: Option<Vec<NodeId>>,
        tag: u64,
    ) -> Self {
        Packet {
            body: Arc::new(body),
            kind,
            destinations: destinations.into(),
            path,
            route,
            tag,
        }
    }

    /// Sets the publish sequence number (builder style). Copies the body
    /// only if it is already shared (it never is on a fresh packet).
    #[must_use]
    pub fn with_seq(mut self, seq: u64) -> Self {
        Arc::make_mut(&mut self.body).seq = seq;
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
        Packet {
            body: Arc::new(PacketBody::new(id, topic, publisher, now, 0, Bytes::new())),
            kind: PacketKind::Nack {
                subscriber,
                missing,
            },
            destinations: NodeList::from_slice(&[publisher]),
            path: PathRecord::new(),
            route: None,
            tag: 0,
        }
    }

    /// What a sender learns from a hop-by-hop ACK: the acknowledged copy's
    /// message identity (the shared body) and the `tag` it was sent with.
    /// An ACK does not echo the routing header — the view's kind is
    /// [`PacketKind::Data`] and its destinations, path and route are empty
    /// whatever the acknowledged copy carried — so building one allocates
    /// nothing.
    #[must_use]
    pub fn ack_view(body: Arc<PacketBody>, tag: u64) -> Self {
        Packet {
            body,
            kind: PacketKind::Data,
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

    /// Whether `node` has already been on this copy's routing path. O(1).
    #[inline]
    #[must_use]
    pub fn visited(&self, node: NodeId) -> bool {
        self.path.contains(node)
    }

    /// The upstream hop of `node` for this packet: the entry immediately
    /// before `node`'s first occurrence on the path, or the last path entry
    /// when `node` has not been on the path yet. `None` when the path is
    /// empty (i.e. `node` is the publisher holding a fresh packet) or when
    /// `node` opens the path.
    #[must_use]
    pub fn upstream_of(&self, node: NodeId) -> Option<NodeId> {
        let path = self.path.as_slice();
        if !self.path.contains(node) {
            return path.last().copied();
        }
        let first = path.iter().position(|&n| n == node)?;
        path.get(first.checked_sub(1)?).copied()
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
    /// Zero-copy: the payload-bearing body is shared, not cloned, and the
    /// header lists stay inline up to [`NodeList::INLINE`] entries.
    #[must_use]
    pub fn forward(&self, node: NodeId, destinations: impl Into<NodeList>, tag: u64) -> Packet {
        Packet {
            body: Arc::clone(&self.body),
            kind: self.kind.clone(),
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
        assert_eq!(p.upstream_of(NodeId::new(0)), None);
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
        // upstream_of keeps using the FIRST occurrence: 0 is the publisher.
        assert_eq!(back_at0.upstream_of(NodeId::new(0)), None);
    }

    #[test]
    fn upstream_follows_first_occurrence() {
        let mut p = base();
        p.path = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)].into();
        // Node 2 first appears at index 2 → upstream is node 1.
        assert_eq!(p.upstream_of(NodeId::new(2)), Some(NodeId::new(1)));
        // Node 1 → node 0.
        assert_eq!(p.upstream_of(NodeId::new(1)), Some(NodeId::new(0)));
        // Node 0 opened the path → no upstream.
        assert_eq!(p.upstream_of(NodeId::new(0)), None);
        // A node not on the path was handed the packet by the last entry.
        assert_eq!(p.upstream_of(NodeId::new(9)), Some(NodeId::new(2)));
    }

    #[test]
    fn upstream_stable_after_return_trip() {
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
        // 1's upstream is still 0 even after the detour through 2.
        assert_eq!(back_at1.upstream_of(NodeId::new(1)), Some(NodeId::new(0)));
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
        // NACKs forward like any packet, keeping their kind.
        let f = n.forward(NodeId::new(7), vec![NodeId::new(4)], 0);
        assert!(f.is_nack());
    }

    #[test]
    fn visited_checks_path_membership() {
        let mut p = base();
        p.path = vec![NodeId::new(3)].into();
        assert!(p.visited(NodeId::new(3)));
        assert!(!p.visited(NodeId::new(4)));
    }
}
