//! The paper's forwarding core (Algorithm 2) and the persistence
//! extension's parking. It knows nothing of durable custody, which it
//! reports to through [`Settlement`].

use std::collections::BTreeMap;

use dcrd_net::{NodeId, NodeList, NodeSet, Topology};
use dcrd_pubsub::hotstate::{PacketNodeMap, PacketNodeSet};
use dcrd_pubsub::packet::{Packet, PacketId};
use dcrd_pubsub::strategy::{ack_timeout, Actions, TimerKey};
use dcrd_sim::{SimDuration, SimTime};

use super::tables::Tables;
use crate::config::PersistenceMode;

/// Tag space reserved for persistence-retry timers (top bit set).
pub(super) const PERSIST_TAG_BASE: u64 = 1 << 63;

/// Reroute hysteresis: how many times the upstream hop may exhaust its `m`
/// transmissions for one packet at one broker before that broker stops
/// offering the upstream for it (durably — the verdict survives state
/// resurrection). The upstream link is exempt from the per-destination
/// tried set, so without this damping two brokers at a
/// sustained-unreachability boundary ping-pong a packet until the attempts
/// cap burns out.
const UPSTREAM_RETRY_CAP: u32 = 2;

/// Safety cap on transmissions one broker spends on one packet; beyond it
/// the broker gives up on the remaining destinations. Prevents livelock
/// when the overlay is partitioned for a long time.
const MAX_ATTEMPTS_PER_NODE: u32 = 64;

/// Cap on a packet's routing-path length as a multiple of the overlay
/// size. Per-broker state is deleted on every downstream ACK (the paper's
/// aggressive cleanup), so a packet whose destination is unreachable can
/// otherwise bounce between brokers indefinitely — the path record is the
/// one budget that travels with the packet.
pub const MAX_PATH_FACTOR: usize = 4;

/// Most packets whose [`PacketHistory`] is remembered before the oldest are
/// evicted. The histories only have to outlive the handful of packets
/// still in flight at once; the cap is a safety valve against unbounded
/// growth on very long runs.
const HISTORY_CAP: usize = 4096;

/// What forwarding reports to the layer that keeps durable custody.
pub(super) enum Settled<'a> {
    /// `node` no longer owes `dest` the packet (acked downstream, or given
    /// up).
    Done {
        node: NodeId,
        id: PacketId,
        dest: NodeId,
    },
    /// A returned copy proved `node`'s earlier handling of `dest` failed.
    Reopened {
        node: NodeId,
        id: PacketId,
        dest: NodeId,
    },
    /// `node` dropped its state for `packet`: every destination settled.
    Concluded { node: NodeId, packet: &'a Packet },
    /// A second copy merged into `node`'s state, whose packet (with any
    /// destinations the copy added) is now `packet`.
    Merged {
        node: NodeId,
        packet: &'a Packet,
        upstream: Option<NodeId>,
    },
}

/// Where forwarding's entry points send their [`Settled`] reports.
pub(super) trait Settlement {
    fn report(&mut self, event: Settled<'_>);
}

/// No sink, or a borrowed one: on the paper path every report is one
/// `None` check.
impl<S: Settlement> Settlement for Option<&mut S> {
    fn report(&mut self, event: Settled<'_>) {
        if let Some(sink) = self {
            sink.report(event);
        }
    }
}

/// One outstanding transmission awaiting its hop-by-hop ACK.
#[derive(Debug, Clone)]
struct Pending {
    to: NodeId,
    /// The exact copy on the wire (resent verbatim on retransmission).
    packet: Packet,
    /// Transmissions already made (1 after the first send).
    sends: u32,
    /// True when this send reroutes to the upstream node rather than down a
    /// sending list.
    is_upstream: bool,
}

/// A broker's outstanding sends for one packet, oldest first. Tags are
/// issued from one monotone counter, so appending keeps the list in tag
/// order; a broker rarely has more than a few sends of one packet in
/// flight, so lookups scan.
#[derive(Debug, Default)]
struct PendingSends(Vec<(u64, Pending)>);

impl PendingSends {
    fn push(&mut self, tag: u64, pending: Pending) {
        debug_assert!(self.0.last().is_none_or(|&(last, _)| last < tag));
        self.0.push((tag, pending));
    }

    fn get_mut(&mut self, tag: u64) -> Option<&mut Pending> {
        self.0.iter_mut().find(|(t, _)| *t == tag).map(|(_, p)| p)
    }

    fn remove(&mut self, tag: u64) -> Option<Pending> {
        let at = self.0.iter().position(|(t, _)| *t == tag)?;
        Some(self.0.remove(at).1)
    }

    fn iter(&self) -> impl Iterator<Item = &Pending> {
        self.0.iter().map(|(_, p)| p)
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Per-destination neighbors already tried and failed from one broker, as
/// a flat `(destination, tried)` list. It is only ever looked up, inserted
/// into and removed from by destination, so its order is unobservable,
/// and a state exhausts few destinations' next hops: a scan beats a tree
/// whose first insert allocates a node.
#[derive(Debug, Default)]
struct TriedSets(Vec<(NodeId, NodeSet)>);

impl TriedSets {
    fn get(&self, dest: NodeId) -> Option<&NodeSet> {
        self.0.iter().find(|(d, _)| *d == dest).map(|(_, set)| set)
    }

    fn insert(&mut self, dest: NodeId, neighbor: NodeId) {
        match self.0.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, set)) => {
                set.insert(neighbor);
            }
            None => {
                let mut set = NodeSet::new();
                set.insert(neighbor);
                self.0.push((dest, set));
            }
        }
    }

    fn remove(&mut self, dest: NodeId) {
        if let Some(at) = self.0.iter().position(|(d, _)| *d == dest) {
            self.0.swap_remove(at);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// What one broker remembers of one packet across the incarnations of its
/// [`NodeState`]: an ACK concludes a state, and a persistence retry, a NACK
/// serve, a restart replay or a custody handoff clears the packet's path,
/// so a copy can come back as if new. These budgets bound how often one
/// packet crosses one link while its destinations are out of reach.
#[derive(Debug, Default)]
struct PacketHistory {
    /// Upstream reroutes taken, capped by [`UPSTREAM_RETRY_CAP`]. A bounce
    /// is usually ACKed hop-by-hop, so this counts reroutes, not timeouts.
    upstream_reroutes: u32,
    /// Parks for a persistence retry, capped by `max_retries`.
    parks: u32,
    /// Listed neighbours a send of the packet exhausted its `m`
    /// transmissions into, passed over while they stay silent
    /// ([`Forwarding::written_off`]).
    exhausted: NodeSet,
}

/// Per-(message, broker) forwarding state. Created when a broker takes
/// responsibility for a packet, deleted as soon as every destination is
/// acknowledged downstream (the paper's "aggressively deletes a copy ...
/// once it receives an ACK").
#[derive(Debug)]
pub(super) struct NodeState {
    packet: Packet,
    /// The neighbor this broker first received the packet from (`None` at
    /// the publisher) — the paper's upstream node ("the upstream node from
    /// which it received this packet", §III).
    upstream: Option<NodeId>,
    /// Destinations fully handled at this broker (acked downstream,
    /// delivered locally, or given up). A bitset: membership is the hot
    /// per-destination skip check.
    done: NodeSet,
    /// Per-destination neighbors already tried and failed from here.
    tried: TriedSets,
    /// Outstanding sends, by tag.
    pending: PendingSends,
    /// Transmissions spent by this broker on this packet.
    attempts: u32,
    /// Destinations parked for a persistence retry.
    parked: NodeList,
}

impl NodeState {
    fn finished(&self) -> bool {
        self.pending.is_empty()
            && self.parked.is_empty()
            && self
                .packet
                .destinations
                .iter()
                .all(|&d| self.done.contains(d))
    }
}

/// Scratch buffers recycled across [`Forwarding::process`] calls. The
/// fan-out runs once per arrival, ACK timeout and tick; without reuse each
/// call allocates (and immediately frees) three vectors plus a membership
/// probe per destination.
#[derive(Debug, Default)]
struct ScratchArena {
    /// `(next hop, destinations, is_upstream)` assignments under
    /// construction. The destination lists move into the forwarded
    /// packets.
    assignments: Vec<(NodeId, NodeList, bool)>,
    /// Destinations this broker abandons this pass.
    give_ups: Vec<NodeId>,
    /// Destinations parked for a persistence retry this pass.
    park: Vec<NodeId>,
    /// Destinations already handled (done ∪ pending ∪ parked), rebuilt
    /// each pass for O(1) skip checks.
    covered: NodeSet,
}

impl ScratchArena {
    /// Empties every buffer, keeping capacity for the next pass.
    fn reset(&mut self) {
        self.assignments.clear();
        self.give_ups.clear();
        self.park.clear();
        self.covered.clear();
    }
}

/// Every broker's forwarding state: the paper's per-packet machinery,
/// plus the subscriber-side delivery log.
#[derive(Debug, Default)]
pub(super) struct Forwarding {
    pub(super) inflight: PacketNodeMap<NodeState>,
    /// `(message, subscriber)` pairs already handed to the application —
    /// the durable subscriber-side delivery log that makes local delivery
    /// idempotent even when duplicate copies converge (lost ACKs, crash
    /// recovery).
    pub(super) delivered: PacketNodeSet,
    /// Each broker's [`PacketHistory`] of each packet, by packet. Bounded
    /// by [`HISTORY_CAP`] (oldest packets evicted first).
    history: BTreeMap<PacketId, BTreeMap<NodeId, PacketHistory>>,
    /// Per broker (by index), the neighbours it exhausted a send into and
    /// has not heard from since (no ACK, packet or membership change).
    /// Kept only under durable custody ([`track_silence`](Self::track_silence)),
    /// whose NACK serves, replays and handoffs resend copies with no budget
    /// of their own; a persistence retry is budgeted by its parks and may
    /// need a neighbour that was only cut off for a while.
    silent: Vec<NodeSet>,
    next_tag: u64,
    /// Persistence-retry timers armed, numbered above [`PERSIST_TAG_BASE`].
    persist_timers: u64,
    /// The (empty) pending lists and tried sets of concluded states,
    /// handed to the next states opened: a state lives for a few events,
    /// so without reuse every hop would allocate its lists.
    spare_lists: Vec<(PendingSends, TriedSets)>,
    /// Reusable buffers for the per-event fan-out in `process` — the hot
    /// loop borrows these instead of allocating fresh vectors every call.
    scratch: ScratchArena,
}

impl Forwarding {
    /// Starts writing off silent neighbours, for an overlay of `num_nodes`
    /// brokers.
    pub(super) fn track_silence(&mut self, num_nodes: usize) {
        self.silent = vec![NodeSet::new(); num_nodes];
    }

    /// Updates `node`'s history of packet `id`, evicting the oldest packets
    /// past [`HISTORY_CAP`].
    fn note(&mut self, id: PacketId, node: NodeId, update: impl FnOnce(&mut PacketHistory)) {
        update(self.history.entry(id).or_default().entry(node).or_default());
        while self.history.len() > HISTORY_CAP {
            self.history.pop_first();
        }
    }

    /// `node`'s history of packet `id`, if it has one.
    fn history(&self, id: PacketId, node: NodeId) -> Option<&PacketHistory> {
        self.history.get(&id).and_then(|m| m.get(&node))
    }

    /// An ACK or a packet from `neighbor` reached `node`.
    pub(super) fn heard_from(&mut self, node: NodeId, neighbor: NodeId) {
        if let Some(silent) = self.silent.get_mut(node.index()) {
            silent.remove(neighbor);
        }
    }

    /// Whether `node` already spent `m` sends of packet `id` on `neighbor`
    /// and has not heard from it since.
    fn written_off(&self, id: PacketId, node: NodeId, neighbor: NodeId) -> bool {
        self.silent
            .get(node.index())
            .is_some_and(|s| s.contains(neighbor))
            && self
                .history(id, node)
                .is_some_and(|h| h.exhausted.contains(neighbor))
    }

    /// Wipes `node`'s volatile state, as a crash or a departure does: its
    /// in-flight per-packet states and which neighbours were silent. Stale
    /// timers for the dropped states fire into the void (`on_timer` finds
    /// nothing and returns).
    pub(super) fn forget(&mut self, node: NodeId) {
        self.inflight.retain(|holder, _| holder != node);
        if let Some(silent) = self.silent.get_mut(node.index()) {
            silent.clear();
        }
    }

    /// Brokers whose membership changed are worth trying again.
    pub(super) fn forget_silence(&mut self, changed: &[NodeId]) {
        for silent in &mut self.silent {
            for &n in changed {
                silent.remove(n);
            }
        }
    }

    /// Picks the next hop for `dest` at `node`, honoring the sending list
    /// of the packet's `stream`, the packet's routing path, the
    /// per-destination tried set, the neighbours written off for this
    /// packet, and the upstream fallback. `None` means "give up / park".
    fn choose_next_hop(
        &self,
        node: NodeId,
        state: &NodeState,
        stream: u32,
        dest: NodeId,
        tables: &mut Tables,
    ) -> Option<(NodeId, bool)> {
        let sending_list = tables.settled(stream, dest)?.sending_list(node);
        let tried = state.tried.get(dest);
        let candidate = sending_list.iter().find(|c| {
            c.neighbor != node
                && !state.packet.visited(c.neighbor)
                && !tried.is_some_and(|t| t.contains(c.neighbor))
                && !self.written_off(state.packet.id, node, c.neighbor)
        });
        if let Some(c) = candidate {
            return Some((c.neighbor, false));
        }
        if !tables.config.reroute_upstream {
            return None;
        }
        // Reroute hysteresis: an upstream bounce is ACKed hop-by-hop even
        // when the destination is unreachable beyond the pair, so each
        // bounce concludes this broker's state and the returning copy
        // resurrects a fresh one — without a durable budget two brokers at
        // an unreachability boundary ping-pong the packet until the run
        // ends. Stop offering the upstream once this broker has spent its
        // reroute budget for this packet, across all state incarnations.
        if self
            .history(state.packet.id, node)
            .is_some_and(|h| h.upstream_reroutes >= UPSTREAM_RETRY_CAP)
        {
            return None;
        }
        state.upstream.map(|up| (up, true))
    }

    /// Algorithm 2's main loop: assign every unhandled destination a next
    /// hop, merging destinations that share one. Works in the
    /// [`ScratchArena`], borrowed in place and emptied first, so the hot
    /// loop stays allocation-free. Reading a destination's sending list
    /// settles its tables if a repair left them stale.
    pub(super) fn process(
        &mut self,
        node: NodeId,
        id: PacketId,
        now: SimTime,
        tables: &mut Tables,
        sink: &mut impl Settlement,
        out: &mut Actions,
    ) {
        self.scratch.reset();
        // Collect assignments first (immutable pass), then mutate.
        let Some(state) = self.inflight.get(&(id, node)) else {
            return;
        };
        let Some(num_nodes) = tables.topology.as_ref().map(Topology::num_nodes) else {
            return;
        };
        let path_budget = MAX_PATH_FACTOR * num_nodes;
        let over_cap =
            state.attempts >= MAX_ATTEMPTS_PER_NODE || state.packet.path.len() >= path_budget;
        // Every destination of the packet shares its stream's tables row.
        let stream = tables
            .store
            .stream(state.packet.topic, state.packet.publisher);
        let scratch = &mut self.scratch;

        // One O(pending destinations) sweep replaces a per-destination scan
        // over every pending send.
        scratch.covered.union_with(&state.done);
        for p in state.pending.iter() {
            for &d in &p.packet.destinations {
                scratch.covered.insert(d);
            }
        }
        for &d in &state.parked {
            scratch.covered.insert(d);
        }

        for &dest in &state.packet.destinations {
            if self.scratch.covered.contains(dest) {
                continue;
            }
            // Park instead of giving up when the persistence extension has
            // retries left — both for an exhausted publisher and for any
            // broker that burned through its attempts cap.
            let can_park = matches!(
                tables.config.persistence,
                PersistenceMode::Retry { max_retries, .. }
                    if self.history(id, node).map_or(0, |h| h.parks) < max_retries
            );
            let hop = if over_cap {
                None
            } else {
                stream.and_then(|s| self.choose_next_hop(node, state, s, dest, tables))
            };
            let scratch = &mut self.scratch;
            match hop {
                Some((hop, is_upstream)) => {
                    if let Some(entry) = scratch
                        .assignments
                        .iter_mut()
                        .find(|(h, _, up)| *h == hop && *up == is_upstream)
                    {
                        entry.1.push(dest);
                    } else {
                        scratch
                            .assignments
                            .push((hop, NodeList::from_slice(&[dest]), is_upstream));
                    }
                }
                None if can_park => scratch.park.push(dest),
                None => scratch.give_ups.push(dest),
            }
        }

        // Mutate phase: arm one send per assignment. The destination lists
        // move out of the scratch into the forwarded packets (they live on
        // as `packet.destinations`).
        for slot in 0..self.scratch.assignments.len() {
            let Some(entry) = self.scratch.assignments.get_mut(slot) else {
                continue;
            };
            let (hop, is_upstream) = (entry.0, entry.2);
            let dests = std::mem::take(&mut entry.1);
            let tag = self.next_tag;
            self.next_tag += 1;
            if is_upstream {
                // Every upstream send spends reroute budget the moment it
                // is armed: bounces are ACKed (so no timeout ever fires for
                // them) and conclude this state, which makes this the only
                // point that survives to see every incarnation.
                self.note(id, node, |h| h.upstream_reroutes += 1);
            }
            let Some(state) = self.inflight.get_mut(&(id, node)) else {
                return;
            };
            let forwarded = state.packet.forward(node, dests, tag);
            state.attempts += 1;
            out.send(hop, forwarded.clone());
            out.set_timer(
                now + ack_timeout(tables.alpha(node, hop), &tables.params),
                TimerKey { packet: id, tag },
            );
            state.pending.push(
                tag,
                Pending {
                    to: hop,
                    packet: forwarded,
                    sends: 1,
                    is_upstream,
                },
            );
        }
        if !self.scratch.park.is_empty() {
            self.note(id, node, |h| h.parks += 1);
        }
        let Some(state) = self.inflight.get_mut(&(id, node)) else {
            return;
        };
        for dest in self.scratch.give_ups.drain(..) {
            state.done.insert(dest);
            sink.report(Settled::Done { node, id, dest });
            out.give_up(id, dest);
        }
        if !self.scratch.park.is_empty() {
            state.parked.extend_from_slice(&self.scratch.park);
            self.scratch.park.clear();
            if let PersistenceMode::Retry { retry_after_ms, .. } = tables.config.persistence {
                let tag = PERSIST_TAG_BASE + self.persist_timers;
                self.persist_timers += 1;
                out.set_timer(
                    now + SimDuration::from_millis(retry_after_ms),
                    TimerKey { packet: id, tag },
                );
            }
        }
        if state.finished() {
            self.conclude(node, id, sink);
        }
    }

    /// Drops a finished in-flight state, recycling its lists.
    fn conclude(&mut self, node: NodeId, id: PacketId, sink: &mut impl Settlement) {
        let Some(state) = self.inflight.remove(&(id, node)) else {
            return;
        };
        sink.report(Settled::Concluded {
            node,
            packet: &state.packet,
        });
        debug_assert!(state.pending.is_empty(), "concluded with sends outstanding");
        let NodeState {
            pending, mut tried, ..
        } = state;
        tried.clear();
        self.spare_lists.push((pending, tried));
    }

    /// Opens the per-packet forwarding state of broker `node`, replacing
    /// any state it already holds for the packet.
    pub(super) fn open_state(&mut self, node: NodeId, packet: Packet, upstream: Option<NodeId>) {
        let (pending, tried) = self.spare_lists.pop().unwrap_or_default();
        let state = NodeState {
            packet,
            upstream,
            done: NodeSet::new(),
            tried,
            pending,
            attempts: 0,
            parked: NodeList::new(),
        };
        self.inflight.insert((state.packet.id, node), state);
    }

    /// Hands `node` the packet's destinations again, as a copy with a
    /// cleared path: they join the state `node` holds for it, unsettled and
    /// untried, or open a fresh state. `fresh_budget` also unparks them and
    /// restarts the state's send budget.
    pub(super) fn reopen(&mut self, node: NodeId, packet: Packet, fresh_budget: bool) {
        let Some(state) = self.inflight.get_mut(&(packet.id, node)) else {
            self.open_state(node, packet, None);
            return;
        };
        for &dest in &packet.destinations {
            if !state.packet.destinations.contains(&dest) {
                state.packet.destinations.push(dest);
            }
            state.done.remove(dest);
            state.tried.remove(dest);
        }
        if fresh_budget {
            state.parked.retain(|d| !packet.destinations.contains(&d));
            state.attempts = 0;
        }
    }

    /// Merges a second copy of a packet into the state `node` holds for
    /// it; false when it holds none.
    pub(super) fn merge_copy(
        &mut self,
        node: NodeId,
        packet: &Packet,
        sink: &mut impl Settlement,
    ) -> bool {
        let Some(state) = self.inflight.get_mut(&(packet.id, node)) else {
            return false;
        };
        // Either a RETURNED packet (we are on its path — a downstream
        // broker failed and sent it back) or a converging DUPLICATE (born
        // upstream when an ACK was lost and both the timeout path and the
        // original copy went on).
        let returned = packet.visited(node);
        state.packet.path.merge(&packet.path);
        for &dest in &packet.destinations {
            if !state.packet.destinations.contains(&dest) {
                state.packet.destinations.push(dest);
            }
            // Only a returned packet invalidates earlier handling: its
            // destinations genuinely failed downstream. A mere duplicate
            // must NOT resurrect destinations we already forwarded — that
            // would amplify every duplicate.
            if returned {
                state.done.remove(dest);
                let id = packet.id;
                sink.report(Settled::Reopened { node, id, dest });
            }
        }
        sink.report(Settled::Merged {
            node,
            packet: &state.packet,
            upstream: state.upstream,
        });
        true
    }

    /// The upstream of a packet `node` holds no state for, arriving from
    /// `from`. It is only meaningful when the packet came from a broker
    /// that has NOT seen it bounce through us before — a returning packet
    /// (we are on its path) must not be sent back to the downstream
    /// neighbor that returned it. A claimed sender that is no neighbor is
    /// no upstream either.
    pub(super) fn upstream_of(
        node: NodeId,
        packet: &Packet,
        from: NodeId,
        tables: &Tables,
    ) -> Option<NodeId> {
        if !packet.visited(node) {
            return Some(from).filter(|&f| tables.is_neighbor(node, f));
        }
        // The packet returned after we ACKed our state away. The natural
        // answer is the paper's "node before my first occurrence on the
        // routing path", but when duplicate copies converged somewhere the
        // recorded path is a merge of several physical paths and that entry
        // may not be a neighbor. Fall back along progressively weaker
        // candidates, requiring each to be an actual neighbor; the sender
        // of the returning copy always is.
        let path = &packet.path;
        let first = path.iter().position(|&n| n == node);
        let last = path
            .iter()
            .rev()
            .position(|&n| n == node)
            .map(|back| path.len() - 1 - back);
        let before = |i: usize| i.checked_sub(1).and_then(|j| path.get(j));
        let candidates = [first.and_then(before), last.and_then(before), Some(from)];
        candidates
            .into_iter()
            .flatten()
            .find(|&c| tables.is_neighbor(node, c))
    }

    /// The hop-by-hop ACK of the send `packet` (by its tag) reached `node`:
    /// the paper's aggressive deletion, destination by destination.
    pub(super) fn on_ack(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: &Packet,
        sink: &mut impl Settlement,
    ) {
        self.heard_from(node, to);
        let Some(state) = self.inflight.get_mut(&(packet.id, node)) else {
            return;
        };
        if let Some(p) = state.pending.remove(packet.tag) {
            for &dest in &p.packet.destinations {
                state.done.insert(dest);
                let id = packet.id;
                sink.report(Settled::Done { node, id, dest });
            }
            if state.finished() {
                self.conclude(node, packet.id, sink);
            }
        }
    }

    /// A persistence-retry or ACK timer fired at `node`.
    pub(super) fn on_timer(
        &mut self,
        node: NodeId,
        key: TimerKey,
        now: SimTime,
        tables: &mut Tables,
        sink: &mut impl Settlement,
        out: &mut Actions,
    ) {
        let id = key.packet;
        if key.tag >= PERSIST_TAG_BASE {
            // Persistence retry: unpark every parked destination and restart
            // the exploration with cleared per-destination history. The
            // retry is semantically a fresh send, so the routing-path record
            // (loop avoidance + path budget) starts over too.
            if let Some(state) = self.inflight.get_mut(&(id, node)) {
                let parked = std::mem::take(&mut state.parked);
                for &dest in &parked {
                    state.tried.remove(dest);
                }
                state.attempts = 0;
                state.packet.path.clear();
            }
            self.process(node, id, now, tables, sink, out);
            return;
        }
        let Some(state) = self.inflight.get_mut(&(id, node)) else {
            return;
        };
        let Some(p) = state.pending.get_mut(key.tag) else {
            return; // ACK already arrived; stale timer.
        };
        if p.sends < tables.params.m {
            // Retransmit on the same link (Eq. 1's m) under the same
            // timer as the first send.
            p.sends += 1;
            state.attempts += 1;
            let to = p.to;
            out.send(to, p.packet.clone());
            out.set_timer(
                now + ack_timeout(tables.alpha(node, to), &tables.params),
                key,
            );
            return;
        }
        // Neighbor failed after m transmissions: mark tried and move on.
        // Upstream hops are exempt from the tried set — the upstream link is
        // the only way back, so it is retried (bounded by the attempts cap)
        // rather than written off.
        let Some(p) = state.pending.remove(key.tag) else {
            return;
        };
        if !p.is_upstream {
            for &dest in &p.packet.destinations {
                state.tried.insert(dest, p.to);
            }
            if let Some(silent) = self.silent.get_mut(node.index()) {
                silent.insert(p.to);
                self.note(id, node, |h| _ = h.exhausted.insert(p.to));
            }
        }
        self.process(node, id, now, tables, sink, out);
    }
}
