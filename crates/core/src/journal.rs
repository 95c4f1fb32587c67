//! A per-broker durable in-flight store.
//!
//! The paper's brokers hold in-flight packets in RAM and delete the state
//! aggressively on every downstream ACK (§III-D). The chaos layer's
//! crash-restart model breaks that silently: a restarted broker forgets
//! every packet it accepted, even though its upstream already saw the ACK
//! and deleted *its* copy — the packet is gone for good.
//!
//! [`InFlightJournal`] is the write-ahead-journal abstraction that closes
//! the gap in [`DurabilityMode::Durable`]: every accept is recorded before
//! it takes effect, destination completions are noted as downstream ACKs
//! arrive, and the entry is retired once the broker's responsibility ends.
//! On restart, [`replay_for`](InFlightJournal::replay_for) returns the
//! broker's surviving entries so the router can rebuild fresh in-flight
//! state (with the pre-crash routing path and tried-sets cleared — those
//! records described a network epoch that no longer exists) and push the
//! packets back through its sending lists.
//!
//! Entries are keyed by `(holder, packet)`, so one broker's custody is one
//! contiguous range of the map in ascending packet-id order: restart
//! replay, custody handoff and a NACK's custody lookup each read that
//! range and nothing else.
//!
//! The journal is an in-simulation abstraction of a disk WAL: "durable"
//! means it survives [`on_restart`](dcrd_pubsub::strategy::RoutingStrategy::on_restart)
//! wipes, not host reboots.
//!
//! [`DurabilityMode::Durable`]: crate::config::DurabilityMode::Durable

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use dcrd_net::{NodeId, NodeSet};
use dcrd_pubsub::packet::{Packet, PacketId};
use dcrd_pubsub::topic::TopicId;

/// One journalled in-flight packet at one broker.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// The packet as the broker accepted it (destinations may grow if later
    /// copies merge more subscribers into this broker's responsibility).
    pub packet: Packet,
    /// The upstream hop the broker would reroute to, if known.
    pub upstream: Option<NodeId>,
    /// Destinations already settled (downstream-ACKed, delivered, or given
    /// up) — replay must not resurrect these.
    pub done: NodeSet,
}

/// Counters describing the journal's activity over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries written (first accept of a packet at a broker).
    pub records: u64,
    /// Destination completions noted.
    pub completions: u64,
    /// Entries retired (broker responsibility ended).
    pub retires: u64,
    /// Entries replayed after crash-restarts.
    pub replays: u64,
    /// Entries handed off to a new custodian after their holder was
    /// confirmed dead or departed.
    pub handoffs: u64,
}

/// The write-ahead journal for every broker's in-flight state.
///
/// Keyed by `(holder, packet)` — the router's in-flight key reversed, so a
/// holder's entries are one range of the map, in ascending packet-id order.
#[derive(Debug, Clone, Default)]
pub struct InFlightJournal {
    entries: BTreeMap<(NodeId, PacketId), JournalEntry>,
    stats: JournalStats,
}

impl InFlightJournal {
    /// The key range of every entry `holder` holds.
    fn held_by(holder: NodeId) -> RangeInclusive<(NodeId, PacketId)> {
        (holder, PacketId::new(0))..=(holder, PacketId::new(u64::MAX))
    }

    /// Records (or rewrites) broker `holder`'s responsibility for `packet`.
    /// Called before the acceptance takes effect — the write-ahead
    /// discipline: if the broker crashes right after ACKing, the entry is
    /// already on the journal.
    pub fn record(&mut self, holder: NodeId, packet: &Packet, upstream: Option<NodeId>) {
        let key = (holder, packet.id);
        match self.entries.get_mut(&key) {
            Some(entry) => {
                // Destination merge: a later copy widened this broker's
                // responsibility. Coverage only ever grows — a returning
                // copy carries a pruned destination list and must not
                // shrink the entry, or custody over the pruned subscribers
                // (and with it NACK serve-eligibility) would silently
                // vanish. The settled set is kept.
                for &dest in &packet.destinations {
                    if !entry.packet.destinations.contains(&dest) {
                        entry.packet.destinations.push(dest);
                    }
                }
                entry.upstream = upstream;
            }
            None => {
                self.stats.records += 1;
                self.entries.insert(
                    key,
                    JournalEntry {
                        packet: packet.clone(),
                        upstream,
                        done: NodeSet::new(),
                    },
                );
            }
        }
    }

    /// Notes that `holder`'s responsibility for `dest` ended (downstream
    /// ACK, local delivery, or give-up).
    pub fn note_done(&mut self, holder: NodeId, packet: PacketId, dest: NodeId) {
        if let Some(entry) = self.entries.get_mut(&(holder, packet)) {
            if entry.done.insert(dest) {
                self.stats.completions += 1;
            }
        }
    }

    /// Marks a previously settled destination live again — a returned
    /// packet proved the downstream handling failed after the fact, so a
    /// replay must route it anew.
    pub fn note_undone(&mut self, holder: NodeId, packet: PacketId, dest: NodeId) {
        if let Some(entry) = self.entries.get_mut(&(holder, packet)) {
            entry.done.remove(dest);
        }
    }

    /// Retires the entry: the broker no longer holds the packet at all.
    pub fn retire(&mut self, holder: NodeId, packet: PacketId) {
        if self.entries.remove(&(holder, packet)).is_some() {
            self.stats.retires += 1;
        }
    }

    /// The surviving entries of a crash-restarted broker, for replay.
    /// Entries stay journalled — the broker still holds the packets until
    /// the replayed exploration retires them through the normal flow.
    #[must_use]
    pub fn replay_for(&mut self, holder: NodeId) -> Vec<(PacketId, JournalEntry)> {
        let hits: Vec<(PacketId, JournalEntry)> = self
            .entries
            .range(Self::held_by(holder))
            .map(|(&(_, id), entry)| (id, entry.clone()))
            .collect();
        self.stats.replays += hits.len() as u64;
        hits
    }

    /// Removes and returns every entry held by `holder` — custody handoff
    /// when a broker is confirmed dead or departed. Unlike
    /// [`replay_for`](InFlightJournal::replay_for) (the holder itself comes
    /// back and resumes), the entries leave the journal: the caller
    /// re-records them under their new custodian.
    #[must_use]
    pub fn take_for(&mut self, holder: NodeId) -> Vec<(PacketId, JournalEntry)> {
        let keys: Vec<(NodeId, PacketId)> = self
            .entries
            .range(Self::held_by(holder))
            .map(|(&key, _)| key)
            .collect();
        let mut hits = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(entry) = self.entries.remove(&key) {
                hits.push((key.1, entry));
            }
        }
        self.stats.handoffs += hits.len() as u64;
        hits
    }

    /// The journal entry for one `(packet, holder)` pair, if present.
    #[must_use]
    pub fn entry(&self, holder: NodeId, packet: PacketId) -> Option<&JournalEntry> {
        self.entries.get(&(holder, packet))
    }

    /// Looks up `holder`'s custody of the message identified by its
    /// `(topic, publisher, seq)` stream coordinates — how a NACK, which
    /// names sequence numbers rather than packet ids, finds the entry to
    /// re-serve. Returns the lowest-id match: the holder's range is read in
    /// ascending id order and the first match wins.
    #[must_use]
    pub fn find_custody(
        &self,
        holder: NodeId,
        topic: TopicId,
        publisher: NodeId,
        seq: u64,
    ) -> Option<(PacketId, &JournalEntry)> {
        self.entries
            .range(Self::held_by(holder))
            .find(|(_, entry)| {
                entry.packet.topic == topic
                    && entry.packet.publisher == publisher
                    && entry.packet.seq == seq
                    && !entry.packet.is_nack()
            })
            .map(|(&(_, id), entry)| (id, entry))
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_pubsub::topic::TopicId;
    use dcrd_sim::SimTime;

    fn packet(id: u64, dests: &[u32]) -> Packet {
        Packet::new(
            PacketId::new(id),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            dests.iter().map(|&d| NodeId::new(d)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn take_for_removes_only_the_dead_holders_custody() {
        let mut j = InFlightJournal::default();
        let dead = NodeId::new(2);
        let alive = NodeId::new(4);
        j.record(dead, &packet(1, &[5]), Some(NodeId::new(0)));
        j.record(dead, &packet(3, &[6]), None);
        j.record(alive, &packet(1, &[5]), Some(dead));
        let taken = j.take_for(dead);
        assert_eq!(taken.len(), 2);
        // Ascending packet-id order, entries intact.
        assert_eq!(taken[0].0, PacketId::new(1));
        assert_eq!(taken[1].0, PacketId::new(3));
        assert_eq!(taken[0].1.upstream, Some(NodeId::new(0)));
        // The dead broker's custody is gone; everyone else's survives.
        assert!(j.entry(dead, PacketId::new(1)).is_none());
        assert!(j.entry(alive, PacketId::new(1)).is_some());
        assert_eq!(j.len(), 1);
        assert_eq!(j.stats().handoffs, 2);
        // Re-taking finds nothing.
        assert!(j.take_for(dead).is_empty());
        assert_eq!(j.stats().handoffs, 2);
    }

    #[test]
    fn record_ack_retire_lifecycle() {
        let mut j = InFlightJournal::default();
        let holder = NodeId::new(3);
        let p = packet(7, &[5, 6]);
        j.record(holder, &p, Some(NodeId::new(1)));
        assert_eq!(j.len(), 1);
        let entry = j.entry(holder, p.id).expect("recorded");
        assert_eq!(entry.upstream, Some(NodeId::new(1)));
        assert!(entry.done.is_empty());

        j.note_done(holder, p.id, NodeId::new(5));
        assert!(j
            .entry(holder, p.id)
            .expect("still live")
            .done
            .contains(NodeId::new(5)));

        j.retire(holder, p.id);
        assert!(j.is_empty());
        let s = j.stats();
        assert_eq!(
            (s.records, s.completions, s.retires, s.replays),
            (1, 1, 1, 0)
        );
    }

    #[test]
    fn rerecord_merges_without_double_counting() {
        let mut j = InFlightJournal::default();
        let holder = NodeId::new(2);
        j.record(holder, &packet(9, &[4]), None);
        j.note_done(holder, PacketId::new(9), NodeId::new(4));
        // A later copy widens the destination set; the settled set stays.
        j.record(holder, &packet(9, &[4, 5]), Some(NodeId::new(0)));
        assert_eq!(j.stats().records, 1);
        let entry = j.entry(holder, PacketId::new(9)).expect("live");
        assert_eq!(entry.packet.destinations.len(), 2);
        assert!(entry.done.contains(NodeId::new(4)));
        assert_eq!(entry.upstream, Some(NodeId::new(0)));
        // A returning pruned copy must not shrink coverage: custody over
        // destination 5 (and NACK serve-eligibility for it) stays.
        j.record(holder, &packet(9, &[4]), Some(NodeId::new(0)));
        assert_eq!(
            j.entry(holder, PacketId::new(9))
                .expect("live")
                .packet
                .destinations
                .len(),
            2
        );
        // A returned packet resurrects the destination.
        j.note_undone(holder, PacketId::new(9), NodeId::new(4));
        assert!(j
            .entry(holder, PacketId::new(9))
            .expect("live")
            .done
            .is_empty());
    }

    #[test]
    fn replay_returns_only_the_holders_entries_sorted() {
        let mut j = InFlightJournal::default();
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        j.record(a, &packet(12, &[9]), None);
        j.record(a, &packet(3, &[9]), None);
        j.record(b, &packet(5, &[9]), None);
        let replayed = j.replay_for(a);
        assert_eq!(
            replayed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![PacketId::new(3), PacketId::new(12)]
        );
        // Entries survive replay: the broker still holds them.
        assert_eq!(j.len(), 3);
        assert_eq!(j.stats().replays, 2);
        assert!(j.replay_for(NodeId::new(8)).is_empty());
    }

    #[test]
    fn custody_lookup_matches_stream_coordinates() {
        let mut j = InFlightJournal::default();
        let holder = NodeId::new(4);
        let p = packet(21, &[7]).with_seq(13);
        j.record(holder, &p, None);
        let (id, entry) = j
            .find_custody(holder, TopicId::new(0), NodeId::new(0), 13)
            .expect("custodian");
        assert_eq!(id, PacketId::new(21));
        assert_eq!(entry.packet.seq, 13);
        // Wrong seq, wrong publisher, wrong holder: no match.
        assert!(j
            .find_custody(holder, TopicId::new(0), NodeId::new(0), 12)
            .is_none());
        assert!(j
            .find_custody(holder, TopicId::new(0), NodeId::new(9), 13)
            .is_none());
        assert!(j
            .find_custody(NodeId::new(5), TopicId::new(0), NodeId::new(0), 13)
            .is_none());
    }

    #[test]
    fn custody_reads_only_the_holders_range_in_id_order() {
        let mut j = InFlightJournal::default();
        let holder = NodeId::new(4);
        let other = NodeId::new(3);
        // The same message coordinates (topic 0, publisher 0, seq 13) under
        // three ids: the other holder has the lowest one.
        j.record(other, &packet(2, &[7]).with_seq(13), None);
        j.record(holder, &packet(30, &[7]).with_seq(13), None);
        j.record(holder, &packet(8, &[7]).with_seq(13), None);
        j.record(holder, &packet(5, &[7]).with_seq(14), None);
        j.record(NodeId::new(5), &packet(1, &[7]).with_seq(13), None);
        let (id, _) = j
            .find_custody(holder, TopicId::new(0), NodeId::new(0), 13)
            .expect("custodian");
        assert_eq!(id, PacketId::new(8), "the holder's lowest matching id");
        let ids = |hits: Vec<(PacketId, JournalEntry)>| {
            hits.into_iter().map(|(id, _)| id.raw()).collect::<Vec<_>>()
        };
        assert_eq!(ids(j.replay_for(holder)), vec![5, 8, 30]);
        assert_eq!(ids(j.take_for(holder)), vec![5, 8, 30]);
        assert_eq!(j.len(), 2, "the neighbouring holders keep their custody");
        assert!(j
            .find_custody(holder, TopicId::new(0), NodeId::new(0), 13)
            .is_none());
        assert_eq!(
            j.find_custody(other, TopicId::new(0), NodeId::new(0), 13)
                .map(|(id, _)| id),
            Some(PacketId::new(2))
        );
    }

    #[test]
    fn operations_on_absent_entries_are_noops() {
        let mut j = InFlightJournal::default();
        j.note_done(NodeId::new(0), PacketId::new(1), NodeId::new(2));
        j.retire(NodeId::new(0), PacketId::new(1));
        assert!(j.is_empty());
        assert_eq!(j.stats(), JournalStats::default());
    }
}
