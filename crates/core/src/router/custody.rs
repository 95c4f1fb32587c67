//! Durable custody, the extension the paper configuration never builds:
//! the journal, restart replay, handoff and NACK recovery. It hands
//! destinations back to forwarding through [`Forwarding::reopen`].

use std::collections::BTreeMap;

use dcrd_net::{NodeId, NodeList};
use dcrd_pubsub::packet::{Packet, PacketId, PacketKind};
use dcrd_pubsub::recovery::SequenceTracker;
use dcrd_pubsub::strategy::{Actions, TimerKey};
use dcrd_pubsub::topic::TopicId;
use dcrd_sim::{SimDuration, SimTime};

use super::forward::{Forwarding, Settled, Settlement};
use super::tables::Tables;
use crate::journal::{InFlightJournal, JournalEntry};

/// Tag space reserved for journal write-completion timers (below the
/// persistence space, above every sequential send tag).
pub(super) const JOURNAL_TAG_BASE: u64 = 1 << 62;

/// Simulated latency of a durable custody write
/// ([`DurabilityMode::Durable`](crate::config::DurabilityMode::Durable)):
/// the broker ACKs and delivers at once (the entry is already journaled)
/// but defers *forwarding* by this much — the price of the fsync before the
/// packet re-enters the sending lists.
pub const JOURNAL_WRITE_COST: SimDuration = SimDuration::from_millis(1);

/// Packet-id space for NACKs, minted by subscribers. The runtime's data
/// packet ids count up from zero, so the spaces never collide.
const NACK_ID_BASE: u64 = 1 << 63;

/// Dedup-window capacity per (publisher, subscriber) stream in durable
/// mode. Sized to cover `publish_rate × max_recovery_latency` sequence
/// numbers.
const DEDUP_WINDOW: usize = 1024;

/// How many times one missing sequence number may be NACKed before the
/// subscriber stops asking: bounds recovery traffic, comfortably under the
/// auditor's per-edge budget.
pub const MAX_NACKS_PER_SEQ: u32 = 50;

/// How long a sequence number must be overdue before it is NACKed (two
/// failure epochs): absorbs path-diversity reordering and in-flight copies
/// so the sweep does not NACK packets that are merely slow.
const NACK_GRACE: SimDuration = SimDuration::from_secs(2);

/// The journal is the custody record forwarding settles into.
impl Settlement for InFlightJournal {
    fn report(&mut self, event: Settled<'_>) {
        match event {
            Settled::Done { node, id, dest } => self.note_done(node, id, dest),
            Settled::Reopened { node, id, dest } => self.note_undone(node, id, dest),
            // The publisher keeps custody for the whole run so a NACK
            // climbing toward it is always guaranteed a custodian at the
            // top.
            Settled::Concluded { node, packet } if node != packet.publisher => {
                self.retire(node, packet.id);
            }
            Settled::Concluded { .. } => {}
            // The entry is already journalled, so the rewrite carries no
            // second write cost.
            Settled::Merged {
                node,
                packet,
                upstream,
            } => self.record(node, packet, upstream),
        }
    }
}

/// Every broker's durable custody and every subscriber's recovery state.
/// Like the delivery log, it models per-broker durable storage, so it
/// survives `on_restart` wipes.
#[derive(Debug, Default)]
pub(super) struct Custody {
    /// Write-ahead custody journal.
    pub(super) journal: InFlightJournal,
    /// Per-(topic, publisher, subscriber) sequencing state: the bounded
    /// dedup window plus gap bookkeeping.
    pub(super) trackers: BTreeMap<(TopicId, NodeId, NodeId), SequenceTracker>,
    /// NACKs already issued per (topic, publisher, subscriber, seq) —
    /// bounds recovery traffic for genuinely unrecoverable gaps.
    nack_counts: BTreeMap<(TopicId, NodeId, NodeId, u64), u32>,
    /// Custody entries seized from a dead broker, queued under their new
    /// custodian until that broker's next tick flushes them (handoff).
    pending_handoff: BTreeMap<NodeId, Vec<(PacketId, JournalEntry)>>,
    /// Journal write timers armed, numbered above [`JOURNAL_TAG_BASE`].
    journal_timers: u64,
    /// NACKs minted, numbered above [`NACK_ID_BASE`].
    nacks_minted: u64,
    /// A NACK's sequence numbers this broker cannot serve, and the copies
    /// it serves; kept empty between NACKs.
    nack_unresolved: Vec<u64>,
    nack_serve: Vec<(PacketId, Packet)>,
}

impl Custody {
    /// Journals `holder`'s custody of `packet` before it takes effect (the
    /// write-ahead discipline) and defers the forwarding work by
    /// [`JOURNAL_WRITE_COST`] via a timer in the journal tag space.
    pub(super) fn take_custody(
        &mut self,
        node: NodeId,
        packet: &Packet,
        upstream: Option<NodeId>,
        now: SimTime,
        out: &mut Actions,
    ) {
        self.journal.record(node, packet, upstream);
        let tag = JOURNAL_TAG_BASE + self.journal_timers;
        self.journal_timers += 1;
        out.set_timer(
            now + JOURNAL_WRITE_COST,
            TimerKey {
                packet: packet.id,
                tag,
            },
        );
    }

    /// Runs `packet` through subscriber `node`'s dedup window for its
    /// stream: whether its sequence number is new.
    pub(super) fn observe(&mut self, node: NodeId, packet: &Packet) -> bool {
        self.trackers
            .entry((packet.topic, packet.publisher, node))
            .or_insert_with(|| SequenceTracker::new(DEDUP_WINDOW))
            .observe(packet.seq)
    }

    /// Seizes every custody entry held by a confirmed-dead or departed
    /// broker and queues each under its new custodian — the dead broker's
    /// recorded upstream when it has one, the packet's publisher otherwise
    /// (the custody chain's guaranteed terminus). The queue drains on the
    /// new custodian's next tick.
    pub(super) fn handoff(&mut self, dead: NodeId) {
        for (id, entry) in self.journal.take_for(dead) {
            let custodian = entry.upstream.unwrap_or(entry.packet.publisher);
            if custodian == dead {
                continue;
            }
            self.pending_handoff
                .entry(custodian)
                .or_default()
                .push((id, entry));
        }
    }

    /// Flushes custody entries handed to `node`, re-entering each packet's
    /// unsettled, still-in-budget destinations that are not absent into the
    /// sending-list machinery.
    pub(super) fn flush_handoffs(
        &mut self,
        node: NodeId,
        now: SimTime,
        forward: &mut Forwarding,
        tables: &mut Tables,
        out: &mut Actions,
    ) {
        let Some(entries) = self.pending_handoff.remove(&node) else {
            return;
        };
        for (id, entry) in entries {
            let mut packet = replay_copy(entry, now, tables);
            let present: NodeList = packet
                .destinations
                .iter()
                .copied()
                .filter(|&dest| !tables.absent.contains(dest))
                .collect();
            if present.is_empty() {
                continue;
            }
            packet.destinations = present;
            self.journal.record(node, &packet, None);
            forward.reopen(node, packet, false);
            forward.process(node, id, now, tables, &mut self.journal, out);
        }
    }

    /// Replays the custody entries that survived `node`'s crash,
    /// delay-cognizantly: only destinations that are unsettled AND still
    /// inside their delay budget re-enter the sending-list machinery.
    /// Expired destinations are not replayed — completeness for them is the
    /// NACK path's job, which serves from the (kept) journal entry
    /// regardless of budget.
    pub(super) fn replay(
        &mut self,
        node: NodeId,
        now: SimTime,
        forward: &mut Forwarding,
        tables: &mut Tables,
        out: &mut Actions,
    ) {
        for (id, entry) in self.journal.replay_for(node) {
            let upstream = entry.upstream;
            let packet = replay_copy(entry, now, tables);
            if packet.destinations.is_empty() {
                continue;
            }
            forward.open_state(node, packet, upstream);
            forward.process(node, id, now, tables, &mut self.journal, out);
        }
    }

    /// Handles an incoming NACK at this broker. Every missing sequence
    /// number the broker has eligible custody for is re-served to the
    /// requesting subscriber through the normal sending-list machinery;
    /// the rest are relayed onward toward the publisher, whose permanent
    /// custody makes it the guaranteed terminus. A NACK reaching the
    /// publisher for something it never journalled simply dies.
    pub(super) fn handle_nack(
        &mut self,
        node: NodeId,
        packet: Packet,
        now: SimTime,
        forward: &mut Forwarding,
        tables: &mut Tables,
        out: &mut Actions,
    ) {
        let PacketKind::Nack {
            subscriber,
            ref missing,
        } = packet.kind
        else {
            return;
        };
        for &seq in missing {
            match self
                .journal
                .find_custody(node, packet.topic, packet.publisher, seq)
            {
                // Serve only subscribers this custody ever covered —
                // otherwise a NACK could conjure deliveries the protocol
                // never owed (e.g. to a subscriber that joined late).
                Some((id, entry))
                    if entry.packet.destinations.contains(&subscriber)
                        || entry.done.contains(subscriber) =>
                {
                    let mut copy = entry.packet.clone();
                    copy.destinations = NodeList::from_slice(&[subscriber]);
                    copy.path.clear();
                    copy.tag = 0;
                    self.nack_serve.push((id, copy));
                }
                _ => self.nack_unresolved.push(seq),
            }
        }
        for (id, copy) in self.nack_serve.drain(..) {
            self.journal.note_undone(node, id, subscriber);
            // Re-open the send budget too: a state worn down by earlier
            // speculative retries would otherwise give up on the spot,
            // wedging this pair forever. Demand-driven repair is bounded by
            // the NACK-per-seq budget instead.
            forward.reopen(node, copy, true);
            forward.process(node, id, now, tables, &mut self.journal, out);
        }
        if !self.nack_unresolved.is_empty() && node != packet.publisher {
            // NACKs climb the publisher's shortest-delay tree: a node's
            // predecessor is its next hop toward the root.
            let climb = tables
                .builder
                .tree(packet.publisher)
                .and_then(|tree| tree.predecessor(node));
            if let Some((hop, _)) = climb {
                let mut fwd = packet.forward(node, NodeList::from_slice(&[packet.publisher]), 0);
                // Nothing served here: the relay asks for exactly what it
                // was asked, so it keeps sharing the body it arrived with.
                if self.nack_unresolved.len() < missing.len() {
                    fwd = fwd.with_kind(PacketKind::Nack {
                        subscriber,
                        missing: self.nack_unresolved.clone(),
                    });
                }
                out.send(hop, fwd);
            }
        }
        self.nack_unresolved.clear();
    }

    /// Subscriber `node`'s gap sweep: every stream it subscribes to NACKs,
    /// toward the publisher, the sequence numbers overdue past
    /// [`NACK_GRACE`] that it has not seen, within their NACK budget.
    pub(super) fn sweep(&mut self, node: NodeId, now: SimTime, tables: &Tables, out: &mut Actions) {
        let Some(workload) = tables.workload.as_ref() else {
            return;
        };
        let horizon = tables.params.horizon;
        for spec in workload.topics() {
            if spec.publisher == node || !spec.subscriptions.iter().any(|s| s.subscriber == node) {
                continue;
            }
            let tracker = self
                .trackers
                .entry((spec.topic, spec.publisher, node))
                .or_insert_with(|| SequenceTracker::new(DEDUP_WINDOW));
            // The newest sequence number that was actually published
            // (inside the horizon) and has been overdue for at least the
            // grace period — everything below it should have arrived.
            let mut expected_hi: Option<u64> = None;
            let mut k = tracker.low();
            loop {
                let t = spec.publish_time(k);
                if t > now
                    || t.saturating_since(SimTime::ZERO) > horizon
                    || now.saturating_since(t) < NACK_GRACE
                {
                    break;
                }
                expected_hi = Some(k);
                k += 1;
            }
            let Some(hi) = expected_hi else {
                continue;
            };
            // The gaps go through the NACK budget straight into the one
            // list the NACK carries.
            let mut wanted: Vec<u64> = Vec::new();
            for seq in tracker.missing_through(hi) {
                let sent = self
                    .nack_counts
                    .entry((spec.topic, spec.publisher, node, seq))
                    .or_insert(0);
                if *sent < MAX_NACKS_PER_SEQ {
                    *sent += 1;
                    wanted.push(seq);
                }
            }
            if wanted.is_empty() {
                continue;
            }
            let climb = tables
                .builder
                .tree(spec.publisher)
                .and_then(|tree| tree.predecessor(node));
            let Some((hop, _)) = climb else {
                continue;
            };
            // Fresh id per sweep: the NACK is fire-and-forget (no ACK
            // timer guards it), so a lost one is simply re-minted — and
            // re-used ids would trip the auditor's edge-budget check.
            let id = PacketId::new(NACK_ID_BASE + self.nacks_minted);
            self.nacks_minted += 1;
            let nack = Packet::nack(id, spec.topic, spec.publisher, now, node, wanted);
            out.send(
                hop,
                nack.forward(node, NodeList::from_slice(&[spec.publisher]), 0),
            );
        }
    }
}

/// The copy of custody `entry` that re-enters the sending-list machinery
/// at `now`: routing path and tag cleared, destinations cut to those the
/// entry has not settled and that are still inside their delay budget —
/// the delay-cognizant filter of restart replay and custody handoff. The
/// list may come back empty.
fn replay_copy(entry: JournalEntry, now: SimTime, tables: &Tables) -> Packet {
    let JournalEntry {
        mut packet, done, ..
    } = entry;
    packet.path.clear();
    packet.tag = 0;
    let spec = tables.workload.as_ref().and_then(|w| {
        w.topics()
            .iter()
            .find(|s| s.topic == packet.topic && s.publisher == packet.publisher)
    });
    let age = now.saturating_since(packet.published_at);
    let live: NodeList = packet
        .destinations
        .iter()
        .copied()
        .filter(|&dest| {
            !done.contains(dest)
                && spec
                    .and_then(|s| s.deadline_of(dest))
                    .is_some_and(|dl| age < dl)
        })
        .collect();
    packet.destinations = live;
    packet
}
