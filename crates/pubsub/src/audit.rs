//! Online invariant auditing.
//!
//! When enabled ([`RuntimeConfig::audit`]), the runtime feeds every
//! transmission-level event (the same stream [`Trace`] captures, plus ACK
//! arrivals) through an [`InvariantAuditor`] *during* the run. The auditor
//! checks protocol invariants that no amount of delivery-ratio averaging
//! can: a chaos run that delivers 60% but loops packets forever, delivers
//! duplicates to the application, or conjures ACKs out of thin air is
//! broken even if its curves look plausible.
//!
//! Checked invariants:
//!
//! * **Loop bound** — no message crosses one directed link more than
//!   [`AuditConfig::max_edge_uses`] times. Bounded re-probing of a failed
//!   link is designed DCRD behavior; an unbounded loop is a livelock.
//! * **Transmission budget** — total transmissions of one message stay
//!   under [`AuditConfig::max_sends_per_packet`].
//! * **No duplicate final deliveries** — each `(message, subscriber)` pair
//!   is delivered to the application at most once.
//! * **ACK discipline** — every ACK received over a directed link matches
//!   an earlier data transmission that *arrived* in the opposite direction
//!   (at most one ACK per arrival).
//! * **End-to-end completeness** (opt-in,
//!   [`AuditConfig::sequence_check`]) — every `(message, subscriber)` pair
//!   the publisher created an expectation for is eventually delivered.
//!   Only meaningful with crash recovery enabled: without it, crashed
//!   brokers legitimately lose packets.
//!
//! Recovery runs also produce *benign* duplicates: crash replay and NACK
//! re-sends can race the original copy, and the subscriber's dedup window
//! absorbs the extra copy ([`TraceEvent::Suppress`]). The auditor counts
//! those separately ([`AuditReport::replay_suppressions`]) instead of
//! flagging them — only a genuine double application delivery is a
//! [`Violation::DuplicateDelivery`].
//!
//! The auditor is deliberately cheap so it can run inside every chaos
//! sweep: its ledger holds one row per message, in an array indexed by
//! packet id (runtime ids are dense counters) with a spill map for the NACK
//! id space, so each event costs one row lookup plus a scan of the few
//! directed links that message crossed. Rows are never pruned, since a
//! late ACK or a re-send can arrive at any time; the ledger grows by one
//! row per message (a send count, a delivered-subscriber bitset, 88 bytes
//! in all) plus 16 bytes per directed link the message crossed. It
//! reports violations as data ([`AuditReport`]) rather than panicking: an
//! experiment survives a buggy strategy and the report tells you what
//! broke.
//!
//! [`RuntimeConfig::audit`]: crate::runtime::RuntimeConfig::audit
//! [`Trace`]: crate::trace::Trace

use std::collections::BTreeMap;
use std::fmt;

use dcrd_net::failure::Fate;
use dcrd_net::{NodeId, NodeList, NodeSet};
use dcrd_sim::SimTime;

use crate::hotstate::dense_index;
use crate::packet::{Packet, PacketId};
use crate::trace::TraceEvent;

/// Bounds the auditor enforces. These are livelock detectors, not tight
/// performance bounds: set them comfortably above anything a correct
/// strategy can produce (e.g. from the path budget and per-node attempt
/// caps) so that a violation is always a real protocol failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Maximum times one message may cross one directed link.
    pub max_edge_uses: u32,
    /// Maximum total transmissions of one message.
    pub max_sends_per_packet: u64,
    /// Enforce end-to-end completeness: every published `(message,
    /// subscriber)` pair must be delivered by the end of the run. Enable
    /// only when the strategy runs with crash recovery — otherwise crashes
    /// legitimately lose packets and every loss trips a false positive.
    pub sequence_check: bool,
}

impl AuditConfig {
    /// Bounds derived from DCRD's own budgets for an `nodes`-broker
    /// overlay: per-directed-link uses capped by the per-node attempts cap
    /// (`max_attempts_per_node`, with 4× headroom), total sends by that cap
    /// across every broker.
    #[must_use]
    pub fn for_overlay(nodes: usize, max_attempts_per_node: u32) -> Self {
        AuditConfig {
            max_edge_uses: max_attempts_per_node.saturating_mul(4),
            max_sends_per_packet: u64::from(max_attempts_per_node)
                .saturating_mul(nodes as u64)
                .saturating_mul(4),
            sequence_check: false,
        }
    }

    /// Enables the end-to-end completeness check (builder style).
    #[must_use]
    pub fn with_sequence_check(mut self) -> Self {
        self.sequence_check = true;
        self
    }
}

impl Default for AuditConfig {
    fn default() -> Self {
        // The router's default attempts cap is 64; assume overlays of up to
        // ~100 brokers when no topology-specific bound is supplied.
        AuditConfig::for_overlay(100, 64)
    }
}

/// One invariant violation.
///
/// Variants order by severity class in declaration order (the derived
/// `Ord`): traffic bounds first, delivery correctness next, churn and
/// overload gates last. Reports keep detection order; sorting a violation
/// list groups it by kind and is stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// A message crossed one directed link beyond the loop bound.
    LoopBound {
        /// The offending message.
        packet: PacketId,
        /// Sending broker of the overused directed link.
        from: NodeId,
        /// Receiving broker of the overused directed link.
        to: NodeId,
        /// Observed crossings.
        uses: u32,
    },
    /// A message exceeded its total transmission budget.
    TransmissionBudget {
        /// The offending message.
        packet: PacketId,
        /// Observed transmissions.
        sends: u64,
    },
    /// A `(message, subscriber)` pair was delivered more than once.
    DuplicateDelivery {
        /// The message.
        packet: PacketId,
        /// The subscriber that received it again.
        node: NodeId,
    },
    /// An ACK arrived without a matching data arrival (or a second ACK for
    /// one arrival).
    AckWithoutArrival {
        /// The message.
        packet: PacketId,
        /// The broker that supposedly acknowledged.
        from: NodeId,
        /// The sender that received the ACK.
        to: NodeId,
    },
    /// A published `(message, subscriber)` pair was never delivered — a gap
    /// in the subscriber's sequence that recovery failed to close. Only
    /// emitted when [`AuditConfig::sequence_check`] is on.
    SequenceGap {
        /// The undelivered message.
        packet: PacketId,
        /// The subscriber with the gap.
        subscriber: NodeId,
        /// The message's per-(topic, publisher) sequence number.
        seq: u64,
    },
    /// A message was delivered on a broker the churn model had already
    /// removed from the overlay (departed or confirmed dead). Flagged by
    /// the runtime's churn gate — a correct run never produces one.
    DeliveryToDeparted {
        /// The message.
        packet: PacketId,
        /// The departed broker that supposedly delivered.
        node: NodeId,
    },
    /// A churn-absent broker originated a transmission — a routing loop or
    /// stale forwarding state running through a dead broker.
    RouteThroughDead {
        /// The message.
        packet: PacketId,
        /// The absent broker that supposedly transmitted.
        node: NodeId,
    },
    /// An overloaded broker shed a packet whose delay requirement was still
    /// satisfiable (some destination could still have been reached within
    /// its deadline) while a packet that was already doomed stayed in the
    /// queue. Flagged by the runtime's overload gate: the delay-cognizant
    /// least-slack policy never produces one; a naive tail-drop policy
    /// under overload does.
    UnjustifiedShed {
        /// The message that was shed.
        packet: PacketId,
        /// The overloaded broker that shed it.
        node: NodeId,
    },
    /// A broker was still routing on pre-partition membership state more
    /// than the configured number of gossip rounds after the control
    /// plane healed: the dissemination layer failed to spread a
    /// membership rumor within its staleness bound even though nothing
    /// blocked it. Flagged by the runtime's gossip wiring — a working
    /// epidemic never produces one.
    StaleRouteAfterConvergence {
        /// The broker that has not learned the membership delta.
        node: NodeId,
        /// Connected-but-unconverged gossip rounds accumulated.
        rounds: u64,
    },
    /// A strategy timer asked for an instant strictly before the current
    /// simulated time and was clamped to `now` by the event queue. Flagged
    /// by the runtime's `SetTimer` gate: the caller computed a stale
    /// deadline, and without the clamp the event would have reordered
    /// causality. `at == now` (a `now + 0` timer) is legitimate and never
    /// flagged.
    PastEventClamp {
        /// The broker whose timer was clamped.
        node: NodeId,
        /// The requested (past) instant.
        at: SimTime,
        /// The simulated time at which the request was made.
        now: SimTime,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::LoopBound {
                packet,
                from,
                to,
                uses,
            } => write!(
                f,
                "loop bound: packet {} crossed link {}->{} {} times",
                packet.raw(),
                from.index(),
                to.index(),
                uses
            ),
            Violation::TransmissionBudget { packet, sends } => write!(
                f,
                "transmission budget: packet {} sent {} times",
                packet.raw(),
                sends
            ),
            Violation::DuplicateDelivery { packet, node } => write!(
                f,
                "duplicate delivery: packet {} delivered again at node {}",
                packet.raw(),
                node.index()
            ),
            Violation::AckWithoutArrival { packet, from, to } => write!(
                f,
                "ack without arrival: packet {} acked {}->{}",
                packet.raw(),
                from.index(),
                to.index()
            ),
            Violation::SequenceGap {
                packet,
                subscriber,
                seq,
            } => write!(
                f,
                "sequence gap: packet {} (seq {}) never delivered to node {}",
                packet.raw(),
                seq,
                subscriber.index()
            ),
            Violation::DeliveryToDeparted { packet, node } => write!(
                f,
                "delivery to departed: packet {} delivered on departed node {}",
                packet.raw(),
                node.index()
            ),
            Violation::RouteThroughDead { packet, node } => write!(
                f,
                "route through dead: packet {} transmitted by absent node {}",
                packet.raw(),
                node.index()
            ),
            Violation::UnjustifiedShed { packet, node } => write!(
                f,
                "unjustified shed: node {} shed still-satisfiable packet {} \
                 while keeping doomed traffic",
                node.index(),
                packet.raw()
            ),
            Violation::StaleRouteAfterConvergence { node, rounds } => write!(
                f,
                "stale route after convergence: node {} still on stale \
                 membership {} rounds after the control plane healed",
                node.index(),
                rounds
            ),
            Violation::PastEventClamp { node, at, now } => write!(
                f,
                "past-event clamp: node {} armed a timer for {at}, already \
                 {} behind the clock at {now}",
                node.index(),
                now.saturating_since(at),
            ),
        }
    }
}

/// How many violations are kept verbatim; beyond this only the count grows.
const MAX_RECORDED: usize = 64;

/// The outcome of one audited run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// The first `MAX_RECORDED` (64) violations, in detection order.
    pub violations: Vec<Violation>,
    /// Total violations detected (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Events the auditor observed.
    pub events_observed: u64,
    /// Benign duplicates absorbed by subscriber dedup windows (crash replay
    /// or NACK re-sends racing the original copy). Informational, not a
    /// violation.
    pub replay_suppressions: u64,
    /// Packets shed by overloaded brokers under the bounded service queue.
    /// Informational: a shed is only a violation when it abandons a
    /// still-satisfiable packet over a doomed one
    /// ([`Violation::UnjustifiedShed`]).
    pub sheds_observed: u64,
    /// How many of the `total_violations` are [`Violation::UnjustifiedShed`]
    /// (recorded or not).
    pub unjustified_sheds: u64,
}

impl AuditReport {
    /// Whether the run upheld every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

/// One directed link a message crossed.
#[derive(Debug, Clone, Copy)]
struct LinkUse {
    from: NodeId,
    to: NodeId,
    /// Crossings so far.
    uses: u32,
    /// Data arrivals over the link not yet consumed by an ACK.
    unacked: u32,
}

/// Everything the auditor tracks about one message.
#[derive(Debug, Clone, Default)]
struct PacketRow {
    /// Total transmissions.
    sends: u64,
    /// Subscribers it was delivered to.
    delivered: NodeSet,
    /// The directed links it crossed, in first-crossing order.
    links: Vec<LinkUse>,
}

impl PacketRow {
    /// The entry for the directed link `from → to`, if it was crossed.
    /// Searched newest first: links are appended as the message reaches
    /// them, and an ACK or a re-send mostly concerns a link it reached
    /// recently.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkUse> {
        self.links
            .iter_mut()
            .rev()
            .find(|l| l.from == from && l.to == to)
    }
}

/// Rows by packet id: dense below [`dense_index`]'s limit, a spill map for
/// the NACK id space above it.
#[derive(Debug, Default)]
struct Ledger {
    dense: Vec<PacketRow>,
    spill: BTreeMap<PacketId, PacketRow>,
}

impl Ledger {
    fn get(&self, id: PacketId) -> Option<&PacketRow> {
        match dense_index(id) {
            Some(i) => self.dense.get(i),
            None => self.spill.get(&id),
        }
    }

    fn get_mut(&mut self, id: PacketId) -> Option<&mut PacketRow> {
        match dense_index(id) {
            Some(i) => self.dense.get_mut(i),
            None => self.spill.get_mut(&id),
        }
    }

    /// The row for `id`, created empty on first use. `None` only if the
    /// dense array failed to grow.
    fn entry(&mut self, id: PacketId) -> Option<&mut PacketRow> {
        match dense_index(id) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, PacketRow::default);
                }
                self.dense.get_mut(i)
            }
            None => Some(self.spill.entry(id).or_default()),
        }
    }
}

/// The online auditor. Create one per run, feed it every trace-level event
/// via [`observe`](InvariantAuditor::observe), then take the
/// [`AuditReport`] with [`finish`](InvariantAuditor::finish).
#[derive(Debug)]
pub struct InvariantAuditor {
    config: AuditConfig,
    /// Per-message send count, deliveries and directed-link counters.
    ledger: Ledger,
    /// Publish-time expectations, in publish order: `(message, sequence
    /// number, expected subscribers)`. Only populated when the sequence
    /// check is on.
    published: Vec<(PacketId, u64, NodeList)>,
    report: AuditReport,
}

impl InvariantAuditor {
    /// Creates an auditor with the given bounds.
    #[must_use]
    pub fn new(config: AuditConfig) -> Self {
        InvariantAuditor {
            config,
            ledger: Ledger::default(),
            published: Vec::new(),
            report: AuditReport::default(),
        }
    }

    /// Records the expectation set of a freshly published message (called
    /// by the runtime at publish time, data packets only). A no-op unless
    /// [`AuditConfig::sequence_check`] is enabled.
    pub fn observe_publish(&mut self, packet: &Packet) {
        if self.config.sequence_check && !packet.is_nack() {
            self.published
                .push((packet.id, packet.seq, packet.destinations.clone()));
        }
    }

    fn violate(&mut self, v: Violation) {
        self.report.total_violations += 1;
        if matches!(v, Violation::UnjustifiedShed { .. }) {
            self.report.unjustified_sheds += 1;
        }
        if self.report.violations.len() < MAX_RECORDED {
            self.report.violations.push(v);
        }
    }

    /// Records a violation detected by the runtime itself rather than by
    /// the event-stream checks (e.g. the churn gate catching a delivery on
    /// a departed broker).
    pub fn flag(&mut self, v: Violation) {
        self.violate(v);
    }

    /// Feeds one event through the invariant checks.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.report.events_observed += 1;
        match *event {
            TraceEvent::Send {
                from,
                to,
                packet,
                fate,
                ..
            } => {
                let Some(row) = self.ledger.entry(packet) else {
                    return;
                };
                row.sends += 1;
                let sends = row.sends;
                if row.link_mut(from, to).is_none() {
                    row.links.push(LinkUse {
                        from,
                        to,
                        uses: 0,
                        unacked: 0,
                    });
                }
                // A fresh link is the newest, so this finds it at once.
                let Some(link) = row.link_mut(from, to) else {
                    return;
                };
                link.uses += 1;
                if matches!(fate, Fate::Arrived { .. }) {
                    link.unacked += 1;
                }
                let uses = link.uses;
                // Flag exactly at the boundary so one runaway packet yields
                // one violation per extra crossing, not silence.
                if uses == self.config.max_edge_uses + 1 {
                    self.violate(Violation::LoopBound {
                        packet,
                        from,
                        to,
                        uses,
                    });
                }
                if sends == self.config.max_sends_per_packet + 1 {
                    self.violate(Violation::TransmissionBudget { packet, sends });
                }
            }
            TraceEvent::Deliver { node, packet, .. } => {
                let again = self
                    .ledger
                    .entry(packet)
                    .is_some_and(|row| !row.delivered.insert(node));
                if again {
                    self.violate(Violation::DuplicateDelivery { packet, node });
                }
            }
            TraceEvent::Ack {
                from, to, packet, ..
            } => {
                // The ACK from `from` back to `to` must consume one earlier
                // arrival of a data send `to → from`.
                let consumed = self
                    .ledger
                    .get_mut(packet)
                    .and_then(|row| row.link_mut(to, from))
                    .is_some_and(|link| {
                        let pending = link.unacked > 0;
                        if pending {
                            link.unacked -= 1;
                        }
                        pending
                    });
                if !consumed {
                    self.violate(Violation::AckWithoutArrival { packet, from, to });
                }
            }
            TraceEvent::Suppress { .. } => {
                self.report.replay_suppressions += 1;
            }
            TraceEvent::Shed { .. } => {
                self.report.sheds_observed += 1;
            }
            TraceEvent::GiveUp { .. } => {}
        }
    }

    /// Finalizes the audit and returns the report. When the sequence check
    /// is on, every published `(message, subscriber)` pair without a
    /// delivery becomes a [`Violation::SequenceGap`].
    #[must_use]
    pub fn finish(mut self) -> AuditReport {
        if self.config.sequence_check {
            let published = std::mem::take(&mut self.published);
            for (packet, seq, subscribers) in published {
                for &subscriber in &subscribers {
                    let delivered = self
                        .ledger
                        .get(packet)
                        .is_some_and(|row| row.delivered.contains(subscriber));
                    if !delivered {
                        self.violate(Violation::SequenceGap {
                            packet,
                            subscriber,
                            seq,
                        });
                    }
                }
            }
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::failure::Cause;
    use dcrd_sim::SimTime;

    const ARRIVED: Fate = Fate::Arrived { at: SimTime::ZERO };
    const BLOCKED: Fate = Fate::Blocked(Cause::LinkDown);
    const LOST: Fate = Fate::Lost(Cause::Loss);

    fn send(from: u32, to: u32, pkt: u64, fate: Fate) -> TraceEvent {
        TraceEvent::Send {
            at: SimTime::ZERO,
            from: NodeId::new(from),
            to: NodeId::new(to),
            packet: PacketId::new(pkt),
            destinations: 1,
            fate,
        }
    }

    fn ack(from: u32, to: u32, pkt: u64) -> TraceEvent {
        TraceEvent::Ack {
            at: SimTime::ZERO,
            from: NodeId::new(from),
            to: NodeId::new(to),
            packet: PacketId::new(pkt),
        }
    }

    fn deliver(node: u32, pkt: u64) -> TraceEvent {
        TraceEvent::Deliver {
            at: SimTime::ZERO,
            node: NodeId::new(node),
            packet: PacketId::new(pkt),
        }
    }

    fn tight() -> AuditConfig {
        AuditConfig {
            max_edge_uses: 2,
            max_sends_per_packet: 4,
            sequence_check: false,
        }
    }

    /// One violation of every variant, in declaration (severity-class)
    /// order.
    fn one_of_each() -> Vec<Violation> {
        let p = PacketId::new(7);
        let n = NodeId::new(3);
        vec![
            Violation::LoopBound {
                packet: p,
                from: NodeId::new(1),
                to: NodeId::new(2),
                uses: 9,
            },
            Violation::TransmissionBudget {
                packet: p,
                sends: 99,
            },
            Violation::DuplicateDelivery { packet: p, node: n },
            Violation::AckWithoutArrival {
                packet: p,
                from: NodeId::new(1),
                to: NodeId::new(2),
            },
            Violation::SequenceGap {
                packet: p,
                subscriber: n,
                seq: 4,
            },
            Violation::DeliveryToDeparted { packet: p, node: n },
            Violation::RouteThroughDead { packet: p, node: n },
            Violation::UnjustifiedShed { packet: p, node: n },
            Violation::StaleRouteAfterConvergence {
                node: n,
                rounds: 47,
            },
        ]
    }

    #[test]
    fn violation_display_names_the_kind_and_the_actors() {
        let expected_kind = [
            "loop bound",
            "transmission budget",
            "duplicate delivery",
            "ack without arrival",
            "sequence gap",
            "delivery to departed",
            "route through dead",
            "unjustified shed",
            "stale route after convergence",
        ];
        let all = one_of_each();
        assert_eq!(all.len(), expected_kind.len());
        for (v, kind) in all.iter().zip(expected_kind) {
            let s = v.to_string();
            assert!(s.starts_with(kind), "{s:?} should start with {kind:?}");
            // Every message names the offending packet (round count 47 for
            // the packet-less staleness clause); per-variant detail fields
            // (counts, link endpoints, sequence numbers) surface too.
            assert!(s.contains('7'), "{s:?} should name packet 7");
        }
        let loop_bound = all[0].to_string();
        assert!(loop_bound.contains("1->2") && loop_bound.contains("9 times"));
        assert!(all[1].to_string().contains("99"));
        assert!(all[4].to_string().contains("seq 4"));
    }

    #[test]
    fn violation_ordering_follows_severity_class_declaration_order() {
        let canonical = one_of_each();
        // Sorting a reversed list restores declaration order: the derived
        // `Ord` groups by kind, so reports sort stably across runs.
        let mut shuffled: Vec<Violation> = canonical.iter().rev().copied().collect();
        shuffled.sort();
        assert_eq!(shuffled, canonical);
        // Idempotent: already-sorted input is a fixed point.
        let mut again = shuffled.clone();
        again.sort();
        assert_eq!(again, shuffled);
        // Within one kind, fields order the instances deterministically.
        let a = Violation::UnjustifiedShed {
            packet: PacketId::new(1),
            node: NodeId::new(0),
        };
        let b = Violation::UnjustifiedShed {
            packet: PacketId::new(2),
            node: NodeId::new(0),
        };
        assert!(a < b);
        assert!(
            canonical[0] < a,
            "traffic bounds sort before overload gates"
        );
    }

    #[test]
    fn sheds_are_counted_but_not_violations() {
        let mut a = InvariantAuditor::new(tight());
        a.observe(&send(0, 1, 7, ARRIVED));
        a.observe(&TraceEvent::Shed {
            at: SimTime::ZERO,
            node: NodeId::new(1),
            packet: PacketId::new(7),
        });
        let report = a.finish();
        assert_eq!(report.sheds_observed, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn clean_run_reports_clean() {
        let mut a = InvariantAuditor::new(tight());
        a.observe(&send(0, 1, 7, ARRIVED));
        a.observe(&ack(1, 0, 7));
        a.observe(&deliver(1, 7));
        let report = a.finish();
        assert!(report.is_clean());
        assert_eq!(report.events_observed, 3);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn loop_bound_flags_excess_crossings() {
        let mut a = InvariantAuditor::new(tight());
        for _ in 0..3 {
            a.observe(&send(0, 1, 7, BLOCKED));
        }
        let report = a.finish();
        assert_eq!(report.total_violations, 1);
        assert!(matches!(
            report.violations[0],
            Violation::LoopBound { uses: 3, .. }
        ));
    }

    #[test]
    fn transmission_budget_flags_total_sends() {
        let mut a = InvariantAuditor::new(tight());
        // 4 sends over distinct links: within the edge bound, over the
        // packet budget on the fifth.
        for to in 1..=4u32 {
            a.observe(&send(0, to, 9, LOST));
        }
        assert!(a.report.total_violations == 0);
        a.observe(&send(0, 5, 9, LOST));
        let report = a.finish();
        assert_eq!(report.total_violations, 1);
        assert!(matches!(
            report.violations[0],
            Violation::TransmissionBudget { sends: 5, .. }
        ));
    }

    #[test]
    fn duplicate_delivery_is_flagged_once_per_extra() {
        let mut a = InvariantAuditor::new(tight());
        a.observe(&deliver(3, 1));
        a.observe(&deliver(3, 1));
        a.observe(&deliver(3, 1));
        let report = a.finish();
        assert_eq!(report.total_violations, 2);
        assert!(matches!(
            report.violations[0],
            Violation::DuplicateDelivery { .. }
        ));
    }

    #[test]
    fn ack_discipline_requires_matching_arrival() {
        let mut a = InvariantAuditor::new(tight());
        // ACK with no arrival at all.
        a.observe(&ack(1, 0, 2));
        // Blocked send does not arm an ACK either.
        a.observe(&send(0, 1, 3, BLOCKED));
        a.observe(&ack(1, 0, 3));
        // One arrival allows exactly one ACK.
        a.observe(&send(0, 1, 4, ARRIVED));
        a.observe(&ack(1, 0, 4));
        a.observe(&ack(1, 0, 4));
        let report = a.finish();
        assert_eq!(report.total_violations, 3);
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, Violation::AckWithoutArrival { .. })));
    }

    #[test]
    fn recorded_violations_are_capped() {
        let mut a = InvariantAuditor::new(tight());
        for i in 0..200u64 {
            a.observe(&deliver(0, i));
            a.observe(&deliver(0, i));
        }
        let report = a.finish();
        assert_eq!(report.total_violations, 200);
        assert_eq!(report.violations.len(), MAX_RECORDED);
        assert!(!report.is_clean());
    }

    #[test]
    fn unjustified_sheds_are_counted_past_the_record_cap() {
        let mut a = InvariantAuditor::new(tight());
        for i in 0..100u64 {
            a.flag(Violation::UnjustifiedShed {
                packet: PacketId::new(i),
                node: NodeId::new(1),
            });
        }
        a.flag(Violation::RouteThroughDead {
            packet: PacketId::new(0),
            node: NodeId::new(2),
        });
        let report = a.finish();
        assert_eq!(report.total_violations, 101);
        assert_eq!(report.unjustified_sheds, 100);
        assert_eq!(report.violations.len(), MAX_RECORDED);
    }

    #[test]
    fn sequence_check_flags_undelivered_pairs() {
        use crate::topic::TopicId;
        let mut a = InvariantAuditor::new(tight().with_sequence_check());
        let p = Packet::new(
            PacketId::new(7),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![NodeId::new(1), NodeId::new(2)],
        )
        .with_seq(4);
        a.observe_publish(&p);
        a.observe(&deliver(1, 7));
        let report = a.finish();
        assert_eq!(report.total_violations, 1);
        assert!(matches!(
            report.violations[0],
            Violation::SequenceGap {
                subscriber,
                seq: 4,
                ..
            } if subscriber == NodeId::new(2)
        ));
    }

    #[test]
    fn sequence_check_off_ignores_publishes() {
        use crate::topic::TopicId;
        let mut a = InvariantAuditor::new(tight());
        let p = Packet::new(
            PacketId::new(7),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![NodeId::new(1)],
        );
        a.observe_publish(&p);
        assert!(a.finish().is_clean());
    }

    #[test]
    fn suppressions_are_benign() {
        let mut a = InvariantAuditor::new(tight());
        a.observe(&deliver(1, 7));
        a.observe(&TraceEvent::Suppress {
            at: SimTime::ZERO,
            node: NodeId::new(1),
            packet: PacketId::new(7),
        });
        let report = a.finish();
        assert!(report.is_clean());
        assert_eq!(report.replay_suppressions, 1);
    }

    #[test]
    fn runtime_flagged_churn_violations_count() {
        let mut a = InvariantAuditor::new(tight());
        a.flag(Violation::DeliveryToDeparted {
            packet: PacketId::new(1),
            node: NodeId::new(4),
        });
        a.flag(Violation::RouteThroughDead {
            packet: PacketId::new(2),
            node: NodeId::new(4),
        });
        let report = a.finish();
        assert_eq!(report.total_violations, 2);
        assert!(matches!(
            report.violations[0],
            Violation::DeliveryToDeparted { .. }
        ));
        assert!(matches!(
            report.violations[1],
            Violation::RouteThroughDead { .. }
        ));
    }

    #[test]
    fn overlay_bounds_scale_with_attempt_cap() {
        let c = AuditConfig::for_overlay(20, 64);
        assert_eq!(c.max_edge_uses, 256);
        assert_eq!(c.max_sends_per_packet, 64 * 20 * 4);
        let d = AuditConfig::default();
        assert!(d.max_edge_uses >= 64);
    }

    /// The ledger's memory bound, as the module docs state it.
    #[test]
    fn ledger_rows_and_links_keep_their_documented_size() {
        assert_eq!(std::mem::size_of::<PacketRow>(), 88);
        assert_eq!(std::mem::size_of::<LinkUse>(), 16);
    }

    /// The map-per-counter auditor the packet-indexed ledger replaced, kept
    /// as the oracle the ledger must agree with event for event.
    struct ReferenceAuditor {
        config: AuditConfig,
        edge_uses: BTreeMap<(PacketId, NodeId, NodeId), u32>,
        packet_sends: BTreeMap<PacketId, u64>,
        delivered: BTreeMap<(PacketId, NodeId), u32>,
        unacked_arrivals: BTreeMap<(PacketId, NodeId, NodeId), u32>,
        published: Vec<(PacketId, u64, NodeList)>,
        report: AuditReport,
    }

    impl ReferenceAuditor {
        fn new(config: AuditConfig) -> Self {
            ReferenceAuditor {
                config,
                edge_uses: BTreeMap::new(),
                packet_sends: BTreeMap::new(),
                delivered: BTreeMap::new(),
                unacked_arrivals: BTreeMap::new(),
                published: Vec::new(),
                report: AuditReport::default(),
            }
        }

        fn observe_publish(&mut self, packet: &Packet) {
            if self.config.sequence_check && !packet.is_nack() {
                self.published
                    .push((packet.id, packet.seq, packet.destinations.clone()));
            }
        }

        fn violate(&mut self, v: Violation) {
            self.report.total_violations += 1;
            if matches!(v, Violation::UnjustifiedShed { .. }) {
                self.report.unjustified_sheds += 1;
            }
            if self.report.violations.len() < MAX_RECORDED {
                self.report.violations.push(v);
            }
        }

        fn observe(&mut self, event: &TraceEvent) {
            self.report.events_observed += 1;
            match *event {
                TraceEvent::Send {
                    from,
                    to,
                    packet,
                    fate,
                    ..
                } => {
                    let uses = self.edge_uses.entry((packet, from, to)).or_insert(0);
                    *uses += 1;
                    let uses = *uses;
                    if uses == self.config.max_edge_uses + 1 {
                        self.violate(Violation::LoopBound {
                            packet,
                            from,
                            to,
                            uses,
                        });
                    }
                    let sends = self.packet_sends.entry(packet).or_insert(0);
                    *sends += 1;
                    let sends = *sends;
                    if sends == self.config.max_sends_per_packet + 1 {
                        self.violate(Violation::TransmissionBudget { packet, sends });
                    }
                    if matches!(fate, Fate::Arrived { .. }) {
                        *self.unacked_arrivals.entry((packet, from, to)).or_insert(0) += 1;
                    }
                }
                TraceEvent::Deliver { node, packet, .. } => {
                    let count = self.delivered.entry((packet, node)).or_insert(0);
                    *count += 1;
                    if *count > 1 {
                        self.violate(Violation::DuplicateDelivery { packet, node });
                    }
                }
                TraceEvent::Ack {
                    from, to, packet, ..
                } => match self.unacked_arrivals.get_mut(&(packet, to, from)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => self.violate(Violation::AckWithoutArrival { packet, from, to }),
                },
                TraceEvent::Suppress { .. } => self.report.replay_suppressions += 1,
                TraceEvent::Shed { .. } => self.report.sheds_observed += 1,
                TraceEvent::GiveUp { .. } => {}
            }
        }

        fn finish(mut self) -> AuditReport {
            if self.config.sequence_check {
                let published = std::mem::take(&mut self.published);
                for (packet, seq, subscribers) in published {
                    for &subscriber in &subscribers {
                        if !self.delivered.contains_key(&(packet, subscriber)) {
                            self.violate(Violation::SequenceGap {
                                packet,
                                subscriber,
                                seq,
                            });
                        }
                    }
                }
            }
            self.report
        }
    }

    /// Seeded streams of every event kind over a few brokers and a packet
    /// id space that straddles the dense limit: duplicate deliveries,
    /// matching and stray ACKs, double ACKs, links crossed past the loop
    /// bound, messages past the transmission budget, publishes with and
    /// without deliveries, and runtime-flagged violations. The ledger must
    /// report exactly what the map auditor reports, in the same order.
    #[test]
    fn ledger_matches_the_map_auditor_on_seeded_streams() {
        use crate::topic::TopicId;
        use dcrd_sim::rng::derive_seed_indexed;

        let ids = [0, 1, 2, 7, 40, 1 << 32, (1 << 32) + 1, (1 << 63) | 3];
        // Broker 300 sits past the delivered bitset's inline words.
        let nodes = [0, 1, 2, 3, 5, 300];
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..200u64 {
            let draw = |i: u64, label: &str, n: usize| {
                (derive_seed_indexed(derive_seed_indexed(17, "audit-case", case), label, i)
                    % n as u64) as usize
            };
            let config = AuditConfig {
                max_edge_uses: 1 + draw(0, "edge-cap", 3) as u32,
                max_sends_per_packet: 3 + draw(0, "send-cap", 8) as u64,
                sequence_check: case % 2 == 0,
            };
            let mut ledger = InvariantAuditor::new(config);
            let mut reference = ReferenceAuditor::new(config);
            let packet = |i: u64, label: &str| PacketId::new(ids[draw(i, label, ids.len())]);
            let node = |i: u64, label: &str| NodeId::new(nodes[draw(i, label, nodes.len())]);
            for &raw in ids.iter().filter(|_| case % 3 != 0) {
                let p = Packet::new(
                    PacketId::new(raw),
                    TopicId::new(0),
                    NodeId::new(0),
                    SimTime::ZERO,
                    vec![NodeId::new(1), NodeId::new(300)],
                )
                .with_seq(raw % 97);
                ledger.observe_publish(&p);
                reference.observe_publish(&p);
            }
            let mut arrivals: Vec<(u32, u32, u64)> = Vec::new();
            // Short streams leave room under the recorded-violation cap for
            // the sequence gaps `finish` adds.
            let events = 10 + draw(0, "len", 400) as u64;
            for i in 0..events {
                let at = SimTime::from_micros(i);
                let event = match draw(i, "kind", 10) {
                    0..=3 => {
                        let (from, to, packet) = (node(i, "from"), node(i, "to"), packet(i, "pkt"));
                        let fate = match draw(i, "outcome", 3) {
                            0 => Fate::Blocked(Cause::LinkDown),
                            1 => Fate::Lost(Cause::Loss),
                            _ => Fate::Arrived { at },
                        };
                        if matches!(fate, Fate::Arrived { .. }) {
                            arrivals.push((from.index() as u32, to.index() as u32, packet.raw()));
                        }
                        TraceEvent::Send {
                            at,
                            from,
                            to,
                            packet,
                            destinations: 1,
                            fate,
                        }
                    }
                    4 | 5 if !arrivals.is_empty() => {
                        // Usually the ACK of a real arrival (possibly
                        // again), sometimes one nothing earned.
                        let (from, to, raw) = arrivals[draw(i, "acked", arrivals.len())];
                        TraceEvent::Ack {
                            at,
                            from: NodeId::new(to),
                            to: NodeId::new(from),
                            packet: PacketId::new(raw),
                        }
                    }
                    4..=6 => TraceEvent::Ack {
                        at,
                        from: node(i, "ack-from"),
                        to: node(i, "ack-to"),
                        packet: packet(i, "ack-pkt"),
                    },
                    7 => TraceEvent::Deliver {
                        at,
                        node: node(i, "sub"),
                        packet: packet(i, "del-pkt"),
                    },
                    8 => match draw(i, "aside", 4) {
                        0 => TraceEvent::Suppress {
                            at,
                            node: node(i, "sub"),
                            packet: packet(i, "pkt"),
                        },
                        1 => TraceEvent::Shed {
                            at,
                            node: node(i, "sub"),
                            packet: packet(i, "pkt"),
                        },
                        _ => TraceEvent::GiveUp {
                            at,
                            node: node(i, "from"),
                            packet: packet(i, "pkt"),
                            destination: node(i, "sub"),
                        },
                    },
                    _ => {
                        let (packet, node) = (packet(i, "pkt"), node(i, "from"));
                        let v = if draw(i, "flag", 2) == 0 {
                            Violation::RouteThroughDead { packet, node }
                        } else {
                            Violation::UnjustifiedShed { packet, node }
                        };
                        ledger.flag(v);
                        reference.violate(v);
                        continue;
                    }
                };
                ledger.observe(&event);
                reference.observe(&event);
            }
            let (got, want) = (ledger.finish(), reference.finish());
            assert_eq!(got, want, "case {case}");
            for v in &want.violations {
                let text = v.to_string();
                seen.insert(text.split(':').next().unwrap_or_default().to_owned());
            }
        }
        // The streams reach every check the event stream drives, plus the
        // runtime's flags.
        assert_eq!(seen.len(), 7, "violation kinds seen: {seen:?}");
    }
}
