//! Per-transmission trace capture.
//!
//! When enabled ([`RuntimeConfig::capture_trace`]), the runtime records
//! every data transmission with its [`Fate`], every local delivery, every
//! hop ACK that reaches its sender, every give-up, suppression and shed.
//! A send's fate names its arrival instant or the [`Cause`] that stopped
//! it (a down link or broker, a partition, random or gray loss), so a
//! trace answers why a copy never arrived as well as where it went. Traces
//! make forwarding behavior inspectable: tests use them to assert loop
//! bounds, path validity and loss accounting, and the examples use them to
//! explain *why* a packet took the route it did.
//!
//! [`RuntimeConfig::capture_trace`]: crate::runtime::RuntimeConfig::capture_trace
//! [`Cause`]: dcrd_net::failure::Cause

use dcrd_net::failure::Fate;
use dcrd_net::NodeId;
use dcrd_sim::SimTime;

use crate::packet::PacketId;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A data transmission over one link.
    Send {
        /// When the transmission started.
        at: SimTime,
        /// Sending broker.
        from: NodeId,
        /// Receiving broker.
        to: NodeId,
        /// The message.
        packet: PacketId,
        /// Number of destinations carried by this copy.
        destinations: u32,
        /// The transmission's fate ([`FailureState::fate`]).
        ///
        /// [`FailureState::fate`]: dcrd_net::failure::FailureState::fate
        fate: Fate,
    },
    /// A local delivery to a subscriber.
    Deliver {
        /// Delivery time.
        at: SimTime,
        /// The subscribing broker.
        node: NodeId,
        /// The message.
        packet: PacketId,
    },
    /// A strategy gave up on one `(message, subscriber)` pair.
    GiveUp {
        /// When the strategy gave up.
        at: SimTime,
        /// The broker that gave up.
        node: NodeId,
        /// The message.
        packet: PacketId,
        /// The abandoned subscriber.
        destination: NodeId,
    },
    /// A duplicate copy was absorbed by a subscriber's dedup window
    /// (recovery mode: crash replay or a NACK re-send arrived after the
    /// original delivery). Benign by construction — the auditor counts
    /// these separately from genuine duplicate deliveries.
    Suppress {
        /// When the duplicate was absorbed.
        at: SimTime,
        /// The subscribing broker.
        node: NodeId,
        /// The message.
        packet: PacketId,
    },
    /// A hop-by-hop ACK reached the original sender.
    Ack {
        /// When the ACK arrived.
        at: SimTime,
        /// The broker that acknowledged (the data receiver).
        from: NodeId,
        /// The broker the ACK reached (the data sender).
        to: NodeId,
        /// The message.
        packet: PacketId,
    },
    /// An overloaded broker shed a queued packet copy because its bounded
    /// service queue exceeded budget (delay-cognizant load shedding; see
    /// `RuntimeConfig::queue_limit`).
    Shed {
        /// When the packet was shed.
        at: SimTime,
        /// The overloaded broker.
        node: NodeId,
        /// The message.
        packet: PacketId,
    },
}

impl TraceEvent {
    /// The message this event concerns.
    #[must_use]
    pub fn packet(&self) -> PacketId {
        match *self {
            TraceEvent::Send { packet, .. }
            | TraceEvent::Deliver { packet, .. }
            | TraceEvent::GiveUp { packet, .. }
            | TraceEvent::Suppress { packet, .. }
            | TraceEvent::Ack { packet, .. }
            | TraceEvent::Shed { packet, .. } => packet,
        }
    }

    /// The event's timestamp.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::GiveUp { at, .. }
            | TraceEvent::Suppress { at, .. }
            | TraceEvent::Ack { at, .. }
            | TraceEvent::Shed { at, .. } => at,
        }
    }
}

/// The complete trace of one run (only populated when capture is enabled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one event (runtime-side).
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in chronological (recording) order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The maximum number of times any single message traversed the same
    /// directed link (a forwarding-loop indicator: retransmissions and
    /// bounded rerouting keep it small, a livelock makes it explode).
    #[must_use]
    pub fn max_directed_edge_uses(&self) -> u32 {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<(PacketId, NodeId, NodeId), u32> = BTreeMap::new();
        for e in &self.events {
            if let TraceEvent::Send {
                from, to, packet, ..
            } = *e
            {
                *counts.entry((packet, from, to)).or_insert(0) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Counts transmissions per outcome: `(arrived, blocked, lost)`.
    #[must_use]
    pub fn outcome_counts(&self) -> (u64, u64, u64) {
        let mut arrived = 0;
        let mut blocked = 0;
        let mut lost = 0;
        for e in &self.events {
            if let TraceEvent::Send { fate, .. } = e {
                match fate {
                    Fate::Arrived { .. } => arrived += 1,
                    Fate::Blocked(_) => blocked += 1,
                    Fate::Lost(_) => lost += 1,
                }
            }
        }
        (arrived, blocked, lost)
    }

    /// A 64-bit FNV-1a digest over the canonical encoding of every event,
    /// in recording order. Two runs of a deterministic simulation with the
    /// same seed must produce equal digests — the determinism regression
    /// tests compare this instead of diffing full traces. A send's fate
    /// enters as its class only (arrived, blocked, lost): its cause and
    /// arrival instant follow from the rest of the run.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        for e in &self.events {
            match *e {
                TraceEvent::Send {
                    at,
                    from,
                    to,
                    packet,
                    destinations,
                    fate,
                } => {
                    mix(1);
                    mix(at.as_micros());
                    mix(from.index() as u64);
                    mix(to.index() as u64);
                    mix(packet.raw());
                    mix(u64::from(destinations));
                    mix(match fate {
                        Fate::Arrived { .. } => 0,
                        Fate::Blocked(_) => 1,
                        Fate::Lost(_) => 2,
                    });
                }
                TraceEvent::Deliver { at, node, packet } => {
                    mix(2);
                    mix(at.as_micros());
                    mix(node.index() as u64);
                    mix(packet.raw());
                }
                TraceEvent::GiveUp {
                    at,
                    node,
                    packet,
                    destination,
                } => {
                    mix(3);
                    mix(at.as_micros());
                    mix(node.index() as u64);
                    mix(packet.raw());
                    mix(destination.index() as u64);
                }
                TraceEvent::Suppress { at, node, packet } => {
                    mix(4);
                    mix(at.as_micros());
                    mix(node.index() as u64);
                    mix(packet.raw());
                }
                TraceEvent::Ack {
                    at,
                    from,
                    to,
                    packet,
                } => {
                    mix(5);
                    mix(at.as_micros());
                    mix(from.index() as u64);
                    mix(to.index() as u64);
                    mix(packet.raw());
                }
                TraceEvent::Shed { at, node, packet } => {
                    mix(6);
                    mix(at.as_micros());
                    mix(node.index() as u64);
                    mix(packet.raw());
                }
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::failure::Cause;

    const ARRIVED: Fate = Fate::Arrived {
        at: SimTime::from_millis(40),
    };

    fn send(at_ms: u64, from: u32, to: u32, pkt: u64, fate: Fate) -> TraceEvent {
        TraceEvent::Send {
            at: SimTime::from_millis(at_ms),
            from: NodeId::new(from),
            to: NodeId::new(to),
            packet: PacketId::new(pkt),
            destinations: 1,
            fate,
        }
    }

    #[test]
    fn records_and_queries() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record(send(0, 0, 1, 7, ARRIVED));
        t.record(send(5, 1, 2, 7, Fate::Blocked(Cause::LinkDown)));
        t.record(send(9, 1, 2, 7, Fate::Lost(Cause::Loss)));
        t.record(TraceEvent::Deliver {
            at: SimTime::from_millis(20),
            node: NodeId::new(2),
            packet: PacketId::new(7),
        });
        assert_eq!(t.len(), 4);
        assert_eq!(t.outcome_counts(), (1, 1, 1));
        assert_eq!(t.max_directed_edge_uses(), 2);
    }

    #[test]
    fn event_accessors() {
        let e = send(3, 0, 1, 9, ARRIVED);
        assert_eq!(e.packet(), PacketId::new(9));
        assert_eq!(e.time(), SimTime::from_millis(3));
        let g = TraceEvent::GiveUp {
            at: SimTime::from_millis(4),
            node: NodeId::new(0),
            packet: PacketId::new(9),
            destination: NodeId::new(5),
        };
        assert_eq!(g.packet(), PacketId::new(9));
        assert_eq!(g.time(), SimTime::from_millis(4));
        let a = TraceEvent::Ack {
            at: SimTime::from_millis(6),
            from: NodeId::new(1),
            to: NodeId::new(0),
            packet: PacketId::new(9),
        };
        assert_eq!(a.packet(), PacketId::new(9));
        assert_eq!(a.time(), SimTime::from_millis(6));
    }

    #[test]
    fn acks_do_not_count_as_edge_uses() {
        let mut t = Trace::new();
        t.record(send(0, 0, 1, 7, ARRIVED));
        t.record(TraceEvent::Ack {
            at: SimTime::from_millis(1),
            from: NodeId::new(1),
            to: NodeId::new(0),
            packet: PacketId::new(7),
        });
        assert_eq!(t.max_directed_edge_uses(), 1);
        assert_eq!(t.outcome_counts(), (1, 0, 0));
    }

    #[test]
    fn empty_trace_queries() {
        let t = Trace::new();
        assert_eq!(t.max_directed_edge_uses(), 0);
        assert_eq!(t.outcome_counts(), (0, 0, 0));
        assert!(t.events().is_empty());
    }

    #[test]
    fn digest_mixes_the_class_of_a_fate_only() {
        let digest = |fate| {
            let mut t = Trace::new();
            t.record(send(0, 0, 1, 7, fate));
            t.digest()
        };
        let later = Fate::Arrived {
            at: SimTime::from_millis(90),
        };
        assert_eq!(digest(ARRIVED), digest(later));
        assert_eq!(
            digest(Fate::Blocked(Cause::LinkDown)),
            digest(Fate::Blocked(Cause::Partition))
        );
        assert_eq!(
            digest(Fate::Lost(Cause::Loss)),
            digest(Fate::Lost(Cause::Gray))
        );
        assert_ne!(digest(ARRIVED), digest(Fate::Lost(Cause::Loss)));
        assert_ne!(
            digest(Fate::Blocked(Cause::Loss)),
            digest(Fate::Lost(Cause::Loss))
        );
    }
}
