//! The transport stage: every data send, hop ACK and link probe draws its
//! [`Fate`] here, and a copy waits parked until its receiver routes it.

use dcrd_net::estimate::EwmaMonitor;
use dcrd_net::failure::{FailureView, Fate};
use dcrd_net::loss::LossModel;
use dcrd_net::{EdgeId, NodeId, Topology};
use dcrd_sim::rng::{rng_for, SmallRng};
use dcrd_sim::SimTime;
use std::sync::Arc;

use super::{AckTransit, DeliveryLog, Event, Inbound, OverlayRuntime, Queue, Sinks};
use crate::hotstate::Slab;
use crate::packet::{Packet, PacketId};
use crate::trace::TraceEvent;

/// The links, and the copies on them or waiting behind a busy broker.
pub struct Transport<'a> {
    pub topology: &'a Topology,
    loss: LossModel,
    ack_transit: AckTransit,
    rng: SmallRng,
    /// Every failure query of the run goes through this per-epoch memo.
    pub failures: FailureView,
    /// Packets between their send and their receiver's routing logic: on
    /// the wire, or waiting for a busy broker. A claimed slot is reused by
    /// the next send, so the steady state allocates nothing per send.
    pub parked: Slab<Packet>,
}

impl<'a> Transport<'a> {
    pub fn new(runtime: &OverlayRuntime<'a>) -> Self {
        Transport {
            topology: runtime.topology,
            loss: runtime.loss,
            ack_transit: runtime.config.ack_transit,
            rng: rng_for(runtime.config.seed, "runtime"),
            failures: FailureView::new(runtime.failure, runtime.topology),
            parked: Slab::new(),
        }
    }

    /// Transmits `packet` from `from` to its neighbor `to`: counts and
    /// traces the send with its fate, and parks an arriving copy until its
    /// `Arrival`. A send over no link is a strategy bug, counted in
    /// [`DeliveryLog::invalid_sends`] and dropped.
    pub fn send(
        &mut self,
        queue: &mut Queue,
        log: &mut DeliveryLog,
        sinks: &mut Sinks,
        from: NodeId,
        to: NodeId,
        packet: Packet,
    ) {
        let Some(edge) = self.topology.edge_between(from, to) else {
            log.invalid_sends += 1;
            return;
        };
        let at = queue.now();
        log.data_sends += 1;
        let failures = self.failures.at(at);
        let fate = failures.fate(self.topology, edge, from, &self.loss, &mut self.rng);
        match fate {
            Fate::Blocked(_) => log.sends_blocked += 1,
            Fate::Lost(_) => log.sends_lost += 1,
            Fate::Arrived { .. } => {}
        }
        sinks.trace_and_audit(TraceEvent::Send {
            at,
            from,
            to,
            packet: packet.id,
            destinations: packet.destinations.len() as u32,
            fate,
        });
        if let Fate::Arrived { at } = fate {
            let slot = self.parked.put(packet);
            let copy = Inbound { from, slot };
            queue.schedule(at, Event::Arrival { to, edge, copy });
        }
    }

    /// A copy reaches `to` over `edge`: a broker that crashed meanwhile
    /// eats it (the crash model eats arrivals; the epoch node model only
    /// blocks sends), else `to` returns the hop-by-hop ACK before any
    /// processing (Algorithm 2 line 2). Returns whether the copy survives.
    pub fn arrive(&mut self, queue: &mut Queue, to: NodeId, edge: EdgeId, copy: Inbound) -> bool {
        let now = queue.now();
        let failures = self.failures.at(now);
        if failures.chaos_down(to) {
            self.parked.take(copy.slot);
            return false;
        }
        let Some(packet) = self.parked.get(copy.slot) else {
            return false; // unreachable: every send parks its packet
        };
        let fate = failures.fate(self.topology, edge, to, &self.loss, &mut self.rng);
        if let Fate::Arrived { at: back } = fate {
            let ack_at = match self.ack_transit {
                AckTransit::Immediate => now,
                AckTransit::RoundTrip => back,
            };
            let (at, body, tag) = (copy.from, Arc::clone(&packet.body), packet.tag);
            queue.schedule(ack_at, Event::AckArrival { at, to, body, tag });
        }
        true
    }

    /// `to`'s ACK of `packet` reaches the sender `at`, unless `at` is
    /// crash-down and its in-flight state gone. Returns whether it hears.
    pub fn ack(
        &mut self,
        log: &mut DeliveryLog,
        sinks: &mut Sinks,
        at: NodeId,
        to: NodeId,
        packet: PacketId,
        now: SimTime,
    ) -> bool {
        if self.failures.at(now).chaos_down(at) {
            return false;
        }
        log.acks_delivered += 1;
        sinks.trace_and_audit(TraceEvent::Ack {
            at: now,
            from: to,
            to: at,
            packet,
        });
        true
    }

    /// Probes every link once from its `a` end, in edge order, and feeds
    /// `monitor` each link's measured delay (`None` if the probe was lost).
    pub fn probe(&mut self, now: SimTime, monitor: &mut EwmaMonitor) {
        let failures = self.failures.at(now);
        for e in self.topology.edge_ids() {
            let from = self.topology.edge(e).a();
            let observed = match failures.fate(self.topology, e, from, &self.loss, &mut self.rng) {
                Fate::Arrived { at } => Some(at.saturating_since(now)),
                Fate::Blocked(_) | Fate::Lost(_) => None,
            };
            monitor.observe(e, observed);
        }
    }
}
