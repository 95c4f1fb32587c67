//! The service stage: how a broker gets to a copy after its hop ACK — at
//! once, serially, or from a bounded waiting room that sheds on overflow.

use dcrd_net::paths::{dijkstra, Metric, ShortestPaths};
use dcrd_net::NodeId;
use dcrd_sim::{SimDuration, SimTime};

use super::ledger::Ledger;
use super::transport::Transport;
use super::{DeliveryLog, Event, Inbound, Queue, RuntimeConfig, ShedPolicy, Sinks};
use crate::audit::Violation;
use crate::hotstate::Slab;
use crate::packet::{Packet, PacketId};
use crate::trace::TraceEvent;

/// Each broker's processing, chosen once per run from
/// [`RuntimeConfig::processing_time`] and [`RuntimeConfig::queue_limit`].
/// Per-broker state is indexed by node.
pub enum Service {
    /// The paper's model: a broker processes a copy the moment it arrives.
    Immediate,
    /// A copy waits, unbounded, for its broker to finish the copies before
    /// it, then takes `time`. `free` is when each broker next falls idle.
    Serial {
        time: SimDuration,
        free: Vec<SimTime>,
    },
    /// A copy waits in its broker's room, then takes `time`. At most
    /// `limit` copies wait beside the one in service; an overflow sheds
    /// the `policy`'s victim.
    Bounded {
        time: SimDuration,
        limit: usize,
        policy: ShedPolicy,
        rooms: Vec<Room>,
    },
}

/// One broker's bounded waiting room.
#[derive(Clone, Default)]
pub struct Room {
    /// Copies waiting for service, oldest first.
    waiting: Vec<Inbound>,
    /// Whether a copy is in service.
    busy: bool,
    /// The broker's shortest delays, computed at its first shed: the
    /// best-case remaining transit a copy's slack is priced against.
    paths: Option<ShortestPaths>,
}

impl Service {
    /// The service `config` asks for over `nodes` brokers; a bounded one
    /// also sizes the log's per-broker shed counts.
    pub fn new(config: &RuntimeConfig, log: &mut DeliveryLog, nodes: usize) -> Self {
        let Some(time) = config.processing_time else {
            return Service::Immediate;
        };
        let Some(limit) = config.queue_limit else {
            let free = vec![SimTime::ZERO; nodes];
            return Service::Serial { time, free };
        };
        log.sheds_by_node = vec![0; nodes];
        Service::Bounded {
            time,
            limit,
            policy: config.shed_policy,
            rooms: vec![Room::default(); nodes],
        }
    }

    /// Admits `copy`, which just reached `node`: returns its packet if the
    /// broker processes it at once, else queues it for `Process` or sheds.
    pub fn admit(
        &mut self,
        queue: &mut Queue,
        transport: &mut Transport<'_>,
        ledger: &mut Ledger,
        sinks: &mut Sinks,
        node: NodeId,
        copy: Inbound,
    ) -> Option<Packet> {
        let now = queue.now();
        let (time, limit, policy, room) = match self {
            Service::Immediate => return transport.parked.take(copy.slot),
            Service::Serial { time, free } => {
                let free = free.get_mut(node.index())?;
                *free = (*free).max(now) + *time;
                queue.schedule(*free, Event::Process { node, copy });
                return None;
            }
            Service::Bounded {
                time,
                limit,
                policy,
                rooms,
            } => (*time, *limit, *policy, rooms.get_mut(node.index())?),
        };
        room.waiting.push(copy);
        if room.waiting.len() > limit {
            let eta = now.as_micros() as i128 + time.as_micros() as i128;
            let topology = transport.topology;
            let sp = room
                .paths
                .get_or_insert_with(|| dijkstra(topology, node, Metric::Delay));
            let parked = &mut transport.parked;
            if let Some((packet, unjustified)) =
                shed(&mut room.waiting, policy, sp, eta, parked, ledger)
            {
                if let Some(n) = ledger.log.sheds_by_node.get_mut(node.index()) {
                    *n += 1;
                }
                // Delay-cognizance gate: overload may only claim traffic
                // that is past help while doomed packets hold seats.
                let at = now;
                let aud = sinks.trace_and_audit(TraceEvent::Shed { at, node, packet });
                if let Some(aud) = aud.filter(|_| unjustified) {
                    aud.flag(Violation::UnjustifiedShed { packet, node });
                }
            }
        }
        ledger.log.max_queue_depth = ledger.log.max_queue_depth.max(room.waiting.len());
        if !room.busy && !room.waiting.is_empty() {
            room.busy = true;
            let copy = room.waiting.remove(0);
            queue.schedule(now + time, Event::Process { node, copy });
        }
        None
    }

    /// `node`'s service of the copy in `slot` completes: returns its packet
    /// unless the broker departed (churned out) meanwhile. Then the copy,
    /// and its bounded waiting room, die with it: a churn loss, not a shed.
    pub fn serve(
        &mut self,
        transport: &mut Transport<'_>,
        node: NodeId,
        slot: u32,
        now: SimTime,
    ) -> Option<Packet> {
        let packet = transport.parked.take(slot)?;
        if !transport.failures.at(now).absent(node) {
            return Some(packet);
        }
        if let Service::Bounded { rooms, .. } = self {
            let room = rooms.get_mut(node.index())?;
            for copy in room.waiting.drain(..) {
                transport.parked.take(copy.slot);
            }
            room.busy = false;
        }
        None
    }

    /// After `node` processed a copy, a bounded broker serves its next
    /// waiting copy, FIFO, or falls idle.
    pub fn next(&mut self, queue: &mut Queue, node: NodeId) {
        let Service::Bounded { time, rooms, .. } = self else {
            return;
        };
        let Some(room) = rooms.get_mut(node.index()) else {
            return; // unreachable: sized to num_nodes
        };
        if room.waiting.is_empty() {
            room.busy = false;
        } else {
            let copy = room.waiting.remove(0);
            queue.schedule(queue.now() + *time, Event::Process { node, copy });
        }
    }
}

/// Sheds one copy from an overflowing `waiting` room after one slack pass:
/// `LeastSlack` takes the first copy of least slack (the oldest of a tie),
/// `TailDrop` the newest. Counts the shed, as doomed when no pair of the
/// copy is still satisfiable. Returns the shed packet, and whether the shed
/// was unjustified: a satisfiable copy went while a doomed one kept its seat.
fn shed(
    waiting: &mut Vec<Inbound>,
    policy: ShedPolicy,
    sp: &ShortestPaths,
    eta: i128,
    parked: &mut Slab<Packet>,
    ledger: &mut Ledger,
) -> Option<(PacketId, bool)> {
    let mut victim = (0, i128::MAX);
    let mut doomed = 0usize;
    for (i, copy) in waiting.iter().enumerate() {
        let slack = parked
            .get(copy.slot)
            .map_or(i128::MAX, |p| ledger.slack(p, sp, eta, false));
        doomed += usize::from(slack < 0);
        if policy == ShedPolicy::TailDrop || slack < victim.1 {
            victim = (i, slack);
        }
    }
    let kept_doomed = doomed > usize::from(victim.1 < 0);
    let packet = parked.take(waiting.remove(victim.0).slot)?;
    let satisfiable = (0..i128::MAX).contains(&ledger.slack(&packet, sp, eta, true));
    ledger.log.sheds += 1;
    ledger.log.doomed_sheds += u64::from(!satisfiable);
    Some((packet.id, satisfiable && kept_doomed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditConfig, InvariantAuditor};
    use crate::runtime::OverlayRuntime;
    use crate::topic::{Subscription, TopicId};
    use crate::trace::Trace;
    use crate::workload::{TopicSpec, Workload};
    use dcrd_net::chaos::ChaosModel;
    use dcrd_net::failure::{FailureModel, LinkFailureModel};
    use dcrd_net::loss::LossModel;
    use dcrd_net::membership::{BrokerChurnModel, ChurnEvent};
    use dcrd_net::topology::line;
    use dcrd_net::Topology;

    const SENDER: NodeId = NodeId::new(0);
    const BROKER: NodeId = NodeId::new(1);
    const SUBSCRIBER: NodeId = NodeId::new(2);

    /// A 3-broker line with 10 ms links; topic `i` is published at broker 0
    /// for broker 2 with deadline `deadlines_ms[i]`.
    fn world(deadlines_ms: &[u64]) -> (Topology, Workload) {
        let topo = line(3, SimDuration::from_millis(10));
        let spec = |(i, &ms): (usize, &u64)| TopicSpec {
            topic: TopicId::new(i as u32),
            publisher: SENDER,
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(SUBSCRIBER, SimDuration::from_millis(ms))],
            burst: None,
        };
        let specs = deadlines_ms.iter().enumerate().map(spec).collect();
        (topo, Workload::from_topics(specs))
    }

    /// 40 ms of service, and room for one copy beside the one in service.
    fn bounded(policy: ShedPolicy) -> RuntimeConfig {
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(6), 1);
        config.processing_time = Some(SimDuration::from_millis(40));
        config.queue_limit = Some(1);
        config.shed_policy = policy;
        config
    }

    fn runtime<'a>(
        topo: &'a Topology,
        wl: &'a Workload,
        config: RuntimeConfig,
    ) -> OverlayRuntime<'a> {
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        OverlayRuntime::new(topo, wl, failure, LossModel::new(0.0), config)
    }

    /// What admission touches, with a trace and an auditor, and no strategy.
    struct Stages<'a> {
        queue: Queue,
        transport: Transport<'a>,
        ledger: Ledger,
        sinks: Sinks,
        service: Service,
    }

    impl<'a> Stages<'a> {
        fn new(rt: &OverlayRuntime<'a>) -> Self {
            let mut ledger = Ledger::new(rt.config.duration);
            let service = Service::new(&rt.config, &mut ledger.log, rt.topology.num_nodes());
            let auditor = Some(InvariantAuditor::new(AuditConfig::default()));
            let sinks = Sinks {
                trace: Some(Trace::new()),
                auditor,
            };
            Stages {
                queue: Queue::new(),
                transport: Transport::new(rt),
                ledger,
                sinks,
                service,
            }
        }

        /// Publishes round `round` of topic `topic` now.
        fn publish(&mut self, wl: &Workload, topic: usize, round: u64) -> Packet {
            let now = self.queue.now();
            let spec = &wl.topics()[topic];
            self.ledger
                .publish(&mut self.sinks, spec, round, now)
                .expect("one subscriber")
        }

        /// Publishes round `round` of topic `topic` and hands the copy to
        /// broker 1's service.
        fn send(&mut self, wl: &Workload, topic: usize, round: u64) -> PacketId {
            let packet = self.publish(wl, topic, round);
            self.arrive(packet)
        }

        /// Hands `packet`, sent by broker 0, to broker 1's service.
        fn arrive(&mut self, packet: Packet) -> PacketId {
            let id = packet.id;
            let copy = Inbound {
                from: SENDER,
                slot: self.transport.parked.put(packet),
            };
            let (queue, transport, ledger) =
                (&mut self.queue, &mut self.transport, &mut self.ledger);
            let served =
                self.service
                    .admit(queue, transport, ledger, &mut self.sinks, BROKER, copy);
            assert!(served.is_none(), "a bounded broker queues every copy");
            id
        }

        fn room(&self) -> &Room {
            let Service::Bounded { rooms, .. } = &self.service else {
                panic!("bounded service");
            };
            &rooms[BROKER.index()]
        }

        /// The packets waiting at broker 1, oldest first.
        fn waiting(&self) -> Vec<PacketId> {
            let parked = |c: &Inbound| self.transport.parked.get(c.slot).expect("parked").id;
            self.room().waiting.iter().map(parked).collect()
        }

        /// The packets broker 1 shed, in order.
        fn shed(&self) -> Vec<PacketId> {
            let trace = self.sinks.trace.as_ref().expect("traced");
            let shed = |e: &TraceEvent| matches!(e, TraceEvent::Shed { .. }).then(|| e.packet());
            trace.events().iter().filter_map(shed).collect()
        }

        fn unjustified(self) -> u64 {
            self.sinks
                .auditor
                .expect("audited")
                .finish()
                .unjustified_sheds
        }
    }

    #[test]
    fn least_slack_breaks_a_tie_toward_the_oldest_copy() {
        let (topo, wl) = world(&[1000]);
        let rt = runtime(&topo, &wl, bounded(ShedPolicy::LeastSlack));
        let mut st = Stages::new(&rt);
        // One copy goes into service, one waits, and the third overflows
        // the room with the same slack as the waiting one.
        let ids: Vec<_> = (0..3).map(|round| st.send(&wl, 0, round)).collect();
        assert_eq!(st.shed(), [ids[1]]);
        assert_eq!(st.waiting(), [ids[2]]);
        assert_eq!((st.ledger.log.sheds, st.ledger.log.doomed_sheds), (1, 0));
        assert_eq!(st.ledger.log.sheds_by_node, [0, 1, 0]);
    }

    #[test]
    fn tail_drop_sheds_the_newest_copy() {
        // The waiting copy is doomed (10 ms of transit after 40 ms of
        // service miss its 20 ms deadline); the newest still has slack.
        let (topo, wl) = world(&[1000, 20, 1000]);
        let rt = runtime(&topo, &wl, bounded(ShedPolicy::TailDrop));
        let mut st = Stages::new(&rt);
        let ids: Vec<_> = (0..3).map(|topic| st.send(&wl, topic, 0)).collect();
        assert_eq!(st.shed(), [ids[2]]);
        assert_eq!(st.waiting(), [ids[1]]);
        assert_eq!(st.ledger.log.doomed_sheds, 0);
        let doomed = st.ledger.log.expectation(ids[1], SUBSCRIBER).expect("row");
        assert!(!doomed.shed_doomed, "only a shed copy's pairs are marked");
        // A satisfiable copy went while a doomed one kept its seat.
        assert_eq!(st.unjustified(), 1);
    }

    #[test]
    fn a_control_packet_is_shed_last() {
        let (topo, wl) = world(&[1000]);
        let rt = runtime(&topo, &wl, bounded(ShedPolicy::LeastSlack));
        let mut st = Stages::new(&rt);
        let nack = |k: u64| {
            let id = PacketId::new((1 << 63) + k);
            Packet::nack(
                id,
                TopicId::new(0),
                SENDER,
                SimTime::ZERO,
                SUBSCRIBER,
                vec![k],
            )
        };
        st.send(&wl, 0, 0);
        let nacks = [st.arrive(nack(0)), st.arrive(nack(1))];
        assert_eq!(st.shed(), [nacks[0]], "equal slack: the older NACK goes");
        // A data copy with any slack at all goes before a NACK; a NACK,
        // with no pair to satisfy, counts as a doomed shed.
        let data = st.send(&wl, 0, 1);
        assert_eq!(st.shed(), [nacks[0], data]);
        assert_eq!(st.waiting(), [nacks[1]]);
        assert_eq!((st.ledger.log.sheds, st.ledger.log.doomed_sheds), (2, 1));
    }

    #[test]
    fn a_departed_broker_drops_its_waiting_room_without_shedding() {
        // A schedule in which broker 1 leaves or dies at some epoch.
        let (churn, gone) = (0..256)
            .map(|seed| {
                BrokerChurnModel::new(1.0, 6, seed)
                    .protect(SENDER)
                    .protect(SUBSCRIBER)
            })
            .find_map(|ch| match ch.event(BROKER) {
                Some(ChurnEvent::Leave(e) | ChurnEvent::Death(e)) => Some((ch, e)),
                _ => None,
            })
            .expect("some seed departs broker 1");
        let (topo, wl) = world(&[1000]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1))
            .with_chaos(ChaosModel::none().with_churn(churn));
        let config = bounded(ShedPolicy::LeastSlack);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let mut st = Stages::new(&rt);
        // Two copies arrive 20 ms before the departure: one goes into
        // service, which completes after it.
        let arrival = SimTime::from_millis(gone * 1000 - 20);
        assert!(!churn.absent_at(BROKER, arrival));
        st.queue.schedule(arrival, Event::Monitor);
        st.queue.pop();
        st.send(&wl, 0, 0);
        st.send(&wl, 0, 1);
        let parked = st.room().waiting[0].slot;
        let Some((now, Event::Process { node, copy })) = st.queue.pop() else {
            panic!("the first copy's service completes");
        };
        assert!(churn.absent_at(node, now));
        assert!(st
            .service
            .serve(&mut st.transport, node, copy.slot, now)
            .is_none());
        // The waiting copy died with the broker: no shed, no service.
        assert!(st.room().waiting.is_empty() && !st.room().busy);
        assert!(st.transport.parked.get(parked).is_none());
        assert!(st.queue.is_empty(), "no Process runs for a dropped copy");
        assert_eq!(st.ledger.log.sheds, 0);
        assert!(st.shed().is_empty());
    }
}
