//! The ledger stage: packet ids, the expectations each publish opens, and
//! what deliveries, suppressions and give-ups leave in the log.
//!
//! The log's expectations are one append-only table. Packet ids are the
//! publish count, so `starts[id]` is where packet `id`'s run of
//! `(subscriber, expectation)` pairs begins in `pairs`; the run ends where
//! the next packet's begins. A publish pushes its start (even with no
//! active subscriber, so the index stays dense) and appends its run sorted
//! by subscriber; a lookup is a binary search in one run. Walking `pairs`
//! in order is ascending `(packet, subscriber)` order. The table holds 8
//! bytes per message and 48 per pair, in two vectors that grow by
//! doubling, and never allocates per message.

use dcrd_net::paths::ShortestPaths;
use dcrd_net::{NodeId, NodeList};
use dcrd_sim::{SimDuration, SimTime};

use super::{Event, Queue, Sinks};
use crate::audit::AuditReport;
use crate::packet::{Packet, PacketId};
use crate::strategy::Action;
use crate::trace::{Trace, TraceEvent};
use crate::workload::TopicSpec;

/// The fate of one `(message, subscriber)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// When the message was published.
    pub published: SimTime,
    /// The subscription's delay requirement.
    pub deadline: SimDuration,
    /// When (if ever) the message reached this subscriber.
    pub delivered: Option<SimTime>,
    /// Whether the strategy explicitly gave up on this pair.
    pub gave_up: bool,
    /// Whether an overloaded broker shed a copy of this message at a point
    /// where this pair's requirement was already unsatisfiable (even
    /// immediate service plus best-case remaining transit would miss the
    /// deadline). Such pairs are excluded from
    /// [`DeliveryLog::in_slack_delivery_ratio`].
    pub shed_doomed: bool,
}

impl Expectation {
    /// Whether the message was delivered within its deadline.
    #[must_use]
    pub fn on_time(&self) -> bool {
        self.delivered
            .is_some_and(|at| at.saturating_since(self.published) <= self.deadline)
    }

    /// `actual delay ÷ deadline` for a delivered message (Fig. 7's x-axis),
    /// or `None` if undelivered.
    #[must_use]
    pub fn lateness_ratio(&self) -> Option<f64> {
        let at = self.delivered?;
        let actual = at.saturating_since(self.published).as_micros() as f64;
        let deadline = self.deadline.as_micros().max(1) as f64;
        Some(actual / deadline)
    }
}

/// The complete record of one run.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    /// `starts[id]`: where packet `id`'s run begins in `pairs`.
    starts: Vec<usize>,
    /// Every packet's run, in packet order, each sorted by subscriber.
    pairs: Vec<(NodeId, Expectation)>,
    /// Number of published messages.
    pub messages_published: u64,
    /// Data-packet transmissions attempted (the paper's traffic metric
    /// numerator).
    pub data_sends: u64,
    /// Data transmissions that hit a failed link epoch.
    pub sends_blocked: u64,
    /// Data transmissions randomly lost.
    pub sends_lost: u64,
    /// ACKs that made it back to the sender.
    pub acks_delivered: u64,
    /// Deliver actions for pairs already delivered (Multipath's second
    /// copy, or duplicates born from lost ACKs) — deduplicated, so they
    /// never inflate the ratios.
    pub duplicate_deliveries: u64,
    /// `Send` actions naming a node with no link to the sender. These are
    /// strategy bugs; the runtime drops the send and counts it here instead
    /// of aborting, so an injected fault that trips a latent bug surfaces
    /// as a diagnostic, not a crashed experiment.
    pub invalid_sends: u64,
    /// `Deliver` actions on a node that is not a subscriber of the message
    /// (same diagnostic treatment as `invalid_sends`).
    pub invalid_delivers: u64,
    /// Duplicate copies absorbed by subscriber dedup windows (recovery
    /// mode: crash replay or NACK re-sends racing the original delivery).
    /// Benign by construction.
    pub suppressed: u64,
    /// Always 0: the runtime's types leave it no inconsistent state to
    /// survive. Kept for readers that still check it.
    pub runtime_errors: u64,
    /// Packets shed by overloaded brokers (bounded service queues only).
    pub sheds: u64,
    /// Sheds per broker, indexed by node (empty unless
    /// [`queue_limit`](super::RuntimeConfig::queue_limit) is set).
    pub sheds_by_node: Vec<u64>,
    /// Sheds whose every undelivered destination was already past help —
    /// the traffic delay-cognizant shedding is *supposed* to drop.
    pub doomed_sheds: u64,
    /// Deepest any broker's bounded service queue got (post-shed, so never
    /// above the configured budget). Zero without a queue limit.
    pub max_queue_depth: usize,
    /// Gossip dissemination only: eager rumor pushes attempted by the
    /// membership gossip overlay (lost and blocked pushes included).
    pub rumors_sent: u64,
    /// Gossip dissemination only: anti-entropy digest-exchange rounds run
    /// by the gossip overlay.
    pub anti_entropy_rounds: u64,
    /// Gossip dissemination only: membership deltas whose rumors finished
    /// their epidemic spread and were applied via
    /// [`on_gossip`](crate::strategy::RoutingStrategy::on_gossip).
    pub gossip_deltas_applied: u64,
    /// Gossip dissemination only: rumors transferred by anti-entropy to a
    /// broker the eager push had missed — each one a stale-entry
    /// reconciliation that pure rumor spreading would have left divergent.
    pub stale_reconciliations: u64,
    /// Whether the run hit the event cap and was truncated.
    pub truncated: bool,
    /// Total simulation events processed by the run loop (the macro
    /// benchmark's throughput denominator).
    pub events_processed: u64,
    /// Events whose requested timestamp lay strictly in the past and were
    /// clamped to the clock by the event queue. A correct run reports
    /// zero; anything else is a scheduling caller computing stale
    /// deadlines (also an auditor
    /// [`PastEventClamp`](crate::audit::Violation::PastEventClamp) when
    /// the clamped event was a strategy timer).
    pub clamped_events: u64,
    /// High-water mark of the central event queue — what
    /// [`estimated_queue_len`](super::OverlayRuntime::estimated_queue_len)
    /// must stay at or above.
    pub peak_queue_len: usize,
    /// Full transmission trace (only with `capture_trace`).
    pub trace: Option<Trace>,
    /// Invariant-audit outcome (only with
    /// [`audit`](super::RuntimeConfig::audit)).
    pub audit: Option<AuditReport>,
}

impl DeliveryLog {
    /// Iterates over all `(message, subscriber)` expectations in ascending
    /// key order.
    pub fn expectations(&self) -> impl Iterator<Item = ((PacketId, NodeId), &Expectation)> {
        let ends = self.starts.iter().skip(1).copied();
        let runs = self.starts.iter().zip(ends.chain([self.pairs.len()]));
        runs.enumerate().flat_map(move |(id, (&start, end))| {
            let run = self.pairs.get(start..end).unwrap_or_default();
            run.iter()
                .map(move |(sub, exp)| ((PacketId::new(id as u64), *sub), exp))
        })
    }

    /// Number of `(message, subscriber)` pairs.
    #[must_use]
    pub fn num_expectations(&self) -> usize {
        self.pairs.len()
    }

    /// The expectation for one `(message, subscriber)` pair.
    #[must_use]
    pub fn expectation(&self, id: PacketId, subscriber: NodeId) -> Option<&Expectation> {
        let at = self.find(id, subscriber)?;
        self.pairs.get(at).map(|(_, exp)| exp)
    }

    /// Where in `pairs` the `(id, subscriber)` pair sits, if it exists. A
    /// NACK id lies past every start, so it finds nothing.
    fn find(&self, id: PacketId, subscriber: NodeId) -> Option<usize> {
        let i = usize::try_from(id.raw()).ok()?;
        let start = *self.starts.get(i)?;
        let end = self.starts.get(i + 1).copied().unwrap_or(self.pairs.len());
        let run = self.pairs.get(start..end)?;
        let at = run
            .binary_search_by_key(&subscriber, |&(sub, _)| sub)
            .ok()?;
        Some(start + at)
    }

    /// The mutable expectation for one `(message, subscriber)` pair.
    fn expectation_mut(&mut self, id: PacketId, subscriber: NodeId) -> Option<&mut Expectation> {
        let at = self.find(id, subscriber)?;
        self.pairs.get_mut(at).map(|(_, exp)| exp)
    }

    /// Opens the next packet's run, which takes its id, and returns the id.
    fn open_run(&mut self) -> PacketId {
        let id = PacketId::new(self.starts.len() as u64);
        self.starts.push(self.pairs.len());
        id
    }

    /// Adds `subscriber`'s pair to the newest run, in subscriber order; a
    /// repeated subscriber's later pair replaces the earlier one.
    fn insert_pair(&mut self, subscriber: NodeId, exp: Expectation) {
        let start = self.starts.last().copied().unwrap_or(0);
        let run = self.pairs.get(start..).unwrap_or_default();
        match run.binary_search_by_key(&subscriber, |&(sub, _)| sub) {
            Ok(at) => {
                if let Some(pair) = self.pairs.get_mut(start + at) {
                    pair.1 = exp;
                }
            }
            Err(at) => self.pairs.insert(start + at, (subscriber, exp)),
        }
    }

    /// Every expectation, in ascending key order.
    fn values(&self) -> impl Iterator<Item = &Expectation> {
        self.pairs.iter().map(|(_, exp)| exp)
    }

    /// Fraction of pairs delivered (late deliveries included).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        self.share(|e| e.delivered.is_some())
    }

    /// Fraction of pairs delivered within their deadline.
    #[must_use]
    pub fn qos_delivery_ratio(&self) -> f64 {
        self.share(Expectation::on_time)
    }

    /// Fraction of pairs for which `hit` holds; 0 without pairs.
    fn share(&self, hit: impl Fn(&Expectation) -> bool) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        let hit = self.values().filter(|e| hit(e)).count();
        hit as f64 / self.pairs.len() as f64
    }

    /// Fraction of *in-slack* pairs delivered: pairs whose requirement was
    /// still satisfiable whenever overload shedding touched them. A pair a
    /// broker shed while it was already doomed (deadline unreachable even
    /// with immediate service and best-case transit) leaves the
    /// denominator; shedding a pair that still had slack keeps it counted
    /// and so shows up as lost delivery. Equals
    /// [`delivery_ratio`](DeliveryLog::delivery_ratio) when nothing was
    /// shed.
    #[must_use]
    pub fn in_slack_delivery_ratio(&self) -> f64 {
        let in_slack = self
            .values()
            .filter(|e| !e.shed_doomed || e.delivered.is_some());
        let (pairs, hit) = in_slack.fold((0usize, 0usize), |(pairs, hit), e| {
            (pairs + 1, hit + usize::from(e.delivered.is_some()))
        });
        if pairs == 0 {
            return 0.0;
        }
        hit as f64 / pairs as f64
    }

    /// Data transmissions per `(message, subscriber)` pair — the paper's
    /// "Packets Sent / Subscribers".
    #[must_use]
    pub fn packets_per_subscriber(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        self.data_sends as f64 / self.pairs.len() as f64
    }
}

/// The run's books: packet ids, and the [`DeliveryLog`] under construction.
#[derive(Default)]
pub struct Ledger {
    pub log: DeliveryLog,
    /// How long publishers keep publishing.
    duration: SimDuration,
}

impl Ledger {
    pub fn new(duration: SimDuration) -> Self {
        Ledger {
            duration,
            ..Ledger::default()
        }
    }

    /// Schedules publish `round` of `spec`, the workload's `topic`-th
    /// topic, unless it falls past the publishing duration.
    pub fn schedule(&self, queue: &mut Queue, spec: &TopicSpec, topic: usize, round: u64) {
        let at = spec.publish_time(round);
        if at.saturating_since(SimTime::ZERO) <= self.duration {
            queue.schedule(at, Event::Publish { topic, round });
        }
    }

    /// Publishes round `round` of `spec`: takes a packet id and opens one
    /// expectation per subscription active `now`, the only ones that receive
    /// (and count for) it. Returns the packet, unless none is active.
    pub fn publish(
        &mut self,
        sinks: &mut Sinks,
        spec: &TopicSpec,
        round: u64,
        now: SimTime,
    ) -> Option<Packet> {
        let id = self.log.open_run();
        self.log.messages_published += 1;
        let active = spec.active_subscriptions(now);
        let subscribers = active.clone().count();
        for sub in active.clone() {
            let exp = Expectation {
                published: now,
                deadline: sub.deadline,
                delivered: None,
                gave_up: false,
                shed_doomed: false,
            };
            self.log.insert_pair(sub.subscriber, exp);
        }
        if subscribers == 0 {
            return None;
        }
        let mut destinations = NodeList::with_capacity(subscribers);
        active.for_each(|s| destinations.push(s.subscriber));
        // The publish round doubles as the per-(topic, publisher) sequence
        // number subscribers use for gap detection.
        let packet = Packet::new(id, spec.topic, spec.publisher, now, destinations).with_seq(round);
        if let Some(aud) = &mut sinks.auditor {
            aud.observe_publish(&packet);
        }
        Some(packet)
    }

    /// Books `node`'s delivery (a repeat is a duplicate; at a non-subscriber,
    /// a strategy bug in [`DeliveryLog::invalid_delivers`]), suppression of
    /// a duplicate, or give-up on a destination.
    pub fn record(&mut self, sinks: &mut Sinks, node: NodeId, action: Action, at: SimTime) {
        let log = &mut self.log;
        let ev = match action {
            Action::Deliver { packet } => {
                let Some(exp) = log.expectation_mut(packet, node) else {
                    log.invalid_delivers += 1;
                    return;
                };
                if exp.delivered.is_none() {
                    exp.delivered = Some(at);
                } else {
                    log.duplicate_deliveries += 1;
                }
                TraceEvent::Deliver { at, node, packet }
            }
            Action::Suppress { packet } => {
                log.suppressed += 1;
                TraceEvent::Suppress { at, node, packet }
            }
            Action::GiveUp {
                packet,
                destination,
            } => {
                if let Some(exp) = log.expectation_mut(packet, destination) {
                    exp.gave_up = true;
                }
                TraceEvent::GiveUp {
                    at,
                    node,
                    packet,
                    destination,
                }
            }
            // unreachable: sends go to the transport, timers to the queue
            Action::Send { .. } | Action::SetTimer { .. } => return,
        };
        sinks.trace_and_audit(ev);
    }

    /// `packet`'s delay slack at a broker that finishes serving it at `eta`
    /// (µs) with shortest delays `sp`: `deadline − (eta + best-case
    /// remaining transit)`, maximized over its undelivered destinations
    /// (an unreachable one is fully doomed). With no live pair (control
    /// traffic such as a NACK) it is `i128::MAX`: dropping recovery traffic
    /// costs more than the seat it frees. With `doom`, each pair already
    /// past help (negative slack) is marked [`Expectation::shed_doomed`].
    pub fn slack(&mut self, packet: &Packet, sp: &ShortestPaths, eta: i128, doom: bool) -> i128 {
        let mut best: Option<i128> = None;
        for &d in &packet.destinations {
            let Some(exp) = self.log.expectation_mut(packet.id, d) else {
                continue;
            };
            if exp.delivered.is_some() {
                continue;
            }
            let deadline_at = exp.published.as_micros() as i128 + exp.deadline.as_micros() as i128;
            let slack = match sp.cost_to(d) {
                Some(cost) => deadline_at - eta - cost as i128,
                None => i128::MIN / 2,
            };
            if doom && slack < 0 {
                exp.shed_doomed = true;
            }
            best = Some(best.map_or(slack, |b| b.max(slack)));
        }
        best.unwrap_or(i128::MAX)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dcrd_net::paths::{dijkstra, Metric};
    use dcrd_net::topology::line;
    use dcrd_sim::rng::rng_for_indexed;

    use super::*;
    use crate::topic::{Subscription, TopicId};

    type Reference = BTreeMap<(PacketId, NodeId), Expectation>;

    /// A publish's subscriptions: up to six, over brokers 0–7 drawn in no
    /// particular order (so out of broker order, with repeats), each
    /// active at `now` or not. Some publishes have no active one.
    fn spec(rng: &mut dcrd_sim::rng::SmallRng, now: SimTime) -> TopicSpec {
        let count = rng.gen_range(0..7usize);
        let subscriptions = (0..count)
            .map(|_| {
                let subscriber = NodeId::new(rng.gen_range(0..8u32));
                let deadline = SimDuration::from_millis(rng.gen_range(1..400u64));
                if rng.gen_bool(0.8) {
                    Subscription::new(subscriber, deadline)
                } else {
                    let from = SimTime::from_micros(now.as_micros() + 1);
                    Subscription::windowed(subscriber, deadline, from, SimTime::MAX)
                }
            })
            .collect();
        TopicSpec {
            topic: TopicId::new(0),
            publisher: NodeId::new(0),
            interval: SimDuration::from_millis(10),
            offset: SimDuration::ZERO,
            subscriptions,
            burst: None,
        }
    }

    /// What the map layout the table replaced did with a publish: one
    /// insert per active subscription, a later one replacing an earlier.
    fn publish_into(reference: &mut Reference, id: PacketId, spec: &TopicSpec, now: SimTime) {
        for sub in spec.active_subscriptions(now) {
            let exp = Expectation {
                published: now,
                deadline: sub.deadline,
                delivered: None,
                gave_up: false,
                shed_doomed: false,
            };
            reference.insert((id, sub.subscriber), exp);
        }
    }

    /// The reference's `slack`: the same formula over the map's entries.
    fn slack_into(
        reference: &mut Reference,
        packet: &Packet,
        sp: &ShortestPaths,
        eta: i128,
        doom: bool,
    ) -> i128 {
        let mut best: Option<i128> = None;
        for &d in &packet.destinations {
            let Some(exp) = reference.get_mut(&(packet.id, d)) else {
                continue;
            };
            if exp.delivered.is_some() {
                continue;
            }
            let deadline_at = exp.published.as_micros() as i128 + exp.deadline.as_micros() as i128;
            let slack = match sp.cost_to(d) {
                Some(cost) => deadline_at - eta - cost as i128,
                None => i128::MIN / 2,
            };
            if doom && slack < 0 {
                exp.shed_doomed = true;
            }
            best = Some(best.map_or(slack, |b| b.max(slack)));
        }
        best.unwrap_or(i128::MAX)
    }

    fn ratio(reference: &Reference, hit: impl Fn(&Expectation) -> bool) -> f64 {
        if reference.is_empty() {
            return 0.0;
        }
        reference.values().filter(|e| hit(e)).count() as f64 / reference.len() as f64
    }

    /// Seeded streams of publishes (subscribers out of broker order, a
    /// repeated subscriber, none active), deliveries (repeats and strays
    /// included), give-ups and `slack` with and without `doom`: the flat
    /// table must answer exactly what a `BTreeMap` keyed by `(packet,
    /// subscriber)` answers — the same expectations in the same ascending
    /// order, the same lookups (a NACK-range id finds nothing) and the
    /// same ratios.
    #[test]
    fn flat_table_matches_a_btreemap_on_seeded_streams() {
        let nack = PacketId::new(1 << 63);
        let topo = line(8, SimDuration::from_millis(5));
        let paths: Vec<ShortestPaths> = topo
            .nodes()
            .map(|n| dijkstra(&topo, n, Metric::Delay))
            .collect();
        let (mut repeats, mut silent, mut unsorted) = (0, 0, 0);
        for case in 0..100u64 {
            let mut rng = rng_for_indexed(20110620, "ledger-oracle", case);
            let mut ledger = Ledger::new(SimDuration::from_secs(60));
            let mut sinks = Sinks {
                trace: None,
                auditor: None,
            };
            let mut reference = Reference::new();
            let (mut invalid, mut duplicates) = (0, 0);
            let mut packets: Vec<Packet> = Vec::new();
            for step in 0..rng.gen_range(1..60u64) {
                let now = SimTime::from_millis(step * 7);
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let spec = spec(&mut rng, now);
                        let id = PacketId::new(ledger.log.messages_published);
                        let active: Vec<NodeId> = spec
                            .active_subscriptions(now)
                            .map(|s| s.subscriber)
                            .collect();
                        repeats += usize::from(
                            (1..active.len()).any(|i| active[..i].contains(&active[i])),
                        );
                        unsorted += usize::from(active.windows(2).any(|w| w[0] > w[1]));
                        silent += usize::from(active.is_empty());
                        publish_into(&mut reference, id, &spec, now);
                        let packet = ledger.publish(&mut sinks, &spec, step, now);
                        assert_eq!(packet.is_none(), active.is_empty(), "case {case}");
                        packets.extend(packet.filter(|p| p.id == id));
                    }
                    4..=6 => {
                        let published = ledger.log.messages_published;
                        let id = PacketId::new(rng.gen_range(0..published + 2));
                        let node = NodeId::new(rng.gen_range(0..9u32));
                        match reference.get_mut(&(id, node)) {
                            Some(exp) if exp.delivered.is_none() => exp.delivered = Some(now),
                            Some(_) => duplicates += 1,
                            None => invalid += 1,
                        }
                        let deliver = Action::Deliver { packet: id };
                        ledger.record(&mut sinks, node, deliver, now);
                    }
                    7 => {
                        let id = PacketId::new(rng.gen_range(0..ledger.log.messages_published + 1));
                        let destination = NodeId::new(rng.gen_range(0..9u32));
                        if let Some(exp) = reference.get_mut(&(id, destination)) {
                            exp.gave_up = true;
                        }
                        let give_up = Action::GiveUp {
                            packet: id,
                            destination,
                        };
                        ledger.record(&mut sinks, NodeId::new(0), give_up, now);
                    }
                    _ => {
                        let packet = if packets.is_empty() || rng.gen_bool(0.1) {
                            let all = topo.nodes().collect::<Vec<_>>();
                            Packet::new(nack, TopicId::new(0), NodeId::new(0), now, all)
                        } else {
                            packets[rng.gen_range(0..packets.len())].clone()
                        };
                        let sp = &paths[rng.gen_range(0..paths.len())];
                        let eta =
                            now.as_micros() as i128 + i128::from(rng.gen_range(0..300_000u64));
                        let doom = rng.gen_bool(0.5);
                        let want = slack_into(&mut reference, &packet, sp, eta, doom);
                        assert_eq!(ledger.slack(&packet, sp, eta, doom), want, "case {case}");
                    }
                }
            }
            let log = &mut ledger.log;
            log.data_sends = rng.gen_range(0..10_000u64);
            let got: Vec<_> = log.expectations().map(|(k, e)| (k, *e)).collect();
            let want: Vec<_> = reference.iter().map(|(&k, &e)| (k, e)).collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(log.num_expectations(), reference.len());
            for raw in 0..log.messages_published + 2 {
                for node in 0..9 {
                    let key = (PacketId::new(raw), NodeId::new(node));
                    assert_eq!(
                        log.expectation(key.0, key.1),
                        reference.get(&key),
                        "{key:?}"
                    );
                }
            }
            assert_eq!(log.expectation(nack, NodeId::new(0)), None);
            assert_eq!(log.invalid_delivers, invalid);
            assert_eq!(log.duplicate_deliveries, duplicates);
            let delivered = |e: &Expectation| e.delivered.is_some();
            assert_eq!(log.delivery_ratio(), ratio(&reference, delivered));
            assert_eq!(
                log.qos_delivery_ratio(),
                ratio(&reference, Expectation::on_time)
            );
            let in_slack: Reference = reference
                .iter()
                .filter(|(_, e)| !e.shed_doomed || e.delivered.is_some())
                .map(|(&k, &e)| (k, e))
                .collect();
            assert_eq!(log.in_slack_delivery_ratio(), ratio(&in_slack, delivered));
            let per_subscriber = if reference.is_empty() {
                0.0
            } else {
                log.data_sends as f64 / reference.len() as f64
            };
            assert_eq!(log.packets_per_subscriber(), per_subscriber);
        }
        // The streams reach every publish shape the table must order.
        assert!(
            repeats > 0 && silent > 0 && unsorted > 0,
            "{repeats} {silent} {unsorted}"
        );
    }

    /// The table's footprint, as the module docs state it.
    #[test]
    fn table_entries_keep_their_documented_size() {
        assert_eq!(std::mem::size_of::<usize>(), 8);
        assert_eq!(std::mem::size_of::<(NodeId, Expectation)>(), 48);
    }
}
