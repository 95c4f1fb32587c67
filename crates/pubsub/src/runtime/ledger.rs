//! The ledger stage: packet ids, the expectation row each publish opens,
//! and what deliveries, suppressions and give-ups leave in the log.

use dcrd_net::paths::ShortestPaths;
use dcrd_net::{NodeId, NodeList};
use dcrd_sim::{SimDuration, SimTime};

use super::{Event, Queue, Sinks};
use crate::audit::AuditReport;
use crate::hotstate::PacketNodeMap;
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
    expectations: PacketNodeMap<Expectation>,
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
        self.expectations.iter()
    }

    /// Number of `(message, subscriber)` pairs.
    #[must_use]
    pub fn num_expectations(&self) -> usize {
        self.expectations.len()
    }

    /// The expectation for one `(message, subscriber)` pair.
    #[must_use]
    pub fn expectation(&self, id: PacketId, subscriber: NodeId) -> Option<&Expectation> {
        self.expectations.get(&(id, subscriber))
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
        if self.expectations.is_empty() {
            return 0.0;
        }
        let hit = self.expectations.values().filter(|e| hit(e)).count();
        hit as f64 / self.expectations.len() as f64
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
            .expectations
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
        if self.expectations.is_empty() {
            return 0.0;
        }
        self.data_sends as f64 / self.expectations.len() as f64
    }
}

/// The run's books: packet ids, and the [`DeliveryLog`] under construction.
#[derive(Default)]
pub struct Ledger {
    pub log: DeliveryLog,
    next_packet_id: u64,
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
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        self.log.messages_published += 1;
        let active = spec.active_subscriptions(now);
        let subscribers = active.clone().count();
        self.log.expectations.reserve_row(id, subscribers);
        for sub in active.clone() {
            let exp = Expectation {
                published: now,
                deadline: sub.deadline,
                delivered: None,
                gave_up: false,
                shed_doomed: false,
            };
            self.log.expectations.insert((id, sub.subscriber), exp);
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
                let Some(exp) = log.expectations.get_mut(&(packet, node)) else {
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
                if let Some(exp) = log.expectations.get_mut(&(packet, destination)) {
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
            let Some(exp) = self.log.expectations.get_mut(&(packet.id, d)) else {
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
