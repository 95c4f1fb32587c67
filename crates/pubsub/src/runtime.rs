//! The overlay runtime: one deterministic discrete-event run of a routing
//! strategy over a topology with failures and loss.
//!
//! The runtime models exactly the paper's transport (§III, §IV-A):
//!
//! * Every [`Action::Send`] is one link transmission. It vanishes if the
//!   link is in a failed epoch at send time, or with probability `Pl`
//!   (random loss); otherwise it arrives after the link's propagation delay.
//! * On arrival the receiver immediately returns a **hop-by-hop ACK**
//!   (Algorithm 2 line 2), which traverses the same link back and is subject
//!   to the same failure/loss rules.
//! * Strategies learn about losses only through their own timers — the
//!   runtime never tells a sender that a transmission was dropped.
//!
//! The runtime records a complete [`DeliveryLog`]: one expectation per
//! `(message, subscriber)` pair with its deadline and eventual delivery
//! time, plus traffic counters. The metrics crate turns the log into the
//! paper's three metrics.

use dcrd_net::estimate::{analytic_estimates, EwmaMonitor, LinkEstimate, LinkEstimates};
use dcrd_net::failure::FailureModel;
use dcrd_net::gossip::{GossipConfig, GossipOverlay};
use dcrd_net::loss::LossModel;
use dcrd_net::membership::{
    BrokerChurnModel, GroundTruth, MembershipDelta, SwimConfig, SwimDetector,
};
use dcrd_net::paths::{dijkstra, Metric, ShortestPaths};
use dcrd_net::{NodeId, NodeList, Topology};
use dcrd_sim::rng::rng_for;
use dcrd_sim::{EventQueue, SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::sync::Arc;

use crate::audit::{AuditConfig, AuditReport, InvariantAuditor, Violation};
use crate::error::{RuntimeError, MAX_RUNTIME_ERRORS};
use crate::hotstate::PacketNodeMap;
use crate::packet::{Packet, PacketBody, PacketId};
use crate::strategy::{Action, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey};
use crate::trace::{Trace, TraceEvent, TxOutcome};
use crate::workload::Workload;

/// How the strategies' link estimates are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Monitoring {
    /// Strategies get the analytic steady-state estimates
    /// (`α = link delay`, `γ = (1−Pf)(1−Pl)`) once at setup.
    Analytic,
    /// The runtime probes every link periodically, feeds an EWMA monitor,
    /// and pushes fresh estimates to the strategy every monitoring
    /// interval (the paper's "link monitoring", 5-minute interval).
    Probing {
        /// Interval between probes of each link.
        probe_interval: SimDuration,
        /// EWMA weight of each new probe.
        ewma_weight: f64,
    },
}

/// How long a hop-by-hop ACK takes to reach the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckTransit {
    /// The sender learns of the reception after one link delay `α` — the
    /// paper's model (§III-D waits exactly `α_Xk` for the ACK, which only
    /// works if the ACK itself takes no extra time). The ACK is still
    /// subject to reverse-direction failure and loss.
    #[default]
    Immediate,
    /// The ACK physically traverses the link back: the sender learns after
    /// `2α`. Use `ack_timeout_factor ≥ 2` with this model.
    RoundTrip,
}

/// How membership deltas emitted by the runtime's failure detector reach
/// the strategy (broker churn only — without churn there is no detector
/// and none of these arms do anything).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Dissemination {
    /// Every delta reaches the strategy the instant the detector emits it
    /// (via [`RoutingStrategy::on_membership`]) — the instantaneous
    /// "global broadcast" idealization all pre-gossip runs used.
    #[default]
    Oracle,
    /// Deltas spread epidemically through a [`GossipOverlay`]: each one
    /// becomes a rumor at its witness broker and reaches the strategy
    /// (via [`RoutingStrategy::on_gossip`]) only once every present
    /// broker has learned it. Partitions stall convergence; anti-entropy
    /// completes it after the partition heals. Rumors that stay
    /// unconverged too long after the control plane reconnects are
    /// flagged as [`Violation::StaleRouteAfterConvergence`].
    Gossip(GossipConfig),
    /// Detector output is dropped on the floor — the ablation arm that
    /// shows what routing state costs when membership changes are never
    /// disseminated at all.
    None,
}

/// How an overloaded broker picks the victim when its bounded service
/// queue exceeds budget ([`RuntimeConfig::queue_limit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Delay-cognizant shedding: drop the queued packet with the least
    /// remaining delay slack — `deadline − (service + best-case remaining
    /// transit)` maximized over its undelivered destinations — so traffic
    /// that is already doomed absorbs the overload and still-satisfiable
    /// packets keep their seats. This extends the paper's delay-cognizance
    /// from path selection to queue management.
    #[default]
    LeastSlack,
    /// Naive tail drop: the newest arrival is shed regardless of slack.
    /// Kept as an ablation; under overload it sheds satisfiable packets
    /// while doomed ones hold seats, which the auditor flags as
    /// [`Violation::UnjustifiedShed`].
    TailDrop,
}

/// Runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// How long publishers keep publishing.
    pub duration: SimDuration,
    /// Shared strategy parameters (`m`, ACK timeout factor).
    pub params: RunParams,
    /// Seed for the runtime's random draws (loss, probe outcomes).
    pub seed: u64,
    /// Estimate source for strategies.
    pub monitoring: Monitoring,
    /// ACK propagation model.
    pub ack_transit: AckTransit,
    /// Interval between [`RoutingStrategy::on_monitor`] pushes (paper: 5
    /// minutes). Only used with [`Monitoring::Probing`].
    pub monitor_interval: SimDuration,
    /// Extra simulated time after the last publish during which in-flight
    /// packets may still complete before the run is cut off.
    pub drain_grace: SimDuration,
    /// Hard cap on processed events (safety valve against livelock).
    pub max_events: u64,
    /// Record a full [`Trace`] of transmissions/deliveries/give-ups.
    /// Costs memory proportional to traffic; off by default.
    pub capture_trace: bool,
    /// Per-broker packet processing time. Brokers serve arrivals serially,
    /// so a busy broker queues packets — the congestion the paper mentions
    /// but does not model. `None` (default, the paper's model) processes
    /// instantly.
    pub processing_time: Option<SimDuration>,
    /// Run the online invariant auditor over the transmission stream and
    /// attach its [`AuditReport`] to the log. Off by default.
    pub audit: Option<AuditConfig>,
    /// Bounded per-broker service queue: at most this many packets may wait
    /// for service at one broker (the packet in service is not counted).
    /// Requires [`processing_time`](RuntimeConfig::processing_time); when
    /// the budget is exceeded a packet is shed per
    /// [`shed_policy`](RuntimeConfig::shed_policy). `None` (default) keeps
    /// the unbounded queue of the paper's congestion-free model.
    ///
    /// Note the hop-by-hop ACK fires at arrival, *before* queueing
    /// (Algorithm 2 line 2), so a shed is silent to the upstream sender —
    /// which is exactly why the default policy targets only traffic whose
    /// delay requirement is already unsatisfiable.
    pub queue_limit: Option<usize>,
    /// Victim selection when the bounded queue overflows.
    pub shed_policy: ShedPolicy,
    /// How detector membership deltas reach the strategy (broker churn
    /// only). Default [`Dissemination::Oracle`] keeps every pre-gossip
    /// run byte-identical.
    pub dissemination: Dissemination,
}

impl RuntimeConfig {
    /// A configuration matching the paper's setup for the given publishing
    /// duration and seed.
    #[must_use]
    pub fn paper(duration: SimDuration, seed: u64) -> Self {
        RuntimeConfig {
            duration,
            params: RunParams::default(),
            seed,
            monitoring: Monitoring::Analytic,
            ack_transit: AckTransit::Immediate,
            monitor_interval: SimDuration::from_secs(300),
            drain_grace: SimDuration::from_secs(120),
            max_events: 500_000_000,
            capture_trace: false,
            processing_time: None,
            audit: None,
            queue_limit: None,
            shed_policy: ShedPolicy::default(),
            dissemination: Dissemination::Oracle,
        }
    }
}

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
    /// Total internal runtime inconsistencies survived (see
    /// [`RuntimeError`]); may exceed `errors.len()`.
    pub runtime_errors: u64,
    /// The first [`MAX_RUNTIME_ERRORS`] runtime errors, in detection order.
    pub errors: Vec<RuntimeError>,
    /// Packets shed by overloaded brokers (bounded service queues only).
    pub sheds: u64,
    /// Sheds per broker, indexed by node (empty unless
    /// [`RuntimeConfig::queue_limit`] is set).
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
    /// [`RoutingStrategy::on_gossip`].
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
    /// deadlines (also an auditor [`Violation::PastEventClamp`] when the
    /// clamped event was a strategy timer).
    pub clamped_events: u64,
    /// High-water mark of the central event queue — what
    /// [`OverlayRuntime::estimated_queue_len`] must stay at or above.
    pub peak_queue_len: usize,
    /// Full transmission trace (only with `capture_trace`).
    pub trace: Option<Trace>,
    /// Invariant-audit outcome (only with [`RuntimeConfig::audit`]).
    pub audit: Option<AuditReport>,
}

impl DeliveryLog {
    /// Records one survived runtime inconsistency.
    fn note_error(&mut self, err: RuntimeError) {
        self.runtime_errors += 1;
        if self.errors.len() < MAX_RUNTIME_ERRORS {
            self.errors.push(err);
        }
    }

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
        if self.expectations.is_empty() {
            return 0.0;
        }
        let hit = self
            .expectations
            .values()
            .filter(|e| e.delivered.is_some())
            .count();
        hit as f64 / self.expectations.len() as f64
    }

    /// Fraction of pairs delivered within their deadline.
    #[must_use]
    pub fn qos_delivery_ratio(&self) -> f64 {
        if self.expectations.is_empty() {
            return 0.0;
        }
        let hit = self.expectations.values().filter(|e| e.on_time()).count();
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
        let mut pairs = 0usize;
        let mut hit = 0usize;
        for e in self.expectations.values() {
            if e.shed_doomed && e.delivered.is_none() {
                continue;
            }
            pairs += 1;
            if e.delivered.is_some() {
                hit += 1;
            }
        }
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

/// A queued packet's remaining delay slack at a broker, in microseconds:
/// `deadline − (now + service + best-case remaining transit)`, maximized
/// over its undelivered destinations. Positive means some destination can
/// still be reached in time. Packets carrying no live expectation (control
/// traffic such as NACKs) price at `i128::MAX` so they are shed only as a
/// last resort — silently dropping recovery traffic costs more than the
/// seat it frees.
fn shed_slack(
    log: &DeliveryLog,
    sp: &ShortestPaths,
    packet: &Packet,
    now: SimTime,
    service: SimDuration,
) -> i128 {
    let eta_base = now.as_micros() as i128 + service.as_micros() as i128;
    let mut best: Option<i128> = None;
    for &d in &packet.destinations {
        let Some(exp) = log.expectations.get(&(packet.id, d)) else {
            continue;
        };
        if exp.delivered.is_some() {
            continue;
        }
        let deadline_at = exp.published.as_micros() as i128 + exp.deadline.as_micros() as i128;
        let slack = match sp.cost_to(d) {
            Some(cost) => deadline_at - eta_base - cost as i128,
            // Unreachable destination: fully doomed for this pair.
            None => i128::MIN / 2,
        };
        best = Some(best.map_or(slack, |b| b.max(slack)));
    }
    best.unwrap_or(i128::MAX)
}

/// Marks the shed packet's undelivered pairs that were already past help
/// (deadline unreachable even with immediate service and best-case
/// transit). Returns `(had_live_pairs, any_still_satisfiable)`.
fn mark_shed_pairs(
    log: &mut DeliveryLog,
    sp: &ShortestPaths,
    packet: &Packet,
    now: SimTime,
    service: SimDuration,
) -> (bool, bool) {
    let eta_base = now.as_micros() as i128 + service.as_micros() as i128;
    let mut had_pairs = false;
    let mut any_sat = false;
    for &d in &packet.destinations {
        let Some(exp) = log.expectations.get_mut(&(packet.id, d)) else {
            continue;
        };
        if exp.delivered.is_some() {
            continue;
        }
        had_pairs = true;
        let deadline_at = exp.published.as_micros() as i128 + exp.deadline.as_micros() as i128;
        let sat = sp
            .cost_to(d)
            .is_some_and(|cost| deadline_at >= eta_base + cost as i128);
        if sat {
            any_sat = true;
        } else {
            exp.shed_doomed = true;
        }
    }
    (had_pairs, any_sat)
}

enum Event {
    Publish {
        topic_index: usize,
        round: u64,
    },
    // Packets do not ride the queue: the wheel moves an entry on every
    // cascade, so events carry a 4-byte `ParkedPackets` slot where an
    // inline `Packet` would drag ~200 bytes through each move.
    Arrival {
        to: NodeId,
        from: NodeId,
        slot: u32,
    },
    Process {
        node: NodeId,
        from: NodeId,
        slot: u32,
    },
    // An ACK echoes no routing header: the shared body (message identity)
    // and the acknowledged copy's tag are all a sender reads from it.
    AckArrival {
        at: NodeId,
        to: NodeId,
        body: Arc<PacketBody>,
        tag: u64,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    Probe,
    Monitor,
    /// Epoch-boundary sweep for chaos crash-restarts: brokers that came
    /// back up this epoch get their `on_restart` notification.
    ChaosTick {
        epoch: u64,
    },
}

/// Packets between their `Send` and the receiving broker's routing logic:
/// on the wire, or waiting for a busy broker. A claimed slot is reused by
/// the next send, so the steady state allocates nothing per transmission.
#[derive(Default)]
struct ParkedPackets {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl ParkedPackets {
    /// Parks `packet` and returns its slot.
    fn park(&mut self, packet: Packet) -> u32 {
        if let Some(slot) = self.free.pop() {
            if let Some(seat) = self.slots.get_mut(slot as usize) {
                *seat = Some(packet);
            }
            slot
        } else {
            self.slots.push(Some(packet));
            (self.slots.len() - 1) as u32
        }
    }

    /// The packet parked in `slot`.
    fn peek(&self, slot: u32) -> Option<&Packet> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Takes the packet out of `slot` and frees the slot.
    fn claim(&mut self, slot: u32) -> Option<Packet> {
        let packet = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(packet)
    }
}

/// The mutable state of one run, threaded through every
/// [`OverlayRuntime::tick`] call: the event queue, the delivery log under
/// construction, the optional chaos/gossip machinery, and the per-broker
/// service/overload bookkeeping. One named struct keeps the per-event hot
/// path a single function the analyzer can anchor on.
struct RunState {
    rng: SmallRng,
    log: DeliveryLog,
    auditor: Option<InvariantAuditor>,
    queue: EventQueue<Event>,
    parked: ParkedPackets,
    next_packet_id: u64,
    monitor: Option<EwmaMonitor>,
    churn: Option<BrokerChurnModel>,
    detector: Option<SwimDetector>,
    gossip: Option<GossipOverlay>,
    hard_stop: SimTime,
    out: Actions,
    staging: Vec<Action>,
    node_free: Vec<SimTime>,
    overload: Option<(SimDuration, usize)>,
    /// Per-broker waiting room (bounded-queue mode): `(sender, slot)`.
    pending: Vec<Vec<(NodeId, u32)>>,
    in_service: Vec<bool>,
    sp_cache: Vec<Option<ShortestPaths>>,
}

/// Runs one strategy over one topology + workload and returns the delivery
/// log.
///
/// # Example
///
/// A minimal single-hop strategy, wired through a two-broker overlay:
///
/// ```
/// use dcrd_net::failure::{FailureModel, LinkFailureModel};
/// use dcrd_net::loss::LossModel;
/// use dcrd_net::topology::line;
/// use dcrd_net::NodeId;
/// use dcrd_pubsub::packet::Packet;
/// use dcrd_pubsub::runtime::{OverlayRuntime, RuntimeConfig};
/// use dcrd_pubsub::strategy::{Actions, RoutingStrategy, SetupContext, TimerKey};
/// use dcrd_pubsub::topic::{Subscription, TopicId};
/// use dcrd_pubsub::workload::{TopicSpec, Workload};
/// use dcrd_sim::{SimDuration, SimTime};
///
/// struct Direct;
/// impl RoutingStrategy for Direct {
///     fn name(&self) -> &'static str { "direct" }
///     fn setup(&mut self, _: &SetupContext<'_>) {}
///     fn on_publish(&mut self, node: NodeId, p: Packet, _t: SimTime, out: &mut Actions) {
///         let dest = p.destinations[0];
///         out.send(dest, p.forward(node, vec![dest], 0));
///     }
///     fn on_packet(&mut self, node: NodeId, _f: NodeId, p: Packet, _t: SimTime, out: &mut Actions) {
///         if p.destinations.contains(&node) { out.deliver(p.id); }
///     }
///     fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
///     fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
/// }
///
/// let topo = line(2, SimDuration::from_millis(10));
/// let workload = Workload::from_topics(vec![TopicSpec {
///     topic: TopicId::new(0),
///     publisher: topo.node(0),
///     interval: SimDuration::from_secs(1),
///     offset: SimDuration::ZERO,
///     subscriptions: vec![Subscription::new(topo.node(1), SimDuration::from_millis(50))],
///     burst: None,
/// }]);
/// let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
/// let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
/// let log = OverlayRuntime::new(&topo, &workload, failure, LossModel::new(0.0), config)
///     .run(&mut Direct);
/// assert_eq!(log.delivery_ratio(), 1.0);
/// ```
#[derive(Debug)]
pub struct OverlayRuntime<'a> {
    topology: &'a Topology,
    workload: &'a Workload,
    failure: FailureModel,
    loss: LossModel,
    config: RuntimeConfig,
}

impl<'a> OverlayRuntime<'a> {
    /// Creates a runtime for the given environment.
    #[must_use]
    pub fn new(
        topology: &'a Topology,
        workload: &'a Workload,
        failure: FailureModel,
        loss: LossModel,
        config: RuntimeConfig,
    ) -> Self {
        OverlayRuntime {
            topology,
            workload,
            failure,
            loss,
            config,
        }
    }

    /// Runs `strategy` to completion and returns the delivery log.
    ///
    /// A `Send` to a node that is not a neighbor of the acting node, or a
    /// `Deliver` on a node that is not a subscriber of the message, is a
    /// strategy bug; the runtime drops the action and counts it in
    /// [`DeliveryLog::invalid_sends`] / [`DeliveryLog::invalid_delivers`]
    /// rather than aborting the run.
    pub fn run<S: RoutingStrategy + ?Sized>(&self, strategy: &mut S) -> DeliveryLog {
        let rng = rng_for(self.config.seed, "runtime");
        let mut log = DeliveryLog {
            trace: self.config.capture_trace.then(Trace::new),
            ..DeliveryLog::default()
        };
        let auditor = self.config.audit.map(InvariantAuditor::new);
        let mut queue: EventQueue<Event> = EventQueue::with_capacity(self.estimated_queue_len());
        let next_packet_id: u64 = 0;

        let initial_estimates = self.initial_estimates();
        let monitor = match self.config.monitoring {
            Monitoring::Analytic => None,
            Monitoring::Probing { ewma_weight, .. } => {
                // The prior assumes healthy links with their configured
                // delay: what a broker knows before any measurement.
                let prior_gamma = 1.0;
                let mut mon = EwmaMonitor::new(
                    self.topology.num_edges(),
                    LinkEstimate::new(SimDuration::from_millis(30), prior_gamma),
                    ewma_weight,
                );
                // Give each edge its true delay as the alpha prior (delays
                // are measurable instantly from one successful probe).
                for e in self.topology.edge_ids() {
                    mon.observe(e, Some(self.topology.delay(e)));
                }
                Some(mon)
            }
        };

        {
            // The configured publish duration IS the workload's publish
            // horizon; inject it so strategies (e.g. recovery sweeps) never
            // expect sequence numbers that were never published.
            let params = RunParams {
                horizon: self.config.duration,
                ..self.config.params
            };
            let ctx = SetupContext {
                topology: self.topology,
                estimates: &initial_estimates,
                workload: self.workload,
                failure_oracle: &self.failure,
                params,
            };
            strategy.setup(&ctx);
        }

        // Seed the publish schedule and monitoring ticks.
        for (i, t) in self.workload.topics().iter().enumerate() {
            let first = t.publish_time(0);
            if first.saturating_since(SimTime::ZERO) <= self.config.duration {
                queue.schedule(
                    first,
                    Event::Publish {
                        topic_index: i,
                        round: 0,
                    },
                );
            }
        }
        if let Monitoring::Probing { probe_interval, .. } = self.config.monitoring {
            queue.schedule(SimTime::ZERO + probe_interval, Event::Probe);
            queue.schedule(SimTime::ZERO + self.config.monitor_interval, Event::Monitor);
        }
        // Crash-restart and churn sweeps run at every epoch boundary (1 s,
        // matching the chaos models' epoch) so restarted brokers lose their
        // volatile router state at the moment they come back and the
        // failure detector probes once per epoch.
        if self
            .failure
            .chaos()
            .is_some_and(|c| c.crashes().is_some() || c.churn().is_some())
        {
            queue.schedule(SimTime::from_secs(1), Event::ChaosTick { epoch: 1 });
        }
        // With broker churn, a SWIM-style failure detector turns ground-
        // truth probe outcomes into membership deltas for the strategy.
        // Absent from the start when churn is off, so crash-only runs are
        // byte-identical to their pre-churn behavior.
        let churn: Option<BrokerChurnModel> = self.failure.chaos().and_then(|c| c.churn()).copied();
        let detector = churn.as_ref().map(|ch| {
            SwimDetector::new(
                self.topology.num_nodes(),
                |n| ch.present_in_epoch(n, 0),
                SwimConfig {
                    seed: self.config.seed,
                    ..SwimConfig::default()
                },
            )
        });
        // Gossip dissemination interposes an epidemic overlay between the
        // detector and the strategy; Oracle and None need no state.
        let gossip: Option<GossipOverlay> = match self.config.dissemination {
            Dissemination::Gossip(cfg) if detector.is_some() => {
                Some(GossipOverlay::new(self.topology.num_nodes(), cfg))
            }
            _ => None,
        };

        let hard_stop = SimTime::ZERO + self.config.duration + self.config.drain_grace;
        let out = Actions::new();
        // Recycled across events by `execute` (see there).
        let staging: Vec<Action> = Vec::new();
        let node_free: Vec<SimTime> = vec![SimTime::ZERO; self.topology.num_nodes()];

        // Overload mode (bounded service queues): per-broker FIFO of
        // waiting packets, an in-service flag, and a lazy per-broker
        // shortest-path cache that prices best-case remaining transit when
        // computing shed slack. All Vec-indexed by node: deterministic.
        let overload = match (self.config.processing_time, self.config.queue_limit) {
            (Some(service), Some(limit)) => Some((service, limit)),
            _ => None,
        };
        let mut pending: Vec<Vec<(NodeId, u32)>> = Vec::new();
        let mut in_service: Vec<bool> = Vec::new();
        let mut sp_cache: Vec<Option<ShortestPaths>> = Vec::new();
        if overload.is_some() {
            pending.resize_with(self.topology.num_nodes(), Vec::new);
            in_service.resize(self.topology.num_nodes(), false);
            sp_cache.resize_with(self.topology.num_nodes(), || None);
            log.sheds_by_node = vec![0; self.topology.num_nodes()];
        }

        let mut st = RunState {
            rng,
            log,
            auditor,
            queue,
            parked: ParkedPackets::default(),
            next_packet_id,
            monitor,
            churn,
            detector,
            gossip,
            hard_stop,
            out,
            staging,
            node_free,
            overload,
            pending,
            in_service,
            sp_cache,
        };
        while let Some((now, event)) = st.queue.pop() {
            if now > st.hard_stop {
                break;
            }
            if st.queue.events_processed() > self.config.max_events {
                st.log.truncated = true;
                break;
            }
            self.tick(&mut st, strategy, now, event);
        }
        let RunState {
            mut log,
            auditor,
            queue,
            gossip,
            ..
        } = st;
        if let Some(overlay) = &gossip {
            log.rumors_sent = overlay.rumors_sent();
            log.anti_entropy_rounds = overlay.anti_entropy_rounds();
            log.gossip_deltas_applied = overlay.deltas_converged();
            log.stale_reconciliations = overlay.stale_reconciliations();
        }
        log.events_processed = queue.events_processed();
        log.clamped_events = queue.clamped();
        log.peak_queue_len = queue.peak_len();
        log.audit = auditor.map(InvariantAuditor::finish);
        log
    }

    /// Processes one event: the body of [`OverlayRuntime::run`]'s event
    /// loop, factored out so the per-event hot path is one named function
    /// the analyzer's `PANIC001` pass anchors its reachability walk on.
    fn tick<S: RoutingStrategy + ?Sized>(
        &self,
        st: &mut RunState,
        strategy: &mut S,
        now: SimTime,
        event: Event,
    ) {
        match event {
            Event::Publish { topic_index, round } => {
                let Some(spec) = self.workload.topics().get(topic_index) else {
                    return; // unreachable: publishes are scheduled per topic
                };
                let id = PacketId::new(st.next_packet_id);
                st.next_packet_id += 1;
                st.log.messages_published += 1;
                // Churn extension: only subscriptions active at publish
                // time receive (and are accounted for) this message.
                let active = spec.active_subscriptions(now);
                for sub in &active {
                    st.log.expectations.insert(
                        (id, sub.subscriber),
                        Expectation {
                            published: now,
                            deadline: sub.deadline,
                            delivered: None,
                            gave_up: false,
                            shed_doomed: false,
                        },
                    );
                }
                if !active.is_empty() {
                    // The publish round doubles as the per-(topic,
                    // publisher) sequence number subscribers use for gap
                    // detection.
                    let packet = Packet::new(
                        id,
                        spec.topic,
                        spec.publisher,
                        now,
                        active.iter().map(|s| s.subscriber).collect::<NodeList>(),
                    )
                    .with_seq(round);
                    if let Some(aud) = &mut st.auditor {
                        aud.observe_publish(&packet);
                    }
                    strategy.on_publish(spec.publisher, packet, now, &mut st.out);
                    self.execute(st, spec.publisher, now);
                }

                let next = spec.publish_time(round + 1);
                if next.saturating_since(SimTime::ZERO) <= self.config.duration {
                    st.queue.schedule(
                        next,
                        Event::Publish {
                            topic_index,
                            round: round + 1,
                        },
                    );
                }
            }
            Event::Arrival { to, from, slot } => {
                // A broker that crashed while the packet was in flight
                // loses it: no ACK, no processing. (The epoch-failure
                // node model only blocks transmissions at send time;
                // the crash model also eats arrivals.)
                if self.failure.chaos().is_some_and(|c| c.node_down(to, now)) {
                    st.parked.claim(slot);
                    return;
                }
                let Some(packet) = st.parked.peek(slot) else {
                    return; // unreachable: every send parks its packet
                };
                // Hop-by-hop ACK, generated before processing
                // (Algorithm 2 line 2). Subject to the same link rules.
                let Some(edge) = self.topology.edge_between(to, from) else {
                    st.log.note_error(RuntimeError::ArrivalWithoutLink {
                        from,
                        to,
                        packet: packet.id,
                    });
                    st.parked.claim(slot);
                    return;
                };
                let blocked = self.failure.edge_blocked(self.topology, edge, now);
                if !blocked
                    && !self.loss.drops(&mut st.rng)
                    && !self.gray_drops(edge, to, &mut st.rng)
                {
                    let ack_at = match self.config.ack_transit {
                        AckTransit::Immediate => now,
                        AckTransit::RoundTrip => now + self.gray_delay(edge, to),
                    };
                    st.queue.schedule(
                        ack_at,
                        Event::AckArrival {
                            at: from,
                            to,
                            body: Arc::clone(&packet.body),
                            tag: packet.tag,
                        },
                    );
                }
                match (self.config.processing_time, st.overload) {
                    (None, _) => {
                        let Some(packet) = st.parked.claim(slot) else {
                            return;
                        };
                        strategy.on_packet(to, from, packet, now, &mut st.out);
                        self.execute(st, to, now);
                    }
                    (Some(service), None) => {
                        // Serial per-broker service: the packet waits
                        // for the broker to free up, then takes
                        // `service` before the routing logic runs.
                        let Some(free) = st.node_free.get_mut(to.index()) else {
                            return; // unreachable: sized to num_nodes
                        };
                        let start = (*free).max(now);
                        let done = start + service;
                        *free = done;
                        st.queue.schedule(
                            done,
                            Event::Process {
                                node: to,
                                from,
                                slot,
                            },
                        );
                    }
                    (Some(_), Some((service, limit))) => {
                        // Bounded queue: enqueue, shed the policy's
                        // victim on overflow, start service if idle.
                        let Some(q) = st.pending.get_mut(to.index()) else {
                            return; // unreachable: sized to num_nodes
                        };
                        q.push((from, slot));
                        if q.len() > limit {
                            let Some(cache) = st.sp_cache.get_mut(to.index()) else {
                                return;
                            };
                            let sp = cache
                                .get_or_insert_with(|| dijkstra(self.topology, to, Metric::Delay));
                            let slacks: Vec<i128> = q
                                .iter()
                                .map(|&(_, waiting)| {
                                    st.parked.peek(waiting).map_or(i128::MAX, |p| {
                                        shed_slack(&st.log, sp, p, now, service)
                                    })
                                })
                                .collect();
                            let victim = match self.config.shed_policy {
                                // Newest arrival, regardless of slack.
                                ShedPolicy::TailDrop => q.len() - 1,
                                // First index of minimum slack: ties
                                // break toward the oldest arrival.
                                ShedPolicy::LeastSlack => {
                                    let mut best = 0;
                                    let mut best_slack = i128::MAX;
                                    for (i, s) in slacks.iter().enumerate() {
                                        if *s < best_slack {
                                            best = i;
                                            best_slack = *s;
                                        }
                                    }
                                    best
                                }
                            };
                            let (_, shed) = q.remove(victim);
                            let Some(shed) = st.parked.claim(shed) else {
                                return;
                            };
                            let kept_doomed = slacks
                                .iter()
                                .enumerate()
                                .any(|(i, s)| i != victim && *s < 0);
                            let (_, any_sat) =
                                mark_shed_pairs(&mut st.log, sp, &shed, now, service);
                            st.log.sheds += 1;
                            if let Some(n) = st.log.sheds_by_node.get_mut(to.index()) {
                                *n += 1;
                            }
                            if !any_sat {
                                st.log.doomed_sheds += 1;
                            }
                            let ev = TraceEvent::Shed {
                                at: now,
                                node: to,
                                packet: shed.id,
                            };
                            if let Some(trace) = &mut st.log.trace {
                                trace.record(ev);
                            }
                            if let Some(aud) = &mut st.auditor {
                                aud.observe(&ev);
                                // Delay-cognizance gate: overload may
                                // only claim traffic that is past help
                                // while doomed packets hold seats.
                                if any_sat && kept_doomed {
                                    aud.flag(Violation::UnjustifiedShed {
                                        packet: shed.id,
                                        node: to,
                                    });
                                }
                            }
                        }
                        let depth = q.len();
                        st.log.max_queue_depth = st.log.max_queue_depth.max(depth);
                        let Some(busy) = st.in_service.get_mut(to.index()) else {
                            return;
                        };
                        if !*busy && !q.is_empty() {
                            let (f, next) = q.remove(0);
                            *busy = true;
                            st.queue.schedule(
                                now + service,
                                Event::Process {
                                    node: to,
                                    from: f,
                                    slot: next,
                                },
                            );
                        }
                    }
                }
            }
            Event::Process { node, from, slot } => {
                let Some(packet) = st.parked.claim(slot) else {
                    return; // unreachable: the slot was parked at send time
                };
                // A broker that departed while the packet sat in its
                // service queue never processes it. (Crash-down brokers
                // already dropped the arrival; churn-absent brokers are
                // gone for good, so their queue dies with them.)
                if st.churn.as_ref().is_some_and(|ch| ch.absent_at(node, now)) {
                    if st.overload.is_some() {
                        // Bounded mode: the departed broker's waiting
                        // room dies with it too (churn loss, not an
                        // overload shed).
                        if let Some(q) = st.pending.get_mut(node.index()) {
                            for (_, waiting) in q.drain(..) {
                                st.parked.claim(waiting);
                            }
                        }
                        if let Some(busy) = st.in_service.get_mut(node.index()) {
                            *busy = false;
                        }
                    }
                    return;
                }
                strategy.on_packet(node, from, packet, now, &mut st.out);
                self.execute(st, node, now);
                if let Some((service, _)) = st.overload {
                    // Serve the next waiting packet, FIFO.
                    let Some(q) = st.pending.get_mut(node.index()) else {
                        return; // unreachable: sized to num_nodes
                    };
                    if q.is_empty() {
                        if let Some(busy) = st.in_service.get_mut(node.index()) {
                            *busy = false;
                        }
                    } else {
                        let (f, next) = q.remove(0);
                        st.queue.schedule(
                            now + service,
                            Event::Process {
                                node,
                                from: f,
                                slot: next,
                            },
                        );
                    }
                }
            }
            Event::AckArrival { at, to, body, tag } => {
                // An ACK addressed to a crash-down sender dies with its
                // in-flight state.
                if self.failure.chaos().is_some_and(|c| c.node_down(at, now)) {
                    return;
                }
                st.log.acks_delivered += 1;
                let ev = TraceEvent::Ack {
                    at: now,
                    from: to,
                    to: at,
                    packet: body.id,
                };
                if let Some(trace) = &mut st.log.trace {
                    trace.record(ev);
                }
                if let Some(aud) = &mut st.auditor {
                    aud.observe(&ev);
                }
                strategy.on_ack(at, to, &Packet::ack_view(body, tag), now, &mut st.out);
                self.execute(st, at, now);
            }
            Event::Timer { node, key } => {
                // A departed broker's timers die with it. Crash-down
                // brokers keep their timers (PR 3 semantics: stale
                // timers fire into wiped state and no-op).
                if st.churn.as_ref().is_some_and(|ch| ch.absent_at(node, now)) {
                    return;
                }
                strategy.on_timer(node, key, now, &mut st.out);
                self.execute(st, node, now);
            }
            Event::Probe => {
                let (Monitoring::Probing { probe_interval, .. }, Some(mon)) =
                    (self.config.monitoring, st.monitor.as_mut())
                else {
                    st.log.note_error(RuntimeError::MonitorMissing);
                    return;
                };
                for e in self.topology.edge_ids() {
                    let blocked = self.failure.edge_blocked(self.topology, e, now);
                    let outcome =
                        (!blocked && !self.loss.drops(&mut st.rng)).then(|| self.topology.delay(e));
                    mon.observe(e, outcome);
                }
                if now.saturating_since(SimTime::ZERO) < self.config.duration {
                    st.queue.schedule(now + probe_interval, Event::Probe);
                }
            }
            Event::Monitor => {
                let Some(mon) = st.monitor.as_ref() else {
                    st.log.note_error(RuntimeError::MonitorMissing);
                    return;
                };
                strategy.on_monitor(&mon.estimates(), now);
                if now.saturating_since(SimTime::ZERO) < self.config.duration {
                    st.queue
                        .schedule(now + self.config.monitor_interval, Event::Monitor);
                }
            }
            Event::ChaosTick { epoch } => {
                // Failure detection first: the detector probes the
                // epoch's ground truth and hands any membership deltas
                // to the strategy, so repair and custody handoff are in
                // place before restarts replay and ticks sweep.
                if let (Some(det), Some(ch)) = (st.detector.as_mut(), st.churn.as_ref()) {
                    let deltas = det.tick(epoch, |n| {
                        if ch.departed_in_epoch(n, epoch) {
                            GroundTruth::Departed
                        } else if !ch.present_in_epoch(n, epoch)
                            || self.failure.chaos().is_some_and(|c| c.node_down(n, now))
                        {
                            GroundTruth::Down
                        } else {
                            GroundTruth::Up
                        }
                    });
                    if let Some(overlay) = st.gossip.as_mut() {
                        // Epidemic dissemination: each delta becomes a
                        // rumor at its witness broker. Self-announced
                        // events (joins, leaves, refutations) start at
                        // the node they are about; a confirmed death
                        // needs a live spokesbroker — the lowest-index
                        // up-and-present broker other than the corpse.
                        let chaos = self.failure.chaos();
                        let up = |x: NodeId| !chaos.is_some_and(|c| c.node_down(x, now));
                        for &d in &deltas {
                            let witness = match d {
                                MembershipDelta::ConfirmDead { .. } => {
                                    (0..self.topology.num_nodes())
                                        .map(|i| self.topology.node(i))
                                        .find(|&x| x != d.node() && up(x))
                                        .unwrap_or_else(|| d.node())
                                }
                                _ => d.node(),
                            };
                            overlay.submit(d, witness, epoch);
                        }
                        // Control-plane connectivity: two brokers can
                        // exchange gossip when both are up and no
                        // active partition separates them. Partitions
                        // therefore stall convergence until they heal.
                        let n = self.topology.num_nodes();
                        let split = |a: NodeId, b: NodeId| {
                            chaos.and_then(|c| c.partition()).is_some_and(|p| {
                                p.is_isolated(a, now, n) != p.is_isolated(b, now, n)
                            })
                        };
                        let tick = overlay.tick(epoch, |a, b| up(a) && up(b) && !split(a, b), up);
                        if !tick.converged.is_empty() {
                            strategy.on_gossip(&tick.converged, now);
                        }
                        if let Some(aud) = &mut st.auditor {
                            for s in &tick.stale {
                                aud.flag(Violation::StaleRouteAfterConvergence {
                                    node: s.node,
                                    rounds: s.rounds,
                                });
                            }
                        }
                    } else if self.config.dissemination == Dissemination::Oracle
                        && !deltas.is_empty()
                    {
                        strategy.on_membership(&deltas, now);
                    }
                    // Dissemination::None drops detector output: the
                    // strategy routes on stale membership forever.
                }
                // All restarts first: a broker that came back this epoch
                // replays its custody before any node's housekeeping
                // tick reacts to the new state.
                for i in 0..self.topology.num_nodes() {
                    let node = self.topology.node(i);
                    let restarted = self
                        .failure
                        .chaos()
                        .is_some_and(|c| c.restarted_at_epoch(node, epoch));
                    if restarted {
                        strategy.on_restart(node, now, &mut st.out);
                        self.execute(st, node, now);
                    }
                }
                // Then one housekeeping tick per live broker (recovery
                // strategies run their gap-detection sweep here). A
                // crashed broker cannot sweep.
                for i in 0..self.topology.num_nodes() {
                    let node = self.topology.node(i);
                    if self.failure.chaos().is_some_and(|c| c.node_down(node, now)) {
                        continue;
                    }
                    strategy.on_tick(node, now, &mut st.out);
                    self.execute(st, node, now);
                }
                let next = SimTime::from_secs(epoch + 1);
                if next <= st.hard_stop {
                    st.queue
                        .schedule(next, Event::ChaosTick { epoch: epoch + 1 });
                }
            }
        }
    }

    /// An upper estimate of simultaneously pending events, from the
    /// workload and topology instead of a fixed constant: roughly one
    /// arrival + ACK + timer triple per in-flight `(message, subscriber)`
    /// pair plus per-node housekeeping. A flash-crowd burst multiplies a
    /// topic's publish rate, so the estimate scales with the largest
    /// configured burst. [`DeliveryLog::peak_queue_len`] reports what a run
    /// actually reached; the estimate must stay at or above it.
    ///
    /// The queue reserves this much for the timer wheel's ready lane only.
    /// That lane holds the entries of a single µs tick — pending events
    /// wait in the wheel's slot buffers, which size themselves during the
    /// first lap and are recycled from then on — so the reservation is a
    /// generous one-off (the 64-broker benchmark workload peaks at 187
    /// pending events in total), not a working set that must be hit.
    #[must_use]
    pub fn estimated_queue_len(&self) -> usize {
        // The wheel's slot count, as the floor for tiny runs.
        const WHEEL_SLOTS: usize = 64 * 7;
        let subscriptions: usize = self
            .workload
            .topics()
            .iter()
            .map(|t| t.subscriptions.len())
            .sum();
        let burst_mult = self
            .workload
            .topics()
            .iter()
            .filter_map(|t| t.burst.as_ref())
            .map(|b| b.multiplier as usize)
            .max()
            .unwrap_or(1)
            .max(1);
        let nodes = self.topology.num_nodes();
        (64 + WHEEL_SLOTS + 4 * nodes + 8 * subscriptions * burst_mult).min(1 << 20)
    }

    fn initial_estimates(&self) -> LinkEstimates {
        match self.config.monitoring {
            Monitoring::Analytic => analytic_estimates(
                self.topology,
                self.failure.link_model().marginal_rate(),
                self.loss.pl(),
            ),
            // Probing runs start from optimistic priors; on_monitor refines.
            Monitoring::Probing { .. } => analytic_estimates(self.topology, 0.0, 0.0),
        }
    }

    /// Whether a transmission sent by `from` over `edge` is eaten by a gray
    /// link's extra directional loss.
    fn gray_drops(&self, edge: dcrd_net::EdgeId, from: NodeId, rng: &mut SmallRng) -> bool {
        self.failure
            .chaos()
            .and_then(|c| c.gray())
            .is_some_and(|g| {
                g.degrades(self.topology, edge, from) && LossModel::new(g.extra_loss()).drops(rng)
            })
    }

    /// The propagation delay for a transmission sent by `from` over `edge`,
    /// inflated in a gray link's degraded direction.
    fn gray_delay(&self, edge: dcrd_net::EdgeId, from: NodeId) -> SimDuration {
        let base = self.topology.delay(edge);
        match self.failure.chaos().and_then(|c| c.gray()) {
            Some(g) if g.degrades(self.topology, edge, from) => base.mul_f64(g.delay_factor()),
            _ => base,
        }
    }

    /// Carries out the actions `node`'s callback left in `st.out`.
    fn execute(&self, st: &mut RunState, node: NodeId, now: SimTime) {
        let RunState {
            out,
            queue,
            parked,
            rng,
            log,
            auditor,
            staging,
            ..
        } = st;
        // Actions may cascade only through scheduled events, so one pass
        // over the sink is complete. The staging buffer is recycled across
        // events — the hot loop would otherwise allocate one Vec per event.
        staging.clear();
        staging.extend(out.drain());
        for action in staging.drain(..) {
            match action {
                Action::Send { to, packet } => {
                    // Churn invariant: a departed broker cannot transmit.
                    // The event gates make this unreachable for a correct
                    // strategy; if it fires anyway, the auditor records a
                    // routing loop through a dead broker and the send dies.
                    if self
                        .failure
                        .chaos()
                        .and_then(|c| c.churn())
                        .is_some_and(|ch| ch.absent_at(node, now))
                    {
                        if let Some(aud) = auditor {
                            aud.flag(Violation::RouteThroughDead {
                                packet: packet.id,
                                node,
                            });
                        }
                        continue;
                    }
                    let Some(edge) = self.topology.edge_between(node, to) else {
                        log.invalid_sends += 1;
                        continue;
                    };
                    log.data_sends += 1;
                    let outcome = if self.failure.edge_blocked(self.topology, edge, now) {
                        log.sends_blocked += 1;
                        TxOutcome::Blocked
                    } else if self.loss.drops(rng) || self.gray_drops(edge, node, rng) {
                        log.sends_lost += 1;
                        TxOutcome::Lost
                    } else {
                        TxOutcome::Arrived
                    };
                    let ev = TraceEvent::Send {
                        at: now,
                        from: node,
                        to,
                        packet: packet.id,
                        destinations: packet.destinations.len() as u32,
                        outcome,
                    };
                    if let Some(trace) = &mut log.trace {
                        trace.record(ev);
                    }
                    if let Some(aud) = auditor {
                        aud.observe(&ev);
                    }
                    if outcome == TxOutcome::Arrived {
                        queue.schedule(
                            now + self.gray_delay(edge, node),
                            Event::Arrival {
                                to,
                                from: node,
                                slot: parked.park(packet),
                            },
                        );
                    }
                }
                Action::Deliver { packet } => {
                    // Churn invariant: no delivery on a departed subscriber.
                    if self
                        .failure
                        .chaos()
                        .and_then(|c| c.churn())
                        .is_some_and(|ch| ch.absent_at(node, now))
                    {
                        if let Some(aud) = auditor {
                            aud.flag(Violation::DeliveryToDeparted { packet, node });
                        }
                        continue;
                    }
                    let Some(exp) = log.expectations.get_mut(&(packet, node)) else {
                        log.invalid_delivers += 1;
                        continue;
                    };
                    if exp.delivered.is_none() {
                        exp.delivered = Some(now);
                    } else {
                        log.duplicate_deliveries += 1;
                    }
                    let ev = TraceEvent::Deliver {
                        at: now,
                        node,
                        packet,
                    };
                    if let Some(trace) = &mut log.trace {
                        trace.record(ev);
                    }
                    if let Some(aud) = auditor {
                        aud.observe(&ev);
                    }
                }
                Action::SetTimer { at, key } => {
                    // The queue clamps a strictly-past instant to `now` and
                    // reports it; a `now + 0` timer is legitimate and does
                    // not trip the clamp. A flagged clamp means a strategy
                    // computed a stale deadline — an auditor violation, not
                    // a silent reorder.
                    if queue.schedule(at, Event::Timer { node, key }) {
                        if let Some(aud) = auditor {
                            aud.flag(Violation::PastEventClamp { node, at, now });
                        }
                    }
                }
                Action::Suppress { packet } => {
                    log.suppressed += 1;
                    let ev = TraceEvent::Suppress {
                        at: now,
                        node,
                        packet,
                    };
                    if let Some(trace) = &mut log.trace {
                        trace.record(ev);
                    }
                    if let Some(aud) = auditor {
                        aud.observe(&ev);
                    }
                }
                Action::GiveUp {
                    packet,
                    destination,
                } => {
                    if let Some(exp) = log.expectations.get_mut(&(packet, destination)) {
                        exp.gave_up = true;
                    }
                    let ev = TraceEvent::GiveUp {
                        at: now,
                        node,
                        packet,
                        destination,
                    };
                    if let Some(trace) = &mut log.trace {
                        trace.record(ev);
                    }
                    if let Some(aud) = auditor {
                        aud.observe(&ev);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ack_timeout;
    use crate::topic::{Subscription, TopicId};
    use crate::workload::TopicSpec;
    use dcrd_net::failure::LinkFailureModel;
    use dcrd_net::topology::line;

    /// Minimal flooding strategy used to exercise the runtime: forwards
    /// every packet to every neighbor not yet on the path, delivers
    /// locally, no ACK handling.
    struct Flood {
        topology: Option<Topology>,
    }

    impl Flood {
        fn new() -> Self {
            Flood { topology: None }
        }
        fn flood(&self, node: NodeId, packet: &Packet, out: &mut Actions) {
            let topo = self.topology.as_ref().expect("setup ran");
            for &(next, _) in topo.neighbors(node) {
                if !packet.visited(next) && packet.destinations.contains(&next) {
                    out.send(next, packet.forward(node, packet.destinations.clone(), 0));
                }
            }
        }
    }

    impl RoutingStrategy for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn setup(&mut self, ctx: &SetupContext<'_>) {
            self.topology = Some(ctx.topology.clone());
        }
        fn on_publish(&mut self, node: NodeId, packet: Packet, _now: SimTime, out: &mut Actions) {
            self.flood(node, &packet, out);
        }
        fn on_packet(
            &mut self,
            node: NodeId,
            _from: NodeId,
            packet: Packet,
            _now: SimTime,
            out: &mut Actions,
        ) {
            if packet.destinations.contains(&node) {
                out.deliver(packet.id);
            }
            self.flood(node, &packet, out);
        }
        fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
        fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
    }

    fn two_node_workload() -> (Topology, Workload) {
        let topo = line(2, SimDuration::from_millis(10));
        let spec = TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(
                topo.node(1),
                SimDuration::from_millis(30),
            )],
            burst: None,
        };
        (topo, Workload::from_topics(vec![spec]))
    }

    #[test]
    fn lossless_two_node_run_delivers_everything() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(10), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        // Publishes at t=0..=10 inclusive → 11 messages.
        assert_eq!(log.messages_published, 11);
        assert_eq!(log.num_expectations(), 11);
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(log.data_sends, 11);
        assert!((log.packets_per_subscriber() - 1.0).abs() < 1e-12);
        assert_eq!(log.acks_delivered, 11);
        assert!(!log.truncated);
    }

    #[test]
    fn delivery_time_is_link_delay() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        let exp = log
            .expectation(PacketId::new(0), topo.node(1))
            .expect("recorded");
        assert_eq!(exp.delivered, Some(SimTime::from_millis(10)));
        assert!(exp.on_time());
        assert!((exp.lateness_ratio().unwrap() - 10.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(1.0), config);
        let log = rt.run(&mut Flood::new());
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.sends_lost, log.data_sends);
    }

    #[test]
    fn queue_capacity_estimate_scales_with_workload() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let est = rt.estimated_queue_len();
        // At least the floor plus the per-node share, never past the cap.
        assert!(est >= 64 + 4 * 2, "estimate too small: {est}");
        assert!(est <= 1 << 20);
        // A processed run records how many events went through the queue,
        // and the pre-sizing must cover the observed high-water mark.
        let log = rt.run(&mut Flood::new());
        assert!(log.events_processed > 0);
        assert!(
            est >= log.peak_queue_len,
            "estimate {est} below observed peak {}",
            log.peak_queue_len
        );
        assert_eq!(log.clamped_events, 0);
    }

    #[test]
    fn queue_estimate_covers_burst_peak() {
        // A flash crowd multiplies the publish rate 4x during the window;
        // the pre-burst-fix heuristic ignored the multiplier and undersized
        // exactly this shape.
        let topo = line(2, SimDuration::from_millis(10));
        let spec = TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_millis(100),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(
                topo.node(1),
                SimDuration::from_millis(90),
            )],
            burst: Some(crate::workload::BurstConfig {
                at: SimDuration::from_secs(1),
                len: SimDuration::from_secs(2),
                multiplier: 4,
            }),
        };
        let wl = Workload::from_topics(vec![spec]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let est = rt.estimated_queue_len();
        // floor + wheel slots + 4·nodes + 8·subscriptions·burst multiplier.
        assert_eq!(
            est,
            64 + 64 * 7 + 4 * 2 + 8 * 4,
            "burst multiplier must scale the estimate"
        );
        let log = rt.run(&mut Flood::new());
        assert!(
            est >= log.peak_queue_len,
            "estimate {est} below observed burst peak {}",
            log.peak_queue_len
        );
    }

    #[test]
    fn failed_links_block_sends() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(1.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.sends_blocked, log.data_sends);
        assert_eq!(log.acks_delivered, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.3, 7));
        let config = RuntimeConfig::paper(SimDuration::from_secs(30), 9);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.05), config);
        let a = rt.run(&mut Flood::new());
        let b = rt.run(&mut Flood::new());
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        assert_eq!(a.data_sends, b.data_sends);
        assert_eq!(a.sends_blocked, b.sends_blocked);
        assert_eq!(a.sends_lost, b.sends_lost);
    }

    #[test]
    fn intermittent_failures_hurt_delivery_partially() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.5, 3));
        let config = RuntimeConfig::paper(SimDuration::from_secs(120), 2);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        let ratio = log.delivery_ratio();
        assert!(ratio > 0.3 && ratio < 0.7, "delivery ratio {ratio}");
    }

    #[test]
    fn expectation_accessors() {
        let exp = Expectation {
            published: SimTime::from_secs(1),
            deadline: SimDuration::from_millis(100),
            delivered: Some(SimTime::from_secs(1) + SimDuration::from_millis(150)),
            gave_up: false,
            shed_doomed: false,
        };
        assert!(!exp.on_time());
        assert!((exp.lateness_ratio().unwrap() - 1.5).abs() < 1e-9);
        let undelivered = Expectation {
            delivered: None,
            ..exp
        };
        assert!(!undelivered.on_time());
        assert_eq!(undelivered.lateness_ratio(), None);
    }

    #[test]
    fn ack_timeout_helper_matches_params() {
        let params = RunParams::default();
        assert_eq!(
            ack_timeout(SimDuration::from_millis(40), &params),
            SimDuration::from_millis(41)
        );
    }

    #[test]
    fn round_trip_acks_arrive_after_two_delays() {
        // With the RoundTrip model and factor 1.0, every timer fires before
        // its ACK (2α vs α + slack), so the flood sees no acks in time but
        // the packets still deliver; with factor 2.0 acks win the race.
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        config.ack_transit = AckTransit::RoundTrip;
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        // ACKs still arrive (Flood ignores them), just later.
        assert_eq!(log.acks_delivered, log.messages_published);
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acks_carry_the_sent_copys_id_and_tag_for_data_and_nacks() {
        use crate::packet::PacketKind;

        /// Sends every published message on as a data copy (tag = 100 +
        /// round) and a NACK about it (own id, tag = 200 + round), and
        /// records what each hop-by-hop ACK hands back.
        #[derive(Default)]
        struct AckSpy {
            sent: Vec<(PacketId, u64)>,
            acked: Vec<(NodeId, NodeId, PacketId, u64)>,
        }
        impl RoutingStrategy for AckSpy {
            fn name(&self) -> &'static str {
                "ack-spy"
            }
            fn setup(&mut self, _: &SetupContext<'_>) {}
            fn on_publish(&mut self, node: NodeId, p: Packet, now: SimTime, out: &mut Actions) {
                let peer = p.destinations[0];
                let data = p.forward(node, vec![peer], 100 + p.seq);
                let nack_id = PacketId::new((1 << 63) + p.seq);
                let nack = Packet::nack(nack_id, p.topic, peer, now, node, vec![p.seq]).forward(
                    node,
                    vec![peer],
                    200 + p.seq,
                );
                self.sent.push((data.id, data.tag));
                self.sent.push((nack.id, nack.tag));
                out.send(peer, data);
                out.send(peer, nack);
            }
            fn on_packet(&mut self, _: NodeId, _: NodeId, _: Packet, _: SimTime, _: &mut Actions) {}
            fn on_ack(&mut self, n: NodeId, to: NodeId, p: &Packet, _: SimTime, _: &mut Actions) {
                // The view is header-less whatever was acknowledged.
                assert_eq!(p.kind, PacketKind::Data);
                assert!(p.destinations.is_empty() && p.path.is_empty() && p.route.is_none());
                self.acked.push((n, to, p.id, p.tag));
            }
            fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
        }

        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(3), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let mut spy = AckSpy::default();
        let log = rt.run(&mut spy);
        assert_eq!(spy.sent.len(), 8, "4 publishes × (data + NACK)");
        assert_eq!(log.acks_delivered, 8);
        let expect: Vec<_> = spy
            .sent
            .iter()
            .map(|&(id, tag)| (topo.node(0), topo.node(1), id, tag))
            .collect();
        assert_eq!(spy.acked, expect);
    }

    #[test]
    fn probing_mode_pushes_monitor_updates() {
        use dcrd_net::estimate::LinkEstimates;

        /// Flood variant that counts monitor pushes and records gamma.
        struct MonitorSpy {
            inner: Flood,
            updates: u32,
            last_gamma: f64,
        }
        impl RoutingStrategy for MonitorSpy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn setup(&mut self, ctx: &SetupContext<'_>) {
                self.inner.setup(ctx);
            }
            fn on_publish(&mut self, n: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
                self.inner.on_publish(n, p, t, o);
            }
            fn on_packet(&mut self, n: NodeId, f: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
                self.inner.on_packet(n, f, p, t, o);
            }
            fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
            fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
            fn on_monitor(&mut self, estimates: &LinkEstimates, _now: SimTime) {
                self.updates += 1;
                self.last_gamma = estimates.get(dcrd_net::EdgeId::new(0)).gamma;
            }
        }

        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.3, 5));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(120), 3);
        config.monitoring = Monitoring::Probing {
            probe_interval: SimDuration::from_secs(1),
            ewma_weight: 0.1,
        };
        config.monitor_interval = SimDuration::from_secs(30);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let mut spy = MonitorSpy {
            inner: Flood::new(),
            updates: 0,
            last_gamma: 1.0,
        };
        let _ = rt.run(&mut spy);
        assert!(
            spy.updates >= 3,
            "expected several monitor pushes, got {}",
            spy.updates
        );
        assert!(
            (spy.last_gamma - 0.7).abs() < 0.15,
            "EWMA gamma {} should approach 1 - Pf = 0.7",
            spy.last_gamma
        );
    }

    #[test]
    fn drain_grace_cuts_off_stragglers() {
        // A timer-delayed strategy that wants to deliver *after* the grace
        // window never gets to: the run ends first.
        struct Procrastinator;
        impl RoutingStrategy for Procrastinator {
            fn name(&self) -> &'static str {
                "procrastinator"
            }
            fn setup(&mut self, _: &SetupContext<'_>) {}
            fn on_publish(&mut self, _n: NodeId, p: Packet, now: SimTime, out: &mut Actions) {
                out.set_timer(
                    now + SimDuration::from_secs(3600),
                    TimerKey {
                        packet: p.id,
                        tag: 0,
                    },
                );
            }
            fn on_packet(&mut self, _: NodeId, _: NodeId, _: Packet, _: SimTime, _: &mut Actions) {}
            fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
            fn on_timer(&mut self, _n: NodeId, _k: TimerKey, _t: SimTime, _o: &mut Actions) {
                panic!("timer beyond the grace window must never fire");
            }
        }
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(2), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Procrastinator);
        assert_eq!(log.delivery_ratio(), 0.0);
    }

    #[test]
    fn processing_time_delays_delivery() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        config.processing_time = Some(SimDuration::from_millis(25));
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        let exp = log
            .expectation(PacketId::new(0), topo.node(1))
            .expect("recorded");
        // Link delay 10ms + 25ms of service before the strategy delivers.
        assert_eq!(exp.delivered, Some(SimTime::from_millis(35)));
        // Deadline is 30ms, so the processing delay costs the deadline.
        assert!(!exp.on_time());
    }

    #[test]
    fn serial_service_queues_concurrent_arrivals() {
        use crate::topic::{Subscription, TopicId};
        use crate::workload::TopicSpec;
        use dcrd_net::topology::star;

        // Star: hub node 0 subscribed to two topics published by leaves 1
        // and 2, both publishing at t = 0. With 40ms service the second
        // arrival queues behind the first.
        let topo = star(3, SimDuration::from_millis(10));
        let mk = |i: u32, publisher: usize| TopicSpec {
            topic: TopicId::new(i),
            publisher: topo.node(publisher),
            interval: SimDuration::from_secs(10),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(topo.node(0), SimDuration::from_secs(1))],
            burst: None,
        };
        let wl = Workload::from_topics(vec![mk(0, 1), mk(1, 2)]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        config.processing_time = Some(SimDuration::from_millis(40));
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        let mut times: Vec<SimTime> = log
            .expectations()
            .filter_map(|(_, e)| e.delivered)
            .collect();
        times.sort();
        assert_eq!(times.len(), 2);
        // First: arrives 10ms, served 10–50ms. Second: arrives 10ms,
        // queues, served 50–90ms.
        assert_eq!(times[0], SimTime::from_millis(50));
        assert_eq!(times[1], SimTime::from_millis(90));
    }

    /// Star overload fixture: `n` leaves each publish one message at t = 0
    /// to the hub (node 0). Links are 10 ms, service 40 ms, so all arrivals
    /// land at t = 10 ms and queue behind one another. `deadlines[i]` is
    /// topic i's hub deadline.
    fn star_overload(deadlines: &[u64]) -> (Topology, Workload) {
        use dcrd_net::topology::star;
        let topo = star(deadlines.len() + 1, SimDuration::from_millis(10));
        let specs = deadlines
            .iter()
            .enumerate()
            .map(|(i, &d)| TopicSpec {
                topic: TopicId::new(i as u32),
                publisher: topo.node(i + 1),
                interval: SimDuration::from_secs(10),
                offset: SimDuration::ZERO,
                subscriptions: vec![Subscription::new(topo.node(0), SimDuration::from_millis(d))],
                burst: None,
            })
            .collect();
        let wl = Workload::from_topics(specs);
        (topo, wl)
    }

    fn overload_config(policy: ShedPolicy) -> RuntimeConfig {
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        config.processing_time = Some(SimDuration::from_millis(40));
        config.queue_limit = Some(2);
        config.shed_policy = policy;
        config.audit = Some(AuditConfig::default());
        config
    }

    /// Rogue strategy: acts on every publish even when the publishing
    /// broker has churned out of the overlay — exactly the misbehavior the
    /// execute()-side churn gates exist to catch and neutralize.
    struct DeadHand {
        peer: NodeId,
    }

    impl RoutingStrategy for DeadHand {
        fn name(&self) -> &'static str {
            "dead-hand"
        }
        fn setup(&mut self, _ctx: &SetupContext<'_>) {}
        fn on_publish(&mut self, node: NodeId, packet: Packet, _now: SimTime, out: &mut Actions) {
            out.deliver(packet.id);
            out.send(
                self.peer,
                packet.forward(node, packet.destinations.clone(), 0),
            );
        }
        fn on_packet(
            &mut self,
            _node: NodeId,
            _from: NodeId,
            _packet: Packet,
            _now: SimTime,
            _out: &mut Actions,
        ) {
        }
        fn on_ack(
            &mut self,
            _node: NodeId,
            _to: NodeId,
            _packet: &Packet,
            _now: SimTime,
            _out: &mut Actions,
        ) {
        }
        fn on_timer(&mut self, _node: NodeId, _key: TimerKey, _now: SimTime, _out: &mut Actions) {}
    }

    #[test]
    fn churn_gates_flag_rogue_deliver_and_send_from_departed_broker() {
        use dcrd_net::chaos::ChaosModel;
        use dcrd_net::membership::{BrokerChurnModel, ChurnEvent};

        // Find a seed whose schedule removes node 0 (the publisher) mid-run
        // so a publish scheduled in the final third fires while it is
        // absent. Pure hash queries: the scan is cheap and deterministic.
        let horizon = 6u64;
        let churn = (0..256)
            .map(|seed| BrokerChurnModel::new(1.0, horizon, seed))
            .find(|ch| {
                matches!(
                    ch.event(NodeId::new(0)),
                    Some(ChurnEvent::Leave(_) | ChurnEvent::Death(_))
                )
            })
            .expect("some seed departs node 0");

        let topo = line(2, SimDuration::from_millis(10));
        let publisher = topo.node(0);
        let subscriber = topo.node(1);
        let wl = Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher,
            // One publish at 5 s — inside the recovery third, after the
            // publisher's departure epoch (middle third of 6 epochs).
            interval: SimDuration::from_secs(60),
            offset: SimDuration::from_secs(5),
            subscriptions: vec![Subscription::new(subscriber, SimDuration::from_secs(1))],
            burst: None,
        }]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1))
            .with_chaos(ChaosModel::none().with_churn(churn));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(horizon), 1);
        config.audit = Some(AuditConfig::default());
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut DeadHand { peer: subscriber });
        let report = log.audit.as_ref().expect("audit enabled");
        assert!(report.violations.iter().any(
            |v| matches!(v, Violation::DeliveryToDeparted { node, .. } if *node == publisher)
        ));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::RouteThroughDead { node, .. } if *node == publisher)));
        // Both actions died at the gate: nothing was sent or delivered.
        assert_eq!(log.data_sends, 0);
        assert!(log.expectations().all(|(_, e)| e.delivered.is_none()));
    }

    #[test]
    fn least_slack_shedding_claims_only_doomed_traffic() {
        // Topics 0-2 have 1 s deadlines and arrive first, filling the
        // service slot and both queue seats. Topics 3-5 have 15 ms
        // deadlines: already past help on arrival (10 ms transit +
        // 40 ms service > 15 ms), so least-slack sheds exactly them.
        let (topo, wl) = star_overload(&[1000, 1000, 1000, 15, 15, 15]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt = OverlayRuntime::new(
            &topo,
            &wl,
            failure,
            LossModel::new(0.0),
            overload_config(ShedPolicy::LeastSlack),
        );
        let log = rt.run(&mut Flood::new());
        // Six arrivals into budget 2 + one in service: three sheds, all of
        // them doomed short-deadline packets.
        assert_eq!(log.sheds, 3);
        assert_eq!(log.doomed_sheds, 3);
        assert_eq!(log.sheds_by_node[0], 3);
        assert!(log.max_queue_depth <= 2, "depth {}", log.max_queue_depth);
        // Every pair that still had slack was delivered.
        assert!((log.in_slack_delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.delivery_ratio() - 0.5).abs() < 1e-12);
        // Delay-cognizant sheds are not violations.
        let report = log.audit.as_ref().expect("audit enabled");
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.sheds_observed, 3);
    }

    #[test]
    fn tail_drop_shedding_trips_the_unjustified_shed_audit() {
        // Doomed packets arrive first and hold their seats; tail drop then
        // sheds the satisfiable newcomers — exactly what the delay-
        // cognizance gate exists to catch.
        let (topo, wl) = star_overload(&[15, 15, 15, 1000, 1000, 1000]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt = OverlayRuntime::new(
            &topo,
            &wl,
            failure,
            LossModel::new(0.0),
            overload_config(ShedPolicy::TailDrop),
        );
        let log = rt.run(&mut Flood::new());
        assert_eq!(log.sheds, 3);
        let report = log.audit.as_ref().expect("audit enabled");
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::UnjustifiedShed { .. })),
            "expected UnjustifiedShed, got {:?}",
            report.violations
        );
        // The naive policy loses satisfiable traffic.
        assert!(log.in_slack_delivery_ratio() < 1.0);
    }

    #[test]
    fn bounded_queue_matches_unbounded_when_never_full() {
        // A generous budget never sheds, and delivery matches the
        // unbounded serial-service path.
        let (topo, wl) = star_overload(&[1000, 1000]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut unbounded = overload_config(ShedPolicy::LeastSlack);
        unbounded.queue_limit = None;
        let mut roomy = overload_config(ShedPolicy::LeastSlack);
        roomy.queue_limit = Some(64);
        let a = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), unbounded)
            .run(&mut Flood::new());
        let b = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), roomy)
            .run(&mut Flood::new());
        assert_eq!(b.sheds, 0);
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        let at: Vec<_> = a.expectations().map(|(_, e)| e.delivered).collect();
        let bt: Vec<_> = b.expectations().map(|(_, e)| e.delivered).collect();
        assert_eq!(at, bt);
        assert!((b.in_slack_delivery_ratio() - b.delivery_ratio()).abs() < 1e-12);
    }

    #[test]
    fn empty_log_ratios_are_zero() {
        let log = DeliveryLog::default();
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.qos_delivery_ratio(), 0.0);
        assert_eq!(log.packets_per_subscriber(), 0.0);
    }

    /// Misbehaving strategy: sends to a node with no shared link and
    /// delivers on a non-subscriber.
    struct Buggy;
    impl RoutingStrategy for Buggy {
        fn name(&self) -> &'static str {
            "buggy"
        }
        fn setup(&mut self, _: &SetupContext<'_>) {}
        fn on_publish(&mut self, node: NodeId, p: Packet, _t: SimTime, out: &mut Actions) {
            // Line of 3: node 0 has no link to node 2.
            out.send(NodeId::new(2), p.forward(node, vec![NodeId::new(2)], 0));
            // The publisher is not a subscriber of its own topic here.
            out.deliver(p.id);
        }
        fn on_packet(&mut self, _: NodeId, _: NodeId, _: Packet, _: SimTime, _: &mut Actions) {}
        fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
        fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
    }

    #[test]
    fn invalid_actions_are_counted_not_fatal() {
        let topo = line(3, SimDuration::from_millis(10));
        let spec = TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(
                topo.node(2),
                SimDuration::from_millis(100),
            )],
            burst: None,
        };
        let wl = Workload::from_topics(vec![spec]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let config = RuntimeConfig::paper(SimDuration::from_secs(2), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Buggy);
        assert_eq!(log.invalid_sends, 3);
        assert_eq!(log.invalid_delivers, 3);
        assert_eq!(log.data_sends, 0);
        assert_eq!(log.delivery_ratio(), 0.0);
    }

    #[test]
    fn crash_down_broker_eats_packets_and_acks() {
        use dcrd_net::chaos::{ChaosModel, CrashRestartModel};

        let (topo, wl) = two_node_workload();
        // pc = 1 with mean 1: node 1 is down every epoch — all arrivals die.
        let chaos = ChaosModel::none().with_crashes(CrashRestartModel::new(1.0, 1.0, 3));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1)).with_chaos(chaos);
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.acks_delivered, 0);
        // Sends are already blocked at the link because an endpoint is down.
        assert_eq!(log.sends_blocked, log.data_sends);
    }

    #[test]
    fn gray_link_degrades_exactly_one_direction() {
        use dcrd_net::chaos::{ChaosModel, GrayLinkModel};

        let (topo, wl) = two_node_workload();
        let gray = GrayLinkModel::new(1.0, 1.0, 1.0, 4);
        let edge = topo.edge_between(topo.node(0), topo.node(1)).unwrap();
        let data_degraded = gray.degrades(&topo, edge, topo.node(0));
        let chaos = ChaosModel::none().with_gray(gray);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1)).with_chaos(chaos);
        let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        if data_degraded {
            // Publisher→subscriber is the bad way: nothing gets through.
            assert_eq!(log.delivery_ratio(), 0.0);
            assert_eq!(log.sends_lost, log.data_sends);
        } else {
            // Only the ACK direction is degraded: data flows, ACKs die.
            assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
            assert_eq!(log.acks_delivered, 0);
        }
    }

    #[test]
    fn audit_attaches_clean_report_on_healthy_run() {
        let (topo, wl) = two_node_workload();
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        config.audit = Some(AuditConfig::default());
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        let report = log.audit.as_ref().expect("audit enabled");
        assert!(report.is_clean());
        // Every send, ACK and delivery was observed: 6 events per message.
        assert!(report.events_observed >= 3 * log.messages_published);
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn restart_notification_fires_after_crash() {
        use dcrd_net::chaos::{ChaosModel, CrashRestartModel};

        /// Flood variant that counts on_restart callbacks.
        struct RestartSpy {
            inner: Flood,
            restarts: u32,
        }
        impl RoutingStrategy for RestartSpy {
            fn name(&self) -> &'static str {
                "restart-spy"
            }
            fn setup(&mut self, ctx: &SetupContext<'_>) {
                self.inner.setup(ctx);
            }
            fn on_publish(&mut self, n: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
                self.inner.on_publish(n, p, t, o);
            }
            fn on_packet(&mut self, n: NodeId, f: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
                self.inner.on_packet(n, f, p, t, o);
            }
            fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
            fn on_timer(&mut self, _: NodeId, _: TimerKey, _: SimTime, _: &mut Actions) {}
            fn on_restart(&mut self, _node: NodeId, _now: SimTime, _out: &mut Actions) {
                self.restarts += 1;
            }
        }

        let (topo, wl) = two_node_workload();
        let chaos = ChaosModel::none().with_crashes(CrashRestartModel::new(0.3, 2.0, 11));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1)).with_chaos(chaos);
        let config = RuntimeConfig::paper(SimDuration::from_secs(60), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let mut spy = RestartSpy {
            inner: Flood::new(),
            restarts: 0,
        };
        let _ = rt.run(&mut spy);
        assert!(
            spy.restarts > 0,
            "a 30% crash rate over 60s must produce at least one restart"
        );
    }
}
