//! The overlay runtime: one deterministic discrete-event run of a routing
//! strategy over a topology with failures and loss.
//!
//! The runtime models exactly the paper's transport (§III, §IV-A):
//!
//! * Every [`Action::Send`] is one link transmission, and
//!   [`FailureState::fate`] decides what becomes of it: blocked if the link
//!   or an endpoint is failed or a partition cuts it; otherwise lost with
//!   probability `Pl` (random loss), or with a gray link's extra loss in its
//!   degraded direction; otherwise it arrives after the link's propagation
//!   delay (inflated in that direction). A broker that is crash-down or
//!   churned out when the transmission arrives eats it.
//! * On arrival the receiver immediately returns a **hop-by-hop ACK**
//!   (Algorithm 2 line 2), which traverses the same link back under the
//!   same rule; link probes ([`Monitoring::Probing`]) obey it too.
//! * Strategies learn about losses only through their own timers — the
//!   runtime never tells a sender that a transmission was dropped.
//!
//! The runtime records a complete [`DeliveryLog`]: one expectation per
//! `(message, subscriber)` pair with its deadline and eventual delivery
//! time, plus traffic counters. The metrics crate turns the log into the
//! paper's three metrics; a captured [`Trace`] names each send's
//! [`Fate`](dcrd_net::failure::Fate).
//!
//! The runtime's per-event `tick` only dispatches each event to the
//! strategy and to four stages, one file each, that own their state:
//!
//! * `Transport` — loss stream, failure view, parked packets: sends, `Arrival`, `AckArrival`.
//! * `Service` — per-broker processing (instant, serial or bounded): admission, sheds, `Process`.
//! * `Ledger` — packet ids and the [`DeliveryLog`]: `Publish`; `Deliver`, `GiveUp`, `Suppress`.
//! * `Control` — link monitor, churn, SWIM detector, gossip: `Probe`, `Monitor`, `ChaosTick`.
//!
//! Every stage reports to one trace/auditor pair (`Sinks`), and a stage
//! handed the event queue reads the clock from it.
//!
//! [`FailureState::fate`]: dcrd_net::failure::FailureState::fate

mod control;
mod ledger;
mod service;
mod transport;

pub use ledger::{DeliveryLog, Expectation};

use dcrd_net::estimate::{analytic_estimates, LinkEstimates};
use dcrd_net::failure::FailureModel;
use dcrd_net::gossip::GossipConfig;
use dcrd_net::loss::LossModel;
use dcrd_net::{EdgeId, NodeId, Topology};
use dcrd_sim::{EventQueue, SimDuration, SimTime};
use std::sync::Arc;

use crate::audit::{AuditConfig, InvariantAuditor, Violation};
use crate::packet::{Packet, PacketBody};
use crate::strategy::{Action, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey};
use crate::trace::{Trace, TraceEvent};
use crate::workload::Workload;
use control::Control;
use ledger::Ledger;
use service::Service;
use transport::Transport;

/// How the strategies' link estimates are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Monitoring {
    /// Strategies get the analytic steady-state estimates
    /// (`α = link delay`, `γ = (1−Pf)(1−Pl)`) once at setup.
    Analytic,
    /// The runtime probes every link every 5 s, feeds an EWMA monitor
    /// (weight 0.05 per probe), and pushes fresh estimates to the strategy
    /// every monitoring interval (the paper's "link monitoring", 5-minute
    /// interval).
    Probing,
}

/// Extra simulated time after the last publish during which in-flight
/// packets may still complete before the run is cut off.
const DRAIN_GRACE: SimDuration = SimDuration::from_secs(120);

/// Hard cap on processed events (safety valve against livelock); a run
/// that hits it is marked [`DeliveryLog::truncated`].
const MAX_EVENTS: u64 = 500_000_000;

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
    /// Deltas spread epidemically through a
    /// [`GossipOverlay`](dcrd_net::gossip::GossipOverlay): each one
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
    /// Record a full [`Trace`] of transmissions/deliveries/give-ups.
    /// Costs memory proportional to traffic; off by default.
    pub capture_trace: bool,
    /// Per-broker packet processing time. Brokers serve arrivals serially,
    /// so a busy broker queues packets — the congestion the paper mentions
    /// but does not model. `None` (default, the paper's model) processes
    /// instantly.
    pub processing_time: Option<SimDuration>,
    /// Run the online invariant auditor over the transmission stream and
    /// attach its [`AuditReport`](crate::audit::AuditReport) to the log. Off by default.
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
            capture_trace: false,
            processing_time: None,
            audit: None,
            queue_limit: None,
            shed_policy: ShedPolicy::default(),
            dissemination: Dissemination::Oracle,
        }
    }
}

/// A packet copy between the wire and its receiver's routing logic: the
/// broker that sent it, and the transport slot that holds it while parked.
#[derive(Debug, Clone, Copy)]
struct Inbound {
    from: NodeId,
    slot: u32,
}

/// The run's event queue, whose clock is the run's clock.
type Queue = EventQueue<Event>;

enum Event {
    /// Round `round` of the workload's `topic`-th topic.
    Publish {
        topic: usize,
        round: u64,
    },
    // Packets do not ride the queue: the wheel moves an entry on every
    // cascade, so events carry a 4-byte parked-packet slot where an
    // inline `Packet` would drag up to 128 bytes through each move. The
    // link is the one the send resolved; the hop ACK returns over it.
    Arrival {
        to: NodeId,
        edge: EdgeId,
        copy: Inbound,
    },
    Process {
        node: NodeId,
        copy: Inbound,
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

/// The run's trace (when captured) and auditor (when one runs): every
/// stage reports what it did to this one pair.
struct Sinks {
    trace: Option<Trace>,
    auditor: Option<InvariantAuditor>,
}

impl Sinks {
    /// Records `ev` in the trace, then shows it to the auditor, which it
    /// returns so the caller can flag a verdict on the same event.
    #[inline]
    fn trace_and_audit(&mut self, ev: TraceEvent) -> Option<&mut InvariantAuditor> {
        if let Some(trace) = &mut self.trace {
            trace.record(ev);
        }
        let aud = self.auditor.as_mut()?;
        aud.observe(&ev);
        Some(aud)
    }

    /// Flags a violation the runtime itself detected.
    fn flag(&mut self, v: Violation) {
        if let Some(aud) = &mut self.auditor {
            aud.flag(v);
        }
    }
}

/// The mutable state of one run, threaded through every
/// [`OverlayRuntime::tick`]: the queue, the action sink, the sinks, the stages.
struct RunState<'a> {
    queue: Queue,
    out: Actions,
    sinks: Sinks,
    transport: Transport<'a>,
    service: Service,
    ledger: Ledger,
    control: Control<'a>,
}

impl RunState<'_> {
    /// Routes each action `node`'s callback left in `out` to its stage.
    fn execute(&mut self, node: NodeId, now: SimTime) {
        // Churn invariant: a departed broker can neither transmit nor
        // deliver. The event gates make this unreachable for a correct
        // strategy; if it fires anyway, the auditor records it and the
        // action dies.
        let departed = self.transport.failures.at(now).absent(node);
        let (queue, sinks, ledger) = (&mut self.queue, &mut self.sinks, &mut self.ledger);
        let transport = &mut self.transport;
        // Actions may cascade only through scheduled events, so one pass
        // over the sink is complete. Draining moves each action straight out
        // of the sink's recycled buffer.
        for action in self.out.drain() {
            match action {
                Action::Send { packet, .. } if departed => {
                    let packet = packet.id;
                    sinks.flag(Violation::RouteThroughDead { packet, node });
                }
                Action::Deliver { packet } if departed => {
                    sinks.flag(Violation::DeliveryToDeparted { packet, node });
                }
                Action::Send { to, packet } => {
                    transport.send(queue, &mut ledger.log, sinks, node, to, packet);
                }
                Action::SetTimer { at, key } => {
                    // The queue clamps a strictly-past instant to `now` and
                    // reports it; a `now + 0` timer is legitimate. A clamp
                    // means a strategy computed a stale deadline — an
                    // auditor violation, not a silent reorder.
                    if queue.schedule(at, Event::Timer { node, key }) {
                        sinks.flag(Violation::PastEventClamp { node, at, now });
                    }
                }
                // Deliveries, suppressions and give-ups.
                action => ledger.record(sinks, node, action, now),
            }
        }
    }
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
        let config = &self.config;
        // Sized here, before the strategy's setup, so the event loop never
        // allocates for them.
        let transport = Transport::new(self);
        let mut queue = Queue::with_capacity(self.estimated_queue_len());
        let mut ledger = Ledger::new(config.duration);
        let sinks = Sinks {
            trace: config.capture_trace.then(Trace::new),
            auditor: config.audit.map(InvariantAuditor::new),
        };
        // The configured publish duration IS the workload's publish
        // horizon; inject it so strategies (e.g. recovery sweeps) never
        // expect sequence numbers that were never published.
        let params = RunParams {
            horizon: config.duration,
            ..config.params
        };
        strategy.setup(&SetupContext {
            topology: self.topology,
            estimates: &self.initial_estimates(),
            workload: self.workload,
            failure_oracle: &self.failure,
            params,
        });

        // Seed the publish schedule, then the control plane's ticks.
        for (i, spec) in self.workload.topics().iter().enumerate() {
            ledger.schedule(&mut queue, spec, i, 0);
        }
        let hard_stop = SimTime::ZERO + config.duration + DRAIN_GRACE;
        let mut st = RunState {
            control: Control::start(&mut queue, self, hard_stop),
            service: Service::new(config, &mut ledger.log, self.topology.num_nodes()),
            queue,
            out: Actions::new(),
            sinks,
            transport,
            ledger,
        };
        while let Some((now, event)) = st.queue.pop() {
            if now > hard_stop {
                break;
            }
            if st.queue.events_processed() > MAX_EVENTS {
                st.ledger.log.truncated = true;
                break;
            }
            self.tick(&mut st, strategy, now, event);
        }
        let mut log = st.ledger.log;
        st.control.finish(&mut log);
        log.events_processed = st.queue.events_processed();
        log.clamped_events = st.queue.clamped();
        log.peak_queue_len = st.queue.peak_len();
        log.trace = st.sinks.trace;
        log.audit = st.sinks.auditor.map(InvariantAuditor::finish);
        log
    }

    /// Processes one event of [`OverlayRuntime::run`]'s loop by dispatching
    /// it to the stages and the strategy: the one named per-event function
    /// the analyzer's `PANIC001` pass anchors its reachability walk on.
    fn tick<S: RoutingStrategy + ?Sized>(
        &self,
        st: &mut RunState<'_>,
        strategy: &mut S,
        now: SimTime,
        event: Event,
    ) {
        match event {
            Event::Publish { topic, round } => {
                let Some(spec) = self.workload.topics().get(topic) else {
                    return; // unreachable: publishes are scheduled per topic
                };
                if let Some(packet) = st.ledger.publish(&mut st.sinks, spec, round, now) {
                    strategy.on_publish(spec.publisher, packet, now, &mut st.out);
                    st.execute(spec.publisher, now);
                }
                st.ledger.schedule(&mut st.queue, spec, topic, round + 1);
            }
            Event::Arrival { to, edge, copy } => {
                if !st.transport.arrive(&mut st.queue, to, edge, copy) {
                    return;
                }
                let (queue, transport) = (&mut st.queue, &mut st.transport);
                let (ledger, sinks) = (&mut st.ledger, &mut st.sinks);
                if let Some(packet) = st.service.admit(queue, transport, ledger, sinks, to, copy) {
                    strategy.on_packet(to, copy.from, packet, now, &mut st.out);
                    st.execute(to, now);
                }
            }
            Event::Process { node, copy } => {
                if let Some(packet) = st.service.serve(&mut st.transport, node, copy.slot, now) {
                    strategy.on_packet(node, copy.from, packet, now, &mut st.out);
                    st.execute(node, now);
                    st.service.next(&mut st.queue, node);
                }
            }
            Event::AckArrival { at, to, body, tag } => {
                let log = &mut st.ledger.log;
                if st.transport.ack(log, &mut st.sinks, at, to, body.id, now) {
                    strategy.on_ack(at, to, &Packet::ack_view(body, tag), now, &mut st.out);
                    st.execute(at, now);
                }
            }
            // A departed broker's timers die with it. Crash-down brokers
            // keep theirs: stale timers fire into wiped state and no-op.
            Event::Timer { node, key } => {
                if !st.transport.failures.at(now).absent(node) {
                    strategy.on_timer(node, key, now, &mut st.out);
                    st.execute(node, now);
                }
            }
            Event::Probe => st.control.probe(&mut st.queue, &mut st.transport),
            Event::Monitor => st.control.monitor(&mut st.queue, strategy),
            // Failure detection first, so repair and custody handoff are in
            // place when restarted brokers replay their custody, and those
            // replay before any broker's housekeeping tick.
            Event::ChaosTick { epoch } => {
                let (failures, sinks) = (st.transport.failures.at(now), &mut st.sinks);
                st.control.detect(epoch, failures, sinks, strategy, now);
                for node in self.topology.nodes() {
                    if st.control.restarted(node, epoch) {
                        strategy.on_restart(node, now, &mut st.out);
                        st.execute(node, now);
                    }
                }
                // Recovery strategies sweep for gaps here; a crashed
                // broker cannot sweep.
                for node in self.topology.nodes() {
                    if !st.transport.failures.at(now).chaos_down(node) {
                        strategy.on_tick(node, now, &mut st.out);
                        st.execute(node, now);
                    }
                }
                st.control.next_epoch(&mut st.queue, epoch);
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
    /// The queue reserves this much for the timer wheel's ready lane only,
    /// which holds a single µs tick's entries (pending events wait in the
    /// wheel's recycled slot buffers), so the reservation is a generous
    /// one-off: the 64-broker benchmark workload peaks at 187 pending events.
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
            Monitoring::Probing => analytic_estimates(self.topology, 0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use crate::strategy::ack_timeout;
    use crate::topic::{Subscription, TopicId};
    use crate::workload::TopicSpec;
    use dcrd_net::failure::{Fate, LinkFailureModel};
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
    fn events_stay_32_bytes() {
        // An arrival carries the link its send resolved without growing the
        // entry every wheel move drags along.
        assert_eq!(std::mem::size_of::<Event>(), 32);
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
                // The view is header-less whatever was acknowledged; the
                // kind belongs to the shared body and reads through.
                let nack = p.id.raw() >= 1 << 63;
                assert_eq!(p.is_nack(), nack);
                assert_eq!(p.kind == PacketKind::Data, !nack);
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
        // Three monitoring intervals: pushes at 300, 600 and 900 s.
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(900), 3);
        config.monitoring = Monitoring::Probing;
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
        assert!(report.unjustified_sheds > 0);
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

    /// Each traced data send: when it left, and its fate.
    fn send_fates(log: &DeliveryLog) -> Vec<(SimTime, Fate)> {
        let trace = log.trace.as_ref().expect("trace captured");
        let fates: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send { at, fate, .. } => Some((at, fate)),
                _ => None,
            })
            .collect();
        assert_eq!(fates.len() as u64, log.data_sends);
        assert!(!fates.is_empty());
        fates
    }

    #[test]
    fn crash_down_broker_eats_packets_and_acks() {
        use dcrd_net::chaos::{ChaosModel, CrashRestartModel};
        use dcrd_net::failure::Cause;

        let (topo, wl) = two_node_workload();
        // pc = 1 with mean 1: node 1 is down every epoch — all arrivals die.
        let chaos = ChaosModel::none().with_crashes(CrashRestartModel::new(1.0, 1.0, 3));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1)).with_chaos(chaos);
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
        config.capture_trace = true;
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
        let log = rt.run(&mut Flood::new());
        assert_eq!(log.delivery_ratio(), 0.0);
        assert_eq!(log.acks_delivered, 0);
        // Sends are already blocked at the link because an endpoint is down.
        assert_eq!(log.sends_blocked, log.data_sends);
        for (at, fate) in send_fates(&log) {
            assert_eq!(fate, Fate::Blocked(Cause::NodeDown), "send at {at}");
        }
    }

    #[test]
    fn gray_link_degrades_exactly_one_direction() {
        use dcrd_net::chaos::{ChaosModel, GrayLinkModel};
        use dcrd_net::failure::Cause;

        let (topo, wl) = two_node_workload();
        let edge = topo.edge_between(topo.node(0), topo.node(1)).unwrap();
        let mut seen = [false; 2];
        for seed in 4..12 {
            let gray = GrayLinkModel::new(1.0, 1.0, 1.0, seed);
            let data_degraded = gray.degrades(&topo, edge, topo.node(0));
            seen[usize::from(data_degraded)] = true;
            let chaos = ChaosModel::none().with_gray(gray);
            let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1)).with_chaos(chaos);
            let mut config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
            config.capture_trace = true;
            let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), config);
            let log = rt.run(&mut Flood::new());
            let fates = send_fates(&log);
            if data_degraded {
                // Publisher→subscriber is the bad way: nothing gets through.
                assert_eq!(log.delivery_ratio(), 0.0);
                assert_eq!(log.sends_lost, log.data_sends);
                for (at, fate) in fates {
                    assert_eq!(fate, Fate::Lost(Cause::Gray), "send at {at}");
                }
            } else {
                // Only the ACK direction is degraded: data flows, ACKs die.
                assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
                assert_eq!(log.acks_delivered, 0);
                for (at, fate) in fates {
                    let at = at + SimDuration::from_millis(10);
                    assert_eq!(fate, Fate::Arrived { at });
                }
            }
        }
        assert_eq!(seen, [true; 2], "seeds 4..12 must degrade both directions");
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
