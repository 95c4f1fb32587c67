//! The control stage: link monitoring, and broker membership — the churn
//! model, the SWIM detector watching it and the spread of its verdicts.

use dcrd_net::chaos::ChaosModel;
use dcrd_net::estimate::{EwmaMonitor, LinkEstimate};
use dcrd_net::failure::FailureState;
use dcrd_net::gossip::GossipOverlay;
use dcrd_net::membership::{
    BrokerChurnModel, GroundTruth, MembershipDelta, SwimConfig, SwimDetector,
};
use dcrd_net::{NodeId, Topology};
use dcrd_sim::{SimDuration, SimTime};

use super::transport::Transport;
use super::{DeliveryLog, Dissemination, Event, Monitoring, OverlayRuntime, Queue, Sinks};
use crate::audit::Violation;
use crate::strategy::RoutingStrategy;

/// Interval between probes of each link under [`Monitoring::Probing`].
const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// EWMA weight of each new probe.
const EWMA_WEIGHT: f64 = 0.05;

/// Interval between [`RoutingStrategy::on_monitor`] pushes (the paper's
/// 5 minutes).
const MONITOR_INTERVAL: SimDuration = SimDuration::from_secs(300);

/// Broker churn, the SWIM-style detector turning it into membership deltas,
/// and their spread: by gossip, straight to the strategy (`oracle`), or not.
struct Membership {
    churn: BrokerChurnModel,
    detector: SwimDetector,
    gossip: Option<GossipOverlay>,
    oracle: bool,
}

/// The control plane: link monitoring, membership and the chaos epoch.
pub struct Control<'a> {
    topology: &'a Topology,
    chaos: Option<ChaosModel>,
    duration: SimDuration,
    hard_stop: SimTime,
    /// Present exactly in probing runs.
    monitor: Option<EwmaMonitor>,
    /// Present exactly under broker churn.
    membership: Option<Membership>,
}

impl<'a> Control<'a> {
    /// Builds the control plane and schedules its first probe and monitor
    /// push (probing runs) and its first chaos epoch tick.
    pub fn start(queue: &mut Queue, runtime: &OverlayRuntime<'a>, hard_stop: SimTime) -> Self {
        let (topology, config) = (runtime.topology, &runtime.config);
        let mut monitor = None;
        if config.monitoring == Monitoring::Probing {
            // The prior assumes healthy links, and each edge's alpha is its
            // true delay (measurable from one successful probe).
            let prior = LinkEstimate::new(SimDuration::from_millis(30), 1.0);
            let m = monitor.insert(EwmaMonitor::new(topology.num_edges(), prior, EWMA_WEIGHT));
            for e in topology.edge_ids() {
                m.observe(e, Some(topology.delay(e)));
            }
            queue.schedule(SimTime::ZERO + PROBE_INTERVAL, Event::Probe);
            queue.schedule(SimTime::ZERO + MONITOR_INTERVAL, Event::Monitor);
        }
        // Crash-restart and churn sweeps run at every epoch boundary (1 s,
        // matching the chaos models' epoch) so restarted brokers lose their
        // volatile router state at the moment they come back and the
        // failure detector probes once per epoch.
        let chaos = runtime.failure.chaos().copied();
        if chaos.is_some_and(|c| c.crashes().is_some() || c.churn().is_some()) {
            queue.schedule(SimTime::from_secs(1), Event::ChaosTick { epoch: 1 });
        }
        let nodes = topology.num_nodes();
        let membership = chaos.and_then(|c| c.churn().copied()).map(|churn| {
            let swim = SwimConfig {
                seed: config.seed,
                ..SwimConfig::default()
            };
            let detector = SwimDetector::new(nodes, |n| churn.present_in_epoch(n, 0), swim);
            let gossip = match config.dissemination {
                Dissemination::Gossip(cfg) => Some(GossipOverlay::new(nodes, cfg)),
                _ => None,
            };
            let oracle = config.dissemination == Dissemination::Oracle;
            Membership {
                churn,
                detector,
                gossip,
                oracle,
            }
        });
        Control {
            topology,
            chaos,
            duration: config.duration,
            hard_stop,
            monitor,
            membership,
        }
    }

    /// Probes every link through the transport and feeds the monitor.
    pub fn probe(&mut self, queue: &mut Queue, transport: &mut Transport<'_>) {
        let Some(monitor) = self.monitor.as_mut() else {
            return; // unreachable: probes are scheduled only with a monitor
        };
        let now = queue.now();
        transport.probe(now, monitor);
        if now.saturating_since(SimTime::ZERO) < self.duration {
            queue.schedule(now + PROBE_INTERVAL, Event::Probe);
        }
    }

    /// Pushes the monitor's estimates to the strategy.
    pub fn monitor<S: RoutingStrategy + ?Sized>(&self, queue: &mut Queue, strategy: &mut S) {
        let Some(monitor) = &self.monitor else {
            return; // unreachable: pushes are scheduled only with a monitor
        };
        let now = queue.now();
        strategy.on_monitor(&monitor.estimates(), now);
        if now.saturating_since(SimTime::ZERO) < self.duration {
            queue.schedule(now + MONITOR_INTERVAL, Event::Monitor);
        }
    }

    /// Failure detection at `epoch`'s first instant, where `failures`'
    /// `chaos_down` (churn-absent or crash-down) is the models' answer for
    /// the epoch; the deltas spread as the run's dissemination says.
    pub fn detect<S>(
        &mut self,
        epoch: u64,
        failures: FailureState<'_>,
        sinks: &mut Sinks,
        strategy: &mut S,
        now: SimTime,
    ) where
        S: RoutingStrategy + ?Sized,
    {
        let Some(m) = &mut self.membership else {
            return;
        };
        let deltas = m.detector.tick(epoch, |n| {
            if m.churn.departed_in_epoch(n, epoch) {
                GroundTruth::Departed
            } else if failures.chaos_down(n) {
                GroundTruth::Down
            } else {
                GroundTruth::Up
            }
        });
        let Some(overlay) = &mut m.gossip else {
            // Without gossip, `Dissemination::None` drops detector output:
            // the strategy routes on stale membership forever.
            if m.oracle && !deltas.is_empty() {
                strategy.on_membership(&deltas, now);
            }
            return;
        };
        // Epidemic dissemination: each delta becomes a rumor at its
        // witness broker. Self-announced events (joins, leaves,
        // refutations) start at the node they are about; a confirmed death
        // needs a live spokesbroker — the lowest-index up-and-present
        // broker other than the corpse.
        let up = |x: NodeId| !failures.chaos_down(x);
        for &d in &deltas {
            let witness = match d {
                MembershipDelta::ConfirmDead { .. } => {
                    let live = |x: &NodeId| *x != d.node() && up(*x);
                    self.topology.nodes().find(live).unwrap_or_else(|| d.node())
                }
                _ => d.node(),
            };
            overlay.submit(d, witness, epoch);
        }
        // Control-plane connectivity: two brokers can exchange gossip when
        // both are up and no active partition separates them. Partitions
        // therefore stall convergence until they heal.
        let split = |a: NodeId, b: NodeId| failures.isolated(a) != failures.isolated(b);
        let tick = overlay.tick(epoch, |a, b| up(a) && up(b) && !split(a, b), up);
        if !tick.converged.is_empty() {
            strategy.on_gossip(&tick.converged, now);
        }
        for s in &tick.stale {
            let (node, rounds) = (s.node, s.rounds);
            sinks.flag(Violation::StaleRouteAfterConvergence { node, rounds });
        }
    }

    /// Whether `node` came back from a crash at the start of `epoch`.
    pub fn restarted(&self, node: NodeId, epoch: u64) -> bool {
        self.chaos
            .is_some_and(|c| c.restarted_at_epoch(node, epoch))
    }

    /// Schedules the next chaos epoch's tick, inside the run.
    pub fn next_epoch(&self, queue: &mut Queue, epoch: u64) {
        let next = SimTime::from_secs(epoch + 1);
        if next <= self.hard_stop {
            queue.schedule(next, Event::ChaosTick { epoch: epoch + 1 });
        }
    }

    /// Copies the gossip overlay's counters into the log.
    pub fn finish(&self, log: &mut DeliveryLog) {
        let Some(overlay) = self.membership.as_ref().and_then(|m| m.gossip.as_ref()) else {
            return;
        };
        log.rumors_sent = overlay.rumors_sent();
        log.anti_entropy_rounds = overlay.anti_entropy_rounds();
        log.gossip_deltas_applied = overlay.deltas_converged();
        log.stale_reconciliations = overlay.stale_reconciliations();
    }
}
