//! Per-run and pooled metric summaries.

use std::ops::Deref;

use dcrd_pubsub::runtime::DeliveryLog;
use dcrd_sim::stats::{Histogram, Ratio, Welford};

/// Range and resolution of the lateness histogram (Fig. 7's x-axis is
/// `delay ÷ requirement` from 1.0 upward).
const LATENESS_LO: f64 = 1.0;
const LATENESS_HI: f64 = 5.0;
const LATENESS_BUCKETS: usize = 160;

/// The paper's three metrics (plus the lateness CDF) for a single run, or
/// for several runs pooled with [`merge`](Self::merge).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    pub(crate) delivered: Ratio,
    pub(crate) on_time: Ratio,
    pub(crate) data_sends: u64,
    pub(crate) messages: u64,
    pub(crate) gave_up: u64,
    pub(crate) lateness: Histogram,
    pub(crate) delay_ms: Welford,
    pub(crate) audit_violations: u64,
    pub(crate) sheds: u64,
    pub(crate) doomed_sheds: u64,
    pub(crate) in_slack: Ratio,
    pub(crate) rumors_sent: u64,
    pub(crate) anti_entropy_rounds: u64,
    pub(crate) gossip_deltas_applied: u64,
    pub(crate) stale_reconciliations: u64,
}

impl RunMetrics {
    /// Summarizes one delivery log.
    #[must_use]
    pub fn from_log(log: &DeliveryLog) -> Self {
        let mut delivered = Ratio::new();
        let mut on_time = Ratio::new();
        let mut gave_up = 0;
        let mut lateness = Histogram::new(LATENESS_LO, LATENESS_HI, LATENESS_BUCKETS);
        let mut delay_ms = Welford::new();
        let mut in_slack = Ratio::new();
        for (_, exp) in log.expectations() {
            delivered.record(exp.delivered.is_some());
            // Pairs a broker shed after their requirement was already
            // unsatisfiable leave the in-slack denominator; shedding a
            // pair that still had slack counts as lost delivery.
            if !(exp.shed_doomed && exp.delivered.is_none()) {
                in_slack.record(exp.delivered.is_some());
            }
            let hit = exp.on_time();
            on_time.record(hit);
            if exp.gave_up {
                gave_up += 1;
            }
            if let Some(at) = exp.delivered {
                delay_ms.push(at.saturating_since(exp.published).as_millis_f64());
            }
            if let Some(ratio) = exp.lateness_ratio() {
                if !hit {
                    lateness.push(ratio);
                }
            }
        }
        RunMetrics {
            delivered,
            on_time,
            data_sends: log.data_sends,
            messages: log.messages_published,
            gave_up,
            lateness,
            delay_ms,
            audit_violations: log.audit.as_ref().map_or(0, |a| a.total_violations),
            sheds: log.sheds,
            doomed_sheds: log.doomed_sheds,
            in_slack,
            rumors_sent: log.rumors_sent,
            anti_entropy_rounds: log.anti_entropy_rounds,
            gossip_deltas_applied: log.gossip_deltas_applied,
            stale_reconciliations: log.stale_reconciliations,
        }
    }

    /// Pools `other` into `self`: ratios pool by counts, counters add,
    /// and the lateness histogram and delay statistics merge.
    pub fn merge(&mut self, other: &RunMetrics) {
        // Destructured in full so that a new field cannot be left out.
        let RunMetrics {
            delivered,
            on_time,
            data_sends,
            messages,
            gave_up,
            lateness,
            delay_ms,
            audit_violations,
            sheds,
            doomed_sheds,
            in_slack,
            rumors_sent,
            anti_entropy_rounds,
            gossip_deltas_applied,
            stale_reconciliations,
        } = other;
        self.delivered.merge(delivered);
        self.on_time.merge(on_time);
        self.data_sends += data_sends;
        self.messages += messages;
        self.gave_up += gave_up;
        self.audit_violations += audit_violations;
        self.sheds += sheds;
        self.doomed_sheds += doomed_sheds;
        self.in_slack.merge(in_slack);
        self.rumors_sent += rumors_sent;
        self.anti_entropy_rounds += anti_entropy_rounds;
        self.gossip_deltas_applied += gossip_deltas_applied;
        self.stale_reconciliations += stale_reconciliations;
        self.lateness.merge(lateness);
        self.delay_ms.merge(delay_ms);
    }

    /// Statistics of the end-to-end delay (in milliseconds) of delivered
    /// pairs.
    #[must_use]
    pub fn delay_stats(&self) -> &Welford {
        &self.delay_ms
    }

    /// Fraction of `(message, subscriber)` pairs delivered (late included).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        self.delivered.value()
    }

    /// Fraction of pairs delivered within the delay requirement.
    #[must_use]
    pub fn qos_delivery_ratio(&self) -> f64 {
        self.on_time.value()
    }

    /// Data transmissions per `(message, subscriber)` pair.
    #[must_use]
    pub fn packets_per_subscriber(&self) -> f64 {
        if self.delivered.total() == 0 {
            return 0.0;
        }
        self.data_sends as f64 / self.delivered.total() as f64
    }

    /// Number of `(message, subscriber)` pairs.
    #[must_use]
    pub fn pairs(&self) -> u64 {
        self.delivered.total()
    }

    /// Messages published during the run.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Pairs the strategy explicitly abandoned.
    #[must_use]
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// Invariant violations the online auditor detected (0 when auditing
    /// was off).
    #[must_use]
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations
    }

    /// The Fig. 7 histogram: `delay ÷ requirement` over deadline-missing
    /// (but eventually delivered) pairs.
    #[must_use]
    pub fn lateness(&self) -> &Histogram {
        &self.lateness
    }

    /// Packets shed by bounded service queues (0 with unbounded queues).
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Sheds that targeted already-doomed packets (past their slack).
    #[must_use]
    pub fn doomed_sheds(&self) -> u64 {
        self.doomed_sheds
    }

    /// Delivery ratio over the pairs that still had slack: pairs shed
    /// only after their requirement was unsatisfiable are excluded from
    /// the denominator. Equals [`delivery_ratio`](Self::delivery_ratio)
    /// when nothing was shed.
    #[must_use]
    pub fn in_slack_delivery_ratio(&self) -> f64 {
        self.in_slack.value()
    }

    /// Membership rumors pushed by the gossip control plane (0 under the
    /// oracle).
    #[must_use]
    pub fn rumors_sent(&self) -> u64 {
        self.rumors_sent
    }

    /// Anti-entropy digest exchanges run by the gossip control plane.
    #[must_use]
    pub fn anti_entropy_rounds(&self) -> u64 {
        self.anti_entropy_rounds
    }

    /// Membership deltas that reached convergence and were applied to
    /// routing state via the gossip path.
    #[must_use]
    pub fn gossip_deltas_applied(&self) -> u64 {
        self.gossip_deltas_applied
    }

    /// Anti-entropy reconciliations that closed a stale gap (a broker
    /// missing rumors its peers already held).
    #[must_use]
    pub fn stale_reconciliations(&self) -> u64 {
        self.stale_reconciliations
    }
}

/// Metrics pooled over repetitions (the paper averages 10 topologies per
/// point). The pooled [`RunMetrics`] (ratios by total counts) is read
/// through `Deref`; per-run spreads are tracked for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateMetrics {
    pub(crate) name: String,
    pub(crate) runs: u32,
    pub(crate) delivery_spread: Welford,
    pub(crate) qos_spread: Welford,
    pub(crate) traffic_spread: Welford,
    pub(crate) pooled: RunMetrics,
}

impl AggregateMetrics {
    /// Creates an empty aggregate labeled with a strategy name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AggregateMetrics {
            name: name.into(),
            runs: 0,
            delivery_spread: Welford::new(),
            qos_spread: Welford::new(),
            traffic_spread: Welford::new(),
            pooled: RunMetrics::from_log(&DeliveryLog::default()),
        }
    }

    /// Adds one run.
    pub fn add(&mut self, run: &RunMetrics) {
        self.runs = self.runs.saturating_add(1);
        self.pooled.merge(run);
        self.delivery_spread.push(run.delivery_ratio());
        self.qos_spread.push(run.qos_delivery_ratio());
        self.traffic_spread.push(run.packets_per_subscriber());
    }

    /// The strategy label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of runs pooled.
    #[must_use]
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// Standard deviation of the per-run QoS ratio.
    #[must_use]
    pub fn qos_std_dev(&self) -> f64 {
        self.qos_spread.std_dev()
    }
}

impl Deref for AggregateMetrics {
    type Target = RunMetrics;

    fn deref(&self) -> &RunMetrics {
        &self.pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_net::NodeId;
    use dcrd_pubsub::runtime::DeliveryLog;
    use dcrd_sim::{SimDuration, SimTime};

    /// Builds a log via the runtime's public surface is heavyweight; these
    /// tests drive `RunMetrics` through a real (tiny) run instead.
    fn tiny_log(deliver: bool, late: bool) -> DeliveryLog {
        use dcrd_net::failure::{FailureModel, LinkFailureModel};
        use dcrd_net::loss::LossModel;
        use dcrd_net::topology::line;
        use dcrd_pubsub::runtime::{OverlayRuntime, RuntimeConfig};
        use dcrd_pubsub::strategy::{Actions, RoutingStrategy, SetupContext, TimerKey};
        use dcrd_pubsub::topic::{Subscription, TopicId};
        use dcrd_pubsub::workload::{TopicSpec, Workload};
        use dcrd_pubsub::Packet;

        struct OneHop {
            deliver: bool,
            late: bool,
            pending: Option<(NodeId, Packet, NodeId)>,
        }
        impl RoutingStrategy for OneHop {
            fn name(&self) -> &'static str {
                "one-hop"
            }
            fn setup(&mut self, _ctx: &SetupContext<'_>) {}
            fn on_publish(
                &mut self,
                node: NodeId,
                packet: Packet,
                _now: SimTime,
                out: &mut Actions,
            ) {
                if self.deliver {
                    let dest = packet.destinations[0];
                    if self.late {
                        // Stall the packet with a timer before sending.
                        out.set_timer(
                            SimTime::from_millis(500),
                            TimerKey {
                                packet: packet.id,
                                tag: 0,
                            },
                        );
                        self.pending = Some((node, packet, dest));
                    } else {
                        out.send(dest, packet.forward(node, vec![dest], 0));
                    }
                }
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
            }
            fn on_ack(&mut self, _: NodeId, _: NodeId, _: &Packet, _: SimTime, _: &mut Actions) {}
            fn on_timer(&mut self, _n: NodeId, _k: TimerKey, _now: SimTime, out: &mut Actions) {
                if let Some((node, packet, dest)) = self.pending.take() {
                    out.send(dest, packet.forward(node, vec![dest], 0));
                }
            }
        }
        let topo = line(2, SimDuration::from_millis(10));
        let wl = Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_secs(10),
            offset: SimDuration::ZERO,
            subscriptions: vec![Subscription::new(
                topo.node(1),
                SimDuration::from_millis(30),
            )],
            burst: None,
        }]);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt = OverlayRuntime::new(
            &topo,
            &wl,
            failure,
            LossModel::new(0.0),
            RuntimeConfig::paper(SimDuration::from_secs(5), 1),
        );
        let mut s = OneHop {
            deliver,
            late,
            pending: None,
        };
        rt.run(&mut s)
    }

    #[test]
    fn metrics_of_perfect_run() {
        let log = tiny_log(true, false);
        let m = RunMetrics::from_log(&log);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((m.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((m.packets_per_subscriber() - 1.0).abs() < 1e-12);
        assert_eq!(m.pairs(), 1);
        assert_eq!(m.messages(), 1);
        assert_eq!(m.gave_up(), 0);
        assert_eq!(m.lateness().count(), 0);
    }

    #[test]
    fn metrics_of_failed_run() {
        let log = tiny_log(false, false);
        let m = RunMetrics::from_log(&log);
        assert_eq!(m.delivery_ratio(), 0.0);
        assert_eq!(m.qos_delivery_ratio(), 0.0);
        assert_eq!(m.packets_per_subscriber(), 0.0);
    }

    #[test]
    fn late_delivery_fills_lateness_histogram() {
        let log = tiny_log(true, true);
        let m = RunMetrics::from_log(&log);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(m.qos_delivery_ratio(), 0.0);
        assert_eq!(m.lateness().count(), 1);
        // 510ms actual vs 30ms deadline → ratio 17 → overflow bucket.
        assert_eq!(m.lateness().overflow(), 1);
    }

    #[test]
    fn aggregate_pools_by_counts() {
        let good = RunMetrics::from_log(&tiny_log(true, false));
        let bad = RunMetrics::from_log(&tiny_log(false, false));
        let mut agg = AggregateMetrics::new("test");
        agg.add(&good);
        agg.add(&bad);
        assert_eq!(agg.runs(), 2);
        assert_eq!(agg.pairs(), 2);
        assert!((agg.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((agg.qos_delivery_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(agg.name(), "test");
        // Spread over {0, 1} → std dev ≈ 0.707.
        assert!((agg.delivery_spread.std_dev() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(agg.qos_std_dev() > 0.0);
        assert!(agg.traffic_spread.std_dev() >= 0.0);
        // No auditing was enabled, so no violations are counted.
        assert_eq!(good.audit_violations(), 0);
        assert_eq!(agg.audit_violations(), 0);
    }

    #[test]
    fn merge_pools_counts_and_sums_counters() {
        let good = RunMetrics::from_log(&tiny_log(true, false));
        let bad = RunMetrics::from_log(&tiny_log(false, false));
        let mut merged = good.clone();
        merged.merge(&bad);
        assert_eq!(merged.pairs(), 2);
        assert!((merged.delivery_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(merged.messages(), good.messages() + bad.messages());
        assert_eq!(merged.data_sends, good.data_sends + bad.data_sends);
        assert_eq!(merged.delay_stats().count(), 1);
        // Pooling the same two runs reads the same values, plus spreads.
        let mut agg = AggregateMetrics::new("pool");
        agg.add(&good);
        agg.add(&bad);
        assert_eq!(*agg, merged);
        for spread in [&agg.delivery_spread, &agg.qos_spread, &agg.traffic_spread] {
            assert_eq!(spread.count(), 2);
        }
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = AggregateMetrics::new("empty");
        assert_eq!(agg.runs(), 0);
        assert_eq!(agg.delivery_ratio(), 0.0);
        assert_eq!(agg.packets_per_subscriber(), 0.0);
        assert_eq!(agg.lateness().count(), 0);
    }
}
