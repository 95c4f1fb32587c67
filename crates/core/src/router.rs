//! The DCRD dynamic routing scheme (Algorithm 2 of the paper).
//!
//! Every broker forwards each packet toward each of its destinations by
//! trying the destination's sending list in order:
//!
//! 1. send to the first listed neighbor that has not been on the packet's
//!    routing path and has not already been tried for this destination;
//! 2. wait `ack_timeout_factor × α` for the hop-by-hop ACK; retransmit up
//!    to `m` times;
//! 3. on failure, move to the next listed neighbor;
//! 4. when the list is exhausted, reroute the packet **upstream** (read
//!    from the packet's routing path — no per-packet state is needed at
//!    other brokers);
//! 5. the publisher with an exhausted list drops the packet (or parks and
//!    retries it with the persistence extension enabled).
//!
//! Destinations whose current next hop coincides are merged into a single
//! transmission (Algorithm 2 lines 13–19).
//!
//! Two layers share one control plane (`tables`): `forward`, the
//! paper's forwarding core, and `custody`, built only under
//! [`DurabilityMode::Durable`]. [`DcrdStrategy`] dispatches to them.

use std::borrow::Cow;

use dcrd_net::estimate::LinkEstimates;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::{NodeId, NodeSet};
use dcrd_pubsub::packet::{Packet, PacketId};
use dcrd_pubsub::recovery::SequenceTracker;
use dcrd_pubsub::strategy::{Actions, RoutingStrategy, SetupContext, TimerKey};
use dcrd_pubsub::topic::TopicId;
use dcrd_sim::SimTime;

use crate::config::{DcrdConfig, DurabilityMode, RepairMode};
use crate::journal::InFlightJournal;
use crate::propagation::SubscriberTables;

mod custody;
mod forward;
mod tables;

pub use custody::{JOURNAL_WRITE_COST, MAX_NACKS_PER_SEQ};
pub use forward::MAX_PATH_FACTOR;

use custody::{Custody, JOURNAL_TAG_BASE};
use forward::{Forwarding, PERSIST_TAG_BASE};
use tables::Tables;

/// The DCRD routing strategy (the paper's contribution), implementing
/// [`RoutingStrategy`] for the overlay runtime.
///
/// # Example
///
/// ```
/// use dcrd_core::{DcrdConfig, DcrdStrategy};
///
/// let strategy = DcrdStrategy::new(DcrdConfig::default());
/// assert!(strategy.config().reroute_upstream);
/// ```
#[derive(Debug)]
pub struct DcrdStrategy {
    /// The control plane: the run's environment and its routing tables.
    tables: Tables,
    /// Every broker's per-packet forwarding state.
    forward: Forwarding,
    /// Durable custody and NACK recovery; `Some` exactly under
    /// [`DurabilityMode::Durable`].
    custody: Option<Custody>,
}

/// The settlement sink forwarding reports to: the custody journal, if
/// there is one. Custody's own calls into forwarding pass its journal
/// alone, so they may keep the rest of the custody state borrowed.
fn journal_of(custody: &mut Option<Custody>) -> Option<&mut InFlightJournal> {
    custody.as_mut().map(|c| &mut c.journal)
}

impl DcrdStrategy {
    /// Creates a DCRD strategy with the given configuration. `setup` (run
    /// by the runtime) computes the routing tables.
    #[must_use]
    pub fn new(config: DcrdConfig) -> Self {
        DcrdStrategy {
            tables: Tables {
                config,
                ..Tables::default()
            },
            forward: Forwarding::default(),
            custody: (config.durability == DurabilityMode::Durable).then(Custody::default),
        }
    }

    /// The configuration this strategy runs with.
    #[must_use]
    pub fn config(&self) -> &DcrdConfig {
        &self.tables.config
    }

    /// The routing tables of one subscription, once `setup` has run: the
    /// tables routing reads. Tables a repair invalidated and no packet read
    /// since are settled into a copy on the spot.
    #[must_use]
    pub fn tables_for(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<Cow<'_, SubscriberTables>> {
        let stream = self.tables.store.stream(topic, publisher)?;
        self.tables.view(stream, subscriber)
    }

    /// The routing tables of one subscription, read the way routing reads
    /// them: tables a repair invalidated are settled in place first, which
    /// [`table_builds`](Self::table_builds) counts.
    pub fn settled_tables_for(
        &mut self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SubscriberTables> {
        let stream = self.tables.store.stream(topic, publisher)?;
        self.tables.settled(stream, subscriber)
    }

    /// How many invalidated tables routing has settled since `setup`: the
    /// table builds a run makes after its initial construction.
    #[must_use]
    pub fn table_builds(&self) -> u64 {
        self.tables.table_builds
    }

    /// Kernel node-steps of every table this strategy built: the tables of
    /// `setup`'s batch and of every settle since, each counted as
    /// [`SubscriberTables::node_steps`]. Exact for a run's inputs, whatever
    /// the host or worker count.
    #[must_use]
    pub fn table_node_steps(&self) -> u64 {
        self.tables.table_node_steps
    }

    /// Number of in-flight per-broker packet states (diagnostic).
    #[must_use]
    pub fn inflight_states(&self) -> usize {
        self.forward.inflight.len()
    }

    /// The custody journal; `None` unless [`DurabilityMode::Durable`].
    #[must_use]
    pub fn journal(&self) -> Option<&InFlightJournal> {
        self.custody.as_ref().map(|c| &c.journal)
    }

    /// One subscriber's sequencing state for a stream, if it exists yet
    /// (durable mode only).
    #[must_use]
    pub fn sequence_tracker(
        &self,
        topic: TopicId,
        publisher: NodeId,
        subscriber: NodeId,
    ) -> Option<&SequenceTracker> {
        self.custody
            .as_ref()?
            .trackers
            .get(&(topic, publisher, subscriber))
    }

    /// How many from-scratch [`rebuild_tables`](Self::on_monitor) passes
    /// have run after setup. The initial table construction in `setup` is
    /// not counted, so this is exactly the number of times the strategy
    /// fell back to a global rebuild instead of healing incrementally.
    #[must_use]
    pub fn global_rebuilds(&self) -> u64 {
        self.tables.global_rebuilds
    }

    /// The monotone control-plane version the most recent table
    /// recomputation was stamped with (zero until `setup` runs).
    #[must_use]
    pub fn table_version(&self) -> u64 {
        self.tables.table_version
    }

    /// How many incremental membership-repair passes have run instead of a
    /// global rebuild.
    #[must_use]
    pub fn incremental_repairs(&self) -> u64 {
        self.tables.incremental_repairs
    }

    /// Brokers currently masked out of every table computation.
    #[must_use]
    pub fn absent_brokers(&self) -> &NodeSet {
        &self.tables.absent
    }

    /// Applies a batch of membership deltas: updates the absent mask, wipes
    /// the dead brokers' volatile state, and — unless the [`RepairMode`] is
    /// `None` — seizes their custody and repairs the routing tables.
    fn apply_membership(&mut self, deltas: &[MembershipDelta]) {
        // Every repair mode also hands off the custody of dead brokers.
        let repairs = self.tables.config.repair != RepairMode::None;
        let changed = self.tables.apply(deltas);
        for dead in deltas.iter().filter(|d| d.removes()).map(|d| d.node()) {
            // The broker is gone for good: reclaim its volatile state the
            // way a crash wipe would.
            self.forward.forget(dead);
            if let Some(custody) = self.custody.as_mut().filter(|_| repairs) {
                custody.handoff(dead);
            }
        }
        // A broker that joined is worth trying again, and one that left
        // drops out of the tables.
        self.forward.forget_silence(&changed);
    }

    /// Runs `node`'s state for packet `id` through Algorithm 2's main loop.
    fn process(&mut self, node: NodeId, id: PacketId, now: SimTime, out: &mut Actions) {
        let sink = &mut journal_of(&mut self.custody);
        self.forward
            .process(node, id, now, &mut self.tables, sink, out);
    }

    /// Takes `node`'s responsibility for a packet it holds no state for and
    /// forwards it — under durable custody only once the journal write
    /// completes (its timer re-enters `process`).
    fn admit(
        &mut self,
        node: NodeId,
        packet: Packet,
        upstream: Option<NodeId>,
        now: SimTime,
        out: &mut Actions,
    ) {
        let id = packet.id;
        if let Some(custody) = &mut self.custody {
            custody.take_custody(node, &packet, upstream, now, out);
            self.forward.open_state(node, packet, upstream);
        } else {
            self.forward.open_state(node, packet, upstream);
            self.process(node, id, now, out);
        }
    }

    /// Handles local delivery (at most once per `(message, subscriber)`
    /// pair — duplicate copies born from lost ACKs or crash recovery are
    /// absorbed here) and strips this node from the destinations still
    /// needing routing.
    ///
    /// Under durable custody the per-stream [`SequenceTracker`] sits in
    /// front: its bounded dedup window replaces the silent drop with an
    /// explicit [`Suppress`](dcrd_pubsub::strategy::Action::Suppress), so
    /// the auditor can tell benign replay duplicates from protocol bugs.
    fn deliver_locally(&mut self, node: NodeId, packet: &mut Packet, out: &mut Actions) {
        if let Some(pos) = packet.destinations.iter().position(|&d| d == node) {
            let fresh_id = self.forward.delivered.insert((packet.id, node));
            match self.custody.as_mut().map(|c| c.observe(node, packet)) {
                Some(fresh_seq) if !(fresh_id && fresh_seq) => out.suppress(packet.id),
                _ if fresh_id => out.deliver(packet.id),
                _ => {}
            }
            packet.destinations.swap_remove(pos);
        }
    }
}

impl RoutingStrategy for DcrdStrategy {
    fn name(&self) -> &'static str {
        "DCRD"
    }

    fn setup(&mut self, ctx: &SetupContext<'_>) {
        if self.custody.is_some() {
            self.forward.track_silence(ctx.topology.num_nodes());
        }
        self.tables.setup(ctx);
    }

    fn on_publish(&mut self, node: NodeId, mut packet: Packet, now: SimTime, out: &mut Actions) {
        self.deliver_locally(node, &mut packet, out);
        if !packet.destinations.is_empty() {
            self.admit(node, packet, None, now, out);
        }
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        from: NodeId,
        mut packet: Packet,
        now: SimTime,
        out: &mut Actions,
    ) {
        self.forward.heard_from(node, from);
        if packet.is_nack() {
            if let Some(custody) = &mut self.custody {
                custody.handle_nack(node, packet, now, &mut self.forward, &mut self.tables, out);
            }
            return;
        }
        self.deliver_locally(node, &mut packet, out);
        if packet.destinations.is_empty() {
            return;
        }
        let sink = &mut journal_of(&mut self.custody);
        if self.forward.merge_copy(node, &packet, sink) {
            self.process(node, packet.id, now, out);
        } else {
            let upstream = Forwarding::upstream_of(node, &packet, from, &self.tables);
            self.admit(node, packet, upstream, now, out);
        }
    }

    fn on_ack(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: &Packet,
        _now: SimTime,
        _out: &mut Actions,
    ) {
        let sink = &mut journal_of(&mut self.custody);
        self.forward.on_ack(node, to, packet, sink);
    }

    fn on_timer(&mut self, node: NodeId, key: TimerKey, now: SimTime, out: &mut Actions) {
        if (JOURNAL_TAG_BASE..PERSIST_TAG_BASE).contains(&key.tag) {
            // The journal write completed; custody is effective and the
            // packet may now be forwarded. If the broker crashed while the
            // write was in flight, the state is gone and the entry waits
            // for restart replay instead.
            self.process(node, key.packet, now, out);
        } else {
            let sink = &mut journal_of(&mut self.custody);
            self.forward
                .on_timer(node, key, now, &mut self.tables, sink, out);
        }
    }

    fn on_monitor(&mut self, estimates: &LinkEstimates, _now: SimTime) {
        self.tables.on_monitor(estimates);
    }

    fn on_membership(&mut self, deltas: &[MembershipDelta], _now: SimTime) {
        self.apply_membership(deltas);
    }

    fn on_gossip(&mut self, deltas: &[MembershipDelta], _now: SimTime) {
        // Gossip-disseminated deltas mean exactly what detector-broadcast
        // ones do; only their arrival time differs (post-convergence). The
        // same incremental-repair machinery applies them.
        self.apply_membership(deltas);
    }

    fn on_restart(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        // Under a repair mode, a broker the membership layer had written
        // off rejoins through the same repair path a detector-observed join
        // takes, instead of waiting for the next probe round. A broker that
        // was never masked repairs nothing, so crash-restart recovery is
        // untouched.
        if self.tables.config.repair != RepairMode::None && self.tables.absent.contains(node) {
            self.apply_membership(&[MembershipDelta::Join { node }]);
        }
        // A crash wipes the broker's volatile forwarding state. The
        // subscriber delivery log, the custody journal and the routing
        // tables are durable and survive.
        self.forward.forget(node);
        if let Some(custody) = &mut self.custody {
            custody.replay(node, now, &mut self.forward, &mut self.tables, out);
        }
    }

    fn on_tick(&mut self, node: NodeId, now: SimTime, out: &mut Actions) {
        if let Some(custody) = &mut self.custody {
            custody.flush_handoffs(node, now, &mut self.forward, &mut self.tables, out);
            custody.sweep(node, now, &self.tables, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersistenceMode;
    use dcrd_net::failure::{FailureModel, LinkFailureModel};
    use dcrd_net::loss::LossModel;
    use dcrd_net::topology::{full_mesh, line, ring, DelayRange};
    use dcrd_net::Topology;
    use dcrd_pubsub::runtime::{OverlayRuntime, RuntimeConfig};
    use dcrd_pubsub::topic::Subscription;
    use dcrd_pubsub::workload::{TopicSpec, Workload, WorkloadConfig};
    use dcrd_sim::rng::rng_for;
    use dcrd_sim::SimDuration;

    fn one_topic_workload(
        topo: &Topology,
        publisher: usize,
        subscribers: &[usize],
        deadline: SimDuration,
    ) -> Workload {
        Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(publisher),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: subscribers
                .iter()
                .map(|&s| Subscription::new(topo.node(s), deadline))
                .collect(),
            burst: None,
        }])
    }

    fn run(
        topo: &Topology,
        wl: &Workload,
        pf: f64,
        pl: f64,
        secs: u64,
        seed: u64,
        config: DcrdConfig,
    ) -> dcrd_pubsub::runtime::DeliveryLog {
        let failure = FailureModel::links_only(LinkFailureModel::new(pf, seed ^ 0xFA11));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(secs), seed);
        let rt = OverlayRuntime::new(topo, wl, failure, LossModel::new(pl), rt_config);
        let mut strategy = DcrdStrategy::new(config);
        let log = rt.run(&mut strategy);
        // Only durable custody builds a journal; the paper's router never
        // reaches one.
        assert_eq!(
            strategy.journal().is_some(),
            config.durability == DurabilityMode::Durable
        );
        log
    }

    #[test]
    fn lossless_line_delivers_on_time() {
        let topo = line(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[3], SimDuration::from_millis(90));
        let log = run(&topo, &wl, 0.0, 0.0, 20, 1, DcrdConfig::default());
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((log.qos_delivery_ratio() - 1.0).abs() < 1e-12);
        // Exactly 3 hops per message, no retries.
        assert!((log.packets_per_subscriber() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_subscribers_are_merged_where_paths_share_hops() {
        // Line 0-1-2-3: subscribers 2 and 3. Hop 0→1→2 is shared, so the
        // merged packet costs 2 sends up to node 2 plus 1 send to 3.
        let topo = line(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2, 3], SimDuration::from_millis(200));
        let log = run(&topo, &wl, 0.0, 0.0, 10, 2, DcrdConfig::default());
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        // 3 transmissions per message for 2 (msg, sub) pairs → 1.5.
        assert!(
            (log.packets_per_subscriber() - 1.5).abs() < 1e-9,
            "merging broken: {}",
            log.packets_per_subscriber()
        );
    }

    #[test]
    fn reroutes_around_permanently_failed_link() {
        // Ring of 4: direct route 0→1, detour 0→3→2→1. Kill link 0-1 by
        // giving it pf=1? Per-link failure control isn't exposed, so use a
        // custom topology where the "direct" link is dead via node pair
        // distance: instead simulate pf high and rely on rerouting to lift
        // delivery above the single-path baseline.
        let topo = ring(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(400));
        let log = run(&topo, &wl, 0.3, 0.0, 120, 3, DcrdConfig::default());
        // A fixed single path delivers ≈70% (direct link up). The oracle
        // ceiling is P(any path up) = 1−0.3·(1−0.7³) ≈ 80%. DCRD must land
        // well above the fixed path and near the ceiling.
        assert!(
            log.delivery_ratio() > 0.75,
            "delivery ratio {} too low for DCRD",
            log.delivery_ratio()
        );
        assert!(log.delivery_ratio() <= 0.85);
    }

    #[test]
    fn mesh_under_paper_conditions_is_near_perfect() {
        let mut rng = rng_for(4, "router");
        let topo = full_mesh(10, DelayRange::PAPER, &mut rng);
        let wl = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
        let log = run(&topo, &wl, 0.04, 1e-4, 60, 4, DcrdConfig::default());
        assert!(
            log.delivery_ratio() > 0.995,
            "delivery ratio {}",
            log.delivery_ratio()
        );
        assert!(
            log.qos_delivery_ratio() > 0.97,
            "QoS ratio {}",
            log.qos_delivery_ratio()
        );
    }

    #[test]
    fn no_reroute_ablation_gives_up_earlier() {
        let topo = ring(4, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(400));
        let with = run(&topo, &wl, 0.25, 0.0, 120, 5, DcrdConfig::default());
        // Without reroute: the hostile study's router (`hostile_config`).
        let without = run(
            &topo,
            &wl,
            0.25,
            0.0,
            120,
            5,
            DcrdConfig {
                reroute_upstream: false,
                ..DcrdConfig::default()
            },
        );
        assert!(
            with.delivery_ratio() >= without.delivery_ratio(),
            "reroute {} < no-reroute {}",
            with.delivery_ratio(),
            without.delivery_ratio()
        );
    }

    #[test]
    fn persistence_mode_recovers_parked_packets() {
        // Two nodes, one link: when the link's epoch fails, the publisher
        // has no alternative and (without persistence) gives up; with
        // persistence it retries next epoch and delivers late.
        let topo = line(2, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(100));
        let base = run(&topo, &wl, 0.4, 0.0, 120, 6, DcrdConfig::default());
        let persist = run(
            &topo,
            &wl,
            0.4,
            0.0,
            120,
            6,
            DcrdConfig {
                persistence: PersistenceMode::Retry {
                    max_retries: 10,
                    retry_after_ms: 1000,
                },
                ..DcrdConfig::default()
            },
        );
        assert!(
            persist.delivery_ratio() > base.delivery_ratio() + 0.1,
            "persistence {} vs base {}",
            persist.delivery_ratio(),
            base.delivery_ratio()
        );
        // Late deliveries don't help QoS much, but delivery must be ~1.
        assert!(persist.delivery_ratio() > 0.95);
    }

    #[test]
    fn retransmission_m2_sends_more() {
        let topo = line(2, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[1], SimDuration::from_millis(100));
        let mut m2 = DcrdConfig::default();
        let _ = &mut m2;
        // m comes from RunParams; craft runtimes directly.
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 77));
        let mut cfg1 = RuntimeConfig::paper(SimDuration::from_secs(60), 7);
        cfg1.params.m = 1;
        let mut cfg2 = cfg1;
        cfg2.params.m = 2;
        // Heavy random loss so retransmissions matter.
        let log1 = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.3), cfg1)
            .run(&mut DcrdStrategy::new(DcrdConfig::default()));
        let log2 = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.3), cfg2)
            .run(&mut DcrdStrategy::new(DcrdConfig::default()));
        assert!(
            log2.delivery_ratio() > log1.delivery_ratio(),
            "m=2 {} should beat m=1 {} under pure loss on a single path",
            log2.delivery_ratio(),
            log1.delivery_ratio()
        );
    }

    #[test]
    fn inflight_state_is_cleaned_up() {
        let topo = line(3, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(100));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(10), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), rt_config);
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        let log = rt.run(&mut strategy);
        assert!((log.delivery_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(
            strategy.inflight_states(),
            0,
            "all per-packet state must be reclaimed after ACKs"
        );
    }

    #[test]
    fn local_delivery_is_idempotent() {
        use dcrd_pubsub::strategy::Action;

        let mut s = DcrdStrategy::new(DcrdConfig::default());
        let node = NodeId::new(2);
        let mut first = Packet::new(
            PacketId::new(7),
            TopicId::new(0),
            NodeId::new(0),
            SimTime::ZERO,
            vec![node],
        );
        let mut dup = first.clone();
        let mut out = Actions::new();
        s.deliver_locally(node, &mut first, &mut out);
        s.deliver_locally(node, &mut dup, &mut out);
        let delivers = out
            .drain()
            .filter(|a| matches!(a, Action::Deliver { .. }))
            .count();
        assert_eq!(delivers, 1, "duplicate copy must not deliver twice");
        assert!(first.destinations.is_empty());
        assert!(dup.destinations.is_empty());
    }

    #[test]
    fn restart_drops_volatile_state_keeps_delivery_log() {
        let mut s = DcrdStrategy::new(DcrdConfig::default());
        let crashed = NodeId::new(1);
        let healthy = NodeId::new(2);
        let mk = |n: u32| {
            Packet::new(
                PacketId::new(u64::from(n)),
                TopicId::new(0),
                NodeId::new(0),
                SimTime::ZERO,
                vec![NodeId::new(5)],
            )
        };
        s.forward.open_state(crashed, mk(1), None);
        s.forward.open_state(healthy, mk(2), None);
        s.forward.delivered.insert((PacketId::new(1), crashed));
        let mut out = Actions::new();
        s.on_restart(crashed, SimTime::from_secs(3), &mut out);
        assert_eq!(
            s.inflight_states(),
            1,
            "only the crashed broker's state goes"
        );
        assert!(s
            .forward
            .inflight
            .contains_key(&(PacketId::new(2), healthy)));
        assert!(
            s.forward.delivered.contains(&(PacketId::new(1), crashed)),
            "the subscriber delivery log is durable across restarts"
        );
        assert!(out.is_empty());
    }

    /// The forwarding core names nothing of durable custody: the journal,
    /// sequence tracking, the durability switch and NACKs stay behind
    /// `Settlement`, in `custody.rs`.
    #[test]
    fn forwarding_core_names_no_custody_type() {
        let source = include_str!("router/forward.rs");
        for name in [
            "InFlightJournal",
            "JournalEntry",
            "SequenceTracker",
            "DurabilityMode",
            "is_nack",
            "PacketKind::Nack",
            "Packet::nack",
        ] {
            assert!(!source.contains(name), "forward.rs names `{name}`");
        }
    }

    #[test]
    fn tables_are_exposed_after_setup() {
        let topo = line(3, SimDuration::from_millis(10));
        let wl = one_topic_workload(&topo, 0, &[2], SimDuration::from_millis(100));
        let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
        let rt_config = RuntimeConfig::paper(SimDuration::from_secs(1), 1);
        let rt = OverlayRuntime::new(&topo, &wl, failure, LossModel::new(0.0), rt_config);
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        let _ = rt.run(&mut strategy);
        let tables = strategy
            .tables_for(TopicId::new(0), topo.node(0), topo.node(2))
            .expect("tables computed in setup");
        assert!(tables.converged());
        assert_eq!(tables.subscriber(), topo.node(2));
        assert!(strategy
            .tables_for(TopicId::new(9), topo.node(0), topo.node(2))
            .is_none());
        assert_eq!(strategy.name(), "DCRD");
    }
}
