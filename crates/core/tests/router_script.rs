//! Scripted white-box tests of the DCRD router: drive the strategy's
//! callbacks directly (no simulator) and inspect the exact actions it
//! emits, pinning Algorithm 2's per-step behavior.

use dcrd_core::propagation::{compute_tables, PairJob};
use dcrd_core::router::{JOURNAL_WRITE_COST, MAX_NACKS_PER_SEQ, MAX_PATH_FACTOR};
use dcrd_core::{DcrdConfig, DcrdStrategy, DurabilityMode, PersistenceMode, RepairMode};
use dcrd_net::estimate::{analytic_estimates, LinkEstimates};
use dcrd_net::failure::{FailureModel, LinkFailureModel};
use dcrd_net::graph::TopologyBuilder;
use dcrd_net::membership::MembershipDelta;
use dcrd_net::{NodeId, NodeList, Topology};
use dcrd_pubsub::packet::{Packet, PacketId, PathRecord};
use dcrd_pubsub::strategy::{
    ack_timeout, Action, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey,
};
use dcrd_pubsub::topic::{Subscription, TopicId};
use dcrd_pubsub::workload::{TopicSpec, Workload};
use dcrd_sim::{SimDuration, SimTime};

/// Line 0—1—2—3 with 10 ms links; topic 0 published by node 0, subscribers
/// per test.
fn line4() -> Topology {
    let mut b = TopologyBuilder::new(4);
    let n = b.nodes();
    b.link(n[0], n[1], SimDuration::from_millis(10));
    b.link(n[1], n[2], SimDuration::from_millis(10));
    b.link(n[2], n[3], SimDuration::from_millis(10));
    b.build()
}

/// Diamond: 0 connects to 1 and 2; both connect to 3.
fn diamond() -> Topology {
    let mut b = TopologyBuilder::new(4);
    let n = b.nodes();
    b.link(n[0], n[1], SimDuration::from_millis(10));
    b.link(n[0], n[2], SimDuration::from_millis(20));
    b.link(n[1], n[3], SimDuration::from_millis(10));
    b.link(n[2], n[3], SimDuration::from_millis(10));
    b.build()
}

/// Kite: 0 connects to 1, 2 and 4 (10, 20 and 30 ms); each connects to 3
/// over 10 ms.
fn kite() -> Topology {
    let mut b = TopologyBuilder::new(5);
    let n = b.nodes();
    b.link(n[0], n[1], SimDuration::from_millis(10));
    b.link(n[0], n[2], SimDuration::from_millis(20));
    b.link(n[0], n[4], SimDuration::from_millis(30));
    b.link(n[1], n[3], SimDuration::from_millis(10));
    b.link(n[2], n[3], SimDuration::from_millis(10));
    b.link(n[4], n[3], SimDuration::from_millis(10));
    b.build()
}

struct Harness {
    topo: Topology,
    workload: Workload,
    strategy: DcrdStrategy,
}

impl Harness {
    fn new(topo: Topology, subscribers: &[usize], config: DcrdConfig) -> Self {
        let workload = Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: subscribers
                .iter()
                .map(|&s| Subscription::new(topo.node(s), SimDuration::from_millis(500)))
                .collect(),
            burst: None,
        }]);
        let mut harness = Harness {
            topo,
            workload,
            strategy: DcrdStrategy::new(config),
        };
        let estimates = estimates(&harness.topo);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.05, 1));
        let ctx = SetupContext {
            topology: &harness.topo,
            estimates: &estimates,
            workload: &harness.workload,
            failure_oracle: &failure,
            params: RunParams::default(),
        };
        harness.strategy.setup(&ctx);
        harness
    }

    fn publish(&mut self, subscribers: &[usize]) -> (Packet, Vec<Action>) {
        let packet = Packet::new(
            PacketId::new(1),
            TopicId::new(0),
            self.topo.node(0),
            SimTime::ZERO,
            subscribers
                .iter()
                .map(|&s| self.topo.node(s))
                .collect::<NodeList>(),
        );
        let mut out = Actions::new();
        self.strategy
            .on_publish(self.topo.node(0), packet.clone(), SimTime::ZERO, &mut out);
        (packet, out.drain().collect())
    }
}

/// The link estimates every harness sets up with.
fn estimates(topo: &Topology) -> LinkEstimates {
    analytic_estimates(topo, 0.05, 0.0)
}

fn sends(actions: &[Action]) -> Vec<(&Packet, NodeId)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, packet } => Some((packet, *to)),
            _ => None,
        })
        .collect()
}

fn timers(actions: &[Action]) -> Vec<TimerKey> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { key, .. } => Some(*key),
            _ => None,
        })
        .collect()
}

/// When each armed timer fires, in arming order.
fn timer_deadlines(actions: &[Action]) -> Vec<SimTime> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { at, .. } => Some(*at),
            _ => None,
        })
        .collect()
}

#[test]
fn publish_sends_one_merged_packet_down_the_line() {
    let topo = line4();
    let mut h = Harness::new(topo, &[2, 3], DcrdConfig::default());
    let (_, actions) = h.publish(&[2, 3]);
    let s = sends(&actions);
    // Both subscribers share next hop 1 → a single transmission.
    assert_eq!(s.len(), 1, "destinations sharing a hop must merge");
    let (pkt, to) = s[0];
    assert_eq!(to, NodeId::new(1));
    assert_eq!(pkt.destinations.len(), 2);
    assert_eq!(pkt.path, vec![NodeId::new(0)], "sender appends itself");
    // Exactly one ACK timer armed, tagged like the sent packet.
    let t = timers(&actions);
    assert_eq!(t.len(), 1);
    assert_eq!(t[0].packet, pkt.id);
    assert_eq!(t[0].tag, pkt.tag);
}

#[test]
fn timeout_moves_to_next_neighbor_and_records_giveup_at_source_exhaustion() {
    let topo = line4();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    let (_, actions) = h.publish(&[3]);
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].1, NodeId::new(1), "line: only neighbor is 1");
    let key = timers(&actions)[0];

    // Timer fires with no ACK → node 0 has no other neighbor and no
    // upstream → give up (non-persistent mode).
    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(30), &mut out);
    let actions: Vec<Action> = out.drain().collect();
    assert!(sends(&actions).is_empty(), "nothing left to try");
    assert!(
        actions.iter().any(
            |a| matches!(a, Action::GiveUp { destination, .. } if *destination == NodeId::new(3))
        ),
        "publisher exhaustion must emit GiveUp"
    );
    assert_eq!(
        h.strategy.inflight_states(),
        0,
        "state reclaimed after give-up"
    );
}

#[test]
fn ack_clears_pending_and_reclaims_state() {
    let topo = line4();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    let (_, actions) = h.publish(&[3]);
    let (sent, to) = sends(&actions)[0];
    let sent = sent.clone();
    assert_eq!(h.strategy.inflight_states(), 1);

    let mut out = Actions::new();
    h.strategy.on_ack(
        NodeId::new(0),
        to,
        &sent,
        SimTime::from_millis(20),
        &mut out,
    );
    assert!(out.is_empty(), "ACK handling emits no actions");
    assert_eq!(
        h.strategy.inflight_states(),
        0,
        "ACK deletes the copy (§III)"
    );

    // The stale timer that was armed for this send must now be a no-op.
    let key = TimerKey {
        packet: sent.id,
        tag: sent.tag,
    };
    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(30), &mut out);
    assert!(out.is_empty(), "stale timer after ACK must do nothing");
}

#[test]
fn diamond_timeout_fails_over_to_second_neighbor() {
    let topo = diamond();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    let (_, actions) = h.publish(&[3]);
    let first = sends(&actions)[0].1;
    // Theorem 1 puts the 10ms+10ms route via node 1 first.
    assert_eq!(first, NodeId::new(1));
    let key = timers(&actions)[0];

    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(25), &mut out);
    let actions: Vec<Action> = out.drain().collect();
    let s = sends(&actions);
    assert_eq!(s.len(), 1, "failover transmission expected");
    assert_eq!(s[0].1, NodeId::new(2), "second-best neighbor tried next");
    // The failed neighbor is NOT on the packet's path (it never handled the
    // packet) — exclusion comes from the tried set, which this proves.
    assert!(!s[0].0.path.contains(NodeId::new(1)));
}

#[test]
fn returned_packet_is_retried_via_alternative() {
    let topo = diamond();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    let (_, actions) = h.publish(&[3]);
    let (sent, to) = sends(&actions)[0];
    let sent = sent.clone();
    assert_eq!(to, NodeId::new(1));

    // Node 1 ACKs, node 0 forgets the packet.
    let mut out = Actions::new();
    h.strategy.on_ack(
        NodeId::new(0),
        to,
        &sent,
        SimTime::from_millis(20),
        &mut out,
    );
    assert_eq!(h.strategy.inflight_states(), 0);

    // Node 1 fails downstream and returns the packet: path [0, 1].
    let returned = sent.forward(NodeId::new(1), vec![NodeId::new(3)], 999);
    let mut out = Actions::new();
    h.strategy.on_packet(
        NodeId::new(0),
        NodeId::new(1),
        returned,
        SimTime::from_millis(60),
        &mut out,
    );
    let actions: Vec<Action> = out.drain().collect();
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    assert_eq!(
        s[0].1,
        NodeId::new(2),
        "the returned packet must take the untried alternative"
    );
    assert!(s[0].0.path.contains(NodeId::new(1)), "path history kept");
}

#[test]
fn m2_retransmits_once_before_failover() {
    let topo = diamond();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    // Override m via a fresh setup with m = 2.
    let estimates = analytic_estimates(&h.topo, 0.05, 0.0);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.05, 1));
    let params = RunParams {
        m: 2,
        ack_timeout_factor: 1.0,
        ..RunParams::default()
    };
    let ctx = SetupContext {
        topology: &h.topo,
        estimates: &estimates,
        workload: &h.workload,
        failure_oracle: &failure,
        params,
    };
    h.strategy.setup(&ctx);
    // Every send on 0—1 waits the paper's fixed timer for that link's α.
    let timeout_01 = ack_timeout(SimDuration::from_millis(10), &params);

    let (_, actions) = h.publish(&[3]);
    let key = timers(&actions)[0];
    assert_eq!(sends(&actions)[0].1, NodeId::new(1));
    assert_eq!(timer_deadlines(&actions), [SimTime::ZERO + timeout_01]);

    // First timeout: retransmission to the SAME neighbor, same tag, under
    // the same timer (no backoff).
    let retry_at = SimTime::from_millis(25);
    let mut out = Actions::new();
    h.strategy.on_timer(NodeId::new(0), key, retry_at, &mut out);
    let retry: Vec<Action> = out.drain().collect();
    assert_eq!(sends(&retry)[0].1, NodeId::new(1), "m=2 retransmits first");
    assert_eq!(timers(&retry)[0], key, "retransmission keeps the tag");
    assert_eq!(timer_deadlines(&retry), [retry_at + timeout_01]);

    // Second timeout: switch to the alternative.
    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(50), &mut out);
    let failover: Vec<Action> = out.drain().collect();
    assert_eq!(sends(&failover)[0].1, NodeId::new(2));
}

/// Publisher persistence with a retry budget of `max_retries` parks, on
/// top of `base`.
fn persistent_config(base: DcrdConfig, max_retries: u32) -> DcrdConfig {
    DcrdConfig {
        persistence: PersistenceMode::Retry {
            max_retries,
            retry_after_ms: 500,
        },
        ..base
    }
}

/// Fires `key` at node 0 and returns what the router did.
fn fire(h: &mut Harness, key: TimerKey, at: SimTime) -> Vec<Action> {
    let mut out = Actions::new();
    h.strategy.on_timer(NodeId::new(0), key, at, &mut out);
    out.drain().collect()
}

/// Publishes toward 3 on the diamond and lets both of the publisher's
/// neighbours time out, so the packet parks; returns the persistence
/// timer.
fn publish_and_exhaust_both_neighbours(h: &mut Harness) -> TimerKey {
    let (_, mut actions) = h.publish(&[3]);
    if h.strategy.config().durability == DurabilityMode::Durable {
        // The journal write releases the forwarding.
        actions = fire(h, timers(&actions)[0], SimTime::ZERO + JOURNAL_WRITE_COST);
    }
    assert_eq!(sends(&actions)[0].1, NodeId::new(1));
    let failover = fire(h, timers(&actions)[0], SimTime::from_millis(25));
    assert_eq!(sends(&failover)[0].1, NodeId::new(2));
    let parked = fire(h, timers(&failover)[0], SimTime::from_millis(60));
    assert!(sends(&parked).is_empty(), "nothing left: the packet parks");
    let retry = timers(&parked);
    assert_eq!(retry.len(), 1, "one persistence timer");
    retry[0]
}

/// Under durable custody, a persistence retry clears the packet's tried
/// sets, but a neighbour that already took `m` sends of it and has not
/// answered since stays passed over; the first ACK it returns, for any
/// packet, puts it back.
#[test]
fn persistence_retry_skips_a_silent_neighbour_until_it_acks() {
    let mut h = Harness::new(diamond(), &[3], persistent_config(durable_config(), 10));
    let retry = publish_and_exhaust_both_neighbours(&mut h);

    let again = fire(&mut h, retry, SimTime::from_millis(560));
    assert!(
        sends(&again).is_empty(),
        "both neighbours are silent: the retry sends nothing and parks again"
    );
    let retry = timers(&again)[0];

    // Node 1 acknowledges some other packet: it is alive again.
    let other = Packet::new(
        PacketId::new(2),
        TopicId::new(0),
        NodeId::new(0),
        SimTime::ZERO,
        NodeList::from_slice(&[NodeId::new(3)]),
    );
    let mut out = Actions::new();
    h.strategy.on_ack(
        NodeId::new(0),
        NodeId::new(1),
        &other,
        SimTime::from_millis(600),
        &mut out,
    );
    assert!(out.is_empty());

    let resumed = fire(&mut h, retry, SimTime::from_millis(1_060));
    assert_eq!(
        sends(&resumed)
            .iter()
            .map(|(_, to)| *to)
            .collect::<Vec<_>>(),
        [NodeId::new(1)],
        "the neighbour that answered is tried again; the silent one is not"
    );
}

/// `max_retries` bounds the parks one broker spends on one packet, not
/// on one incarnation of its state: a copy that comes back after the
/// budget is spent is not parked again.
#[test]
fn park_budget_spans_state_incarnations() {
    let mut h = Harness::new(diamond(), &[3], persistent_config(DcrdConfig::default(), 1));
    let retry = publish_and_exhaust_both_neighbours(&mut h);
    // The one retry explores both neighbours again, and fails again.
    let again = fire(&mut h, retry, SimTime::from_millis(560));
    assert_eq!(sends(&again)[0].1, NodeId::new(1));
    let failover = fire(&mut h, timers(&again)[0], SimTime::from_millis(590));
    assert_eq!(sends(&failover)[0].1, NodeId::new(2));
    let gave_up = fire(&mut h, timers(&failover)[0], SimTime::from_millis(620));
    assert!(sends(&gave_up).is_empty());
    assert!(timers(&gave_up).is_empty(), "no second park");
    assert!(gave_up.iter().any(
        |a| matches!(a, Action::GiveUp { destination, .. } if *destination == NodeId::new(3))
    ));
    assert_eq!(h.strategy.inflight_states(), 0);

    // A copy that has been through both neighbours comes back with no
    // usable upstream (its claimed sender is no neighbour): a fresh state
    // at the publisher with nowhere to send it.
    let copy = Packet::new(
        PacketId::new(1),
        TopicId::new(0),
        NodeId::new(0),
        SimTime::ZERO,
        NodeList::from_slice(&[NodeId::new(3)]),
    )
    .forward(NodeId::new(0), NodeList::from_slice(&[NodeId::new(3)]), 7)
    .forward(NodeId::new(1), NodeList::from_slice(&[NodeId::new(3)]), 8)
    .forward(NodeId::new(2), NodeList::from_slice(&[NodeId::new(3)]), 9);
    let mut out = Actions::new();
    h.strategy.on_packet(
        NodeId::new(0),
        NodeId::new(3),
        copy,
        SimTime::from_millis(700),
        &mut out,
    );
    let actions: Vec<Action> = out.drain().collect();
    assert!(sends(&actions).is_empty());
    assert!(timers(&actions).is_empty(), "the budget is spent");
    assert!(actions.iter().any(|a| matches!(a, Action::GiveUp { .. })));
}

#[test]
fn intermediate_subscriber_takes_delivery_and_forwards_rest() {
    let topo = line4();
    let mut h = Harness::new(topo, &[1, 3], DcrdConfig::default());
    let (published, actions) = h.publish(&[1, 3]);
    let (sent, _) = sends(&actions)[0];
    let sent = sent.clone();

    // The packet arrives at node 1 (itself a subscriber).
    let mut out = Actions::new();
    h.strategy.on_packet(
        NodeId::new(1),
        NodeId::new(0),
        sent,
        SimTime::from_millis(10),
        &mut out,
    );
    let actions: Vec<Action> = out.drain().collect();
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, Action::Deliver { packet } if *packet == published.id)),
        "node 1 must deliver locally"
    );
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].1, NodeId::new(2));
    assert_eq!(
        s[0].0.destinations,
        vec![NodeId::new(3)],
        "local dest removed"
    );
}

#[test]
fn unknown_destination_tables_cause_giveup_not_panic() {
    let topo = line4();
    let mut h = Harness::new(topo, &[3], DcrdConfig::default());
    // A packet for a subscriber with no tables (not in the workload).
    let rogue = Packet::new(
        PacketId::new(9),
        TopicId::new(0),
        h.topo.node(0),
        SimTime::ZERO,
        vec![h.topo.node(2)], // node 2 never subscribed
    );
    let mut out = Actions::new();
    h.strategy
        .on_publish(NodeId::new(0), rogue, SimTime::ZERO, &mut out);
    let actions: Vec<Action> = out.drain().collect();
    assert!(sends(&actions).is_empty());
    assert!(actions.iter().any(
        |a| matches!(a, Action::GiveUp { destination, .. } if *destination == NodeId::new(2))
    ));
}

/// The path budget (`MAX_PATH_FACTOR × brokers` recorded hops) caps a
/// packet's wandering: a copy arriving with a full path is given up on the
/// spot, while one hop fewer still forwards.
#[test]
fn path_budget_gives_up_at_the_limit_and_forwards_below_it() {
    let budget = MAX_PATH_FACTOR * line4().num_nodes();
    let arrive_with_path = |len: usize| {
        let mut h = Harness::new(line4(), &[3], DcrdConfig::default());
        let (_, actions) = h.publish(&[3]);
        let mut packet = sends(&actions)[0].0.clone();
        // Re-probes of the 0→1 link: node 0 only, so node 1's onward
        // neighbor stays unvisited.
        packet.path = PathRecord::from(vec![NodeId::new(0); len]);
        let mut out = Actions::new();
        h.strategy.on_packet(
            NodeId::new(1),
            NodeId::new(0),
            packet,
            SimTime::from_millis(10),
            &mut out,
        );
        out.drain().collect::<Vec<Action>>()
    };

    let at_limit = arrive_with_path(budget);
    assert!(
        sends(&at_limit).is_empty(),
        "a full path must not travel on"
    );
    assert!(
        at_limit.iter().any(
            |a| matches!(a, Action::GiveUp { destination, .. } if *destination == NodeId::new(3))
        ),
        "an exhausted path budget must emit GiveUp"
    );

    let below = arrive_with_path(budget - 1);
    let s = sends(&below);
    assert_eq!(s.len(), 1, "one hop under the budget still forwards");
    assert_eq!(s[0].1, NodeId::new(2));
    assert!(!below.iter().any(|a| matches!(a, Action::GiveUp { .. })));
}

// ---------------------------------------------------------------------------
// Custody journal, restart replay and NACK-driven recovery.
// ---------------------------------------------------------------------------

/// A scripted rig for the recovery machinery: per-subscriber deadlines and
/// an explicit publish horizon, with the strategy already set up.
struct RecoveryRig {
    topo: Topology,
    strategy: DcrdStrategy,
}

impl RecoveryRig {
    fn new(
        topo: Topology,
        subscribers: &[(usize, SimDuration)],
        config: DcrdConfig,
        horizon: SimDuration,
    ) -> Self {
        let workload = Workload::from_topics(vec![TopicSpec {
            topic: TopicId::new(0),
            publisher: topo.node(0),
            interval: SimDuration::from_secs(1),
            offset: SimDuration::ZERO,
            subscriptions: subscribers
                .iter()
                .map(|&(s, deadline)| Subscription::new(topo.node(s), deadline))
                .collect(),
            burst: None,
        }]);
        let estimates = analytic_estimates(&topo, 0.05, 0.0);
        let failure = FailureModel::links_only(LinkFailureModel::new(0.05, 1));
        let mut strategy = DcrdStrategy::new(config);
        strategy.setup(&SetupContext {
            topology: &topo,
            estimates: &estimates,
            workload: &workload,
            failure_oracle: &failure,
            params: RunParams {
                horizon,
                ..RunParams::default()
            },
        });
        RecoveryRig { topo, strategy }
    }

    fn publish(&mut self, seq: u64, subscribers: &[usize], now: SimTime) -> (Packet, Vec<Action>) {
        let packet = Packet::new(
            PacketId::new(seq),
            TopicId::new(0),
            self.topo.node(0),
            now,
            subscribers
                .iter()
                .map(|&s| self.topo.node(s))
                .collect::<NodeList>(),
        )
        .with_seq(seq);
        let mut out = Actions::new();
        self.strategy
            .on_publish(self.topo.node(0), packet.clone(), now, &mut out);
        (packet, out.drain().collect())
    }

    /// [`publish`](Self::publish), then the journal write it waits on.
    fn publish_written(&mut self, seq: u64, subscribers: &[usize], now: SimTime) -> Vec<Action> {
        let (_, actions) = self.publish(seq, subscribers, now);
        self.complete_write(NodeId::new(0), actions, now)
    }

    /// Delivers `packet` from `from` to `node`, then completes the journal
    /// write its custody waits on.
    fn arrive(&mut self, node: u32, from: u32, packet: Packet, now: SimTime) -> Vec<Action> {
        let (node, from) = (NodeId::new(node), NodeId::new(from));
        let mut out = Actions::new();
        self.strategy.on_packet(node, from, packet, now, &mut out);
        let actions = out.drain().collect();
        self.complete_write(node, actions, now)
    }

    /// Fires the journal-write timer a durable callback at `now` armed, if
    /// any, at its [`JOURNAL_WRITE_COST`] deadline; returns the callback's
    /// other actions followed by the forwarding the write released.
    fn complete_write(
        &mut self,
        node: NodeId,
        mut actions: Vec<Action>,
        now: SimTime,
    ) -> Vec<Action> {
        let write = actions
            .iter()
            .position(|a| matches!(a, Action::SetTimer { key, .. } if is_journal_tag(key.tag)));
        if let Some(Action::SetTimer { at, key }) = write.map(|i| actions.remove(i)) {
            assert_eq!(at, now + JOURNAL_WRITE_COST, "journal write cost");
            let mut out = Actions::new();
            self.strategy.on_timer(node, key, at, &mut out);
            actions.extend(out.drain());
        }
        actions
    }
}

/// Whether `tag` lies in the router's reserved journal-write tag space.
fn is_journal_tag(tag: u64) -> bool {
    (1 << 62..1 << 63).contains(&tag)
}

fn durable_config() -> DcrdConfig {
    DcrdConfig {
        durability: DurabilityMode::Durable,
        ..DcrdConfig::default()
    }
}

/// Brokers journal custody, release it on downstream ACKs, and the
/// publisher alone keeps its entry for the whole run.
#[test]
fn custody_released_on_ack_except_at_publisher() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[(3, SimDuration::from_millis(500))],
        durable_config(),
        SimDuration::from_secs(60),
    );
    let t = SimTime::from_millis(5);
    let actions = rig.publish_written(0, &[3], SimTime::ZERO);
    let (fwd1, _) = {
        let s = sends(&actions);
        (s[0].0.clone(), s[0].1)
    };
    let id = fwd1.id;
    let n = |i: u32| NodeId::new(i);
    assert!(rig
        .strategy
        .journal()
        .expect("durable custody")
        .entry(n(0), id)
        .is_some());

    // 1 accepts (journals) and forwards; 0's ACK releases nothing at 0 yet
    // because the publisher's custody is permanent.
    let fwd2 = sends(&rig.arrive(1, 0, fwd1.clone(), t))[0].0.clone();
    assert!(rig
        .strategy
        .journal()
        .expect("durable custody")
        .entry(n(1), id)
        .is_some());
    let mut out = Actions::new();
    rig.strategy.on_ack(n(0), n(1), &fwd1, t, &mut out);
    assert!(
        rig.strategy
            .journal()
            .expect("durable custody")
            .entry(n(0), id)
            .is_some(),
        "publisher custody is permanent"
    );

    // 2 accepts and forwards to the subscriber; the ACK chain releases the
    // intermediate brokers' custody.
    let fwd3 = sends(&rig.arrive(2, 1, fwd2.clone(), t))[0].0.clone();
    let mut out = Actions::new();
    rig.strategy.on_ack(n(1), n(2), &fwd2, t, &mut out);
    assert!(
        rig.strategy
            .journal()
            .expect("durable custody")
            .entry(n(1), id)
            .is_none(),
        "downstream ACK must release broker custody"
    );

    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(3), n(2), fwd3.clone(), t, &mut out);
    let delivered: Vec<Action> = out.drain().collect();
    assert!(delivered
        .iter()
        .any(|a| matches!(a, Action::Deliver { .. })));
    let mut out = Actions::new();
    rig.strategy.on_ack(n(2), n(3), &fwd3, t, &mut out);
    assert!(rig
        .strategy
        .journal()
        .expect("durable custody")
        .entry(n(2), id)
        .is_none());
    assert_eq!(
        rig.strategy.journal().expect("durable custody").len(),
        1,
        "only the publisher's entry"
    );
    assert!(rig
        .strategy
        .sequence_tracker(TopicId::new(0), n(0), n(3))
        .expect("tracker exists after delivery")
        .delivered(0));
}

/// A lost packet is recovered end to end: the subscriber's sweep emits a
/// NACK, brokers without custody relay it toward the publisher, and the
/// publisher re-serves from its permanent custody. A replayed duplicate is
/// suppressed by the dedup window, not delivered twice.
#[test]
fn nack_climbs_to_publisher_and_recovers_lost_packet() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[(3, SimDuration::from_millis(500))],
        durable_config(),
        // Only seq 0 is inside the horizon: the sweep must not invent
        // sequence numbers that were never published.
        SimDuration::from_millis(1),
    );
    let n = |i: u32| NodeId::new(i);
    let actions = rig.publish_written(0, &[3], SimTime::ZERO);
    let key = timers(&actions)[0];

    // The only copy is lost; m = 1, so the timeout exhausts neighbor 1 and
    // the publisher gives up (no persistence in this config).
    let mut out = Actions::new();
    rig.strategy
        .on_timer(n(0), key, SimTime::from_millis(100), &mut out);
    assert!(out.drain().any(|a| matches!(a, Action::GiveUp { .. })));

    // Subscriber sweep at t = 5s: seq 0 is overdue → one NACK upstream.
    let mut out = Actions::new();
    rig.strategy.on_tick(n(3), SimTime::from_secs(5), &mut out);
    let nacks: Vec<Action> = out.drain().collect();
    let s = sends(&nacks);
    assert_eq!(s.len(), 1, "one NACK per stream per sweep");
    let (nack, to) = (s[0].0.clone(), s[0].1);
    assert!(nack.is_nack());
    assert_eq!(to, n(2), "NACKs climb hop-by-hop toward the publisher");
    assert_eq!(nack.destinations, vec![n(0)]);

    // 2 and 1 hold no custody: each relays the NACK one hop further up.
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(2), n(3), nack, SimTime::from_secs(5), &mut out);
    let s: Vec<Action> = out.drain().collect();
    let relayed = sends(&s)[0].0.clone();
    assert!(relayed.is_nack());
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(1), n(2), relayed, SimTime::from_secs(5), &mut out);
    let s: Vec<Action> = out.drain().collect();
    let relayed = sends(&s)[0].0.clone();
    assert!(relayed.is_nack());

    // The publisher serves the missing packet from permanent custody.
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(0), n(1), relayed, SimTime::from_secs(5), &mut out);
    let s: Vec<Action> = out.drain().collect();
    let (copy, to) = (sends(&s)[0].0.clone(), sends(&s)[0].1);
    assert!(!copy.is_nack(), "custodian re-injects the data packet");
    assert_eq!(to, n(1));
    assert_eq!(copy.destinations, vec![n(3)]);
    assert_eq!(copy.seq, 0);

    // The copy walks down to the subscriber and is delivered exactly once;
    // a second arrival of the same copy is suppressed, not re-delivered.
    let s = rig.arrive(1, 0, copy, SimTime::from_secs(5));
    let copy = sends(&s)[0].0.clone();
    let s = rig.arrive(2, 1, copy, SimTime::from_secs(5));
    let copy = sends(&s)[0].0.clone();
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(3), n(2), copy.clone(), SimTime::from_secs(5), &mut out);
    let first: Vec<Action> = out.drain().collect();
    assert!(first.iter().any(|a| matches!(a, Action::Deliver { .. })));
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(3), n(2), copy, SimTime::from_secs(6), &mut out);
    let second: Vec<Action> = out.drain().collect();
    assert!(
        second.iter().any(|a| matches!(a, Action::Suppress { .. })),
        "duplicate replay must be suppressed"
    );
    assert!(!second.iter().any(|a| matches!(a, Action::Deliver { .. })));
}

/// Restart replay is delay-cognizant: destinations past their delay budget
/// are not replayed (NACK recovery owns them), live ones re-enter the
/// sending lists. A second crash right after replays identically.
#[test]
fn replay_skips_expired_destinations_and_survives_repeat_crashes() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[
            (2, SimDuration::from_millis(50)),
            (3, SimDuration::from_secs(30)),
        ],
        durable_config(),
        SimDuration::from_secs(60),
    );
    let n = |i: u32| NodeId::new(i);
    let _ = rig.publish(0, &[2, 3], SimTime::ZERO);

    // Crash the publisher at t = 1s: subscriber 2's 50ms budget is long
    // gone, subscriber 3's 30s budget is wide open.
    let mut out = Actions::new();
    rig.strategy
        .on_restart(n(0), SimTime::from_secs(1), &mut out);
    let replays: Vec<Action> = out.drain().collect();
    let s = sends(&replays);
    assert_eq!(s.len(), 1);
    assert_eq!(
        s[0].0.destinations,
        vec![n(3)],
        "expired destination must not be replayed"
    );

    // Crash again mid-replay: the journal entry survived, so the second
    // restart replays the same live destination without panicking.
    let mut out = Actions::new();
    rig.strategy
        .on_restart(n(0), SimTime::from_millis(1500), &mut out);
    let replays: Vec<Action> = out.drain().collect();
    let s = sends(&replays);
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].0.destinations, vec![n(3)]);
    assert!(rig
        .strategy
        .journal()
        .expect("durable custody")
        .entry(n(0), PacketId::new(0))
        .is_some());
}

/// The journal write cost defers forwarding (not custody) by that cost,
/// via a timer in the reserved journal tag space.
#[test]
fn journal_write_cost_defers_forwarding() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[(3, SimDuration::from_millis(500))],
        durable_config(),
        SimDuration::from_secs(60),
    );
    let n = |i: u32| NodeId::new(i);
    let (_, actions) = rig.publish(0, &[3], SimTime::ZERO);
    assert!(
        sends(&actions).is_empty(),
        "forwarding waits for the journal write"
    );
    let t = timers(&actions);
    assert_eq!(t.len(), 1);
    assert!(
        is_journal_tag(t[0].tag),
        "journal timers live in their reserved tag space"
    );
    assert!(
        matches!(actions[0], Action::SetTimer { at, .. } if at == SimTime::ZERO + JOURNAL_WRITE_COST),
        "the write completes after its cost"
    );
    assert!(
        rig.strategy
            .journal()
            .expect("durable custody")
            .entry(n(0), PacketId::new(0))
            .is_some(),
        "custody itself is immediate (write-ahead)"
    );
    let mut out = Actions::new();
    rig.strategy
        .on_timer(n(0), t[0], SimTime::ZERO + JOURNAL_WRITE_COST, &mut out);
    let actions: Vec<Action> = out.drain().collect();
    assert_eq!(sends(&actions).len(), 1, "write completed → forward");
}

/// The per-sequence NACK budget bounds recovery traffic for gaps that can
/// never be filled.
#[test]
fn nack_budget_bounds_sweep_traffic() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[(3, SimDuration::from_millis(500))],
        durable_config(),
        SimDuration::from_millis(1),
    );
    let n = |i: u32| NodeId::new(i);
    // Nothing was ever published into the rig's strategy state — but the
    // workload says seq 0 exists, so the subscriber keeps NACKing it until
    // the budget runs out.
    let mut nack_sends = 0;
    for tick in 0..u64::from(MAX_NACKS_PER_SEQ) + 10 {
        let mut out = Actions::new();
        rig.strategy
            .on_tick(n(3), SimTime::from_secs(5 + tick), &mut out);
        nack_sends += out
            .drain()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
    }
    assert_eq!(
        nack_sends, MAX_NACKS_PER_SEQ as usize,
        "budget caps NACKs per missing sequence"
    );
}

/// The repair mode alone decides whether membership churn touches custody
/// and restarts: a confirmed death hands the dead broker's custody to its
/// upstream, and the restart of a removed broker rejoins it through table
/// repair, under `Incremental` and `GlobalRebuild` but not under `None`.
#[test]
fn repair_mode_gates_custody_handoff_and_restart_repair() {
    for repair in [
        RepairMode::None,
        RepairMode::Incremental,
        RepairMode::GlobalRebuild,
    ] {
        let repairs = repair != RepairMode::None;
        let mut rig = RecoveryRig::new(
            diamond(),
            &[(3, SimDuration::from_millis(500))],
            DcrdConfig {
                repair,
                ..durable_config()
            },
            SimDuration::from_secs(60),
        );
        let n = |i: u32| NodeId::new(i);
        // 0 forwards via 1 (Theorem 1's first choice); 1 takes custody,
        // forwards to 3 and ACKs back, so 0 keeps only its journal entry.
        let actions = rig.publish_written(0, &[3], SimTime::ZERO);
        let (fwd1, to) = (sends(&actions)[0].0.clone(), sends(&actions)[0].1);
        assert_eq!(to, n(1));
        let id = fwd1.id;
        let t = SimTime::from_millis(20);
        assert_eq!(sends(&rig.arrive(1, 0, fwd1.clone(), t))[0].1, n(3));
        let mut out = Actions::new();
        rig.strategy.on_ack(n(0), n(1), &fwd1, t, &mut out);
        assert_eq!(rig.strategy.inflight_states(), 1, "only 1 holds state");

        // 1 is confirmed dead: every mode masks it, only repair modes seize
        // its custody and re-serve it from its upstream's next tick.
        let t = SimTime::from_millis(50);
        rig.strategy
            .on_membership(&[MembershipDelta::ConfirmDead { node: n(1) }], t);
        assert!(rig.strategy.absent_brokers().contains(n(1)), "{repair:?}");
        assert_eq!(
            rig.strategy
                .journal()
                .expect("durable custody")
                .entry(n(1), id)
                .is_none(),
            repairs,
            "{repair:?}: the dead broker's custody is handed off"
        );
        let mut out = Actions::new();
        rig.strategy.on_tick(n(0), t, &mut out);
        let resent: Vec<NodeId> = sends(&out.drain().collect::<Vec<_>>())
            .iter()
            .map(|&(_, to)| to)
            .collect();
        let expected = if repairs { vec![n(2)] } else { vec![] };
        assert_eq!(resent, expected, "{repair:?}: upstream re-serves around 1");

        // 1 restarts: repair modes rejoin it through table repair, `None`
        // leaves it masked until the detector reports a join.
        let version = rig.strategy.table_version();
        let mut out = Actions::new();
        rig.strategy
            .on_restart(n(1), SimTime::from_millis(80), &mut out);
        assert_eq!(
            rig.strategy.absent_brokers().contains(n(1)),
            !repairs,
            "{repair:?}: a removed broker's restart goes through repair"
        );
        assert_eq!(
            rig.strategy.table_version(),
            version + u64::from(repairs),
            "{repair:?}"
        );
        let passes = match repair {
            RepairMode::None => (0, 0),
            RepairMode::Incremental => (2, 0),
            RepairMode::GlobalRebuild => (0, 2),
        };
        assert_eq!(
            (
                rig.strategy.incremental_repairs(),
                rig.strategy.global_rebuilds()
            ),
            passes,
            "{repair:?}: one pass for the death, one for the restart"
        );
    }
}

/// A wire packet may claim any sender. A fresh copy claimed from the
/// receiving broker itself, or from a broker with no link to it, must not
/// make that broker its upstream: with no downstream hop left, broker 2
/// would bounce the packet there, and a debug build would trip the link
/// lookup's `debug_assert!` on the way.
#[test]
fn a_claimed_sender_that_is_no_neighbor_never_becomes_the_upstream() {
    for claimed in [2, 0] {
        let mut h = Harness::new(line4(), &[3], DcrdConfig::default());
        let (published, _) = h.publish(&[3]);
        // The path already names the destination, so broker 2's only
        // candidate hop is excluded and only an upstream bounce is left.
        let mut wire = published.forward(NodeId::new(1), vec![NodeId::new(3)], 7);
        wire.path = PathRecord::from(vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
        let mut out = Actions::new();
        h.strategy.on_packet(
            NodeId::new(2),
            NodeId::new(claimed),
            wire,
            SimTime::from_millis(20),
            &mut out,
        );
        let actions: Vec<Action> = out.drain().collect();
        for (_, to) in sends(&actions) {
            assert!(
                h.topo.edge_between(NodeId::new(2), to).is_some(),
                "claimed sender n{claimed}: broker n2 sent to non-neighbor {to}"
            );
        }
    }
}

/// A membership repair invalidates the tables it affects and builds none.
/// Two back-to-back repairs with no packet between them leave subscriber
/// 3's table stale, and the next packet routed on it builds it once, into
/// the sending list a fresh build over the final mask gives: 0 forwards
/// via 4, the one neighbour left.
#[test]
fn repairs_build_no_table_until_a_packet_reads_it() {
    let config = DcrdConfig {
        repair: RepairMode::Incremental,
        ..DcrdConfig::default()
    };
    let mut h = Harness::new(kite(), &[3], config);
    let (topic, publisher, subscriber) = (TopicId::new(0), h.topo.node(0), h.topo.node(3));
    let now = SimTime::from_secs(1);
    for gone in [1, 2] {
        let node = h.topo.node(gone);
        h.strategy
            .on_membership(&[MembershipDelta::Leave { node }], now);
    }
    assert_eq!(h.strategy.incremental_repairs(), 2);
    assert_eq!(h.strategy.table_builds(), 0, "a repair built a table");

    let jobs = PairJob::all(&h.workload);
    let fresh = compute_tables(
        &h.topo,
        &estimates(&h.topo),
        RunParams::default().m,
        &config,
        h.strategy.absent_brokers(),
        jobs,
    );
    let want = &fresh[0].1;
    let first = want.sending_list(publisher)[0].neighbor;
    assert_eq!(first, h.topo.node(4));
    // A shared read settles a copy and leaves the seat stale.
    let copy = h
        .strategy
        .tables_for(topic, publisher, subscriber)
        .expect("tables");
    assert_eq!(copy.sending_list(publisher), want.sending_list(publisher));
    assert_eq!(h.strategy.table_builds(), 0);

    let (_, actions) = h.publish(&[3]);
    let hops: Vec<NodeId> = sends(&actions).iter().map(|&(_, to)| to).collect();
    assert_eq!(hops, vec![first]);
    assert_eq!(h.strategy.table_builds(), 1, "one build for two repairs");
    let held = h
        .strategy
        .settled_tables_for(topic, publisher, subscriber)
        .expect("tables");
    assert_eq!(held.version(), 3, "setup and two repairs");
    for node in h.topo.nodes() {
        assert_eq!(held.sending_list(node), want.sending_list(node), "{node}");
    }
    assert_eq!(
        h.strategy.table_builds(),
        1,
        "a settled table is built once"
    );
}

/// `table_node_steps` counts the kernel work of every table the strategy
/// built: setup's batch is the sum of its tables' node-steps, a repair and
/// a shared read of a stale table add nothing, and the packet that settles
/// a table adds exactly that table's node-steps, which are a fresh
/// build's.
#[test]
fn a_settle_adds_its_tables_node_steps() {
    let config = DcrdConfig {
        repair: RepairMode::Incremental,
        ..DcrdConfig::default()
    };
    let mut h = Harness::new(kite(), &[3, 4], config);
    let (topic, publisher) = (TopicId::new(0), h.topo.node(0));
    let setup: u64 = [3, 4]
        .iter()
        .map(|&s| {
            let tables = h.strategy.tables_for(topic, publisher, h.topo.node(s));
            tables.expect("tables").node_steps()
        })
        .sum();
    assert!(setup > 0);
    assert_eq!(h.strategy.table_node_steps(), setup);

    let node = h.topo.node(1);
    h.strategy
        .on_membership(&[MembershipDelta::Leave { node }], SimTime::from_secs(1));
    let subscriber = h.topo.node(3);
    let copy = h.strategy.tables_for(topic, publisher, subscriber);
    assert!(copy.is_some_and(|t| t.node_steps() > 0));
    assert_eq!(h.strategy.table_node_steps(), setup, "no table built yet");

    let builds = h.strategy.table_builds();
    h.publish(&[3]);
    assert_eq!(h.strategy.table_builds(), builds + 1, "one table settled");
    let fresh = compute_tables(
        &h.topo,
        &estimates(&h.topo),
        RunParams::default().m,
        &config,
        h.strategy.absent_brokers(),
        PairJob::all(&h.workload),
    );
    let want = fresh
        .iter()
        .find(|(job, _)| job.subscriber == subscriber)
        .map(|(_, t)| t.node_steps());
    let held = h
        .strategy
        .settled_tables_for(topic, publisher, subscriber)
        .map(|t| t.node_steps());
    assert_eq!(held, want);
    assert_eq!(
        Some(h.strategy.table_node_steps()),
        held.map(|steps| setup + steps)
    );
}
