//! Scripted white-box tests of the DCRD router: drive the strategy's
//! callbacks directly (no simulator) and inspect the exact actions it
//! emits, pinning Algorithm 2's per-step behavior.

use dcrd_core::{DcrdConfig, DcrdStrategy, DurabilityMode, RecoveryConfig};
use dcrd_net::estimate::analytic_estimates;
use dcrd_net::failure::{FailureModel, LinkFailureModel};
use dcrd_net::graph::TopologyBuilder;
use dcrd_net::{NodeId, NodeList, Topology};
use dcrd_pubsub::packet::{Packet, PacketId};
use dcrd_pubsub::strategy::{Action, Actions, RoutingStrategy, RunParams, SetupContext, TimerKey};
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
        let estimates = analytic_estimates(&harness.topo, 0.05, 0.0);
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
    let ctx = SetupContext {
        topology: &h.topo,
        estimates: &estimates,
        workload: &h.workload,
        failure_oracle: &failure,
        params: RunParams {
            m: 2,
            ack_timeout_factor: 1.0,
            ..RunParams::default()
        },
    };
    h.strategy.setup(&ctx);

    let (_, actions) = h.publish(&[3]);
    let key = timers(&actions)[0];
    assert_eq!(sends(&actions)[0].1, NodeId::new(1));

    // First timeout: retransmission to the SAME neighbor, same tag.
    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(25), &mut out);
    let retry: Vec<Action> = out.drain().collect();
    assert_eq!(sends(&retry)[0].1, NodeId::new(1), "m=2 retransmits first");
    assert_eq!(timers(&retry)[0], key, "retransmission keeps the tag");

    // Second timeout: switch to the alternative.
    let mut out = Actions::new();
    h.strategy
        .on_timer(NodeId::new(0), key, SimTime::from_millis(50), &mut out);
    let failover: Vec<Action> = out.drain().collect();
    assert_eq!(sends(&failover)[0].1, NodeId::new(2));
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
}

fn durable_config() -> DcrdConfig {
    DcrdConfig {
        durability: DurabilityMode::Durable { write_cost_ms: 0 },
        recovery: Some(RecoveryConfig::default()),
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
    let (_, actions) = rig.publish(0, &[3], SimTime::ZERO);
    let (fwd1, _) = {
        let s = sends(&actions);
        (s[0].0.clone(), s[0].1)
    };
    let id = fwd1.id;
    let n = |i: u32| NodeId::new(i);
    assert!(rig.strategy.journal().entry(n(0), id).is_some());

    // 1 accepts (journals) and forwards; 0's ACK releases nothing at 0 yet
    // because the publisher's custody is permanent.
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(1), n(0), fwd1.clone(), t, &mut out);
    let fwd2 = sends(&out.drain().collect::<Vec<_>>())[0].0.clone();
    assert!(rig.strategy.journal().entry(n(1), id).is_some());
    let mut out = Actions::new();
    rig.strategy.on_ack(n(0), n(1), &fwd1, t, &mut out);
    assert!(
        rig.strategy.journal().entry(n(0), id).is_some(),
        "publisher custody is permanent"
    );

    // 2 accepts and forwards to the subscriber; the ACK chain releases the
    // intermediate brokers' custody.
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(2), n(1), fwd2.clone(), t, &mut out);
    let fwd3 = sends(&out.drain().collect::<Vec<_>>())[0].0.clone();
    let mut out = Actions::new();
    rig.strategy.on_ack(n(1), n(2), &fwd2, t, &mut out);
    assert!(
        rig.strategy.journal().entry(n(1), id).is_none(),
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
    assert!(rig.strategy.journal().entry(n(2), id).is_none());
    assert_eq!(
        rig.strategy.journal().len(),
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
    let (_, actions) = rig.publish(0, &[3], SimTime::ZERO);
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
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(1), n(0), copy, SimTime::from_secs(5), &mut out);
    let s: Vec<Action> = out.drain().collect();
    let copy = sends(&s)[0].0.clone();
    let mut out = Actions::new();
    rig.strategy
        .on_packet(n(2), n(1), copy, SimTime::from_secs(5), &mut out);
    let s: Vec<Action> = out.drain().collect();
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
        .entry(n(0), PacketId::new(0))
        .is_some());
}

/// A nonzero journal write cost defers forwarding (not custody) by that
/// cost, via a timer in the reserved journal tag space.
#[test]
fn journal_write_cost_defers_forwarding() {
    let topo = line4();
    let mut rig = RecoveryRig::new(
        topo,
        &[(3, SimDuration::from_millis(500))],
        DcrdConfig {
            durability: DurabilityMode::Durable { write_cost_ms: 25 },
            recovery: Some(RecoveryConfig::default()),
            ..DcrdConfig::default()
        },
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
        t[0].tag >= 1 << 62 && t[0].tag < 1 << 63,
        "journal timers live in their reserved tag space"
    );
    assert!(
        rig.strategy
            .journal()
            .entry(n(0), PacketId::new(0))
            .is_some(),
        "custody itself is immediate (write-ahead)"
    );
    let mut out = Actions::new();
    rig.strategy
        .on_timer(n(0), t[0], SimTime::from_millis(25), &mut out);
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
        DcrdConfig {
            durability: DurabilityMode::Durable { write_cost_ms: 0 },
            recovery: Some(RecoveryConfig {
                max_nacks_per_seq: 3,
                ..RecoveryConfig::default()
            }),
            ..DcrdConfig::default()
        },
        SimDuration::from_millis(1),
    );
    let n = |i: u32| NodeId::new(i);
    // Nothing was ever published into the rig's strategy state — but the
    // workload says seq 0 exists, so the subscriber keeps NACKing it until
    // the budget runs out.
    let mut nack_sends = 0;
    for tick in 0..10u64 {
        let mut out = Actions::new();
        rig.strategy
            .on_tick(n(3), SimTime::from_secs(5 + tick), &mut out);
        nack_sends += out
            .drain()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
    }
    assert_eq!(nack_sends, 3, "budget caps NACKs per missing sequence");
}
