//! Trace-based invariants of the forwarding protocols: loop bounds, path
//! validity and traffic accounting, checked on full captured traces.

use std::collections::BTreeSet;

use dcrd::baselines::multipath::multipath;
use dcrd::baselines::oracle::oracle;
use dcrd::baselines::tree::{d_tree, r_tree};
use dcrd::core::router::MAX_PATH_FACTOR;
use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::experiments::runner::{build_topology, build_workload};
use dcrd::experiments::scenario::{Scenario, ScenarioBuilder};
use dcrd::net::failure::{Cause, FailureModel, Fate, LinkFailureModel};
use dcrd::net::loss::LossModel;
use dcrd::pubsub::runtime::{DeliveryLog, OverlayRuntime, RuntimeConfig};
use dcrd::pubsub::strategy::RoutingStrategy;
use dcrd::pubsub::trace::TraceEvent;
use dcrd::sim::SimDuration;

fn traced_run(strategy: &mut (impl RoutingStrategy + ?Sized), pf: f64, seed: u64) -> DeliveryLog {
    let scenario: Scenario = ScenarioBuilder::new()
        .nodes(15)
        .degree(5)
        .failure_probability(pf)
        .duration_secs(40)
        .seed(seed)
        .build();
    let topo = build_topology(&scenario, 0);
    let workload = build_workload(&scenario, &topo, 0);
    let failure = FailureModel::links_only(LinkFailureModel::new(pf, seed ^ 0xF00));
    let mut config = RuntimeConfig::paper(SimDuration::from_secs(40), seed);
    config.capture_trace = true;
    OverlayRuntime::new(&topo, &workload, failure, LossModel::PAPER_DEFAULT, config).run(strategy)
}

/// Every transmission recorded in the trace matches the traffic counter,
/// and the causes of the blocked and lost ones add up to the counters.
#[test]
fn trace_matches_traffic_counters() {
    let log = traced_run(&mut DcrdStrategy::new(DcrdConfig::default()), 0.06, 1);
    let trace = log.trace.as_ref().expect("trace captured");
    let (arrived, blocked, lost) = trace.outcome_counts();
    assert_eq!(arrived + blocked + lost, log.data_sends);
    assert_eq!(blocked, log.sends_blocked);
    assert_eq!(lost, log.sends_lost);
    assert!(arrived > 0);

    let (mut blocked_by, mut lost_by) = (Vec::new(), Vec::new());
    for e in trace.events() {
        match e {
            TraceEvent::Send {
                fate: Fate::Blocked(cause),
                ..
            } => blocked_by.push(*cause),
            TraceEvent::Send {
                fate: Fate::Lost(cause),
                ..
            } => lost_by.push(*cause),
            _ => {}
        }
    }
    assert_eq!(blocked_by.len() as u64, log.sends_blocked);
    assert_eq!(lost_by.len() as u64, log.sends_lost);
    // Link outages block and `Pl` loses; this run has no other process.
    assert!(!blocked_by.is_empty() && blocked_by.iter().all(|&c| c == Cause::LinkDown));
    assert!(!lost_by.is_empty() && lost_by.iter().all(|&c| c == Cause::Loss));
}

/// DCRD never develops *unbounded* forwarding loops. Re-probing a blocked
/// link while waiting out a failure epoch is designed behavior (Algorithm 2
/// keeps trying until the destination is reached — that is why delivery
/// approaches 100%), but the packet's path budget (`MAX_PATH_FACTOR ×
/// nodes`) must cap the total wandering. That the budget binds at exactly
/// that length is pinned by `router_script`'s
/// `path_budget_gives_up_at_the_limit_and_forwards_below_it`.
#[test]
fn dcrd_directed_edge_uses_stay_bounded() {
    let log = traced_run(&mut DcrdStrategy::new(DcrdConfig::default()), 0.1, 2);
    let trace = log.trace.as_ref().expect("trace captured");
    let max_uses = trace.max_directed_edge_uses() as usize;
    let budget = MAX_PATH_FACTOR * 15; // nodes in traced_run
    assert!(
        max_uses <= budget,
        "a message crossed one directed link {max_uses} times — beyond the path budget {budget}"
    );
}

/// The tree baselines send each message over each directed link at most
/// once when `m = 1` (no rerouting, no duplication).
#[test]
fn trees_never_reuse_a_directed_edge() {
    for strategy in [r_tree(), d_tree()] {
        let mut s = strategy;
        let log = traced_run(&mut s, 0.08, 3);
        let trace = log.trace.as_ref().expect("trace captured");
        assert_eq!(
            trace.max_directed_edge_uses(),
            1,
            "{} must be loop-free and duplication-free",
            s.name()
        );
    }
}

/// Multipath sends exactly two copies per subscriber, so with a single
/// subscriber per topic a message crosses any directed link at most twice
/// (once per pinned route).
#[test]
fn multipath_edge_reuse_bounded_by_two_per_subscriber() {
    use dcrd::pubsub::topic::{Subscription, TopicId};
    use dcrd::pubsub::workload::{TopicSpec, Workload};

    let scenario: Scenario = ScenarioBuilder::new()
        .nodes(15)
        .degree(5)
        .failure_probability(0.08)
        .duration_secs(40)
        .seed(4)
        .build();
    let topo = build_topology(&scenario, 0);
    // One subscriber per topic: the per-(message, subscriber) bound becomes
    // a per-message bound the trace can check.
    let workload = Workload::from_topics(
        (0..6u32)
            .map(|i| TopicSpec {
                topic: TopicId::new(i),
                publisher: topo.node(i as usize),
                interval: SimDuration::from_secs(1),
                offset: SimDuration::from_millis(u64::from(i) * 100),
                subscriptions: vec![Subscription::new(
                    topo.node(14 - i as usize),
                    SimDuration::from_millis(300),
                )],
                burst: None,
            })
            .collect(),
    );
    let failure = FailureModel::links_only(LinkFailureModel::new(0.08, 0xF04));
    let mut config = RuntimeConfig::paper(SimDuration::from_secs(40), 4);
    config.capture_trace = true;
    let mut s = multipath();
    let log = OverlayRuntime::new(&topo, &workload, failure, LossModel::PAPER_DEFAULT, config)
        .run(&mut s);
    let trace = log.trace.as_ref().expect("trace captured");
    assert!(
        trace.max_directed_edge_uses() <= 2,
        "multipath reused a directed link {} times for one message",
        trace.max_directed_edge_uses()
    );
}

/// Every delivery recorded in the trace belongs to a real expectation and
/// happened no earlier than its publish time. The trace also records
/// duplicate deliveries: the earliest one per pair is the delivery the log
/// marks, and the later ones add up to the duplicate counter.
#[test]
fn deliveries_are_causally_valid() {
    let log = traced_run(&mut oracle(), 0.06, 5);
    let trace = log.trace.as_ref().expect("trace captured");
    let mut seen = BTreeSet::new();
    let mut duplicates = 0;
    for e in trace.events() {
        if let TraceEvent::Deliver { at, node, packet } = *e {
            let exp = log
                .expectation(packet, node)
                .expect("delivery to a non-subscriber recorded");
            assert!(at >= exp.published, "delivery before publish");
            if seen.insert((packet, node)) {
                assert_eq!(exp.delivered.expect("expectation marked"), at);
            } else {
                duplicates += 1;
            }
        }
    }
    assert_eq!(duplicates, log.duplicate_deliveries);
    let checked = seen.len();
    assert!(
        checked > 100,
        "expected plenty of deliveries, saw {checked}"
    );
}

/// Traces are off by default — no memory cost unless requested.
#[test]
fn trace_capture_is_opt_in() {
    let scenario: Scenario = ScenarioBuilder::new()
        .nodes(6)
        .full_mesh()
        .duration_secs(5)
        .seed(6)
        .build();
    let topo = build_topology(&scenario, 0);
    let workload = build_workload(&scenario, &topo, 0);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
    let config = RuntimeConfig::paper(SimDuration::from_secs(5), 1);
    let log = OverlayRuntime::new(&topo, &workload, failure, LossModel::PAPER_DEFAULT, config)
        .run(&mut DcrdStrategy::new(DcrdConfig::default()));
    assert!(log.trace.is_none());
}
