//! Oracle equivalence for incremental membership repair: after an
//! arbitrary scripted churn sequence, the incremental repair path must
//! leave every **present** broker with byte-identical sending lists to a
//! from-scratch `rebuild_tables` on the final topology.
//!
//! (Absent brokers' own table rows are non-normative — the runtime never
//! lets an absent broker act — so the comparison quantifies over present
//! brokers only.)

use std::borrow::Cow;

use dcrd::core::propagation::{compute_tables, PairJob, SubscriberTables};
use dcrd::core::{DcrdConfig, DcrdStrategy, RepairMode};
use dcrd::experiments::runner::{build_topology, build_workload};
use dcrd::experiments::scenario::{Scenario, ScenarioBuilder};
use dcrd::net::estimate::analytic_estimates;
use dcrd::net::failure::{FailureModel, LinkFailureModel, LinkOutageModel};
use dcrd::net::membership::MembershipDelta;
use dcrd::net::topology::ring;
use dcrd::net::{NodeId, Topology};
use dcrd::pubsub::strategy::{RoutingStrategy, RunParams, SetupContext};
use dcrd::pubsub::topic::{Subscription, TopicId};
use dcrd::pubsub::workload::{TopicSpec, Workload};
use dcrd::sim::rng::rng_for;
use dcrd::sim::{SimDuration, SimTime};

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .nodes(14)
        .degree(4)
        .failure_probability(0.05)
        .topics(5)
        .duration_secs(60)
        .repetitions(1)
        .seed(seed)
        .build()
}

/// The topology and workload of [`scenario`]`(seed)`.
fn environment(seed: u64) -> (Topology, Workload) {
    let s = scenario(seed);
    let topo = build_topology(&s, 0);
    let workload = build_workload(&s, &topo, 0);
    (topo, workload)
}

/// Sets up one strategy over the given environment.
fn setup(topo: &Topology, workload: &Workload, config: DcrdConfig) -> DcrdStrategy {
    let estimates = analytic_estimates(topo, 0.05, 1e-4);
    let failure = FailureModel::new(LinkOutageModel::Epoch(LinkFailureModel::new(0.05, 1)), None);
    let ctx = SetupContext {
        topology: topo,
        estimates: &estimates,
        workload,
        failure_oracle: &failure,
        params: RunParams::default(),
    };
    let mut strategy = DcrdStrategy::new(config);
    strategy.setup(&ctx);
    strategy
}

/// The incremental arm and the global-rebuild oracle digest the same
/// scripted churn; every present broker's sending list must match
/// byte-for-byte at the end.
fn assert_oracle_equivalence(
    topo: &Topology,
    workload: &Workload,
    script: impl Fn(&[NodeId]) -> Vec<Vec<MembershipDelta>>,
) {
    // Churn only non-publishers so every topic keeps its source.
    let publishers: Vec<NodeId> = workload.topics().iter().map(|t| t.publisher).collect();
    let churnable: Vec<NodeId> = topo
        .nodes()
        .filter(|node| !publishers.contains(node))
        .collect();
    assert!(
        churnable.len() >= 3,
        "need at least three churnable brokers"
    );
    let batches = script(&churnable);

    let mut incremental = setup(topo, workload, DcrdConfig::churn_hardened());
    let oracle_config = DcrdConfig {
        repair: RepairMode::GlobalRebuild,
        ..DcrdConfig::churn_hardened()
    };
    let mut oracle = setup(topo, workload, oracle_config);

    let mut now = SimTime::from_secs(1);
    for batch in &batches {
        incremental.on_membership(batch, now);
        oracle.on_membership(batch, now);
        now += SimDuration::from_secs(1);
    }

    // The arms agree on who is gone, and only the oracle rebuilt (the
    // counter excludes setup's initial construction).
    assert_eq!(incremental.absent_brokers(), oracle.absent_brokers());
    assert_eq!(incremental.global_rebuilds(), 0, "incremental arm rebuilt");
    assert_eq!(incremental.incremental_repairs() as usize, batches.len());
    assert!(oracle.global_rebuilds() > 0, "oracle never rebuilt");

    let absent = incremental.absent_brokers().clone();
    let mut compared = 0usize;
    for t in workload.topics() {
        for sub in &t.subscriptions {
            let a = incremental.tables_for(t.topic, t.publisher, sub.subscriber);
            let b = oracle.tables_for(t.topic, t.publisher, sub.subscriber);
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (a, b) => {
                    assert_eq!(a.is_some(), b.is_some(), "table existence diverged");
                    continue;
                }
            };
            for node in topo.nodes().filter(|&node| !absent.contains(node)) {
                assert_eq!(
                    a.sending_list(node),
                    b.sending_list(node),
                    "sending list of {node} diverged for {} {} → {}",
                    t.topic,
                    t.publisher,
                    sub.subscriber
                );
                assert_eq!(
                    a.requirement(node).to_bits(),
                    b.requirement(node).to_bits(),
                    "requirement of {node} diverged"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "equivalence check compared nothing");
}

/// Deaths, graceful leaves, a rejoin, interleaved across batches.
#[test]
fn scripted_churn_matches_from_scratch_rebuild() {
    let (topo, workload) = environment(0x0DC2D);
    assert_oracle_equivalence(&topo, &workload, |churnable| {
        let (a, b, c) = (churnable[0], churnable[1], churnable[2]);
        vec![
            vec![MembershipDelta::ConfirmDead { node: a }],
            vec![
                MembershipDelta::Leave { node: b },
                MembershipDelta::Refute {
                    node: c,
                    incarnation: 1,
                },
            ],
            vec![MembershipDelta::Join { node: a }],
            vec![MembershipDelta::ConfirmDead { node: c }],
        ]
    });
}

/// A mass casualty in a single batch: several brokers die at once.
#[test]
fn batched_mass_death_matches_from_scratch_rebuild() {
    let (topo, workload) = environment(99);
    assert_oracle_equivalence(&topo, &workload, |churnable| {
        vec![churnable
            .iter()
            .take(3)
            .map(|&node| MembershipDelta::ConfirmDead { node })
            .collect()]
    });
}

/// Everyone churnable leaves, then everyone comes back: the final state
/// must equal the initial full-membership tables by both routes.
#[test]
fn full_departure_and_return_matches_rebuild() {
    let (topo, workload) = environment(7);
    assert_oracle_equivalence(&topo, &workload, |churnable| {
        vec![
            churnable
                .iter()
                .map(|&node| MembershipDelta::Leave { node })
                .collect(),
            churnable
                .iter()
                .map(|&node| MembershipDelta::Join { node })
                .collect(),
        ]
    });
}

/// Two topics share a publisher: each must be diffed against the tree the
/// repair pass started from, not the one refreshed for its sibling. On a
/// ring of five 10 ms links, both topics run from broker 0 to broker 4 with
/// 15 ms deadlines; once broker 1 dies, broker 2 sits 30 ms from the
/// publisher instead of 20 ms, so its requirement for *both* topics falls
/// from −5 ms to −15 ms.
#[test]
fn topics_sharing_a_publisher_match_from_scratch_rebuild() {
    let topo = ring(5, SimDuration::from_millis(10));
    let topic = |id: u32| TopicSpec {
        topic: TopicId::new(id),
        publisher: topo.node(0),
        interval: SimDuration::from_secs(1),
        offset: SimDuration::ZERO,
        subscriptions: vec![Subscription::new(
            topo.node(4),
            SimDuration::from_millis(15),
        )],
        burst: None,
    };
    let workload = Workload::from_topics(vec![topic(0), topic(1)]);
    let dead = topo.node(1);
    assert_oracle_equivalence(&topo, &workload, |_| {
        vec![vec![MembershipDelta::ConfirmDead { node: dead }]]
    });
}

/// A repair moves each recomputed table's buffers into its job and refills
/// them; the refill must be indistinguishable from a fresh build. Fifty
/// seeded leave/join steps on one strategy: after each, every table the
/// step recomputed equals a fresh `compute_tables` result bit for bit — all
/// of its buffers, so a stale tail left past a list that shrank shows — and
/// every table it kept still matches the fresh build on every present
/// broker (an absent broker's own row is non-normative, see the module
/// docs).
#[test]
fn recycled_tables_match_fresh_builds() {
    let (topo, workload) = environment(0x5EED);
    let config = DcrdConfig::churn_hardened();
    let mut strategy = setup(&topo, &workload, config);
    let estimates = analytic_estimates(&topo, 0.05, 1e-4);
    let publishers: Vec<NodeId> = workload.topics().iter().map(|t| t.publisher).collect();
    let churnable: Vec<NodeId> = topo
        .nodes()
        .filter(|node| !publishers.contains(node))
        .collect();
    let jobs = PairJob::all(&workload);
    let listed = |t: &SubscriberTables| topo.nodes().map(|n| t.sending_list(n).len()).sum();
    let held = |strategy: &DcrdStrategy, job: &PairJob| -> SubscriberTables {
        strategy
            .tables_for(job.topic, job.publisher, job.subscriber)
            .map(Cow::into_owned)
            .unwrap_or_else(|| panic!("{job:?} has no tables"))
    };

    let mut rng = rng_for(0x5EED, "recycled-tables");
    let (mut recomputed, mut kept, mut shrank) = (0, 0, 0);
    let mut now = SimTime::from_secs(1);
    for step in 0..50 {
        let node = churnable[rng.gen_range(0..churnable.len())];
        let delta = if strategy.absent_brokers().contains(node) {
            MembershipDelta::Join { node }
        } else {
            MembershipDelta::Leave { node }
        };
        let listed_before: Vec<usize> = jobs.iter().map(|j| listed(&held(&strategy, j))).collect();
        strategy.on_membership(&[delta], now);
        now += SimDuration::from_secs(1);

        let absent = strategy.absent_brokers().clone();
        let fresh = compute_tables(
            &topo,
            &estimates,
            RunParams::default().m,
            &config,
            &absent,
            jobs.clone(),
        );
        for ((job, mut want), before) in fresh.into_iter().zip(listed_before) {
            let got = held(&strategy, &job);
            if got.version() == strategy.table_version() {
                want.set_version(got.version());
                assert!(
                    got == want,
                    "step {step} ({delta:?}): the recomputed tables of {job:?} differ from a fresh build"
                );
                recomputed += 1;
                shrank += usize::from(listed(&got) < before);
                continue;
            }
            kept += 1;
            for n in topo.nodes().filter(|&n| !absent.contains(n)) {
                assert_eq!(
                    got.sending_list(n),
                    want.sending_list(n),
                    "step {step}: kept tables of {job:?} at {n}"
                );
                assert_eq!(got.params(n), want.params(n), "step {step}: {job:?} at {n}");
                assert_eq!(
                    got.requirement(n).to_bits(),
                    want.requirement(n).to_bits(),
                    "step {step}: {job:?} at {n}"
                );
            }
        }
    }
    println!("{recomputed} tables recomputed ({shrank} with shorter lists), {kept} kept");
    assert!(
        recomputed > 0 && kept > 0,
        "{recomputed} recomputed, {kept} kept"
    );
    assert!(shrank > 0, "no recomputed table's lists shrank");
}
