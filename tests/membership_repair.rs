//! Membership repair against an independent reference: after an arbitrary
//! scripted churn sequence, the router must leave every **present** broker
//! with the sending list, `⟨d, r⟩` and requirement that a fresh
//! `compute_tables` over the final absent set gives, bit for bit.
//!
//! (Absent brokers' own table rows are non-normative — the runtime never
//! lets an absent broker act — so the comparison quantifies over present
//! brokers only.)

use dcrd::core::propagation::{compute_tables, PairJob, SubscriberTables};
use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::experiments::runner::{build_topology, build_workload};
use dcrd::experiments::scenario::{Scenario, ScenarioBuilder};
use dcrd::net::estimate::{analytic_estimates, LinkEstimates};
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

/// The link estimates every strategy here is set up with.
fn estimates(topo: &Topology) -> LinkEstimates {
    analytic_estimates(topo, 0.05, 1e-4)
}

/// Sets up one strategy over the given environment.
fn setup(topo: &Topology, workload: &Workload, config: DcrdConfig) -> DcrdStrategy {
    let estimates = estimates(topo);
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

/// The churn-hardened router digests the scripted churn; every present
/// broker's sending list, `⟨d, r⟩` and requirement must then match a fresh
/// build over the final absent set.
fn assert_matches_fresh_build(
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

    let config = DcrdConfig::churn_hardened();
    let mut strategy = setup(topo, workload, config);
    let mut now = SimTime::from_secs(1);
    for batch in &batches {
        strategy.on_membership(batch, now);
        now += SimDuration::from_secs(1);
    }
    // One repair pass per batch; no fresh estimates arrived.
    assert_eq!(strategy.incremental_repairs() as usize, batches.len());
    assert_eq!(strategy.global_rebuilds(), 0);

    let absent = strategy.absent_brokers().clone();
    let fresh = compute_tables(
        topo,
        &estimates(topo),
        RunParams::default().m,
        &config,
        &absent,
        PairJob::all(workload),
    );
    let mut compared = 0usize;
    for (job, want) in &fresh {
        let Some(got) = strategy.tables_for(job.topic, job.publisher, job.subscriber) else {
            panic!("{job:?} has no tables");
        };
        for node in topo.nodes().filter(|&node| !absent.contains(node)) {
            assert_eq!(
                got.sending_list(node),
                want.sending_list(node),
                "sending list of {node} diverged for {job:?}"
            );
            assert_eq!(got.params(node), want.params(node), "{job:?} at {node}");
            assert_eq!(
                got.requirement(node).to_bits(),
                want.requirement(node).to_bits(),
                "requirement of {node} diverged for {job:?}"
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "equivalence check compared nothing");
}

/// Deaths, graceful leaves, a rejoin, interleaved across batches.
#[test]
fn scripted_churn_matches_from_scratch_rebuild() {
    let (topo, workload) = environment(0x0DC2D);
    assert_matches_fresh_build(&topo, &workload, |churnable| {
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
    assert_matches_fresh_build(&topo, &workload, |churnable| {
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
    assert_matches_fresh_build(&topo, &workload, |churnable| {
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

/// Two topics share a publisher, and a death moves both topics' tables. On
/// a ring of five 10 ms links, both topics run from broker 0 to broker 4 with
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
    assert_matches_fresh_build(&topo, &workload, |_| {
        vec![vec![MembershipDelta::ConfirmDead { node: dead }]]
    });
}

/// A repair refills each table's buffers in place at its first read; the
/// refill must be indistinguishable from a fresh build. Fifty seeded
/// leave/join steps on one strategy: after each, every table equals a
/// fresh `compute_tables` result bit for bit — all of its buffers, so a
/// stale tail left past a list that shrank shows.
#[test]
fn recycled_tables_match_fresh_builds() {
    let (topo, workload) = environment(0x5EED);
    let config = DcrdConfig::churn_hardened();
    let mut strategy = setup(&topo, &workload, config);
    let publishers: Vec<NodeId> = workload.topics().iter().map(|t| t.publisher).collect();
    let churnable: Vec<NodeId> = topo
        .nodes()
        .filter(|node| !publishers.contains(node))
        .collect();
    let jobs = PairJob::all(&workload);
    let listed =
        |t: &SubscriberTables| -> usize { topo.nodes().map(|n| t.sending_list(n).len()).sum() };

    let mut rng = rng_for(0x5EED, "recycled-tables");
    let mut shrank = 0;
    let mut now = SimTime::from_secs(1);
    for step in 0..50 {
        let node = churnable[rng.gen_range(0..churnable.len())];
        let delta = if strategy.absent_brokers().contains(node) {
            MembershipDelta::Join { node }
        } else {
            MembershipDelta::Leave { node }
        };
        let listed_before: Vec<usize> = jobs
            .iter()
            .map(|j| {
                let held = strategy.settled_tables_for(j.topic, j.publisher, j.subscriber);
                held.map_or(0, listed)
            })
            .collect();
        strategy.on_membership(&[delta], now);
        now += SimDuration::from_secs(1);

        let fresh = compute_tables(
            &topo,
            &estimates(&topo),
            RunParams::default().m,
            &config,
            strategy.absent_brokers(),
            jobs.clone(),
        );
        let builds = strategy.table_builds();
        for ((job, want), before) in fresh.into_iter().zip(listed_before) {
            let got = strategy
                .settled_tables_for(job.topic, job.publisher, job.subscriber)
                .unwrap_or_else(|| panic!("{job:?} has no tables"));
            assert!(
                *got == want,
                "step {step} ({delta:?}): the rebuilt tables of {job:?} differ from a fresh build"
            );
            shrank += usize::from(listed(got) < before);
        }
        assert_eq!(
            strategy.table_builds() - builds,
            jobs.len() as u64,
            "step {step}: every table is rebuilt in place at its first read"
        );
    }
    println!("{shrank} rebuilt tables with shorter lists");
    assert!(shrank > 0, "no rebuilt table's lists shrank");
}
