//! Deterministic scenario execution and parallel sweeps.
//!
//! Each `(scenario, strategy, repetition)` triple is one fully deterministic
//! simulation: the repetition index derives independent seeds for the
//! topology, the workload, the failure schedule and the runtime's random
//! draws. Strategies being compared at the same repetition see the **same**
//! topology, workload and failures — paired comparison, exactly how the
//! paper plots its curves.

use dcrd_baselines::multipath::multipath;
use dcrd_baselines::oracle::oracle;
use dcrd_baselines::tree::{d_tree, r_tree};
use dcrd_core::{DcrdConfig, DcrdStrategy};
use dcrd_metrics::{AggregateMetrics, RunMetrics};
use dcrd_net::chaos::{ChaosModel, CrashRestartModel, GrayLinkModel, PartitionModel};
use dcrd_net::failure::{
    BurstFailureModel, FailureModel, LinkFailureModel, LinkOutageModel, NodeFailureModel,
};
use dcrd_net::gossip::GossipConfig;
use dcrd_net::loss::LossModel;
use dcrd_net::membership::{BrokerChurnModel, ChurnEvent};
use dcrd_net::topology::{full_mesh, geo_tiered, random_connected, DelayRange};
use dcrd_net::Topology;
use dcrd_pubsub::runtime::{DeliveryLog, Dissemination, OverlayRuntime, RuntimeConfig};
use dcrd_pubsub::strategy::{RoutingStrategy, RunParams};
use dcrd_pubsub::workload::{Workload, WorkloadConfig};
use dcrd_pubsub::AuditConfig;
use dcrd_sim::rng::{derive_seed_indexed, rng_for_indexed};
use dcrd_sim::{par, SimDuration, SimTime};

use crate::scenario::{ControlPlane, Scenario, TopologyKind};

/// The strategies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The paper's contribution (configured by `Scenario::dcrd`).
    Dcrd,
    /// Minimum-hop tree.
    RTree,
    /// Shortest-delay tree.
    DTree,
    /// Failure-aware shortest-delay routing with global knowledge.
    Oracle,
    /// Two pinned paths per subscriber.
    Multipath,
    /// Multipath variant using Bhandari edge-disjoint pairs (ablation; not
    /// part of the paper's legend).
    MultipathDisjoint,
}

impl StrategyKind {
    /// All five strategies in the paper's legend order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Dcrd,
        StrategyKind::RTree,
        StrategyKind::DTree,
        StrategyKind::Oracle,
        StrategyKind::Multipath,
    ];

    /// The paper's legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Dcrd => "DCRD",
            StrategyKind::RTree => "R-Tree",
            StrategyKind::DTree => "D-Tree",
            StrategyKind::Oracle => "ORACLE",
            StrategyKind::Multipath => "Multipath",
            StrategyKind::MultipathDisjoint => "Multipath-ED",
        }
    }

    fn instantiate(self, config: &DcrdConfig) -> Box<dyn RoutingStrategy + Send> {
        match self {
            StrategyKind::Dcrd => Box::new(DcrdStrategy::new(*config)),
            StrategyKind::RTree => Box::new(r_tree()),
            StrategyKind::DTree => Box::new(d_tree()),
            StrategyKind::Oracle => Box::new(oracle()),
            StrategyKind::Multipath => Box::new(multipath()),
            StrategyKind::MultipathDisjoint => {
                Box::new(dcrd_baselines::multipath::multipath_disjoint())
            }
        }
    }
}

/// Builds the deterministic topology of one repetition.
#[must_use]
pub fn build_topology(scenario: &Scenario, rep: u32) -> Topology {
    let mut rng = rng_for_indexed(scenario.seed, "topology", u64::from(rep));
    match scenario.topology {
        TopologyKind::FullMesh => full_mesh(scenario.nodes, DelayRange::PAPER, &mut rng),
        TopologyKind::RandomDegree(d) => {
            random_connected(scenario.nodes, d, DelayRange::PAPER, &mut rng)
        }
        TopologyKind::GeoTiered {
            regions,
            per_region,
        } => geo_tiered(
            regions,
            per_region,
            // Fast intra-region links, slow inter-region gateways: a
            // bimodal delay distribution bracketing the paper's range.
            DelayRange {
                min: SimDuration::from_millis(2),
                max: SimDuration::from_millis(8),
            },
            DelayRange {
                min: SimDuration::from_millis(60),
                max: SimDuration::from_millis(120),
            },
            &mut rng,
        ),
    }
}

/// How often every topic publishes outside a flash crowd: the paper's 1 s.
pub const PUBLISH_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Builds the deterministic workload of one repetition over `topo`.
#[must_use]
pub fn build_workload(scenario: &Scenario, topo: &Topology, rep: u32) -> Workload {
    let mut rng = rng_for_indexed(scenario.seed, "workload", u64::from(rep));
    let config = WorkloadConfig {
        num_topics: scenario.num_topics,
        publish_interval: PUBLISH_INTERVAL,
        ps_range: (0.2, 0.6),
        deadline_factor: scenario.deadline_factor,
        churn: scenario.churn,
        popularity: scenario.popularity,
        burst: scenario.burst,
    };
    Workload::generate(topo, &config, &mut rng)
}

/// Builds the deterministic chaos model of one repetition. Empty (and
/// dropped by [`FailureModel::with_chaos`]) when the scenario sets no chaos
/// knobs.
#[must_use]
pub fn build_chaos(scenario: &Scenario, rep: u32) -> ChaosModel {
    let mut chaos = ChaosModel::none();
    if let Some(p) = scenario.partition {
        chaos = chaos.with_partition(PartitionModel::new(
            p.fraction,
            dcrd_sim::SimDuration::from_secs(p.window_secs),
            dcrd_sim::SimDuration::from_secs(p.period_secs),
            derive_seed_indexed(scenario.seed, "chaos-partition", u64::from(rep)),
        ));
    }
    if let Some(c) = scenario.crashes {
        chaos = chaos.with_crashes(CrashRestartModel::new(
            c.rate,
            c.mean_down_epochs,
            derive_seed_indexed(scenario.seed, "chaos-crashes", u64::from(rep)),
        ));
    }
    if let Some(g) = scenario.gray {
        chaos = chaos.with_gray(GrayLinkModel::new(
            g.fraction,
            g.extra_loss,
            g.delay_factor,
            derive_seed_indexed(scenario.seed, "chaos-gray", u64::from(rep)),
        ));
    }
    chaos
}

/// Builds the deterministic broker-churn schedule of one repetition, if
/// the scenario asks for one. Every publisher and the first subscriber of
/// each topic are protected: each topic keeps a live anchor whose delivery
/// the sweep can meaningfully compare across repair strategies.
#[must_use]
pub fn build_broker_churn(
    scenario: &Scenario,
    workload: &Workload,
    rep: u32,
) -> Option<BrokerChurnModel> {
    let spec = scenario.broker_churn?;
    let horizon = (scenario.duration.as_micros() / 1_000_000).max(6);
    let mut model = BrokerChurnModel::new(
        spec.rate,
        horizon,
        derive_seed_indexed(scenario.seed, "broker-churn", u64::from(rep)),
    );
    for t in workload.topics() {
        model = model.protect(t.publisher);
        if let Some(s) = t.subscriptions.first() {
            model = model.protect(s.subscriber);
        }
    }
    Some(model)
}

/// Restricts every subscription window to its broker's churn presence
/// interval: a subscriber that joins late only expects messages published
/// after it joined, and one that departs stops expecting them at its
/// exit. Without this, messages addressed to a broker scheduled to be
/// absent would count as misses no repair strategy could prevent, and the
/// sweep would measure the schedule instead of the repair path.
#[must_use]
pub fn confine_to_churn(workload: &Workload, churn: &BrokerChurnModel) -> Workload {
    let mut topics = workload.topics().to_vec();
    for topic in &mut topics {
        for sub in &mut topic.subscriptions {
            match churn.event(sub.subscriber) {
                None => {}
                Some(ChurnEvent::Join(e)) => {
                    sub.active_from = sub.active_from.max(SimTime::from_secs(e));
                }
                Some(ChurnEvent::Leave(e)) | Some(ChurnEvent::Death(e)) => {
                    sub.active_until = sub.active_until.min(SimTime::from_secs(e));
                }
            }
        }
    }
    Workload::from_topics(topics)
}

/// Runs one `(scenario, strategy, repetition)` triple.
#[must_use]
pub fn run_once(scenario: &Scenario, kind: StrategyKind, rep: u32) -> RunMetrics {
    let mut strategy = kind.instantiate(&scenario.dcrd);
    RunMetrics::from_log(&simulate(scenario, rep, strategy.as_mut(), false))
}

/// Like [`run_once`] but with trace capture on, returning the run's
/// FNV-1a trace digest alongside the metrics. Determinism gates rerun a
/// triple and require the digests byte-identical.
#[must_use]
pub fn run_traced(scenario: &Scenario, kind: StrategyKind, rep: u32) -> (RunMetrics, u64) {
    let mut strategy = kind.instantiate(&scenario.dcrd);
    let log = simulate(scenario, rep, strategy.as_mut(), true);
    let digest = log.trace.as_ref().map_or(0, |t| t.digest());
    (RunMetrics::from_log(&log), digest)
}

/// Runs repetition `rep` of `scenario` with `strategy` and returns the
/// full delivery log: the one assembly of topology, workload, failures,
/// chaos, broker churn, control plane and auditor from a [`Scenario`].
/// The strategy is borrowed, so a caller can read its counters after the
/// run.
#[must_use]
pub fn simulate(
    scenario: &Scenario,
    rep: u32,
    strategy: &mut (impl RoutingStrategy + ?Sized),
    capture_trace: bool,
) -> DeliveryLog {
    let topo = build_topology(scenario, rep);
    let workload = build_workload(scenario, &topo, rep);
    let broker_churn = build_broker_churn(scenario, &workload, rep);
    let workload = match &broker_churn {
        Some(churn) => confine_to_churn(&workload, churn),
        None => workload,
    };
    let link_seed = derive_seed_indexed(scenario.seed, "failures", u64::from(rep));
    let links = match scenario.burst_mean_epochs {
        None => LinkOutageModel::Epoch(LinkFailureModel::new(scenario.pf, link_seed)),
        Some(mean) => LinkOutageModel::Burst(BurstFailureModel::new(scenario.pf, mean, link_seed)),
    };
    let nodes = (scenario.pn > 0.0).then(|| {
        NodeFailureModel::new(
            scenario.pn,
            derive_seed_indexed(scenario.seed, "node-failures", u64::from(rep)),
        )
    });
    let mut chaos = build_chaos(scenario, rep);
    if let Some(churn) = broker_churn {
        chaos = chaos.with_churn(churn);
    }
    let failure = FailureModel::new(links, nodes).with_chaos(chaos);
    let loss = LossModel::new(scenario.pl);
    let config = RuntimeConfig {
        duration: scenario.duration,
        params: RunParams {
            m: scenario.m,
            ack_timeout_factor: scenario.ack_timeout_factor,
            ..RunParams::default()
        },
        seed: derive_seed_indexed(scenario.seed, "runtime", u64::from(rep)),
        monitoring: scenario.monitoring,
        ack_transit: scenario.ack_transit,
        processing_time: scenario.service_time,
        queue_limit: scenario.queue_limit,
        shed_policy: scenario.shed_policy,
        dissemination: match scenario.control_plane {
            ControlPlane::Oracle => Dissemination::Oracle,
            ControlPlane::Gossip { loss } => Dissemination::Gossip(GossipConfig {
                loss,
                seed: derive_seed_indexed(scenario.seed, "gossip", u64::from(rep)),
                ..GossipConfig::default()
            }),
            ControlPlane::None => Dissemination::None,
        },
        audit: scenario.audit.then(|| {
            let cfg = AuditConfig::for_overlay(scenario.nodes, 64);
            if scenario.audit_sequences {
                cfg.with_sequence_check()
            } else {
                cfg
            }
        }),
        capture_trace,
    };
    OverlayRuntime::new(&topo, &workload, failure, loss, config).run(strategy)
}

/// Runs all repetitions of one strategy and pools them.
#[must_use]
pub fn run_scenario(scenario: &Scenario, kind: StrategyKind) -> AggregateMetrics {
    run_arms(&[(*scenario, kind, kind.label())]).remove(0)
}

/// Runs several strategies on identical repetitions (paired comparison).
#[must_use]
pub fn run_comparison(scenario: &Scenario, kinds: &[StrategyKind]) -> Vec<AggregateMetrics> {
    let arms: Vec<_> = kinds.iter().map(|&k| (*scenario, k, k.label())).collect();
    run_arms(&arms)
}

/// Runs every `(scenario, strategy, label)` arm on all of its repetitions
/// as one parallel batch, and pools each arm's runs in repetition order
/// under its label. Arms on equal scenarios see identical repetitions.
#[must_use]
pub fn run_arms(arms: &[(Scenario, StrategyKind, &str)]) -> Vec<AggregateMetrics> {
    let jobs: Vec<(usize, u32)> = arms
        .iter()
        .enumerate()
        .flat_map(|(a, (scenario, _, _))| (0..scenario.repetitions).map(move |r| (a, r)))
        .collect();
    let results: Vec<(usize, RunMetrics)> = parallel_map(jobs, |(a, rep)| {
        let (scenario, kind, _) = &arms[a];
        (a, run_once(scenario, *kind, rep))
    });
    let mut aggs: Vec<AggregateMetrics> = arms
        .iter()
        .map(|&(_, _, label)| AggregateMetrics::new(label))
        .collect();
    for (a, run) in &results {
        aggs[*a].add(run);
    }
    aggs
}

/// Order-preserving parallel map over a work list, bounded by the host's
/// parallelism: [`dcrd_sim::par::map_init`] without per-worker state. Runs
/// are spread across the workers, so anything a run fans out itself (the
/// DCRD table build) stays on the run's own thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, par::available_workers(), f)
}

/// [`parallel_map`] with an explicit worker count. Results are in item
/// order regardless of `threads`, so any worker count produces identical
/// output — the deterministic-sweep tests pin this down.
pub fn parallel_map_with<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par::map_init(items, threads, &mut Vec::new(), || (), |(), item| f(item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn tiny(pf: f64) -> Scenario {
        ScenarioBuilder::new()
            .nodes(10)
            .full_mesh()
            .failure_probability(pf)
            .topics(4)
            .duration_secs(20)
            .repetitions(2)
            .seed(7)
            .build()
    }

    #[test]
    fn run_once_is_deterministic() {
        let s = tiny(0.05);
        let a = run_once(&s, StrategyKind::Dcrd, 0);
        let b = run_once(&s, StrategyKind::Dcrd, 0);
        assert_eq!(a.delivery_ratio(), b.delivery_ratio());
        assert_eq!(a.packets_per_subscriber(), b.packets_per_subscriber());
        let c = run_once(&s, StrategyKind::Dcrd, 1);
        // Different repetition → different topology → different traffic.
        assert_ne!(a.pairs(), 0);
        assert!(c.pairs() > 0);
    }

    #[test]
    fn comparison_preserves_paper_ordering() {
        let s = tiny(0.08);
        let aggs = run_comparison(&s, &StrategyKind::ALL);
        let by_name = |n: &str| {
            aggs.iter()
                .find(|a| a.name() == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        let dcrd = by_name("DCRD");
        let oracle = by_name("ORACLE");
        let rtree = by_name("R-Tree");
        let dtree = by_name("D-Tree");
        let multipath = by_name("Multipath");
        // The paper's Fig. 2 ordering at high Pf.
        assert!(
            oracle.delivery_ratio() > 0.999,
            "oracle {}",
            oracle.delivery_ratio()
        );
        assert!(dcrd.delivery_ratio() > multipath.delivery_ratio());
        assert!(multipath.delivery_ratio() > dtree.delivery_ratio());
        assert!(rtree.delivery_ratio() > dtree.delivery_ratio());
        // Multipath costs the most traffic; R-Tree the least (mesh).
        assert!(multipath.packets_per_subscriber() > dcrd.packets_per_subscriber());
        assert!((rtree.packets_per_subscriber() - 1.0).abs() < 0.01);
    }

    #[test]
    fn run_scenario_pools_reps() {
        let s = tiny(0.0);
        let agg = run_scenario(&s, StrategyKind::RTree);
        assert_eq!(agg.runs(), 2);
        assert!(agg.pairs() > 0);
        assert!((agg.delivery_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn labeled_runs_rename() {
        let s = tiny(0.0);
        let aggs = run_arms(&[
            (s, StrategyKind::DTree, "D-Tree (m=1)"),
            (s, StrategyKind::DTree, "D-Tree (m=2)"),
        ]);
        assert_eq!(aggs[0].name(), "D-Tree (m=1)");
        assert_eq!(aggs[1].name(), "D-Tree (m=2)");
        // Equal scenarios: the two arms pool identical repetitions.
        assert_eq!(aggs[0].runs(), 2);
        assert_eq!(aggs[0].pairs(), aggs[1].pairs());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<u32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
        let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn sweep_results_identical_across_thread_counts() {
        // The whole experiments pipeline must not depend on scheduling:
        // the same sweep run single-threaded and with a worker pool has to
        // produce byte-identical results.
        let s = tiny(0.06);
        let jobs: Vec<(StrategyKind, u32)> = [StrategyKind::Dcrd, StrategyKind::DTree]
            .into_iter()
            .flat_map(|k| (0..s.repetitions).map(move |r| (k, r)))
            .collect();
        let serial: Vec<RunMetrics> =
            parallel_map_with(jobs.clone(), 1, |(k, rep)| run_once(&s, k, rep));
        let pooled: Vec<RunMetrics> = parallel_map_with(jobs, 4, |(k, rep)| run_once(&s, k, rep));
        assert_eq!(serial, pooled);
        assert_eq!(format!("{serial:?}"), format!("{pooled:?}"));
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(StrategyKind::Dcrd.label(), "DCRD");
        assert_eq!(StrategyKind::MultipathDisjoint.label(), "Multipath-ED");
        assert_eq!(StrategyKind::ALL.len(), 5);
    }

    #[test]
    fn burst_scenarios_run_and_differ_from_iid() {
        let iid = ScenarioBuilder::new()
            .nodes(10)
            .degree(4)
            .failure_probability(0.1)
            .duration_secs(30)
            .repetitions(1)
            .seed(5)
            .build();
        let bursty = ScenarioBuilder::new()
            .nodes(10)
            .degree(4)
            .failure_probability(0.1)
            .bursty_failures(4.0)
            .duration_secs(30)
            .repetitions(1)
            .seed(5)
            .build();
        let a = run_once(&iid, StrategyKind::DTree, 0);
        let b = run_once(&bursty, StrategyKind::DTree, 0);
        // Same marginal rate but a different outage process: the tree's
        // delivery pattern must differ (identical values would mean the
        // burst wiring is dead).
        assert_ne!(a.delivery_ratio(), b.delivery_ratio());
        assert!(b.pairs() > 0);
    }

    #[test]
    fn chaos_scenarios_degrade_delivery_with_a_clean_audit() {
        use crate::scenario::{CrashSpec, GraySpec, PartitionSpec};
        let clean = ScenarioBuilder::new()
            .nodes(12)
            .degree(4)
            .failure_probability(0.0)
            .loss_rate(0.0)
            .audit(true)
            .duration_secs(60)
            .repetitions(1)
            .seed(11)
            .build();
        let chaotic = ScenarioBuilder::new()
            .nodes(12)
            .degree(4)
            .failure_probability(0.0)
            .loss_rate(0.0)
            .partition(PartitionSpec {
                fraction: 0.25,
                window_secs: 10,
                period_secs: 20,
            })
            .crashes(CrashSpec {
                rate: 0.01,
                mean_down_epochs: 2.0,
            })
            .gray_links(GraySpec {
                fraction: 0.2,
                extra_loss: 0.2,
                delay_factor: 2.0,
            })
            .audit(true)
            .duration_secs(60)
            .repetitions(1)
            .seed(11)
            .build();
        let a = run_once(&clean, StrategyKind::Dcrd, 0);
        let b = run_once(&chaotic, StrategyKind::Dcrd, 0);
        assert!((a.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(
            b.delivery_ratio() < a.delivery_ratio(),
            "chaos must cost something: {} vs {}",
            b.delivery_ratio(),
            a.delivery_ratio()
        );
        // The auditor ran on both and found no invariant breaches.
        assert_eq!(a.audit_violations(), 0);
        assert_eq!(b.audit_violations(), 0);
    }

    #[test]
    fn empty_chaos_model_is_dropped() {
        let s = tiny(0.0);
        assert!(build_chaos(&s, 0).is_empty());
    }

    #[test]
    fn broker_churn_protects_publishers_and_anchor_subscribers() {
        use crate::scenario::BrokerChurnSpec;
        let s = ScenarioBuilder::new()
            .nodes(12)
            .degree(4)
            .broker_churn(BrokerChurnSpec { rate: 1.0 })
            .duration_secs(30)
            .repetitions(1)
            .seed(3)
            .build();
        let topo = build_topology(&s, 0);
        let workload = build_workload(&s, &topo, 0);
        let churn = build_broker_churn(&s, &workload, 0).expect("churn spec set");
        for t in workload.topics() {
            assert!(churn.is_protected(t.publisher), "{} churns", t.publisher);
            let anchor = t.subscriptions[0].subscriber;
            assert!(churn.is_protected(anchor), "anchor {anchor} churns");
            assert!(churn.event(t.publisher).is_none());
        }
        assert!(build_broker_churn(&tiny(0.0), &workload, 0).is_none());
    }

    #[test]
    fn confined_windows_sit_inside_broker_presence() {
        use crate::scenario::BrokerChurnSpec;
        // Large overlay, few topics: most brokers are unprotected churners,
        // so some subscription window must get clamped at rate 1.0.
        let s = ScenarioBuilder::new()
            .nodes(24)
            .degree(4)
            .broker_churn(BrokerChurnSpec { rate: 1.0 })
            .topics(3)
            .duration_secs(30)
            .repetitions(1)
            .seed(3)
            .build();
        let topo = build_topology(&s, 0);
        let workload = build_workload(&s, &topo, 0);
        let churn = build_broker_churn(&s, &workload, 0).expect("churn spec set");
        let confined = confine_to_churn(&workload, &churn);
        let mut clamped = 0usize;
        for t in confined.topics() {
            for sub in &t.subscriptions {
                match churn.event(sub.subscriber) {
                    None => {}
                    Some(ChurnEvent::Join(e)) => {
                        assert!(sub.active_from >= SimTime::from_secs(e));
                        clamped += 1;
                    }
                    Some(ChurnEvent::Leave(e)) | Some(ChurnEvent::Death(e)) => {
                        assert!(sub.active_until <= SimTime::from_secs(e));
                        clamped += 1;
                    }
                }
            }
        }
        assert!(clamped > 0, "rate-1.0 churn clamped no windows");
    }

    #[test]
    fn node_failure_scenarios_hurt_delivery() {
        let clean = ScenarioBuilder::new()
            .nodes(12)
            .degree(5)
            .failure_probability(0.0)
            .loss_rate(0.0)
            .duration_secs(30)
            .repetitions(1)
            .seed(6)
            .build();
        let failing = ScenarioBuilder::new()
            .nodes(12)
            .degree(5)
            .failure_probability(0.0)
            .loss_rate(0.0)
            .node_failure_probability(0.1)
            .duration_secs(30)
            .repetitions(1)
            .seed(6)
            .build();
        let a = run_once(&clean, StrategyKind::Dcrd, 0);
        let b = run_once(&failing, StrategyKind::Dcrd, 0);
        assert!((a.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(
            b.delivery_ratio() < a.delivery_ratio(),
            "node failures must cost something: {} vs {}",
            b.delivery_ratio(),
            a.delivery_ratio()
        );
    }
}
