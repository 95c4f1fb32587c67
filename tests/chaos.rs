//! Chaos acceptance: the online invariant auditor stays clean across the
//! whole chaos sweep, and through a long network partition the paper's
//! router keeps every invariant and issues no invalid action.

use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::experiments::chaos::{chaos_crashes, chaos_gray, chaos_partition};
use dcrd::experiments::runner::{
    build_chaos, build_topology, build_workload, run_scenario, StrategyKind,
};
use dcrd::experiments::scenario::{PartitionSpec, Quality, Scenario, ScenarioBuilder};
use dcrd::net::failure::{FailureModel, LinkFailureModel};
use dcrd::net::loss::LossModel;
use dcrd::pubsub::runtime::{OverlayRuntime, RuntimeConfig};
use dcrd::pubsub::AuditConfig;
use dcrd::sim::SimDuration;

/// The acceptance setup: 20 brokers, a 30 s partition isolating
/// 30 % of them out of every minute.
fn partition_scenario() -> Scenario {
    ScenarioBuilder::new()
        .nodes(20)
        .degree(5)
        .failure_probability(0.0)
        .partition(PartitionSpec {
            fraction: 0.3,
            window_secs: 30,
            period_secs: 60,
        })
        .audit(true)
        .duration_secs(120)
        .repetitions(2)
        .seed(0xC7A05)
        .build()
}

#[test]
fn chaos_sweep_reports_zero_violations() {
    let all = [
        chaos_partition(Quality::Smoke),
        chaos_crashes(Quality::Smoke),
        chaos_gray(Quality::Smoke),
    ];
    let ids: Vec<&str> = all.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(ids, ["chaos-partition", "chaos-crashes", "chaos-gray"]);
    let violations: u64 = all
        .iter()
        .map(|s| s.total(None, |a| a.audit_violations()))
        .sum();
    assert_eq!(
        violations, 0,
        "the invariant auditor must stay clean across the chaos sweep"
    );
    // Every run in every sweep produced traffic (dead wiring would audit
    // clean trivially).
    for series in &all {
        for point in &series.points {
            for agg in &point.strategies {
                assert!(agg.pairs() > 0, "{} produced no traffic", agg.name());
            }
        }
    }
}

/// The whole partition scenario, 120 s and both repetitions, audits
/// clean under the paper's router.
#[test]
fn paper_router_audits_clean_through_a_long_partition() {
    let run = run_scenario(&partition_scenario(), StrategyKind::Dcrd);
    assert!(
        run.pairs() > 0,
        "the partition scenario produced no traffic"
    );
    assert_eq!(
        run.audit_violations(),
        0,
        "the paper's router broke an invariant"
    );
}

#[test]
fn chaos_run_issues_no_invalid_actions() {
    let scenario = partition_scenario();
    let topo = build_topology(&scenario, 0);
    let workload = build_workload(&scenario, &topo, 0);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1))
        .with_chaos(build_chaos(&scenario, 0));
    let duration = SimDuration::from_secs(60);
    let config = RuntimeConfig {
        audit: Some(AuditConfig::for_overlay(scenario.nodes, 64)),
        ..RuntimeConfig::paper(duration, 42)
    };
    let runtime = OverlayRuntime::new(&topo, &workload, failure, LossModel::new(0.0), config);
    let mut strategy = DcrdStrategy::new(DcrdConfig::default());
    let log = runtime.run(&mut strategy);
    assert_eq!(log.invalid_sends, 0);
    assert_eq!(log.invalid_delivers, 0);
    let audit = log.audit.expect("auditor was enabled");
    assert!(audit.is_clean(), "violations: {:?}", audit.violations);
    assert!(audit.events_observed > 0);
}
