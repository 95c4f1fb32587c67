//! Whole-system determinism: identical seeds reproduce identical results
//! bit-for-bit across every strategy, and distinct seeds decorrelate.

use dcrd::experiments::runner::{run_once, StrategyKind};
use dcrd::experiments::scenario::{Scenario, ScenarioBuilder};

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .nodes(15)
        .degree(5)
        .failure_probability(0.06)
        .duration_secs(40)
        .seed(seed)
        .build()
}

#[test]
fn every_strategy_is_deterministic() {
    for kind in StrategyKind::ALL {
        let a = run_once(&scenario(123), kind, 0);
        let b = run_once(&scenario(123), kind, 0);
        assert_eq!(
            a.delivery_ratio(),
            b.delivery_ratio(),
            "{} delivery not reproducible",
            kind.label()
        );
        assert_eq!(
            a.qos_delivery_ratio(),
            b.qos_delivery_ratio(),
            "{} QoS not reproducible",
            kind.label()
        );
        assert_eq!(
            a.packets_per_subscriber(),
            b.packets_per_subscriber(),
            "{} traffic not reproducible",
            kind.label()
        );
        assert_eq!(a.pairs(), b.pairs());
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run_once(&scenario(1), StrategyKind::Dcrd, 0);
    let b = run_once(&scenario(2), StrategyKind::Dcrd, 0);
    // Topology, workload and failures all differ: the traffic metric is a
    // continuous aggregate and will practically never collide.
    assert_ne!(
        a.packets_per_subscriber(),
        b.packets_per_subscriber(),
        "distinct seeds should not produce identical traffic"
    );
}

#[test]
fn repetitions_differ_within_one_scenario() {
    let s = scenario(7);
    let a = run_once(&s, StrategyKind::Dcrd, 0);
    let b = run_once(&s, StrategyKind::Dcrd, 1);
    assert_ne!(
        (a.pairs(), a.packets_per_subscriber()),
        (b.pairs(), b.packets_per_subscriber()),
        "repetition index must derive fresh topology/workload"
    );
}

#[test]
fn strategies_share_the_environment_at_equal_rep() {
    // Paired comparison guarantee: every strategy sees the same number of
    // (message, subscriber) pairs at the same repetition.
    let s = scenario(9);
    let pairs: Vec<u64> = StrategyKind::ALL
        .iter()
        .map(|&k| run_once(&s, k, 0).pairs())
        .collect();
    for w in pairs.windows(2) {
        assert_eq!(w[0], w[1], "strategies must see identical workloads");
    }
}

/// Same seed, same chaos schedule, twice: the **full transmission traces**
/// must be bit-identical, not just the aggregate metrics. This is the
/// regression test backing the analyzer's determinism lints (DET001-003):
/// a stray `HashMap` iteration or ambient RNG anywhere in the hot path
/// shows up here as a digest mismatch long before it skews a figure.
#[test]
fn chaos_trace_digests_are_identical_across_reruns() {
    use dcrd::core::DcrdStrategy;
    use dcrd::experiments::runner::{build_chaos, build_topology, build_workload};
    use dcrd::experiments::scenario::{CrashSpec, GraySpec, PartitionSpec};
    use dcrd::net::failure::{FailureModel, LinkFailureModel, LinkOutageModel};
    use dcrd::net::loss::LossModel;
    use dcrd::pubsub::runtime::{OverlayRuntime, RuntimeConfig};
    use dcrd::sim::SimDuration;

    let scenario = ScenarioBuilder::new()
        .nodes(15)
        .degree(5)
        .failure_probability(0.02)
        .partition(PartitionSpec {
            fraction: 0.3,
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
        .duration_secs(40)
        .seed(77)
        .build();

    let traced_digest = || {
        let topo = build_topology(&scenario, 0);
        let workload = build_workload(&scenario, &topo, 0);
        let links = LinkOutageModel::Epoch(LinkFailureModel::new(scenario.pf, 0xC4A0));
        let failure = FailureModel::new(links, None).with_chaos(build_chaos(&scenario, 0));
        let mut config = RuntimeConfig::paper(SimDuration::from_secs(40), 77);
        config.capture_trace = true;
        let runtime =
            OverlayRuntime::new(&topo, &workload, failure, LossModel::PAPER_DEFAULT, config);
        let mut strategy = DcrdStrategy::new(scenario.dcrd);
        let log = runtime.run(&mut strategy);
        let trace = log.trace.as_ref().expect("trace captured");
        assert!(!trace.is_empty(), "chaos run produced no events");
        trace.digest()
    };

    let first = traced_digest();
    let second = traced_digest();
    assert_eq!(
        first, second,
        "same-seed chaos runs diverged: event traces are not deterministic"
    );
}

#[test]
fn chaos_models_are_deterministic() {
    use dcrd::experiments::scenario::{CrashSpec, GraySpec, PartitionSpec};
    let chaos_scenario = |seed: u64| {
        ScenarioBuilder::new()
            .nodes(15)
            .degree(5)
            .failure_probability(0.02)
            .partition(PartitionSpec {
                fraction: 0.3,
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
            .duration_secs(40)
            .seed(seed)
            .build()
    };
    for kind in [StrategyKind::Dcrd, StrategyKind::RTree] {
        let a = run_once(&chaos_scenario(77), kind, 0);
        let b = run_once(&chaos_scenario(77), kind, 0);
        assert_eq!(
            a.delivery_ratio(),
            b.delivery_ratio(),
            "{} delivery not reproducible under chaos",
            kind.label()
        );
        assert_eq!(
            a.qos_delivery_ratio(),
            b.qos_delivery_ratio(),
            "{} QoS not reproducible under chaos",
            kind.label()
        );
        assert_eq!(
            a.packets_per_subscriber(),
            b.packets_per_subscriber(),
            "{} traffic not reproducible under chaos",
            kind.label()
        );
        assert_eq!(a.audit_violations(), b.audit_violations());
    }
    let a = run_once(&chaos_scenario(77), StrategyKind::Dcrd, 0);
    let c = run_once(&chaos_scenario(78), StrategyKind::Dcrd, 0);
    assert_ne!(
        a.packets_per_subscriber(),
        c.packets_per_subscriber(),
        "distinct seeds must re-draw the chaos schedule"
    );
}
