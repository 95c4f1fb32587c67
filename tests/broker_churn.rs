//! End-to-end broker-churn survival: brokers join, leave and die mid-run
//! while the churn-hardened control plane (SWIM detection → table
//! repair → custody handoff) keeps delivering.
//!
//! The unit layers pin the detector and repair mechanics; these tests run
//! the whole stack and check the promises the churn design makes:
//!
//! * **recovery**: after the join/leave burst settles (plus the detector's
//!   suspicion window), delivery of freshly published messages is back to
//!   ≥ 0.99;
//! * **membership repair alone**: the whole run is absorbed by the
//!   repairs membership deltas trigger — every table version after
//!   setup's is one membership pass — and at the end every subscription's
//!   tables equal a fresh build over the final absent set;
//! * **determinism**: the same seed reproduces a bit-identical
//!   transmission trace across two runs.

use dcrd::core::propagation::{compute_tables, PairJob};
use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::experiments::runner::{build_topology, build_workload, simulate};
use dcrd::experiments::scenario::{BrokerChurnSpec, Scenario, ScenarioBuilder};
use dcrd::net::estimate::analytic_estimates;
use dcrd::pubsub::runtime::DeliveryLog;
use dcrd::sim::SimTime;

/// Clean-link overlay with relay brokers: churn is the only disturbance.
/// 60 s horizon → joins land in epochs [1, 20), departures in [20, 40),
/// and [40, 60) is the recovery window the acceptance test measures.
fn churn_scenario(rate: f64, seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .nodes(12)
        .degree(4)
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(4)
        .duration_secs(60)
        .repetitions(1)
        .audit(true)
        .broker_churn(BrokerChurnSpec { rate })
        .dcrd(DcrdConfig::churn_hardened())
        .seed(seed)
        .build()
}

/// Runs repetition 0 through `runner::simulate`, returning the full
/// delivery log and the strategy for counter inspection.
fn run_with_log(scenario: &Scenario, capture_trace: bool) -> (DeliveryLog, DcrdStrategy) {
    let mut strategy = DcrdStrategy::new(scenario.dcrd);
    let log = simulate(scenario, 0, &mut strategy, capture_trace);
    (log, strategy)
}

/// Every version after setup's is one membership pass, and every present
/// broker's sending list, `⟨d, r⟩` and requirement in every subscription's
/// tables match a fresh build over the final absent set and the run's
/// estimates: the clean links' analytic ones, which no monitor pass
/// replaces.
fn assert_repaired_to_a_fresh_build(scenario: &Scenario, strategy: &DcrdStrategy) {
    assert_eq!(strategy.table_version(), 1 + strategy.incremental_repairs());
    let topo = build_topology(scenario, 0);
    let workload = build_workload(scenario, &topo, 0);
    let absent = strategy.absent_brokers();
    let fresh = compute_tables(
        &topo,
        &analytic_estimates(&topo, scenario.pf, scenario.pl),
        scenario.m,
        &scenario.dcrd,
        absent,
        PairJob::all(&workload),
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

/// Acceptance: after the burst window and the detector's suspicion lag
/// (departures end at epoch 40, suspicion window 3 epochs, +2 slack),
/// delivery of freshly published messages recovers to ≥ 0.99 — and the
/// auditor saw no deliveries to departed brokers or routes through dead
/// ones anywhere in the run.
#[test]
fn delivery_recovers_after_churn_burst() {
    let scenario = churn_scenario(0.3, 0x0DC2D);
    let (log, strategy) = run_with_log(&scenario, false);
    let audit = log.audit.as_ref().expect("audit armed");
    assert_eq!(
        audit.total_violations, 0,
        "churn invariants violated: {:?}",
        audit.violations
    );
    let recovery_start = SimTime::from_secs(45);
    let (mut expected, mut delivered) = (0u64, 0u64);
    for (_, e) in log.expectations() {
        if e.published >= recovery_start {
            expected += 1;
            if e.delivered.is_some() {
                delivered += 1;
            }
        }
    }
    assert!(expected > 0, "no messages published in the recovery window");
    let ratio = delivered as f64 / expected as f64;
    assert!(
        ratio >= 0.99,
        "post-burst delivery only {ratio:.4} ({delivered}/{expected})"
    );
    // The run survived on membership repair alone.
    assert_repaired_to_a_fresh_build(&scenario, &strategy);
}

/// Saturated churn: every unprotected broker joins, leaves or dies. The
/// whole upheaval is absorbed by membership repairs (every post-setup
/// table version is one), departures leave a non-empty absent mask, and
/// confirmed deaths hand their custody off instead of stranding it.
#[test]
fn saturated_churn_needs_no_global_rebuild() {
    let scenario = churn_scenario(1.0, 7);
    let (log, strategy) = run_with_log(&scenario, false);
    assert_repaired_to_a_fresh_build(&scenario, &strategy);
    assert!(
        strategy.incremental_repairs() > 0,
        "rate-1.0 churn triggered no membership repair"
    );
    assert!(
        !strategy.absent_brokers().is_empty(),
        "every churner was a joiner — departures expected"
    );
    let audit = log.audit.as_ref().expect("audit armed");
    assert_eq!(audit.total_violations, 0);
}

/// Same seed, same churn schedule, twice: the full transmission traces
/// must be bit-identical, not just the aggregate metrics. This extends
/// the chaos determinism gate to the membership layer (detector, repair,
/// handoff).
#[test]
fn churn_trace_digests_are_identical_across_reruns() {
    let scenario = churn_scenario(0.3, 77);
    let digest = || {
        let (log, _) = run_with_log(&scenario, true);
        let trace = log.trace.as_ref().expect("trace captured");
        assert!(!trace.is_empty(), "churn run produced no events");
        trace.digest()
    };
    let first = digest();
    let second = digest();
    assert_eq!(
        first, second,
        "same-seed churn runs diverged: membership repair is not deterministic"
    );
}
