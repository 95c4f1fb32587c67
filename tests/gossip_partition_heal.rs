//! Partition-heal acceptance for the gossip control plane: membership
//! deltas produced while the overlay is partitioned converge after the
//! cut heals, get applied through membership repair only, and delivery
//! recovers — while a no-dissemination control on the same schedule does
//! not.
//!
//! The schedule: a 60 s clean-link run where a quarter of the brokers are
//! cut off for the first 35 s (one partition window per run), while
//! broker churn lands joins in [1, 20) and departures in [20, 40). The
//! detector keeps producing deltas throughout; under gossip they can only
//! converge once the cut heals at 35 s and anti-entropy reconciles the
//! two sides. The acceptance window [47, 60) starts after the heal, the
//! last departures, the detector's suspicion lag and a few gossip rounds.

use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::experiments::runner::simulate;
use dcrd::experiments::scenario::{
    BrokerChurnSpec, ControlPlane, PartitionSpec, Scenario, ScenarioBuilder,
};
use dcrd::pubsub::runtime::DeliveryLog;
use dcrd::sim::SimTime;

/// One partition window covering the whole churn burst, healed with 25 s
/// of run left to recover in.
fn heal_scenario(plane: ControlPlane, seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .nodes(16)
        .degree(4)
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(3)
        .deadline_factor(2.0)
        .duration_secs(60)
        .repetitions(1)
        .audit(true)
        .partition(PartitionSpec {
            fraction: 0.25,
            window_secs: 35,
            period_secs: 60,
        })
        .broker_churn(BrokerChurnSpec { rate: 0.6 })
        .control_plane(plane)
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

/// `(delivery, on-time)` ratios of pairs published inside the acceptance
/// window. On clean links the dynamic per-hop fallback eventually
/// completes almost every pair even on stale tables, so raw delivery
/// measures *reachability* while the on-time ratio measures what the
/// dissemination actually buys: packets routed by stale state burn
/// their delay budget exploring around dead brokers.
fn post_heal_ratios(log: &DeliveryLog) -> (f64, f64) {
    let window_start = SimTime::from_secs(47);
    let (mut expected, mut delivered, mut on_time) = (0u64, 0u64, 0u64);
    for (_, e) in log.expectations() {
        if e.published >= window_start {
            expected += 1;
            if e.delivered.is_some() {
                delivered += 1;
            }
            if e.on_time() {
                on_time += 1;
            }
        }
    }
    assert!(expected > 0, "no messages published post-heal");
    (
        delivered as f64 / expected as f64,
        on_time as f64 / expected as f64,
    )
}

/// Acceptance: under gossip dissemination, post-heal delivery recovers to
/// ≥ 0.99 on membership repair alone, with a clean audit (including the
/// staleness clause) and the control-plane counters proving the epidemic
/// path actually carried the deltas.
#[test]
fn gossip_dissemination_recovers_after_partition_heals() {
    let scenario = heal_scenario(ControlPlane::Gossip { loss: 0.15 }, 13);
    let (log, strategy) = run_with_log(&scenario, false);
    let audit = log.audit.as_ref().expect("audit armed");
    assert_eq!(
        audit.total_violations, 0,
        "gossip invariants violated: {:?}",
        audit.violations
    );
    let (delivery, on_time) = post_heal_ratios(&log);
    assert!(delivery >= 0.99, "post-heal delivery only {delivery:.4}");
    assert!(on_time >= 0.99, "post-heal on-time only {on_time:.4}");
    assert_eq!(
        strategy.table_version(),
        1 + strategy.incremental_repairs(),
        "a table version after setup's that no membership pass made"
    );
    assert!(log.rumors_sent > 0, "no rumors pushed");
    assert!(log.anti_entropy_rounds > 0, "anti-entropy never ran");
    assert!(
        log.gossip_deltas_applied > 0,
        "no deltas reached the router"
    );
}

/// The no-dissemination control on the same schedule: the detector still
/// fires but its deltas never reach routing state, so post-heal delivery
/// stays measurably below the gossip arm (and below the acceptance bar).
#[test]
fn no_dissemination_fails_to_recover_on_the_same_schedule() {
    let gossip = heal_scenario(ControlPlane::Gossip { loss: 0.15 }, 13);
    let none = heal_scenario(ControlPlane::None, 13);
    let (gossip_log, _) = run_with_log(&gossip, false);
    let (none_log, strategy) = run_with_log(&none, false);
    let (gossip_delivery, gossip_on_time) = post_heal_ratios(&gossip_log);
    let (none_delivery, none_on_time) = post_heal_ratios(&none_log);
    eprintln!(
        "gossip: delivery {gossip_delivery:.4} on-time {gossip_on_time:.4} | \
         static: delivery {none_delivery:.4} on-time {none_on_time:.4}"
    );
    assert!(
        none_on_time < 0.99,
        "static routing state recovered anyway (on-time {none_on_time:.4}) — the schedule is too easy"
    );
    assert!(
        gossip_on_time > none_on_time,
        "dissemination bought nothing: gossip {gossip_on_time:.4} vs static {none_on_time:.4}"
    );
    // No deltas were applied, so no pass ran after setup's build.
    assert_eq!(strategy.table_version(), 1);
}

/// Same seed, same partition/heal schedule, twice: the full transmission
/// traces must be bit-identical. This pins the gossip layer (rumor
/// draws, view shuffles, anti-entropy pairing) into the determinism
/// envelope.
#[test]
fn gossip_trace_digests_are_identical_across_reruns() {
    let scenario = heal_scenario(ControlPlane::Gossip { loss: 0.3 }, 77);
    let digest = || {
        let (log, _) = run_with_log(&scenario, true);
        let trace = log.trace.as_ref().expect("trace captured");
        assert!(!trace.is_empty(), "gossip run produced no events");
        trace.digest()
    };
    let first = digest();
    let second = digest();
    assert_eq!(
        first, second,
        "same-seed gossip runs diverged: the control plane is not deterministic"
    );
}
