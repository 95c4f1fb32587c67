//! End-to-end recovery guarantees under the crash-restart chaos model.
//!
//! The router-level scripted tests (`dcrd-core/tests/router_script.rs`)
//! pin the custody/NACK mechanics hop by hop; these tests run the whole
//! stack — runtime, chaos scheduler, auditor — and check the promises the
//! recovery design makes to subscribers:
//!
//! * **completeness**: every published `(message, subscriber)` pair is
//!   delivered despite brokers crashing about a third of the time;
//! * **exactly-once**: replay and NACK re-sends never double-deliver —
//!   duplicates die in the dedup window as benign suppressions;
//! * **determinism**: the same seed reproduces the identical delivery
//!   log and journal activity;
//! * **the acceptance comparison**: at the same delay budget, the durable
//!   journal strictly out-delivers the volatile router.

use dcrd_core::{DcrdConfig, DcrdStrategy};
use dcrd_experiments::runner::{run_once, simulate, StrategyKind};
use dcrd_experiments::scenario::{CrashSpec, Quality, Scenario, ScenarioBuilder};
use dcrd_net::NodeId;
use dcrd_pubsub::packet::PacketId;
use dcrd_pubsub::runtime::DeliveryLog;
use dcrd_sim::rng::cases;
use dcrd_sim::SimTime;

/// The clean-link crash scenario the recovery study sweeps (see
/// `dcrd_experiments::recovery`): crashes are the only loss mechanism.
fn crash_scenario(rate: f64, seed: u64) -> Scenario {
    ScenarioBuilder::new()
        .nodes(8)
        .full_mesh()
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(4)
        .quality(Quality::Smoke)
        .audit(true)
        .audit_sequences(true)
        .seed(seed)
        .crashes(CrashSpec {
            rate,
            mean_down_epochs: 1.5,
        })
        .dcrd(DcrdConfig::recovery_hardened())
        .build()
}

/// Runs repetition `rep` through `runner::simulate`, returning the full
/// delivery log and the strategy (for journal/tracker inspection) rather
/// than the pooled metrics `run_once` reduces to.
fn run_with_log(scenario: &Scenario, rep: u32) -> (DeliveryLog, DcrdStrategy) {
    let mut strategy = DcrdStrategy::new(scenario.dcrd);
    let log = simulate(scenario, rep, &mut strategy, false);
    (log, strategy)
}

/// Acceptance: at crash rate 0.3 — every broker down roughly a third of
/// the run — the audit reports zero sequence gaps and zero duplicate
/// deliveries, and every pair the runtime expected actually arrived.
#[test]
fn heavy_crashes_leave_no_gaps_and_no_duplicates() {
    let scenario = crash_scenario(0.3, 0x0DC2D);
    let (log, strategy) = run_with_log(&scenario, 0);
    let audit = log.audit.as_ref().expect("audit armed");
    assert_eq!(
        audit.total_violations, 0,
        "sequence gaps or duplicates under crashes: {:?}",
        audit.violations
    );
    assert_eq!(
        log.duplicate_deliveries, 0,
        "a duplicate escaped the dedup window"
    );
    let undelivered: Vec<_> = log
        .expectations()
        .filter(|(_, e)| e.delivered.is_none())
        .map(|(k, _)| k)
        .collect();
    assert!(undelivered.is_empty(), "undelivered pairs: {undelivered:?}");
    // The journal actually worked for a living: entries were written and
    // (except the publishers' permanent custody) retired again.
    let stats = strategy.journal().expect("durable custody").stats();
    assert!(stats.records > 0, "no custody was ever taken");
    assert!(
        stats.replays > 0,
        "a third of the brokers crashing never triggered a replay"
    );
}

/// Benign replay duplicates are suppressed, not delivered — and the
/// auditor counts them separately from genuine protocol violations.
#[test]
fn replay_duplicates_are_suppressed_not_delivered() {
    let scenario = crash_scenario(0.3, 7);
    let (log, _) = run_with_log(&scenario, 0);
    let audit = log.audit.as_ref().expect("audit armed");
    assert_eq!(audit.replay_suppressions, log.suppressed);
    assert_eq!(audit.total_violations, 0);
}

/// Same seed, same everything: delivery outcomes, suppression count and
/// journal activity are bit-for-bit reproducible.
#[test]
fn recovery_runs_are_deterministic() {
    let scenario = crash_scenario(0.25, 42);
    let snapshot = |log: &DeliveryLog, strategy: &DcrdStrategy| {
        let mut pairs: Vec<((PacketId, NodeId), Option<SimTime>)> =
            log.expectations().map(|(k, e)| (k, e.delivered)).collect();
        pairs.sort();
        (
            pairs,
            log.messages_published,
            log.data_sends,
            log.suppressed,
            strategy.journal().expect("durable custody").stats(),
        )
    };
    let (log_a, strat_a) = run_with_log(&scenario, 0);
    let (log_b, strat_b) = run_with_log(&scenario, 0);
    let (pairs_a, published_a, sends_a, suppressed_a, stats_a) = snapshot(&log_a, &strat_a);
    let (pairs_b, published_b, sends_b, suppressed_b, stats_b) = snapshot(&log_b, &strat_b);
    assert_eq!(pairs_a, pairs_b);
    assert_eq!(published_a, published_b);
    assert_eq!(sends_a, sends_b);
    assert_eq!(suppressed_a, suppressed_b);
    assert_eq!(stats_a, stats_b);
}

/// Acceptance comparison at equal delay budget: the durable journal must
/// strictly out-deliver the paper's volatile router on the same crash
/// schedule.
#[test]
fn recovery_strictly_beats_volatile_at_acceptance_rate() {
    let scenario = crash_scenario(0.3, 0x0DC2D);
    let volatile = Scenario {
        dcrd: DcrdConfig::default(),
        audit_sequences: false,
        ..scenario
    };
    let with = run_once(&scenario, StrategyKind::Dcrd, 0);
    let without = run_once(&volatile, StrategyKind::Dcrd, 0);
    assert!(
        with.delivery_ratio() > without.delivery_ratio(),
        "recovery {:.4} vs volatile {:.4}",
        with.delivery_ratio(),
        without.delivery_ratio()
    );
    assert_eq!(with.audit_violations(), 0);
}

/// Whatever the seed and (heavy) crash rate, subscribers see their
/// streams gap-free and duplicate-free.
#[test]
fn crash_schedules_never_break_exactly_once() {
    cases("crash_schedules_never_break_exactly_once", 8, |rng| {
        let seed = rng.gen_range(0..1_000_000u64);
        let rate = rng.gen_range(0.2..0.4);
        let scenario = crash_scenario(rate, seed);
        let (log, _) = run_with_log(&scenario, 0);
        let audit = log.audit.as_ref().expect("audit armed");
        assert_eq!(
            audit.total_violations, 0,
            "violations at rate {rate}: {:?}",
            &audit.violations
        );
        assert_eq!(log.duplicate_deliveries, 0);
    });
}
