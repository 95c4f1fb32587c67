//! The hostile-study acceptance gate, run by CI in release mode: the
//! whole flash-crowd sweep at smoke quality, checking the overload
//! promises from `DESIGN.md` — bounded queues shed under the 4× crowd,
//! every least-slack shed is justified (doomed traffic only), in-slack
//! delivery stays ≥ 0.99, and reruns reproduce their trace digests
//! byte-for-byte.

use dcrd_experiments::hostile::{
    flash_crowd, hostile_config, hostile_scenario, BURST_MULTIPLIER_SWEEP, QUEUE_LIMIT,
};
use dcrd_experiments::runner::run_traced;
use dcrd_experiments::scenario::{Quality, Scenario};
use dcrd_experiments::StrategyKind;
use dcrd_pubsub::runtime::ShedPolicy;

/// In-slack delivery (delivery among pairs whose deadline was still
/// satisfiable) the least-slack arm must hold through the 4× crowd.
const IN_SLACK_FLOOR: f64 = 0.99;

/// The least-slack arm of one intensity, with the hostile router config.
fn least_slack_arm(multiplier: u32) -> Scenario {
    Scenario {
        dcrd: hostile_config(),
        ..hostile_scenario(Quality::Smoke, multiplier)
            .bounded_queues(QUEUE_LIMIT, ShedPolicy::LeastSlack)
            .build()
    }
}

/// One pass over the whole sweep: shape, the per-arm auditor verdicts,
/// a clean 1× baseline, and the 4× overload gates.
#[test]
fn hostile_sweep_sheds_gracefully_under_the_flash_crowd() {
    let series = &flash_crowd(Quality::Smoke);
    assert_eq!(series.points.len(), BURST_MULTIPLIER_SWEEP.len());
    assert_eq!(
        series.strategy_names(),
        ["DCRD-least-slack", "DCRD-tail-drop", "DCRD-unbounded"]
    );

    // Delay-cognizant shedding only ever drops doomed traffic, and the
    // unbounded control sheds nothing, so both must audit clean. The
    // tail-drop arm is *expected* dirty: the auditor indicting the
    // slack-blind policy with `UnjustifiedShed` is the ablation's result.
    let violations = |arm| series.total(Some(arm), |a| a.audit_violations());
    assert_eq!(
        violations("DCRD-least-slack"),
        0,
        "auditor flagged a least-slack shed as unjustified"
    );
    assert_eq!(
        violations("DCRD-unbounded"),
        0,
        "auditor flagged the shed-nothing control"
    );
    assert!(
        violations("DCRD-tail-drop") > 0,
        "tail-drop shed under a 4x flash crowd without the auditor noticing"
    );
    assert!(
        series.total(None, |a| a.sheds()) > 0,
        "the sweep never overflowed a queue"
    );

    // Nominal load is a true baseline: no burst, no sheds, full delivery.
    let nominal = &series.points[0];
    assert_eq!(nominal.x, 1.0);
    for arm in &nominal.strategies {
        assert_eq!(arm.sheds(), 0, "{} shed at nominal load", arm.name());
        assert!(
            arm.delivery_ratio() >= 1.0 - 1e-12,
            "{} lost packets on clean links at nominal load: {:.4}",
            arm.name(),
            arm.delivery_ratio()
        );
    }

    // The acceptance point: 4x the nominal rate within the queue budget.
    let crowd = series
        .points
        .iter()
        .find(|p| p.x == 4.0)
        .expect("sweep reaches the 4x acceptance multiplier");
    let least_slack = &crowd.strategies[0];
    assert!(
        least_slack.sheds() > 0,
        "4x flash crowd never overflowed a {QUEUE_LIMIT}-slot queue"
    );
    assert_eq!(
        least_slack.doomed_sheds(),
        least_slack.sheds(),
        "least-slack shed a packet that could still have met its deadline"
    );
    assert!(
        least_slack.in_slack_delivery_ratio() >= IN_SLACK_FLOOR,
        "in-slack delivery {:.4} under the 4x crowd (gate: >= {IN_SLACK_FLOOR})",
        least_slack.in_slack_delivery_ratio()
    );
}

/// Rerunning any repetition of the acceptance scenario reproduces its
/// transmission trace digest byte-for-byte, and the flash crowd actually
/// changes the trace (the 4x schedule is wired, not a no-op).
#[test]
fn hostile_runs_reproduce_their_trace_digests() {
    let crowd = least_slack_arm(4);
    let baseline = least_slack_arm(1);
    for rep in 0..crowd.repetitions {
        let (first, digest) = run_traced(&crowd, StrategyKind::Dcrd, rep);
        let (again, redigest) = run_traced(&crowd, StrategyKind::Dcrd, rep);
        assert_ne!(digest, 0, "trace capture produced no events");
        assert_eq!(
            digest, redigest,
            "rep {rep} digest {digest:#018x} != rerun {redigest:#018x}"
        );
        assert_eq!(
            first.delivery_ratio().to_bits(),
            again.delivery_ratio().to_bits()
        );
        assert_eq!(first.sheds(), again.sheds());

        let (_, calm) = run_traced(&baseline, StrategyKind::Dcrd, rep);
        assert_ne!(digest, calm, "4x burst left the trace identical to 1x");
    }
}
