//! The churn-study acceptance gate, run by CI in release mode: the whole
//! broker-churn sweep at smoke quality, checking shape, a clean audit,
//! and that membership repair never loses to no repair. That repaired
//! tables equal a fresh build is checked at the table level, by the root
//! `membership_repair` and `gossip_convergence` tests.

use dcrd_experiments::churn::{churn_rates, CHURN_RATE_SWEEP};
use dcrd_experiments::scenario::Quality;
use dcrd_metrics::report::MetricKind;

/// One pass over the whole sweep: shape, a clean audit, and the
/// acceptance comparison — the repairing arm never loses to no-repair at
/// any rate.
#[test]
fn churn_sweep_is_clean_and_repair_beats_no_repair() {
    let series = &churn_rates(Quality::Smoke);
    assert_eq!(series.points.len(), CHURN_RATE_SWEEP.len());
    assert_eq!(
        series.strategy_names(),
        ["DCRD-incremental", "DCRD-no-repair"]
    );
    assert_eq!(
        series.total(None, |a| a.audit_violations()),
        0,
        "auditor flagged deliveries to departed brokers or routes through dead ones"
    );
    for point in &series.points {
        let repair = &point.strategies[0];
        let no_repair = &point.strategies[1];
        assert!(
            repair.delivery_ratio() >= no_repair.delivery_ratio() - 1e-12,
            "at churn rate {} repair delivered {:.4} vs no-repair {:.4}",
            point.x,
            repair.delivery_ratio(),
            no_repair.delivery_ratio()
        );
    }
    let table = series.render_table(MetricKind::Delivery);
    assert!(table.contains("DCRD-incremental"));
}

/// The sweep itself is deterministic: running it twice produces the same
/// delivery numbers at every point for every arm.
#[test]
fn churn_sweep_is_seed_deterministic() {
    let a = churn_rates(Quality::Smoke);
    let b = churn_rates(Quality::Smoke);
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (sa, sb) in pa.strategies.iter().zip(&pb.strategies) {
            assert_eq!(sa.name(), sb.name());
            assert_eq!(
                sa.delivery_ratio().to_bits(),
                sb.delivery_ratio().to_bits(),
                "{} at rate {} not reproducible",
                sa.name(),
                pa.x
            );
            assert_eq!(sa.audit_violations(), sb.audit_violations());
        }
    }
}
