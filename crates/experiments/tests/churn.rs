//! The churn-study acceptance gate, run by CI in release mode: the whole
//! broker-churn sweep at smoke quality, checking shape, a clean audit,
//! and the repair-path comparisons the design promises.

use dcrd_experiments::churn::{churn_rates, CHURN_RATE_SWEEP};
use dcrd_experiments::scenario::Quality;
use dcrd_metrics::report::MetricKind;

/// Margin the incremental arm may trail the global-rebuild oracle by
/// (pure noise budget — the repairs are equivalence-tested at the table
/// level, so the two arms should track each other closely).
const ORACLE_EPSILON: f64 = 0.01;

/// One pass over the whole sweep: shape, a clean audit, and the
/// acceptance comparisons — incremental repair never loses to no-repair
/// and stays within epsilon of the global-rebuild oracle at every rate.
#[test]
fn churn_sweep_is_clean_and_incremental_tracks_the_oracle() {
    let series = &churn_rates(Quality::Smoke);
    assert_eq!(series.points.len(), CHURN_RATE_SWEEP.len());
    assert_eq!(
        series.strategy_names(),
        ["DCRD-incremental", "DCRD-global", "DCRD-no-repair"]
    );
    assert_eq!(
        series.total(None, |a| a.audit_violations()),
        0,
        "auditor flagged deliveries to departed brokers or routes through dead ones"
    );
    for point in &series.points {
        let incremental = &point.strategies[0];
        let global = &point.strategies[1];
        let no_repair = &point.strategies[2];
        assert!(
            incremental.delivery_ratio() >= no_repair.delivery_ratio() - 1e-12,
            "at churn rate {} incremental delivered {:.4} vs no-repair {:.4}",
            point.x,
            incremental.delivery_ratio(),
            no_repair.delivery_ratio()
        );
        assert!(
            (incremental.delivery_ratio() - global.delivery_ratio()).abs() <= ORACLE_EPSILON,
            "at churn rate {} incremental {:.4} drifted from the oracle {:.4}",
            point.x,
            incremental.delivery_ratio(),
            global.delivery_ratio()
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
