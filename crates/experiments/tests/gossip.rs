//! The gossip-study acceptance gate, run by CI in release mode: the whole
//! control-plane loss sweep at smoke quality, checking shape, a clean
//! audit (staleness clause included), and that the epidemic path actually
//! carried the deltas the gossip arm routed on.

use dcrd_experiments::gossip::{gossip_loss, GOSSIP_LOSS_SWEEP};
use dcrd_experiments::scenario::Quality;
use dcrd_metrics::report::MetricKind;

/// One pass over the whole sweep: shape, a clean audit, and live
/// control-plane counters — the gossip arm must have pushed rumors, run
/// anti-entropy, and applied converged deltas at every loss rate.
#[test]
fn gossip_sweep_is_clean_and_the_epidemic_path_carries_deltas() {
    let series = &gossip_loss(Quality::Smoke);
    assert_eq!(series.points.len(), GOSSIP_LOSS_SWEEP.len());
    assert_eq!(
        series.strategy_names(),
        ["DCRD-gossip", "DCRD-oracle", "DCRD-static"]
    );
    assert_eq!(
        series.total(None, |a| a.audit_violations()),
        0,
        "auditor flagged a violation (possibly the staleness clause)"
    );
    assert!(
        series.total(None, |a| a.rumors_sent()) > 0,
        "gossip arm pushed no rumors"
    );
    assert!(
        series.total(None, |a| a.anti_entropy_rounds()) > 0,
        "anti-entropy never ran despite recurring partitions"
    );
    assert!(
        series.total(None, |a| a.gossip_deltas_applied()) > 0,
        "no membership delta ever converged through the epidemic path"
    );
    for point in &series.points {
        let gossip = &point.strategies[0];
        assert!(
            gossip.rumors_sent() > 0 && gossip.gossip_deltas_applied() > 0,
            "at loss {} the gossip arm did not gossip (rumors {}, applied {})",
            point.x,
            gossip.rumors_sent(),
            gossip.gossip_deltas_applied()
        );
        // Only the gossip arm runs the epidemic control plane.
        for other in &point.strategies[1..] {
            assert_eq!(other.rumors_sent(), 0, "{} gossiped", other.name());
        }
    }
    let table = series.render_table(MetricKind::Delivery);
    assert!(table.contains("DCRD-gossip"));
}

/// The sweep itself is deterministic: running it twice produces the same
/// delivery numbers and counters at every point for every arm.
#[test]
fn gossip_sweep_is_seed_deterministic() {
    let a = gossip_loss(Quality::Smoke);
    let b = gossip_loss(Quality::Smoke);
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (sa, sb) in pa.strategies.iter().zip(&pb.strategies) {
            assert_eq!(sa.name(), sb.name());
            assert_eq!(
                sa.delivery_ratio().to_bits(),
                sb.delivery_ratio().to_bits(),
                "{} at loss {} not reproducible",
                sa.name(),
                pa.x
            );
            assert_eq!(sa.rumors_sent(), sb.rumors_sent());
            assert_eq!(sa.gossip_deltas_applied(), sb.gossip_deltas_applied());
            assert_eq!(sa.audit_violations(), sb.audit_violations());
        }
    }
}
