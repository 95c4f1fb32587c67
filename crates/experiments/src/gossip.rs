//! Gossip study: membership dissemination under partitions and lossy
//! control planes.
//!
//! One sweep over the control-plane rumor-loss rate comparing three arms
//! on **identical** repetitions (same topology, workload, churn schedule
//! and partition schedule):
//!
//! * **DCRD-gossip** — membership deltas spread epidemically
//!   ([`ControlPlane::Gossip`]): eager-push rumors over bounded partial
//!   views plus periodic anti-entropy, applied through membership repair
//!   only once every present broker has learned them. Partitions stall
//!   convergence; anti-entropy completes it after they heal.
//! * **DCRD-oracle** — the pre-gossip control plane: detector output
//!   reaches every broker the same epoch, unaffected by partitions or
//!   control-plane loss. The upper bound gossip must track.
//! * **DCRD-static** — detection without dissemination
//!   ([`ControlPlane::None`]): deltas are dropped, routing state goes
//!   permanently stale and only the per-hop fallback fights the rot. The
//!   arm that shows dissemination is load-bearing.
//!
//! Links are clean (`Pf = Pl = 0`): broker churn plus a recurring
//! partition are the only disturbances, so the gap between the arms
//! isolates the dissemination path. The auditor runs everywhere,
//! including the `StaleRouteAfterConvergence` clause that bounds how long
//! a broker may keep routing on pre-partition state after the control
//! plane heals.

use dcrd_core::DcrdConfig;
use dcrd_metrics::report::FigureSeries;

use crate::figures::{sweep, Arm};
use crate::runner::StrategyKind;
use crate::scenario::{BrokerChurnSpec, ControlPlane, PartitionSpec, Quality, ScenarioBuilder};

/// Control-plane rumor-loss sweep (per-hop loss probability of gossip
/// messages; the data plane stays clean).
pub const GOSSIP_LOSS_SWEEP: [f64; 3] = [0.0, 0.15, 0.3];

/// Broker churn probability shared by every point of the sweep.
pub const GOSSIP_CHURN_RATE: f64 = 0.7;

/// Degree-bounded clean-link overlay under heavy broker churn plus a
/// recurring partition (8 s cut out of every 40 s) and a tight deadline
/// budget: dissemination quality is the only thing separating the arms. On clean links the dynamic per-hop fallback eventually
/// completes nearly every pair even on stale tables, so the arms
/// separate in the *on-time* column — packets routed by stale state
/// burn their delay budget exploring around dead brokers, and the
/// 2× deadline factor leaves no slack to hide that.
fn base(quality: Quality) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(16)
        .degree(4)
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(3)
        .deadline_factor(2.0)
        .quality(quality)
        .broker_churn(BrokerChurnSpec {
            rate: GOSSIP_CHURN_RATE,
        })
        .partition(PartitionSpec {
            fraction: 0.25,
            window_secs: 8,
            period_secs: 40,
        })
        .dcrd(DcrdConfig::churn_hardened())
        .audit(true)
}

/// Delivery vs control-plane rumor loss: the three contenders on
/// identical repetitions of each loss point. Only the gossip arm gossips,
/// so control-plane counters summed over the series attribute to it.
#[must_use]
pub fn gossip_loss(quality: Quality) -> FigureSeries {
    let arm = |label: &'static str, plane: fn(f64) -> ControlPlane| {
        Arm::new(label, StrategyKind::Dcrd, move |loss| {
            base(quality).control_plane(plane(loss)).build()
        })
    };
    sweep(
        "gossip-loss",
        "Control-Plane Loss Probability",
        GOSSIP_LOSS_SWEEP,
        &[
            arm("DCRD-gossip", |loss| ControlPlane::Gossip { loss }),
            arm("DCRD-oracle", |_| ControlPlane::Oracle),
            arm("DCRD-static", |_| ControlPlane::None),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The partition-heal acceptance test (post-heal recovery ≥ 0.99 with
    // zero rebuilds, clean audit, digest-identical reruns, and a static
    // arm that fails to recover) lives in `tests/gossip_partition_heal.rs`
    // so CI can run it by name in release mode.

    #[test]
    fn sweep_starts_lossless_and_spans_harsh_loss() {
        assert_eq!(GOSSIP_LOSS_SWEEP[0], 0.0);
        assert!(GOSSIP_LOSS_SWEEP.contains(&0.3));
    }

    #[test]
    fn base_scenario_arms_churn_partition_and_audit() {
        let s = base(Quality::Smoke)
            .control_plane(ControlPlane::Gossip { loss: 0.0 })
            .build();
        assert!(s.broker_churn.is_some());
        assert!(s.partition.is_some());
        assert!(s.audit);
        assert_eq!(s.control_plane, ControlPlane::Gossip { loss: 0.0 });
    }
}
