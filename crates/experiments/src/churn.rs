//! Churn study: membership survival under broker joins, leaves and deaths.
//!
//! One sweep over the broker-churn chaos model comparing two arms on
//! **identical** repetitions (same topology, workload and churn
//! schedule):
//!
//! * **DCRD-incremental** — the churn-hardened router: SWIM-detected
//!   membership deltas invalidate every routing table over the new absent
//!   set, routing rebuilds each table at its first read, and custody is
//!   handed off ([`DcrdConfig::churn_hardened`]). The label predates the
//!   one repair rule and is kept so the sweep's columns stay comparable.
//! * **DCRD-no-repair** — the recovery-hardened router with membership
//!   repair disabled: routing tables keep pointing at departed brokers
//!   and only the dynamic per-hop fallback fights the rot.
//!
//! Links are clean (`Pf = Pl = 0`) and the topology is degree-bounded so
//! relay brokers actually matter: membership churn is the *only*
//! disturbance, and the gap between the arms isolates the repair path.
//! Subscription windows are confined to each broker's presence interval
//! (see `runner::confine_to_churn`), so every expected pair is
//! deliverable in principle and the auditor can insist on zero
//! violations across the whole sweep.

use dcrd_core::DcrdConfig;
use dcrd_metrics::report::FigureSeries;

use crate::figures::{sweep, Arm};
use crate::runner::StrategyKind;
use crate::scenario::{BrokerChurnSpec, Quality, Scenario, ScenarioBuilder};

/// Per-broker churn-probability sweep (fraction of unprotected brokers
/// that join, leave or die during the run).
pub const CHURN_RATE_SWEEP: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Degree-bounded clean-link overlay: churn is the only loss mechanism
/// and packets actually cross relay brokers that can churn away.
fn base(quality: Quality) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(12)
        .degree(4)
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(4)
        .quality(quality)
        .audit(true)
}

/// Delivery degradation vs broker churn rate: the two contenders on
/// identical repetitions of each rate.
#[must_use]
pub fn churn_rates(quality: Quality) -> FigureSeries {
    let arm = |label: &'static str, dcrd: DcrdConfig| {
        Arm::new(label, StrategyKind::Dcrd, move |rate| Scenario {
            dcrd,
            ..base(quality).broker_churn(BrokerChurnSpec { rate }).build()
        })
    };
    sweep(
        "churn-rates",
        "Broker Churn Probability",
        CHURN_RATE_SWEEP,
        &[
            arm("DCRD-incremental", DcrdConfig::churn_hardened()),
            arm("DCRD-no-repair", DcrdConfig::recovery_hardened()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full-sweep acceptance test (clean audit, incremental ≥
    // no-repair) lives in `tests/churn.rs` so CI can run it by name in
    // release mode.

    #[test]
    fn sweep_spans_the_acceptance_rates() {
        assert_eq!(CHURN_RATE_SWEEP[0], 0.0);
        assert!(CHURN_RATE_SWEEP.contains(&0.3));
    }
}
