//! Recovery study: end-to-end reliability under broker crashes.
//!
//! One sweep over the crash-restart chaos model comparing three arms on
//! **identical** repetitions (same topology, workload and crash
//! schedule):
//!
//! * **DCRD-recovery** — the recovery-hardened router: durable custody
//!   journal, restart replay and NACK-driven gap repair
//!   ([`DcrdConfig::recovery_hardened`]).
//! * **DCRD-volatile** — the paper's router, without durability: a
//!   crashed broker loses every packet it held.
//! * **R-Tree** — the paper's baseline.
//!
//! The crash rates are far harsher than the chaos study's: at the top of
//! the sweep every broker spends roughly a third of the run down. Links
//! themselves are clean (`Pf = Pl = 0`) so crashes are the *only* loss
//! mechanism and the delivery gap between the arms isolates the custody
//! journal's contribution.
//!
//! The recovery arm runs with the end-to-end sequence audit enabled: a
//! published `(message, subscriber)` pair that never reaches its
//! subscriber is a [`SequenceGap`](dcrd_pubsub::audit::Violation), and a
//! pair delivered twice is a `DuplicateDelivery`. A healthy journal +
//! dedup window reports zero of both across the whole sweep.

use dcrd_core::DcrdConfig;
use dcrd_metrics::report::FigureSeries;

use crate::figures::{sweep, Arm};
use crate::runner::StrategyKind;
use crate::scenario::{CrashSpec, Quality, Scenario, ScenarioBuilder};

/// Per-broker per-epoch crash-probability sweep.
pub const RECOVERY_CRASH_SWEEP: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Mean downtime of a crashed broker, in epochs.
const MEAN_DOWN_EPOCHS: f64 = 1.5;

/// Small clean-link overlay: crashes are the only loss mechanism.
fn base(quality: Quality) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(8)
        .full_mesh()
        .failure_probability(0.0)
        .loss_rate(0.0)
        .topics(4)
        .quality(quality)
        .audit(true)
}

/// Delivery degradation vs crash rate (mean downtime 1.5 epochs): the
/// three contenders on identical repetitions of each rate. Only the
/// recovery arm gets the sequence check: the volatile arms *expect* to
/// lose pairs under crashes, which is the point of the comparison, not a
/// bug in them.
#[must_use]
pub fn recovery_crashes(quality: Quality) -> FigureSeries {
    let crashes = move |rate| {
        base(quality)
            .crashes(CrashSpec {
                rate,
                mean_down_epochs: MEAN_DOWN_EPOCHS,
            })
            .build()
    };
    sweep(
        "recovery-crashes",
        "Crash Probability",
        RECOVERY_CRASH_SWEEP,
        &[
            Arm::new("DCRD-recovery", StrategyKind::Dcrd, move |rate| Scenario {
                dcrd: DcrdConfig::recovery_hardened(),
                audit_sequences: true,
                ..crashes(rate)
            }),
            Arm::new("DCRD-volatile", StrategyKind::Dcrd, crashes),
            Arm::new("R-Tree", StrategyKind::RTree, crashes),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_metrics::report::MetricKind;

    /// One smoke pass over the whole sweep: shape, a clean end-to-end
    /// audit for the recovery arm, and the acceptance comparison — with
    /// crashes present, the durable journal must strictly beat the
    /// volatile router at the same delay budget.
    #[test]
    fn recovery_sweep_is_clean_and_beats_volatile() {
        let series = &recovery_crashes(Quality::Smoke);
        assert_eq!(series.points.len(), RECOVERY_CRASH_SWEEP.len());
        assert_eq!(
            series.strategy_names(),
            ["DCRD-recovery", "DCRD-volatile", "R-Tree"]
        );
        assert_eq!(
            series.total(None, |a| a.audit_violations()),
            0,
            "sequence gaps or duplicate deliveries survived recovery"
        );
        for point in &series.points {
            let recovery = &point.strategies[0];
            let volatile = &point.strategies[1];
            if point.x > 0.0 {
                assert!(
                    recovery.delivery_ratio() > volatile.delivery_ratio(),
                    "at crash rate {} recovery delivered {:.4} vs volatile {:.4}",
                    point.x,
                    recovery.delivery_ratio(),
                    volatile.delivery_ratio()
                );
            }
        }
        let table = series.render_table(MetricKind::Delivery);
        assert!(table.contains("DCRD-recovery"));
    }

    #[test]
    fn sweep_spans_the_acceptance_crash_rate() {
        assert_eq!(RECOVERY_CRASH_SWEEP[0], 0.0);
        assert!(RECOVERY_CRASH_SWEEP.contains(&0.3));
    }
}
