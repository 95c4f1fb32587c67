//! Chaos study: degradation curves under correlated fault injection.
//!
//! Three one-dimensional sweeps over the chaos models — partition window
//! length, broker crash rate and gray-link fraction — each comparing the
//! paper's fixed-timeout DCRD against the R-Tree baseline on **identical**
//! repetitions (same topology, workload, failures and chaos schedule).
//!
//! Every simulation in the study runs with the online invariant auditor
//! enabled; [`FigureSeries::total`] of `audit_violations` over the three
//! series pools the verdict. A healthy implementation reports zero across
//! the whole sweep.

use dcrd_metrics::report::FigureSeries;

use crate::figures::{sweep, Arm};
use crate::runner::StrategyKind;
use crate::scenario::{CrashSpec, GraySpec, PartitionSpec, Quality, Scenario, ScenarioBuilder};

/// Partition-window sweep in seconds (30 % of brokers cut off, one cut per
/// minute).
pub const PARTITION_WINDOW_SWEEP: [u64; 4] = [5, 10, 20, 30];
/// Per-broker per-epoch crash-probability sweep.
pub const CRASH_RATE_SWEEP: [f64; 4] = [0.0, 0.005, 0.01, 0.02];
/// Gray-link fraction sweep.
pub const GRAY_FRACTION_SWEEP: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

fn base(quality: Quality) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(20)
        .degree(5)
        .failure_probability(0.02)
        .quality(quality)
        .audit(true)
}

/// Sweeps the two contenders over `xs` on identical repetitions of
/// `scenario(x)`.
fn contenders(
    id: &str,
    x_label: &str,
    xs: impl IntoIterator<Item = f64>,
    scenario: impl Fn(f64) -> Scenario + Copy,
) -> FigureSeries {
    sweep(
        id,
        x_label,
        xs,
        &[
            Arm::new("DCRD-fixed", StrategyKind::Dcrd, scenario),
            Arm::new("R-Tree", StrategyKind::RTree, scenario),
        ],
    )
}

/// Degradation vs partition window length (fraction 0.3, period 60 s).
#[must_use]
pub fn chaos_partition(quality: Quality) -> FigureSeries {
    contenders(
        "chaos-partition",
        "Partition Window (s)",
        PARTITION_WINDOW_SWEEP.map(|w| w as f64),
        |window| {
            base(quality)
                .partition(PartitionSpec {
                    fraction: 0.3,
                    window_secs: window as u64,
                    period_secs: 60,
                })
                .build()
        },
    )
}

/// Degradation vs broker crash rate (mean downtime 3 epochs).
#[must_use]
pub fn chaos_crashes(quality: Quality) -> FigureSeries {
    contenders(
        "chaos-crashes",
        "Crash Probability",
        CRASH_RATE_SWEEP,
        |rate| {
            base(quality)
                .crashes(CrashSpec {
                    rate,
                    mean_down_epochs: 3.0,
                })
                .build()
        },
    )
}

/// Degradation vs gray-link fraction (extra loss 0.3, delay ×2 one way).
#[must_use]
pub fn chaos_gray(quality: Quality) -> FigureSeries {
    contenders(
        "chaos-gray",
        "Gray Link Fraction",
        GRAY_FRACTION_SWEEP,
        |fraction| {
            base(quality)
                .gray_links(GraySpec {
                    fraction,
                    extra_loss: 0.3,
                    delay_factor: 2.0,
                })
                .build()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_metrics::report::MetricKind;

    /// One smoke pass over the partition sweep; the crash and gray sweeps
    /// share all machinery and are exercised by the integration tests.
    #[test]
    fn partition_sweep_has_expected_shape_and_clean_audit() {
        let series = chaos_partition(Quality::Smoke);
        assert_eq!(series.points.len(), PARTITION_WINDOW_SWEEP.len());
        assert_eq!(series.strategy_names(), ["DCRD-fixed", "R-Tree"]);
        for point in &series.points {
            for agg in &point.strategies {
                assert_eq!(
                    agg.audit_violations(),
                    0,
                    "{} violated invariants at window {}",
                    agg.name(),
                    point.x
                );
            }
        }
        let table = series.render_table(MetricKind::Qos);
        assert!(table.contains("DCRD-fixed"));
    }

    #[test]
    fn sweep_constants_span_expected_ranges() {
        assert!(PARTITION_WINDOW_SWEEP.contains(&30));
        assert_eq!(CRASH_RATE_SWEEP[0], 0.0);
        assert_eq!(GRAY_FRACTION_SWEEP.len(), 4);
    }
}
