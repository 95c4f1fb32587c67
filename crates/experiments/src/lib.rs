//! # dcrd-experiments — the paper's evaluation, reproducible
//!
//! One module per concern:
//!
//! * [`scenario`] — a declarative description of one experimental setup
//!   (topology family, `Pf`, `Pl`, `m`, deadline factor, duration,
//!   repetitions) with the paper's defaults.
//! * [`runner`] — deterministic execution: one scenario × strategy ×
//!   repetition per run, a list of `(scenario, strategy, label)` arms run
//!   as one parallel batch with each arm's repetitions pooled in order.
//! * [`figures`] — the one sweep engine, [`figures::sweep`]: x values
//!   and a list of [`figures::Arm`]s (label, strategy, `Fn(f64) ->
//!   Scenario`), one pooled aggregate per arm per x. Every figure,
//!   ablation and study below is a single call to it; the drivers here
//!   reproduce **every figure of the paper** (Figs. 2–8) plus the
//!   ablations listed in `DESIGN.md`.
//! * [`chaos`] — the chaos study: partition / crash-restart / gray-link
//!   sweeps comparing the paper's fixed-timeout DCRD router against the
//!   R-Tree baseline, with the invariant auditor on everywhere.
//! * [`recovery`] — the recovery study: a harsh crash-rate sweep
//!   comparing the durable custody journal + NACK recovery against the
//!   volatile router, with the end-to-end sequence audit armed.
//! * [`churn`] — the churn study: broker joins, graceful leaves and
//!   permanent deaths mid-run, comparing membership repair against a
//!   no-repair control.
//! * [`gossip`] — the gossip study: epidemic membership dissemination
//!   under partitions and control-plane loss, comparing gossip against
//!   the oracle control plane and a no-dissemination control.
//! * [`hostile`] — the hostile study: flash crowds on a Zipf-skewed,
//!   geo-tiered overlay with bounded broker queues, comparing
//!   delay-cognizant least-slack shedding against tail-drop and an
//!   unbounded control.
//!
//! Each study module keeps only its design notes, sweep constants, base
//! scenario and arm configs; its verdicts (audit violations, sheds,
//! control-plane counters) are sums over the returned series via
//! [`FigureSeries::total`](dcrd_metrics::report::FigureSeries::total),
//! optionally restricted to one arm.
//!
//! The `dcrd-experiments` binary exposes all of it on the command line:
//!
//! ```text
//! dcrd-experiments fig2 --quality standard
//! dcrd-experiments all --quality quick --out results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod churn;
pub mod figures;
pub mod gossip;
pub mod hostile;
pub mod recovery;
pub mod runner;
pub mod scenario;

pub use runner::{run_comparison, run_scenario, run_traced, StrategyKind};
pub use scenario::{Quality, Scenario, ScenarioBuilder, TopologyKind};
