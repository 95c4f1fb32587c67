//! # dcrd-metrics — experiment metrics and report rendering
//!
//! Turns the raw [`DeliveryLog`](dcrd_pubsub::runtime::DeliveryLog) of an
//! overlay run into the paper's three evaluation metrics (§IV-C):
//!
//! 1. **Delivery Ratio** — fraction of `(message, subscriber)` pairs
//!    delivered at all (late counts);
//! 2. **QoS Delivery Ratio** — fraction delivered within the subscription's
//!    delay requirement;
//! 3. **Packets Sent / Subscribers** — total data transmissions divided by
//!    the number of `(message, subscriber)` pairs (traffic cost).
//!
//! plus the Fig. 7 statistic: the CDF of `actual delay ÷ requirement` over
//! packets that *missed* their deadline.
//!
//! [`RunMetrics`] summarizes one run; [`AggregateMetrics`] pools repetitions
//! (different topologies/seeds) exactly the way the paper reports averages
//! over 10 topologies. [`report`] renders aligned text tables and CSV for
//! the experiment CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod report;
pub mod summary;

pub use summary::{AggregateMetrics, RunMetrics};
