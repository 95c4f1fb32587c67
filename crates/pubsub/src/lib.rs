//! # dcrd-pubsub — publish/subscribe messaging substrate
//!
//! The DCRD paper studies routing strategies for topic-based pub/sub over a
//! broker overlay. This crate provides everything around the routing
//! algorithm itself:
//!
//! * [`topic`] — topics and subscriptions (each subscription carries its QoS
//!   delay requirement).
//! * [`workload`] — the paper's workload generator: one publisher per topic
//!   placed on a random broker, per-topic subscription probability `Ps`
//!   drawn from `[0.2, 0.6]`, 1 packet/s publish rate (the paper's
//!   ADS-B-style air-surveillance rate), and per-subscription deadlines of
//!   `factor ×` the shortest-path delay.
//! * [`packet`] — the overlay packet: multi-destination header, the
//!   routing-path record DCRD uses for loop avoidance and upstream
//!   rerouting, and an optional source route for path-pinned strategies.
//! * [`strategy`] — the [`RoutingStrategy`]
//!   trait: event-driven callbacks (`on_publish`, `on_packet`, `on_ack`,
//!   `on_timer`) producing [`Action`]s.
//! * [`codec`] — the binary wire format packets take on a real socket.
//! * [`runtime`] — the overlay runtime binding a topology, failure/loss
//!   models and a strategy into one deterministic discrete-event run,
//!   modeling per-hop transmissions and hop-by-hop ACKs, and recording a
//!   complete [`DeliveryLog`].
//! * [`audit`] — the online invariant auditor: consumes the transmission
//!   stream during the run and flags forwarding loops, duplicate final
//!   deliveries, ACK-discipline breaches, blown transmission budgets and
//!   (opt-in) end-to-end sequence gaps.
//! * [`recovery`] — subscriber-side sequencing for crash recovery: the
//!   bounded [`SequenceTracker`] that detects gaps (feeding NACK-driven
//!   recovery) and deduplicates replayed copies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod codec;
pub mod hotstate;
pub mod packet;
pub mod recovery;
pub mod runtime;
pub mod strategy;
pub mod topic;
pub mod trace;
pub mod workload;

pub use audit::{AuditConfig, AuditReport, InvariantAuditor, Violation};
pub use packet::{Packet, PacketId, PacketKind};
pub use recovery::SequenceTracker;
pub use runtime::{AckTransit, DeliveryLog, Monitoring, OverlayRuntime, RuntimeConfig};
pub use strategy::{Action, Actions, RoutingStrategy, SetupContext};
pub use topic::{Subscription, TopicId};
pub use trace::{Trace, TraceEvent};
pub use workload::{TopicSpec, Workload, WorkloadConfig};
