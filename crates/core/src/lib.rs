//! # dcrd-core — Delay-Cognizant Reliable Delivery
//!
//! The primary contribution of Guo et al., *Delay-Cognizant Reliable
//! Delivery for Publish/Subscribe Overlay Networks* (ICDCS 2011): a dynamic,
//! per-hop routing algorithm that abandons fixed multicast trees. Every
//! broker keeps, per subscriber, a **sending list** of neighbors sorted so
//! that trying them in order minimizes the expected delivery delay
//! (Theorem 1), and forwarding falls back from neighbor to neighbor — and
//! finally back **upstream** — until the packet gets through.
//!
//! Module map (paper section in parentheses):
//!
//! * [`reliability`] — Eq. 1: expected delay `α⁽ᵐ⁾` and delivery ratio
//!   `γ⁽ᵐ⁾` of an `m`-transmission link attempt (§III-A).
//! * [`params`] — the `⟨d, r⟩` node parameters and Eq. 2/Eq. 3 used to
//!   aggregate candidate next hops (§III-B).
//! * [`ordering`] — Theorem 1: sorting candidates by `d/r` minimizes the
//!   expected delay; plus naive orderings for ablation (§III-C).
//! * [`sending_list`] — one broker's sending list from its adjacency row:
//!   the `dᵢ < D_XS` deadline filter plus the ordering policy's sort
//!   (Algorithm 1, §III-C).
//! * [`propagation`] — the distributed recursive computation of `⟨d, r⟩`
//!   across the overlay, run as synchronous gossip rounds to a fixed point
//!   (§III-B); a [`propagation::TableBuilder`] builds the tables of any
//!   list of subscriptions, is the only way to build them, and keeps what
//!   one build can hand to the next ([`propagation::compute_tables`] is a
//!   fresh builder's single build). Every table is one kernel call that
//!   fills its requirements from its publisher's tree and runs the fixed
//!   point.
//! * [`router`] — [`DcrdStrategy`]: the dynamic routing scheme
//!   (Algorithm 2, §III-D), dispatching to two layers over one control
//!   plane (`router/tables.rs`: the run's environment and every routing
//!   table; a membership change or fresh link estimates move the table
//!   version, a table built at an older one is stale, and routing builds
//!   each at its first read). `router/forward.rs` is the paper's forwarding core: hop-by-hop
//!   ACK timers, `m`-transmission retries, destination merging, loop
//!   avoidance via the packet's routing path, upstream rerouting, and the
//!   optional persistence extension. `router/custody.rs` is durable
//!   custody, built only under [`DurabilityMode::Durable`]: the journal,
//!   restart replay, handoff and NACK recovery.
//! * [`journal`] — the write-ahead custody journal (robustness extension):
//!   brokers journal packets before taking custody and replay surviving
//!   entries after a crash-restart.
//! * [`config`] — tuning knobs, including the ablation switches called out
//!   in `DESIGN.md`; the fixed values beside them live as constants next
//!   to their readers in [`router`] and [`propagation`].
//!
//! # Example
//!
//! ```
//! use dcrd_core::ordering::optimal_order;
//! use dcrd_core::params::{combine, Candidate};
//! use dcrd_net::NodeId;
//!
//! // Two candidate next hops: fast-but-flaky vs slow-but-reliable.
//! let mut candidates = vec![
//!     Candidate { neighbor: NodeId::new(1), d: 10_000.0, r: 0.5 },
//!     Candidate { neighbor: NodeId::new(2), d: 15_000.0, r: 0.99 },
//! ];
//! optimal_order(&mut candidates);
//! // d/r: 20_000 vs ~15_151 → the reliable one goes first.
//! assert_eq!(candidates[0].neighbor, NodeId::new(2));
//! let combined = combine(&candidates);
//! assert!(combined.r > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod journal;
pub mod ordering;
pub mod params;
pub mod propagation;
pub mod reliability;
pub mod router;
pub mod sending_list;

pub use config::{DcrdConfig, DurabilityMode, OrderingPolicy, PersistenceMode};
pub use journal::{InFlightJournal, JournalEntry, JournalStats};
pub use router::DcrdStrategy;
