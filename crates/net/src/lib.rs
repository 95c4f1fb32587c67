//! # dcrd-net — overlay network substrate
//!
//! The DCRD paper (Guo et al., ICDCS 2011) evaluates routing strategies on a
//! broker overlay network whose links have per-link propagation delays,
//! random per-transmission loss, and epoch-based link failures. This crate
//! builds that substrate:
//!
//! * [`graph`] — the overlay [`Topology`]: an undirected
//!   graph of broker nodes with per-link delays.
//! * [`topology`] — generators for the paper's topologies (full mesh,
//!   random connected degree-*k* overlays) plus rings/lines/stars for tests.
//! * [`paths`] — Dijkstra shortest paths (by delay or hop count), all-pairs
//!   sweeps, Yen's k-shortest simple paths, and the paper's multipath
//!   selection rule (fewest overlapping links among the top-5).
//! * [`disjoint`] — Bhandari's minimum-cost edge-disjoint path pairs (the
//!   principled alternative to the paper's multipath heuristic).
//! * [`failure`] — the paper's failure model: once per 1-second epoch every
//!   link independently fails with probability `Pf`; plus the node-failure
//!   extension sketched in the paper's conclusion, and the one rule
//!   (`FailureState::fate`) deciding each transmission's fate.
//! * [`chaos`] — correlated fault injection beyond the paper: recurring
//!   network partitions, crash-restart brokers (volatile state lost on
//!   restart), and asymmetric gray links — all seed-reproducible.
//! * [`membership`] — a deterministic SWIM-style failure detector
//!   (probe / indirect-probe / suspect / confirm with incarnation-number
//!   refutation), the order-insensitive membership-view lattice it
//!   converges on, and a seeded broker-churn schedule.
//! * [`gossip`] — the dissemination half of the membership control plane:
//!   deterministic epidemic rumor spread (bounded partial views, eager
//!   push, anti-entropy digest reconciliation) with convergence gating
//!   and bounded-staleness reporting.
//! * [`nodeset`], [`nodelist`] — the packet header's node collections: an
//!   O(1) membership bitset and an ordered list, both heap-free at the sizes
//!   a forwarded copy carries.
//! * [`loss`] — per-transmission Bernoulli packet loss (`Pl`).
//! * [`estimate`] — per-link quality estimates `⟨α, γ⟩` (expected one-way
//!   delay and single-transmission delivery ratio), both analytic and via an
//!   online EWMA probe monitor.
//!
//! # Example
//!
//! ```
//! use dcrd_net::topology::{full_mesh, DelayRange};
//! use dcrd_net::paths::{shortest_path, Metric};
//! use dcrd_sim::rng::rng_for;
//!
//! let topo = full_mesh(5, DelayRange::PAPER, &mut rng_for(1, "topo"));
//! let path = shortest_path(&topo, topo.node(0), topo.node(4), Metric::Delay)
//!     .expect("mesh is connected");
//! assert!(path.hops() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod disjoint;
pub mod estimate;
pub mod failure;
pub mod gossip;
pub mod graph;
pub mod loss;
pub mod membership;
pub mod nodelist;
pub mod nodeset;
pub mod paths;
pub mod topology;

pub use graph::{EdgeId, NodeId, Topology};
pub use nodelist::NodeList;
pub use nodeset::NodeSet;
