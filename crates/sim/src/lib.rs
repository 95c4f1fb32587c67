//! # dcrd-sim — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate used by the DCRD reproduction
//! (Guo et al., *Delay-Cognizant Reliable Delivery for Publish/Subscribe
//! Overlay Networks*, ICDCS 2011). The paper evaluates purely in simulation,
//! so this engine is one of the systems the reproduction has to build from
//! scratch.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//!   strongly typed so that wall-clock and simulated time can never be mixed.
//! * [`EventQueue`] — a stable priority queue of timestamped events: events
//!   scheduled for the same instant pop in FIFO order, which makes whole-run
//!   results reproducible bit-for-bit for a given seed.
//! * [`rng`] — seed-derivation helpers so that every component of a large
//!   experiment gets an independent, deterministic random stream.
//! * [`stats`] — online statistics (Welford mean/variance, counters,
//!   fixed-bucket histograms and empirical CDFs) used by the metric crates.
//! * [`par`] — the workspace's one data-parallel primitive: an
//!   order-preserving map over scoped threads with a static job partition,
//!   so results (and allocation counts) never depend on scheduling.
//!
//! # Example
//!
//! ```
//! use dcrd_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! queue.schedule(SimTime::ZERO, "now");
//! let (t, ev) = queue.pop().expect("event");
//! assert_eq!(ev, "now");
//! assert_eq!(t, SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use event::EventQueue;
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
