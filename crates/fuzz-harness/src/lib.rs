//! # dcrd-fuzz-harness — deterministic in-tree fuzzing
//!
//! Structured fuzzing of the overlay runtime and the router:
//!
//! * [`script_fuzz`] — arbitrary-but-valid *event scripts*: seeded random
//!   scenarios (topology, workload, loss, failures, chaos, bounded queues,
//!   flash crowds) run end-to-end through the overlay runtime with the
//!   full invariant auditor attached. The oracle: no panics, a clean audit
//!   report, and byte-identical trace digests on re-run.
//! * [`callback_fuzz`] — the router driven callback-by-callback with
//!   hostile-but-well-formed inputs: duplicated, reordered and stale
//!   packets, fabricated ACKs and NACKs, spurious timers, membership
//!   deltas, restarts. The oracle: no panics and bounded action emission.
//!
//! Everything is seeded: every failure message names the `(seed, index)`
//! pair that reproduces it, so a fuzz finding is a deterministic unit test
//! away from a fix. The `fuzz-smoke` binary runs a budgeted pass of both
//! fuzzers for CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callback_fuzz;
pub mod script_fuzz;

pub use callback_fuzz::{run_callback_fuzz, CallbackFuzzReport};
pub use script_fuzz::{check_script, run_script_fuzz, ScriptFuzzReport};
