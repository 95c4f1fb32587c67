//! Subscriber-side sequencing: gap detection and replay deduplication.
//!
//! Every published message carries a per-(topic, publisher) sequence number
//! ([`Packet::seq`]). A subscriber feeds the sequence numbers it receives
//! through one [`SequenceTracker`] per stream; the tracker answers two
//! questions the recovery layer needs:
//!
//! * **Is this copy fresh?** — [`observe`](SequenceTracker::observe)
//!   returns `false` for a sequence number already delivered, so crash
//!   replay and NACK-driven re-sends never reach the application twice.
//! * **What is missing?** —
//!   [`missing_through`](SequenceTracker::missing_through) lists the gaps
//!   up to a given horizon, which the strategy turns into NACKs toward the
//!   nearest upstream custodian.
//!
//! The dedup state is **bounded**: a low watermark (everything below it was
//! delivered) plus a window of delivered sequence numbers above it. The
//! window must cover `publish_rate × max_recovery_latency` sequence
//! numbers; if a gap persists long enough to overflow the window, the
//! tracker force-advances the watermark (counting the event) rather than
//! growing without bound — the trade the paper's aggressive state deletion
//! makes everywhere else.
//!
//! [`Packet::seq`]: crate::packet::PacketBody::seq

use std::collections::BTreeSet;

/// Default dedup-window capacity: at the paper's 1 packet/s per stream this
/// covers over 17 minutes of outstanding recovery, far beyond any crash
/// downtime the chaos models produce.
pub const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Per-(publisher, subscriber) stream state: bounded dedup window plus gap
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceTracker {
    /// Every sequence number below this was delivered (or abandoned by a
    /// forced advance).
    low: u64,
    /// Delivered sequence numbers `≥ low` (the out-of-order window).
    seen: BTreeSet<u64>,
    /// Highest sequence number ever observed, if any.
    highest: Option<u64>,
    /// Window capacity before forced watermark advances kick in.
    capacity: usize,
    /// Duplicate observations absorbed (replay / NACK re-sends).
    duplicates: u64,
    /// Times the window overflowed and the watermark jumped a gap.
    forced_advances: u64,
}

impl SequenceTracker {
    /// Creates a tracker with the given dedup-window capacity (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SequenceTracker {
            low: 0,
            seen: BTreeSet::new(),
            highest: None,
            capacity: capacity.max(1),
            duplicates: 0,
            forced_advances: 0,
        }
    }

    /// Records one received sequence number. Returns `true` when the copy
    /// is fresh (first delivery) and `false` for a duplicate the caller
    /// must suppress.
    pub fn observe(&mut self, seq: u64) -> bool {
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
        if seq < self.low || !self.seen.insert(seq) {
            self.duplicates += 1;
            return false;
        }
        // Advance the watermark over the contiguous prefix.
        while self.seen.remove(&self.low) {
            self.low += 1;
        }
        // Bounded window: drop the oldest gap when over capacity. The
        // abandoned range can no longer be deduplicated, which is why the
        // capacity must dwarf the realistic recovery horizon.
        while self.seen.len() > self.capacity {
            let Some(next) = self.seen.iter().next().copied() else {
                break; // Unreachable: len() > capacity ≥ 1 means non-empty.
            };
            self.forced_advances += 1;
            self.low = next;
            while self.seen.remove(&self.low) {
                self.low += 1;
            }
        }
        true
    }

    /// The low watermark: every sequence number below it is settled.
    #[must_use]
    pub fn low(&self) -> u64 {
        self.low
    }

    /// The highest sequence number observed so far.
    #[must_use]
    pub fn highest(&self) -> Option<u64> {
        self.highest
    }

    /// The sequence numbers in `[low, through]` that have not been
    /// delivered — the stream's current gaps up to the horizon, ascending.
    /// Lazy: a caller that keeps only some of them (the NACK budget)
    /// collects nothing else.
    pub fn missing_through(&self, through: u64) -> impl Iterator<Item = u64> + '_ {
        (self.low..=through).filter(move |s| !self.seen.contains(s))
    }

    /// Whether `seq` was already delivered.
    #[must_use]
    pub fn delivered(&self, seq: u64) -> bool {
        seq < self.low || self.seen.contains(&seq)
    }

    /// Duplicate observations absorbed so far.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Times the bounded window overflowed and abandoned a gap.
    #[must_use]
    pub fn forced_advances(&self) -> u64 {
        self.forced_advances
    }
}

impl Default for SequenceTracker {
    fn default() -> Self {
        SequenceTracker::new(DEFAULT_DEDUP_WINDOW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcrd_sim::rng::cases;

    #[test]
    fn in_order_stream_keeps_empty_window() {
        let mut t = SequenceTracker::default();
        for s in 0..100 {
            assert!(t.observe(s), "seq {s} is fresh");
        }
        assert_eq!(t.low(), 100);
        assert_eq!(t.highest(), Some(99));
        assert_eq!(t.missing_through(99).next(), None);
        assert_eq!(t.duplicates(), 0);
    }

    #[test]
    fn gaps_are_reported_and_close_on_recovery() {
        let mut t = SequenceTracker::default();
        assert!(t.observe(0));
        assert!(t.observe(3));
        assert!(t.observe(4));
        assert_eq!(t.low(), 1);
        assert!(t.missing_through(4).eq([1, 2]));
        assert!(t.observe(2));
        assert!(t.missing_through(4).eq([1]));
        assert!(t.observe(1));
        assert_eq!(t.low(), 5);
        assert_eq!(t.missing_through(4).next(), None);
    }

    /// The iterator yields the gaps the tests above assert, in order, and
    /// the same ones as the undelivered sequence numbers of `[low,
    /// through]` on random streams — also for a horizon below the
    /// watermark (nothing) and when a caller stops early.
    #[test]
    fn missing_through_yields_exactly_the_undelivered_gaps() {
        let mut t = SequenceTracker::default();
        for s in [0, 3, 4] {
            t.observe(s);
        }
        assert_eq!(t.missing_through(4).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(
            t.missing_through(9).collect::<Vec<_>>(),
            vec![1, 2, 5, 6, 7, 8, 9]
        );
        assert_eq!(t.missing_through(9).take(1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(
            t.missing_through(0).next(),
            None,
            "horizon below the watermark"
        );
        cases(
            "missing_through_yields_exactly_the_undelivered_gaps",
            128,
            |rng| {
                let mut t = SequenceTracker::new(rng.gen_range(1..64usize));
                for _ in 0..rng.gen_range(0..120usize) {
                    t.observe(rng.gen_range(0..96u64));
                }
                let through = rng.gen_range(0..128u64);
                let want: Vec<u64> = (t.low()..=through).filter(|&s| !t.delivered(s)).collect();
                assert_eq!(t.missing_through(through).collect::<Vec<_>>(), want);
            },
        );
    }

    #[test]
    fn duplicates_are_absorbed_everywhere() {
        let mut t = SequenceTracker::default();
        assert!(t.observe(0));
        assert!(t.observe(5));
        // Below the watermark, inside the window, and re-observed.
        assert!(!t.observe(0));
        assert!(!t.observe(5));
        assert!(t.observe(1));
        assert!(!t.observe(1));
        assert_eq!(t.duplicates(), 3);
    }

    #[test]
    fn window_overflow_forces_the_watermark_forward() {
        let mut t = SequenceTracker::new(4);
        // Leave seq 0 missing; deliver 1..=5 (window holds 5 > 4).
        for s in 1..=5 {
            t.observe(s);
        }
        assert_eq!(t.forced_advances(), 1);
        // The gap at 0 was abandoned: the watermark jumped past it.
        assert_eq!(t.low(), 6);
        assert_eq!(t.missing_through(5).next(), None);
        // A late copy of 0 is treated as a duplicate (it cannot be told
        // apart any more) — replay still never double-delivers.
        assert!(!t.observe(0));
    }

    #[test]
    fn delivered_tracks_both_sides_of_the_watermark() {
        let mut t = SequenceTracker::default();
        t.observe(0);
        t.observe(2);
        assert!(t.delivered(0));
        assert!(t.delivered(2));
        assert!(!t.delivered(1));
        assert!(!t.delivered(3));
    }

    /// Whatever the arrival order and duplication pattern, each
    /// sequence number is reported fresh exactly once.
    #[test]
    fn each_seq_fresh_exactly_once() {
        cases("each_seq_fresh_exactly_once", 256, |rng| {
            let mut seqs: Vec<u64> = (0..rng.gen_range(1..200usize))
                .map(|_| rng.gen_range(0..64u64))
                .collect();
            let mut t = SequenceTracker::default();
            let mut fresh = std::collections::HashSet::new();
            // Duplicate the stream to stress dedup.
            seqs.extend_from_within(..);
            for s in seqs {
                if t.observe(s) {
                    assert!(fresh.insert(s), "seq {s} fresh twice");
                }
            }
        });
    }
}
