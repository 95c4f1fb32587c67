//! Hierarchical timer wheel: the event queue's backing store.
//!
//! Seven levels of 64 slots each cover `64^7` µs (≈ 51 simulated days) at
//! 1 µs finest granularity; anything farther out parks in a small overflow
//! heap and is promoted when the cursor reaches its window. Insertion and
//! expiry are O(1) amortized — no per-event `O(log n)` sift like the
//! former `BinaryHeap` — and every level keeps a 64-bit occupancy mask so
//! advancing the cursor is a couple of `trailing_zeros` scans instead of a
//! slot-by-slot walk.
//!
//! # Determinism
//!
//! Events pop in `(time, insertion sequence)` order, byte-identical to the
//! binary-heap implementation this replaces. Two properties make that
//! hold:
//!
//! 1. a finest-granularity slot is exactly one microsecond — one
//!    [`SimTime`](crate::SimTime) tick — so every entry in a drained slot
//!    carries the same timestamp, and
//! 2. a drained slot is sorted by insertion sequence before it is served.
//!    The sort is required, not belt-and-braces: a cascade can append an
//!    *older* entry behind a younger one (schedule A at `t=64` from
//!    `now=0` — it parks in level 1 — then B at `t=64` from `now=63` —
//!    level 0; the cascade at `t=64` delivers A after B).
//!
//! # Allocation
//!
//! Slots are emptied in place and keep their buffers: a drained level-0
//! slot moves its entries into the ready lane, a cascaded slot re-files
//! them one by one. After the first lap around a level every push lands in
//! a buffer that already has the capacity, so a steady schedule/pop cycle
//! allocates nothing. (Level `k` laps in `64^(k+1)` µs; the upper levels
//! hold a handful of far-future entries and are first touched rarely.)
//!
//! # Cancellation
//!
//! [`cancel`](TimerWheel::cancel) is lazy: the entry stays in its slot and
//! is dropped when the cursor reaches it. [`len`](TimerWheel::len) counts
//! cancelled-but-unreaped entries until then.

use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels in the hierarchy; level `k` slots are `64^k` µs wide.
const LEVELS: usize = 7;

/// One pending timer.
struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the overflow BinaryHeap acts as a min-heap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A hierarchical timer wheel over microsecond timestamps.
///
/// Entries pop in `(time, insertion order)` — the exact order of a stable
/// min-heap keyed the same way.
pub struct TimerWheel<E> {
    /// `levels[k][s]`: entries whose time falls in level `k`, slot `s`.
    levels: Vec<Vec<Entry<E>>>,
    /// Per-level bitmask of non-empty slots.
    occupancy: [u64; LEVELS],
    /// Entries beyond the wheel horizon (`64^LEVELS` µs from the cursor).
    overflow: BinaryHeap<Entry<E>>,
    /// Entries at the cursor's exact time, sorted by sequence, served
    /// before the wheel advances again.
    ready: VecDeque<Entry<E>>,
    /// The time of the most recently drained slot. Never exceeds the
    /// earliest pending entry's time.
    cursor: u64,
    /// Next insertion sequence number (the FIFO tie-break).
    next_seq: u64,
    /// Pending entries, including cancelled ones not yet reaped.
    len: usize,
    /// Lazily-cancelled sequence numbers, reaped on pop.
    cancelled: BTreeSet<u64>,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            cancelled: BTreeSet::new(),
        }
    }

    /// Creates an empty wheel whose ready lane holds `cap` entries without
    /// reallocating.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let mut w = Self::new();
        w.ready.reserve(cap);
        w
    }

    /// Entries the ready lane can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ready.capacity()
    }

    /// Pending entries (cancelled-but-unreaped ones count until the cursor
    /// passes them).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the most recently served slot.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Inserts `event` at absolute microsecond `at`, returning its timer
    /// id. `at` earlier than the cursor is treated as "due now" (the
    /// caller is expected to clamp — see `EventQueue::schedule`).
    pub fn insert(&mut self, at: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if at <= self.cursor {
            // Due immediately: joins the current tick behind everything
            // already drained (its sequence number is the largest yet).
            self.ready.push_back(Entry {
                at: self.cursor,
                seq,
                event,
            });
            return seq;
        }
        place(
            &mut self.levels,
            &mut self.occupancy,
            &mut self.overflow,
            self.cursor,
            Entry { at, seq, event },
        );
        seq
    }

    /// Cancels the pending timer `id` (as returned by [`insert`]). Lazy:
    /// the entry is dropped when the cursor reaches its slot. Cancelling
    /// an id that already fired marks nothing and returns `false`.
    ///
    /// [`insert`]: TimerWheel::insert
    pub fn cancel(&mut self, id: u64) -> bool {
        if id >= self.next_seq || !self.cancelled.insert(id) {
            return false;
        }
        true
    }

    /// Earliest pending entry's time, skipping cancelled entries. Does not
    /// advance the cursor.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        if let Some(e) = self.ready.iter().find(|e| !self.cancelled.contains(&e.seq)) {
            return Some(e.at);
        }
        // Occupied slots at level k ≥ 1 sit strictly beyond the cursor's
        // slot (an entry inside the cursor's slot always files lower), and
        // every level-k entry precedes every level-(k+1) entry (it shares
        // the cursor's level-(k+1) slot; higher entries do not), so the
        // lowest occupied level holds the minimum. Level 0 scans its
        // current slot too: a cascade can file entries at the exact slot
        // the cursor just jumped to.
        for k in 0..LEVELS {
            let cur = slot_of(self.cursor, k);
            let mask = if k == 0 {
                mask_at_or_above(self.occupancy[k], cur)
            } else {
                mask_above(self.occupancy[k], cur)
            };
            if mask != 0 {
                let s = mask.trailing_zeros() as usize;
                let min = self.levels[k * SLOTS + s]
                    .iter()
                    .filter(|e| !self.cancelled.contains(&e.seq))
                    .map(|e| (e.at, e.seq))
                    .min();
                if let Some((at, _)) = min {
                    return Some(at);
                }
                // Slot held only cancelled entries; later slots at this or
                // higher levels may still hold live ones. Fall through to a
                // full scan — rare (cancellation-heavy slots only).
                return self.peek_time_slow();
            }
        }
        self.overflow
            .iter()
            .filter(|e| !self.cancelled.contains(&e.seq))
            .map(|e| (e.at, e.seq))
            .min()
            .map(|(at, _)| at)
    }

    /// Full scan fallback for [`peek_time`](TimerWheel::peek_time) when the
    /// first occupied slot turned out to be all-cancelled.
    fn peek_time_slow(&self) -> Option<u64> {
        self.levels
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .filter(|e| !self.cancelled.contains(&e.seq))
            .map(|e| e.at)
            .min()
    }

    /// Pops the earliest entry in `(time, sequence)` order, reaping
    /// cancelled entries along the way.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        loop {
            match self.ready.pop_front() {
                Some(e) => {
                    self.len -= 1;
                    if self.cancelled.remove(&e.seq) {
                        continue;
                    }
                    return Some((e.at, e.event));
                }
                None => {
                    if !self.advance() {
                        return None;
                    }
                }
            }
        }
    }

    /// Drops all pending entries without moving the cursor.
    pub fn clear(&mut self) {
        for slot in &mut self.levels {
            slot.clear();
        }
        self.occupancy = [0; LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.cancelled.clear();
        self.len = 0;
    }

    /// Advances the cursor to the next occupied time and fills the ready
    /// lane from it (sorted by sequence). Returns `false` when nothing is
    /// pending.
    fn advance(&mut self) -> bool {
        let TimerWheel {
            levels,
            occupancy,
            overflow,
            ready,
            cursor,
            ..
        } = self;
        loop {
            // Finest level first: the next occupied 1 µs slot is the next
            // event time exactly. The scan includes the cursor's own slot —
            // a cascade files entries at the exact slot the cursor jumped
            // to, and a served slot can never be re-occupied (entries due
            // at `cursor` go to the ready lane, never into the wheel).
            let cur0 = slot_of(*cursor, 0);
            let occ0 = occupancy.first().copied().unwrap_or(0);
            let mask = mask_at_or_above(occ0, cur0);
            if mask != 0 {
                let s = mask.trailing_zeros() as usize;
                if let Some(occ) = occupancy.first_mut() {
                    *occ &= !(1 << s);
                }
                *cursor = (*cursor & !(SLOTS as u64 - 1)) | s as u64;
                if let Some(slot) = levels.get_mut(s) {
                    // Equal timestamps by construction; the sequence sort
                    // restores global FIFO across direct inserts and
                    // cascades. Draining in place leaves the slot its buffer.
                    slot.sort_unstable_by_key(|e| e.seq);
                    debug_assert!(slot.iter().all(|e| e.at == *cursor));
                    ready.extend(slot.drain(..));
                }
                return true;
            }
            // Cascade: jump to the next occupied slot of the lowest
            // non-empty level and re-file its entries one level down.
            let mut cascaded = false;
            for k in 1..LEVELS {
                let cur = slot_of(*cursor, k);
                let occ_k = occupancy.get(k).copied().unwrap_or(0);
                let mask = mask_above(occ_k, cur);
                if mask == 0 {
                    continue;
                }
                let s = mask.trailing_zeros() as usize;
                if let Some(occ) = occupancy.get_mut(k) {
                    *occ &= !(1 << s);
                }
                let shift = SLOT_BITS * k as u32;
                // Move the cursor to the slot's start (zeroing the bits
                // below it) — still at or before every pending entry.
                *cursor = (*cursor & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((s as u64) << shift);
                // Every entry re-files at a lower level (its level-`k`
                // window is now the cursor's), never back into this slot;
                // the order it leaves in is immaterial, since only the
                // level-0 drain's sequence sort fixes the pop order.
                while let Some(entry) = levels.get_mut(k * SLOTS + s).and_then(Vec::pop) {
                    debug_assert!(entry.at >= *cursor);
                    place(levels, occupancy, overflow, *cursor, entry);
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel exhausted: promote the earliest overflow window.
            let Some(min) = overflow.peek().map(|e| e.at) else {
                return false;
            };
            let top = SLOT_BITS * LEVELS as u32;
            let base = min & !((1u64 << top) - 1);
            *cursor = (*cursor).max(base);
            while overflow
                .peek()
                .is_some_and(|e| e.at >> top == *cursor >> top)
            {
                let Some(e) = overflow.pop() else {
                    break;
                };
                place(levels, occupancy, overflow, *cursor, e);
            }
        }
    }
}

/// Slot index of time `t` at level `k`.
fn slot_of(t: u64, k: usize) -> usize {
    ((t >> (SLOT_BITS * k as u32)) & (SLOTS as u64 - 1)) as usize
}

/// Files an entry with `at > cursor` into its wheel slot or the overflow
/// heap. A free function over the wheel's parts, so `advance` can call it
/// while it also holds the ready lane and the cursor.
fn place<E>(
    levels: &mut [Vec<Entry<E>>],
    occupancy: &mut [u64; LEVELS],
    overflow: &mut BinaryHeap<Entry<E>>,
    cursor: u64,
    entry: Entry<E>,
) {
    let at = entry.at;
    for k in 0..LEVELS {
        // Lowest level whose window (everything above the slot bits)
        // matches the cursor: the entry's slot there is still ahead of
        // the cursor's, so it cascades (or drains) exactly on time.
        if at >> (SLOT_BITS * (k as u32 + 1)) == cursor >> (SLOT_BITS * (k as u32 + 1)) {
            let s = slot_of(at, k);
            // `k * SLOTS + s` is in bounds by construction (`k < LEVELS`,
            // `s < SLOTS`); the degraded path parks the entry in the
            // overflow heap, which still pops it on time.
            let Some(slot) = levels.get_mut(k * SLOTS + s) else {
                break;
            };
            slot.push(entry);
            if let Some(occ) = occupancy.get_mut(k) {
                *occ |= 1 << s;
            }
            return;
        }
    }
    overflow.push(entry);
}

impl<E> std::fmt::Debug for TimerWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("cursor", &self.cursor)
            .field("len", &self.len)
            .field("cancelled", &self.cancelled.len())
            .finish()
    }
}

/// Bits of `occ` strictly above bit `bit` (empty mask for bit 63).
fn mask_above(occ: u64, bit: usize) -> u64 {
    if bit >= SLOTS - 1 {
        0
    } else {
        occ & (!0u64 << (bit + 1))
    }
}

/// Bits of `occ` at or above bit `bit`.
fn mask_at_or_above(occ: u64, bit: usize) -> u64 {
    occ & (!0u64 << bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop()).collect()
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut w = TimerWheel::new();
        w.insert(30, 3);
        w.insert(10, 1);
        w.insert(20, 2);
        assert_eq!(drain(&mut w), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_tick_pops_fifo() {
        let mut w = TimerWheel::new();
        for i in 0..100 {
            w.insert(5_000, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cascade_preserves_insertion_order_within_a_tick() {
        // A parks in level 1 (t=64 seen from cursor 0); B goes straight to
        // level 0 (t=64 seen from cursor 63). The cascade at t=64 must
        // still serve A (older) first.
        let mut w = TimerWheel::new();
        w.insert(64, 1); // level 1
        w.insert(63, 0);
        assert_eq!(w.pop(), Some((63, 0))); // cursor now 63
        w.insert(64, 2); // level 0, younger than the parked entry
        assert_eq!(w.pop(), Some((64, 1)));
        assert_eq!(w.pop(), Some((64, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn entries_due_now_join_the_current_tick_in_order() {
        let mut w = TimerWheel::new();
        w.insert(10, 1);
        w.insert(10, 2);
        assert_eq!(w.pop(), Some((10, 1)));
        // Scheduled "now" mid-tick: runs after everything already due.
        w.insert(10, 3);
        w.insert(5, 4); // past: treated as due now
        assert_eq!(w.pop(), Some((10, 2)));
        assert_eq!(w.pop(), Some((10, 3)));
        assert_eq!(w.pop(), Some((10, 4)));
    }

    #[test]
    fn spans_every_level_and_overflow() {
        let mut w = TimerWheel::new();
        // One entry per level width, plus one beyond the horizon.
        let mut times: Vec<u64> = (0..LEVELS as u32).map(|k| 3 << (SLOT_BITS * k)).collect();
        times.push(1 << (SLOT_BITS * LEVELS as u32)); // overflow
        times.push((1 << (SLOT_BITS * LEVELS as u32)) + 7); // same window
        for (i, &t) in times.iter().enumerate() {
            w.insert(t, i as u32);
        }
        let popped = drain(&mut w);
        let expect: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn cancellation_is_lazy_but_effective() {
        let mut w = TimerWheel::new();
        let a = w.insert(100, 1);
        let b = w.insert(100, 2);
        let c = w.insert(200, 3);
        assert_eq!(w.len(), 3);
        assert!(w.cancel(b));
        assert!(!w.cancel(b), "double-cancel reports false");
        assert!(!w.cancel(999), "unknown id reports false");
        assert_eq!(w.len(), 3, "lazy: unreaped entry still counted");
        assert_eq!(w.peek_time(), Some(100));
        assert_eq!(w.pop(), Some((100, 1)));
        assert_eq!(w.pop(), Some((200, 3)), "cancelled entry skipped");
        assert_eq!(w.pop(), None);
        let _ = (a, c);
    }

    #[test]
    fn cancelling_a_whole_slot_peeks_past_it() {
        let mut w = TimerWheel::new();
        let a = w.insert(50, 1);
        w.insert(70, 2);
        assert!(w.cancel(a));
        assert_eq!(w.peek_time(), Some(70));
        assert_eq!(w.pop(), Some((70, 2)));
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 9); // level 3 territory
        assert_eq!(w.peek_time(), Some(1_000_000));
        w.insert(500, 1);
        assert_eq!(w.peek_time(), Some(500));
        assert_eq!(drain(&mut w), vec![(500, 1), (1_000_000, 9)]);
    }

    #[test]
    fn clear_keeps_cursor() {
        let mut w = TimerWheel::new();
        w.insert(10, 1);
        w.pop();
        w.insert(20, 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.cursor(), 10);
        w.insert(15, 3);
        assert_eq!(w.pop(), Some((15, 3)));
    }

    #[test]
    fn interleaved_cascades_stay_sorted() {
        // Cross several level boundaries with fresh inserts between pops.
        let mut w = TimerWheel::new();
        w.insert(1, 0);
        w.insert(4_100, 1); // level 1
        w.insert(300_000, 2); // level 2
        let mut got = Vec::new();
        while let Some((t, e)) = w.pop() {
            got.push((t, e));
            if e == 0 {
                w.insert(4_100, 3); // same future tick as entry 1
                w.insert(2, 4);
            }
        }
        assert_eq!(
            got,
            vec![(1, 0), (2, 4), (4_100, 1), (4_100, 3), (300_000, 2)]
        );
    }
}
