//! The timer wheel keeps its slot buffers: once every slot a workload
//! touches has been filled and emptied, a steady schedule/pop cycle
//! allocates nothing.
//!
//! An integration test because it needs a counting `#[global_allocator]`
//! (the library forbids `unsafe`); the only test in this binary, and the
//! counter is per thread, so nothing else can move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcrd_sim::TimerWheel;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: allocations during thread teardown are not ours to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Delays (µs) in the simulator's mix: same-tick, sub-slot, link delays and
/// ACK timeouts that park in levels 1 and 2, and a publish-interval-sized
/// one that parks in level 3.
const DELAYS: [u64; 7] = [0, 7, 1_000, 10_000, 31_000, 50_000, 300_000];

/// Width of one level-4 slot, µs: a full lap of level 3.
const LEVEL3_LAP: u64 = 64u64.pow(4);

#[test]
fn steady_hold_cycle_allocates_nothing_after_the_first_lap() {
    // Payload = insertion order, assigned by the test in lock-step with the
    // wheel's own sequence numbers (both start at 0 and count inserts).
    let mut wheel: TimerWheel<u64> = TimerWheel::with_capacity(256);
    let mut next_payload = 0u64;
    let mut step = 0u64;
    let mut insert = |wheel: &mut TimerWheel<u64>, at: u64| {
        wheel.insert(at, next_payload);
        next_payload += 1;
    };
    for i in 0..200u64 {
        insert(&mut wheel, 1 + i * 97);
    }

    // The classic hold model: pop one entry, schedule its successor, so the
    // pending population stays constant.
    let mut last = (0u64, 0u64);
    let mut cycle = |wheel: &mut TimerWheel<u64>, pops: u64| {
        for _ in 0..pops {
            let (at, payload) = wheel.pop().expect("the population never drains");
            // Strict (time, insertion order): equal timestamps pop FIFO.
            assert!(
                (at, payload) > last,
                "popped {:?} after {:?}",
                (at, payload),
                last
            );
            last = (at, payload);
            let delay = DELAYS[(step % DELAYS.len() as u64) as usize];
            step += 1;
            insert(wheel, at + delay);
        }
    };

    // Warm-up: two full laps of level 3 (2 × 64^4 µs ≈ 33.6 simulated
    // seconds), so every slot of levels 0–3 has been filled and drained or
    // cascaded at least once and owns a buffer of the size it needs.
    while wheel.cursor() < 2 * LEVEL3_LAP {
        cycle(&mut wheel, 1_000);
    }

    let cursor_before = wheel.cursor();
    let before = allocs();
    cycle(&mut wheel, 30_000);
    let during = allocs() - before;
    let cursor_after = wheel.cursor();

    // The window crossed >1 000 level-1 slots (4 096 µs each) and >20
    // level-2 slots (262 144 µs each): it cascaded at levels 1, 2 and 3.
    // It stayed inside one level-4 slot, whose buffer the warm-up touched —
    // level 4 takes 64^5 µs ≈ 18 simulated minutes to lap, a first touch per
    // 16.8 s that no steady-state claim covers.
    let advanced = cursor_after - cursor_before;
    assert!(
        advanced > 20 * 64u64.pow(3),
        "window too short: {advanced} µs"
    );
    assert!(
        cursor_after + 300_000 < 3 * LEVEL3_LAP,
        "window left its level-4 slot"
    );
    assert_eq!(
        during, 0,
        "a warmed-up wheel must reuse its slot buffers, not allocate"
    );
    assert_eq!(wheel.len(), 200, "hold model keeps the population constant");
}
