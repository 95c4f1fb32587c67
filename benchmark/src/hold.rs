//! The classic *hold model* for the event queue alone: preload a
//! standalone `EventQueue` to the run's peak length, then repeatedly pop
//! the earliest event and schedule a replacement `increment` later. What
//! it costs per step is what the queue/wheel layer costs per simulator
//! event, with no router or runtime around it.

use std::time::Instant;

use dcrd_sim::rng::derive_seed_indexed;
use dcrd_sim::{EventQueue, SimDuration, SimTime};

/// Builds the increment table: the run's own mix of link delays (one per
/// data send), ACK timeouts (`delay + 1 ms`, one per data send) and the
/// 1 s publish interval (one per message), `size` entries drawn by those
/// weights from the `"hold"` stream of `seed`.
pub fn increment_mix(
    seed: u64,
    link_delays_us: &[u64],
    sends: u64,
    messages: u64,
    size: usize,
) -> Vec<u64> {
    let total = (2 * sends + messages).max(1);
    (0..size as u64)
        .map(|i| {
            let pick = derive_seed_indexed(seed, "hold-kind", i) % total;
            let link = if link_delays_us.is_empty() {
                30_000
            } else {
                let at = derive_seed_indexed(seed, "hold-link", i) % link_delays_us.len() as u64;
                link_delays_us[at as usize]
            };
            if pick < sends {
                link
            } else if pick < 2 * sends {
                link + 1_000
            } else {
                1_000_000
            }
        })
        .collect()
}

pub struct HoldResult {
    pub steps: u64,
    pub ns: u64,
    /// Pop timestamps never decreased.
    pub monotone: bool,
}

/// Runs `steps` hold steps on a queue preloaded with `preload` events.
pub fn hold(preload: usize, steps: u64, increments_us: &[u64]) -> HoldResult {
    assert!(!increments_us.is_empty(), "hold model needs increments");
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(preload);
    let mut next = 0usize;
    let mut draw = || {
        let inc = increments_us[next];
        next = (next + 1) % increments_us.len();
        SimDuration::from_micros(inc)
    };
    for i in 0..preload {
        queue.schedule(SimTime::ZERO + draw(), i as u64);
    }
    let mut monotone = true;
    let mut last = SimTime::ZERO;
    let start = Instant::now();
    let mut done = 0u64;
    while done < steps {
        let Some((at, payload)) = queue.pop() else {
            break;
        };
        monotone &= at >= last;
        last = at;
        queue.schedule(at + draw(), std::hint::black_box(payload));
        done += 1;
    }
    HoldResult {
        steps: done,
        ns: start.elapsed().as_nanos() as u64,
        monotone,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_pops_in_non_decreasing_time_and_keeps_the_population() {
        let mix = increment_mix(9, &[10_000, 25_000, 50_000], 700, 30, 512);
        assert_eq!(mix.len(), 512);
        assert!(mix.contains(&1_000_000), "publish interval drawn");
        assert!(mix.contains(&26_000), "ack timeout drawn");
        let r = hold(200, 20_000, &mix);
        assert_eq!(r.steps, 20_000);
        assert!(r.monotone);
        assert!(r.ns > 0);
    }

    #[test]
    fn empty_preload_does_no_steps() {
        let r = hold(0, 100, &[5]);
        assert_eq!(r.steps, 0);
        assert!(r.monotone);
    }
}
