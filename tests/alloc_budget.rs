//! The forwarding path's allocation budget, gated in tier-1.
//!
//! DCRD's per-hop machinery — every copy carries its destination set and
//! routing path, every hop is ACKed, every send arms a timer (§III-D) — is
//! built from inline lists, recycled buffers and header-less ACKs so that
//! forwarding a packet allocates (almost) nothing. This test pins that: a
//! counting `#[global_allocator]` measures `OverlayRuntime::run` from the
//! end of `setup` (table construction is a different budget) to its return,
//! on a failure-free overlay, and divides by the data sends.
//!
//! The only test in this binary, and the counter is per thread, so nothing
//! else can move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::net::estimate::LinkEstimates;
use dcrd::net::failure::{FailureModel, LinkFailureModel};
use dcrd::net::loss::LossModel;
use dcrd::net::membership::MembershipDelta;
use dcrd::net::topology::{random_connected, DelayRange};
use dcrd::net::NodeId;
use dcrd::pubsub::packet::Packet;
use dcrd::pubsub::runtime::{OverlayRuntime, RuntimeConfig};
use dcrd::pubsub::strategy::{Actions, RoutingStrategy, SetupContext, TimerKey};
use dcrd::pubsub::workload::{Workload, WorkloadConfig};
use dcrd::sim::rng::rng_for;
use dcrd::sim::{SimDuration, SimTime};

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

/// DCRD, with the allocation counter read when `setup` returns.
struct AfterSetup {
    inner: DcrdStrategy,
    allocs_after_setup: u64,
}

impl RoutingStrategy for AfterSetup {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn setup(&mut self, ctx: &SetupContext<'_>) {
        self.inner.setup(ctx);
        self.allocs_after_setup = allocs();
    }
    fn on_publish(&mut self, n: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
        self.inner.on_publish(n, p, t, o);
    }
    fn on_packet(&mut self, n: NodeId, f: NodeId, p: Packet, t: SimTime, o: &mut Actions) {
        self.inner.on_packet(n, f, p, t, o);
    }
    fn on_ack(&mut self, n: NodeId, to: NodeId, p: &Packet, t: SimTime, o: &mut Actions) {
        self.inner.on_ack(n, to, p, t, o);
    }
    fn on_timer(&mut self, n: NodeId, k: TimerKey, t: SimTime, o: &mut Actions) {
        self.inner.on_timer(n, k, t, o);
    }
    fn on_monitor(&mut self, e: &LinkEstimates, t: SimTime) {
        self.inner.on_monitor(e, t);
    }
    fn on_membership(&mut self, d: &[MembershipDelta], t: SimTime) {
        self.inner.on_membership(d, t);
    }
    fn on_gossip(&mut self, d: &[MembershipDelta], t: SimTime) {
        self.inner.on_gossip(d, t);
    }
    fn on_tick(&mut self, n: NodeId, t: SimTime, o: &mut Actions) {
        self.inner.on_tick(n, t, o);
    }
    fn on_restart(&mut self, n: NodeId, t: SimTime, o: &mut Actions) {
        self.inner.on_restart(n, t, o);
    }
}

/// Allocations per data send the event loop may spend. Measured 0.61 when
/// pinned (publishing costs a few allocations per message — the shared
/// body, the full subscriber list, the ledger row — spread over the ≈10
/// sends a message causes here; a forwarded copy, its pending record, its
/// timer and its ACK cost none). Before the forwarding path was made
/// allocation-free the same scenario read 15.2.
const BUDGET_PER_SEND: f64 = 1.0;

#[test]
fn forwarding_stays_within_its_allocation_budget() {
    let mut rng = rng_for(7, "alloc-budget");
    let topo = random_connected(32, 5, DelayRange::PAPER, &mut rng);
    let workload = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
    let config = RuntimeConfig::paper(SimDuration::from_secs(120), 7);
    let runtime = OverlayRuntime::new(&topo, &workload, failure, LossModel::new(0.0), config);
    let mut strategy = AfterSetup {
        inner: DcrdStrategy::new(DcrdConfig::default()),
        allocs_after_setup: 0,
    };

    let log = runtime.run(&mut strategy);
    let in_loop = allocs() - strategy.allocs_after_setup;

    assert!(
        (log.delivery_ratio() - 1.0).abs() < 1e-12,
        "failure-free run"
    );
    assert!(log.data_sends > 10_000, "only {} sends", log.data_sends);
    let per_send = in_loop as f64 / log.data_sends as f64;
    println!(
        "{in_loop} allocations over {} data sends = {per_send:.3} per send",
        log.data_sends
    );
    assert!(
        per_send <= BUDGET_PER_SEND,
        "{per_send:.3} allocations per data send exceeds the budget of {BUDGET_PER_SEND}"
    );
}
