//! The forwarding path's and the table repair's allocation budgets, gated
//! in tier-1.
//!
//! DCRD's per-hop machinery — every copy carries its destination set and
//! routing path, every hop is ACKed, every send arms a timer (§III-D) — is
//! built from inline lists, recycled buffers and header-less ACKs so that
//! forwarding a packet allocates (almost) nothing. This test pins that: a
//! counting `#[global_allocator]` measures `OverlayRuntime::run` from the
//! end of `setup` (table construction is a different budget) to its return,
//! on a failure-free overlay, and divides by the data sends. Two overlays:
//! a random one whose paths stay inline, and a long line whose paths spill
//! into the record's shared prefix.
//!
//! A third case runs the random overlay again with the invariant auditor
//! on: the auditor checks every hop of every message, and its books must
//! grow by amortised doubling, not by an allocation per message.
//!
//! A fourth case counts what one membership table repair allocates, and
//! what building the tables it invalidated at their first read allocates:
//! a broker recomputes its tables on every neighbourhood change (§III-B),
//! and each build recycles what the last one left behind.
//!
//! A fifth case runs the random overlay under durable custody
//! (`recovery_hardened()`), whose journal, write timers and NACK sweep
//! sit beside every send, so that path has a budget of its own.
//!
//! The counter is per thread and each test runs on its own thread, so the
//! cases cannot move each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::net::estimate::{analytic_estimates, LinkEstimates};
use dcrd::net::failure::{FailureModel, LinkFailureModel};
use dcrd::net::loss::LossModel;
use dcrd::net::membership::MembershipDelta;
use dcrd::net::topology::{line, random_connected, DelayRange};
use dcrd::net::{NodeId, Topology};
use dcrd::pubsub::packet::Packet;
use dcrd::pubsub::runtime::{OverlayRuntime, RuntimeConfig};
use dcrd::pubsub::strategy::{Actions, RoutingStrategy, RunParams, SetupContext, TimerKey};
use dcrd::pubsub::topic::{Subscription, TopicId};
use dcrd::pubsub::workload::{TopicSpec, Workload, WorkloadConfig};
use dcrd::pubsub::AuditConfig;
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

/// Runs DCRD under `dcrd` failure- and loss-free over `topo`, audited with
/// `audit` if given, and returns the event loop's allocations per data
/// send, after checking that everything was delivered, that the audit is
/// clean and that the run is long enough to mean something.
fn allocs_per_send(
    topo: &Topology,
    workload: &Workload,
    dcrd: DcrdConfig,
    audit: Option<AuditConfig>,
) -> f64 {
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
    let config = RuntimeConfig {
        audit,
        ..RuntimeConfig::paper(SimDuration::from_secs(120), 7)
    };
    let runtime = OverlayRuntime::new(topo, workload, failure, LossModel::new(0.0), config);
    let mut strategy = AfterSetup {
        inner: DcrdStrategy::new(dcrd),
        allocs_after_setup: 0,
    };

    let log = runtime.run(&mut strategy);
    let in_loop = allocs() - strategy.allocs_after_setup;

    assert!(
        (log.delivery_ratio() - 1.0).abs() < 1e-12,
        "failure-free run"
    );
    assert!(log.data_sends > 10_000, "only {} sends", log.data_sends);
    assert!(
        log.audit.as_ref().is_none_or(|r| r.is_clean()),
        "{:?}",
        log.audit
    );
    let per_send = in_loop as f64 / log.data_sends as f64;
    println!(
        "{in_loop} allocations over {} data sends = {per_send:.3} per send",
        log.data_sends
    );
    per_send
}

/// Allocations per data send the event loop may spend. Measured 0.61 when
/// pinned (publishing costs a few allocations per message — the shared
/// body, the full subscriber list, the ledger row — spread over the ≈10
/// sends a message causes here; a forwarded copy, its pending record, its
/// timer and its ACK cost none). Before the forwarding path was made
/// allocation-free the same scenario read 15.2; since emptied ledger and
/// router rows hand their buffers to the next packet's, it read 0.373,
/// and since a publish stopped collecting its active subscriptions, 0.197.
/// Since the delivery ledger became one append-only table instead of a row
/// per message, 0.144.
const BUDGET_PER_SEND: f64 = 1.0;

/// The 32-broker random overlay and paper workload the forwarding budget
/// and the audited case share.
fn paper_overlay() -> (Topology, Workload) {
    let mut rng = rng_for(7, "alloc-budget");
    let topo = random_connected(32, 5, DelayRange::PAPER, &mut rng);
    let workload = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
    (topo, workload)
}

#[test]
fn forwarding_stays_within_its_allocation_budget() {
    let (topo, workload) = paper_overlay();
    let per_send = allocs_per_send(&topo, &workload, DcrdConfig::default(), None);
    assert!(
        per_send <= BUDGET_PER_SEND,
        "{per_send:.3} allocations per data send exceeds the budget of {BUDGET_PER_SEND}"
    );
}

/// What the invariant auditor may add per data send. Its per-message rows
/// sit in one array and every message's links in one arena, so it adds
/// only the amortised doublings of those. Measured 0.001 (0.145 audited
/// against 0.144); 0.203 while each message's links were a vector of
/// their own (0.400 against 0.197).
const AUDIT_SURCHARGE_PER_SEND: f64 = 0.01;

#[test]
fn auditing_adds_no_allocation_per_message() {
    let (topo, workload) = paper_overlay();
    let plain = allocs_per_send(&topo, &workload, DcrdConfig::default(), None);
    let audited = allocs_per_send(
        &topo,
        &workload,
        DcrdConfig::default(),
        Some(AuditConfig::default()),
    );
    assert!(
        audited <= plain + AUDIT_SURCHARGE_PER_SEND,
        "auditing costs {audited:.3} allocations per data send against {plain:.3} without, \
         more than {AUDIT_SURCHARGE_PER_SEND} extra"
    );
}

/// Allocations per data send under durable custody: every broker journals
/// each packet it takes (a clone of the packet and a map node per entry)
/// and every subscriber keeps a sequence tracker, so the budget sits above
/// the paper configuration's. Measured 0.280 when pinned (6 318 allocations
/// over 22 560 sends).
const CUSTODY_BUDGET_PER_SEND: f64 = 0.5;

/// The forwarding budget's overlay under `recovery_hardened()`: the custody
/// journal, its write-cost timers, restart replay and the NACK sweep.
#[test]
fn custody_stays_within_its_allocation_budget() {
    let (topo, workload) = paper_overlay();
    let per_send = allocs_per_send(&topo, &workload, DcrdConfig::recovery_hardened(), None);
    assert!(
        per_send <= CUSTODY_BUDGET_PER_SEND,
        "{per_send:.3} allocations per data send exceeds the budget of {CUSTODY_BUDGET_PER_SEND}"
    );
}

/// Allocations per data send when every path outgrows the record's inline
/// 8 brokers. Measured 0.363 with the shared path prefix (10 024
/// allocations over 27 623 sends), against 1.580 (43 648) when the path
/// was an inline list that spilled into a `Vec` and was copied on every
/// hop and every clone of a copy; 0.276 (7 622) once a publish stopped
/// collecting its subscribers, and 0.232 (6 420) once the delivery ledger
/// stopped opening a row per message.
const LONG_PATH_BUDGET_PER_SEND: f64 = 0.5;

/// A 24-broker line with the publisher at one end and 8 subscribers at
/// brokers 16–23: every copy past broker 8 carries a spilled path, while
/// its at most 8 destinations stay inline, so only the path can allocate.
#[test]
fn long_paths_stay_within_their_allocation_budget() {
    let topo = line(24, SimDuration::from_millis(10));
    let workload = Workload::from_topics(vec![TopicSpec {
        topic: TopicId::new(0),
        publisher: topo.node(0),
        interval: SimDuration::from_millis(100),
        offset: SimDuration::ZERO,
        subscriptions: (16..24)
            .map(|i| Subscription::new(topo.node(i), SimDuration::from_secs(1)))
            .collect(),
        burst: None,
    }]);
    let per_send = allocs_per_send(&topo, &workload, DcrdConfig::default(), None);
    assert!(
        per_send <= LONG_PATH_BUDGET_PER_SEND,
        "{per_send:.3} allocations per data send exceeds the budget of {LONG_PATH_BUDGET_PER_SEND}"
    );
}

/// Allocations one membership repair of a 32-broker overlay may make.
/// Before the table builder kept its buffers, each repair here made 710 to
/// 747: four fresh vectors per recomputed pair, plus the link stats,
/// snapshot, bounds, trees and workspace of every build. Reusing them, a
/// repair made 3: its job list, the jobs with their recycled tables, and
/// the built list. Since a repair only invalidates the tables, and routing
/// builds each at its first read, a repair makes none.
const REPAIR_BUDGET: u64 = 0;

/// Allocations the first read of an invalidated table may make per table
/// it builds. The build refills the table's own buffers on the builder's
/// kept workspace, so it makes none; building through the batch `build`
/// instead would collect a one-job list and a result list per read.
const SETTLE_BUDGET: u64 = 0;

/// One warm-up leave and join, then 20 alternating leave/join deltas on
/// brokers that publish nothing, each applied by a repair and followed by
/// a read of every subscription's tables through the router, which builds
/// every table the repair invalidated.
#[test]
fn repair_stays_within_its_allocation_budget() {
    let mut rng = rng_for(7, "alloc-repair");
    let topo = random_connected(32, 6, DelayRange::PAPER, &mut rng);
    let workload = Workload::generate(&topo, &WorkloadConfig::PAPER, &mut rng);
    let estimates = analytic_estimates(&topo, 0.05, 0.01);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
    let mut strategy = DcrdStrategy::new(DcrdConfig {
        repair: true,
        ..DcrdConfig::default()
    });
    strategy.setup(&SetupContext {
        topology: &topo,
        estimates: &estimates,
        workload: &workload,
        failure_oracle: &failure,
        params: RunParams::default(),
    });
    let interior: Vec<NodeId> = topo
        .nodes()
        .filter(|&n| workload.topics().iter().all(|t| t.publisher != n))
        .collect();
    let delta = |step: usize| {
        let node = interior[(step / 2) % interior.len()];
        if step.is_multiple_of(2) {
            MembershipDelta::Leave { node }
        } else {
            MembershipDelta::Join { node }
        }
    };
    let read_all = |strategy: &mut DcrdStrategy| {
        for spec in workload.topics() {
            for sub in &spec.subscriptions {
                let tables =
                    strategy.settled_tables_for(spec.topic, spec.publisher, sub.subscriber);
                assert!(
                    tables.is_some(),
                    "{:?} → {} has no tables",
                    spec.topic,
                    sub.subscriber
                );
            }
        }
    };
    let now = SimTime::from_secs(1);
    for step in 0..2 {
        strategy.on_membership(&[delta(step)], now);
        read_all(&mut strategy);
    }

    let repairs_before = strategy.incremental_repairs();
    let (mut per_repair, mut per_read) = (Vec::new(), Vec::new());
    for step in 2..22 {
        let before = allocs();
        strategy.on_membership(&[delta(step)], now);
        per_repair.push(allocs() - before);
        let (before, builds) = (allocs(), strategy.table_builds());
        read_all(&mut strategy);
        per_read.push((allocs() - before, strategy.table_builds() - builds));
    }
    assert_eq!(strategy.incremental_repairs() - repairs_before, 20);
    println!("allocations per repair: {per_repair:?}");
    println!("(allocations, tables built) per read of every table: {per_read:?}");
    let worst = per_repair.iter().copied().max().unwrap_or(0);
    assert!(
        !per_repair.iter().any(|&made| made > REPAIR_BUDGET),
        "a repair made {worst} allocations, over the budget of {REPAIR_BUDGET}: {per_repair:?}"
    );
    let built: u64 = per_read.iter().map(|&(_, b)| b).sum();
    assert!(built > 0, "no read built a table: {per_read:?}");
    for &(made, builds) in &per_read {
        assert!(
            made <= SETTLE_BUDGET * builds,
            "{made} allocations for {builds} table builds, over {SETTLE_BUDGET} per build: {per_read:?}"
        );
    }
}
