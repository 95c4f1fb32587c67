//! Table construction allocates the same number of times on every run.
//!
//! `DcrdStrategy::setup` fans the independent `(publisher, subscriber)`
//! fixed points out over worker threads. Results are deterministic by
//! construction; this test pins the quieter property the repository
//! benchmark's exact-repeat check rests on (`core.setup_allocs` must match
//! pass 0 on every pass): the *number of allocations* is deterministic too.
//! Jobs are partitioned statically (job `i` on worker `i mod T`), so every
//! worker's scratch buffers see the same pairs in the same order and grow
//! at the same points — a work-claiming queue would hand each worker a
//! scheduling-dependent subset and the count would wander.
//!
//! A process-wide counting `#[global_allocator]` (worker threads allocate
//! too) brackets consecutive `setup`s of identical inputs. The only
//! test in this binary, so no other test thread moves the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcrd::core::router::PAIR_NODES_PER_WORKER;
use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::net::estimate::analytic_estimates;
use dcrd::net::failure::{FailureModel, LinkFailureModel};
use dcrd::net::topology::{random_connected, DelayRange};
use dcrd::pubsub::strategy::{RoutingStrategy, RunParams, SetupContext};
use dcrd::pubsub::workload::{Workload, WorkloadConfig};
use dcrd::sim::par;
use dcrd::sim::rng::rng_for;

struct CountingAlloc;

/// A statistic: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn consecutive_setups_allocate_identically() {
    let mut rng = rng_for(20110620, "setup-allocs");
    let topo = random_connected(128, 8, DelayRange::PAPER, &mut rng);
    let workload = Workload::generate(
        &topo,
        &WorkloadConfig {
            num_topics: 32,
            ..WorkloadConfig::PAPER
        },
        &mut rng,
    );
    let estimates = analytic_estimates(&topo, 0.05, 0.01);
    let failure = FailureModel::links_only(LinkFailureModel::new(0.0, 1));
    let ctx = SetupContext {
        topology: &topo,
        estimates: &estimates,
        workload: &workload,
        failure_oracle: &failure,
        params: RunParams::default(),
    };
    // Large enough to earn a second worker wherever the host has one.
    let pair_nodes = workload.num_subscriptions() * topo.num_nodes();
    assert!(
        pair_nodes >= 2 * PAIR_NODES_PER_WORKER,
        "{pair_nodes} pair-nodes stay on the inline path"
    );

    let setup_allocs = || {
        let mut strategy = DcrdStrategy::new(DcrdConfig::default());
        let before = ALLOCS.load(Ordering::Relaxed);
        strategy.setup(&ctx);
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        (spent, strategy)
    };
    // Three, so a one-time cost hidden in the first fan-out shows up as
    // first != second instead of cancelling out.
    let (first, a) = setup_allocs();
    let (second, b) = setup_allocs();
    let (third, _) = setup_allocs();
    println!(
        "{first} allocations per setup, {} pairs on up to {} workers",
        workload.num_subscriptions(),
        par::available_workers()
    );
    assert_eq!(first, second, "setup allocation count drifted");
    assert_eq!(second, third, "setup allocation count drifted");

    for spec in workload.topics() {
        for sub in &spec.subscriptions {
            let built = a.tables_for(spec.topic, spec.publisher, sub.subscriber);
            assert!(built.is_some());
            assert_eq!(
                built,
                b.tables_for(spec.topic, spec.publisher, sub.subscriber)
            );
        }
    }
}
