//! Iteration-order pins: seeded chaos runs at 64 and 256 brokers must keep
//! reproducing one trace digest each, byte for byte.
//!
//! A trace digest moves whenever any event moves, so these two runs catch
//! iteration-order changes in exactly the engine state that performance
//! work keeps rewriting: the CSR neighbour layout, the timer wheel's
//! tie-breaks, the slab-backed `PacketNodeMap` that holds the router's
//! per-packet state, and the dense routing-table store. A change that is
//! meant to be trace-neutral must leave both constants untouched; one that
//! is not must say why it moves them.
//!
//! The constants were first recorded on the map-adjacency/binary-heap
//! engine that preceded the CSR/timer-wheel rebuild, against a `rand` build
//! this workspace no longer reproduces, and so failed at every commit after
//! it. They are re-pinned to the digests of `rand` 0.8.5's streams, which
//! `dcrd_sim::rng` draws bit for bit. Those values have been stable since
//! the allocation-free forwarding path landed, and the dense table store,
//! the slab-backed packet map and the in-tree generator reproduce them.
//!
//! They were re-recorded once more when the adaptive ACK timer and its
//! circuit breaker were deleted: these runs used to take the
//! chaos-hardened router, which ran that timer, and now take the paper's
//! fixed timer, so every retransmission and failover moves. The new values
//! are the ones the old code gives with the fixed timer switched on.
//! Re-record with `DCRD_PRINT_DIGESTS=1`.

use dcrd::core::{DcrdConfig, DcrdStrategy};
use dcrd::net::chaos::{ChaosModel, CrashRestartModel, GrayLinkModel};
use dcrd::net::failure::{FailureModel, LinkFailureModel, LinkOutageModel};
use dcrd::net::loss::LossModel;
use dcrd::net::topology::{random_connected, DelayRange};
use dcrd::pubsub::runtime::{OverlayRuntime, RuntimeConfig};
use dcrd::pubsub::workload::{Workload, WorkloadConfig};
use dcrd::sim::rng::rng_for;
use dcrd::sim::SimDuration;

/// Trace digest of the seeded chaos scenario at `nodes` brokers.
fn chaos_digest(nodes: usize, degree: usize, duration_secs: u64, seed: u64) -> (u64, u64) {
    let topo = random_connected(nodes, degree, DelayRange::PAPER, &mut rng_for(seed, "topo"));
    let workload = Workload::generate(
        &topo,
        &WorkloadConfig {
            num_topics: 12,
            ..WorkloadConfig::PAPER
        },
        &mut rng_for(seed, "workload"),
    );
    let chaos = ChaosModel::none()
        .with_crashes(CrashRestartModel::new(0.02, 2.0, seed ^ 0xC4A5))
        .with_gray(GrayLinkModel::new(0.15, 0.2, 2.0, seed ^ 0x6EA7));
    let links = LinkOutageModel::Epoch(LinkFailureModel::new(0.05, seed ^ 0xF00D));
    let failure = FailureModel::new(links, None).with_chaos(chaos);
    let mut config = RuntimeConfig::paper(SimDuration::from_secs(duration_secs), seed);
    config.capture_trace = true;
    let runtime = OverlayRuntime::new(&topo, &workload, failure, LossModel::new(0.01), config);
    let mut strategy = DcrdStrategy::new(DcrdConfig::default());
    let log = runtime.run(&mut strategy);
    let trace = log.trace.as_ref().expect("trace captured");
    assert!(!trace.is_empty(), "chaos run produced no events");
    (trace.digest(), log.clamped_events)
}

/// 14077153016560100151.
const DIGEST_64: u64 = 0xc35c_1815_a8e2_2337;
/// 17492527371067177835.
const DIGEST_256: u64 = 0xf2c1_f0f6_f041_bb6b;

#[test]
fn csr_wheel_engine_matches_map_heap_digest_64_brokers() {
    let (digest, clamped) = chaos_digest(64, 6, 20, 20_011);
    if std::env::var("DCRD_PRINT_DIGESTS").is_ok() {
        println!("DIGEST_64 = {digest:#018x}");
        return;
    }
    assert_eq!(digest, DIGEST_64, "64-broker chaos trace digest moved");
    assert_eq!(clamped, 0, "chaos scenario clamped past-scheduled events");
}

#[test]
fn csr_wheel_engine_matches_map_heap_digest_256_brokers() {
    let (digest, clamped) = chaos_digest(256, 8, 8, 20_012);
    if std::env::var("DCRD_PRINT_DIGESTS").is_ok() {
        println!("DIGEST_256 = {digest:#018x}");
        return;
    }
    assert_eq!(digest, DIGEST_256, "256-broker chaos trace digest moved");
    assert_eq!(clamped, 0, "chaos scenario clamped past-scheduled events");
}
