//! The five workloads. Every shape is a compile-time constant: nothing
//! adapts to the host, so every count repeats exactly for a given seed.
//!
//! Each is built through `dcrd_experiments::scenario::ScenarioBuilder` and
//! the `runner::build_*` functions, so it is what the experiments CLI
//! would run. One *pass* of a workload runs `instances` independent
//! simulations (repetition indices `0..instances` of the scenario), which
//! pools enough topologies that the simulated metrics do not hinge on one
//! random graph.

use dcrd_core::DcrdConfig;
use dcrd_experiments::hostile::hostile_config;
use dcrd_experiments::scenario::{
    BrokerChurnSpec, ControlPlane, CrashSpec, GraySpec, PartitionSpec, Scenario, ScenarioBuilder,
};
use dcrd_pubsub::runtime::ShedPolicy;
use dcrd_pubsub::workload::BurstConfig;
use dcrd_sim::rng::derive_seed;
use dcrd_sim::SimDuration;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists: the layer it stresses and what must *not* move on it.
    pub why: &'static str,
    /// Frozen shape, printed in the report header.
    pub shape: &'static str,
    /// Simulations per pass.
    pub instances: u32,
    /// Record the full `Trace` (the observability layer's cost).
    pub capture_trace: bool,
    /// `delivery_ratio` below this fails the correctness check: well under
    /// the lowest value seen over 42 seeds (see README), so only a broken
    /// router trips it.
    pub delivery_floor: f64,
    build: fn() -> ScenarioBuilder,
}

impl Workload {
    /// The scenario for a benchmark seed. Every topology, workload,
    /// failure and runtime seed derives from `seed` through
    /// `dcrd_sim::rng` (the runner derives per-repetition streams from
    /// `Scenario::seed`).
    pub fn scenario(&self, seed: u64) -> Scenario {
        (self.build)()
            .repetitions(self.instances)
            .seed(derive_seed(seed, self.name))
            .build()
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady-64",
        why: "forwarding fast path: queue, dispatch and router on_packet/on_ack do the work, table \
              build is small; a table-build change must not move it",
        shape: "64 brokers, degree 6, 16 topics, Pf 0.05, Pl 0.01, default config, m=1, audit off; \
                6 x 240 sim-s",
        instances: 6,
        capture_trace: false,
        delivery_floor: 0.99,
        build: steady,
    },
    Workload {
        name: "build-256",
        why: "table construction: ~1.6k independent fixed points per setup dominate wall time; an \
              event-loop change must not move setup_s here",
        shape: "256 brokers, degree 8, 16 topics, Pf 0.05, Pl 0.01, default config; 3 x 15 sim-s",
        instances: 3,
        capture_trace: false,
        delivery_floor: 0.99,
        build,
    },
    Workload {
        name: "churn-32",
        why: "table layer used incrementally: masked repair on membership deltas, plus the SWIM \
              detector, custody journal and NACK recovery under partitions and crashes",
        shape: "32 brokers, degree 6, 12 topics, Pf 0.02, Pl 0.01, broker churn 0.2, oracle control plane, \
                30% partition 4s/20s, crashes 0.02/2, churn_hardened, audit on; 5 x 60 sim-s",
        instances: 5,
        capture_trace: false,
        delivery_floor: 0.95,
        build: churn,
    },
    Workload {
        name: "storm-64",
        why: "slow path with observability on: ACK timers, retransmissions, breaker and reroute \
              dominate, auditor and Trace capture are enabled so their cost shows beside steady-64",
        shape: "64 brokers, degree 6, 12 topics, bursty Pf 0.10 (mean 3), Pl 0.05, gray 0.15/0.2/x2, \
                crashes 0.02/2, m=2, chaos_hardened, audit+trace on; 8 x 40 sim-s",
        instances: 8,
        capture_trace: true,
        delivery_floor: 0.85,
        build: storm,
    },
    Workload {
        name: "overload-64",
        why: "per-broker queueing and shedding in pubsub::runtime: bounded LeastSlack queues under a \
              x4 flash crowd; the only workload where sheds and queue depth are non-zero",
        shape: "geo_tiered(4,16), 32 topics, Zipf 1.2 mega 0.9, x4 flash crowd over the middle half, \
                service 5 ms, queue limit 6 LeastSlack, hostile_config, audit on; 10 x 60 sim-s",
        instances: 10,
        capture_trace: false,
        delivery_floor: 0.75,
        build: overload,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn steady() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(64)
        .degree(6)
        .topics(16)
        .failure_probability(0.05)
        .loss_rate(0.01)
        .duration_secs(240)
}

fn build() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(256)
        .degree(8)
        .topics(16)
        .failure_probability(0.05)
        .loss_rate(0.01)
        .duration_secs(15)
}

fn churn() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(32)
        .degree(6)
        .topics(12)
        .failure_probability(0.02)
        .loss_rate(0.01)
        .broker_churn(BrokerChurnSpec { rate: 0.2 })
        .control_plane(ControlPlane::Oracle)
        .partition(PartitionSpec {
            fraction: 0.3,
            window_secs: 4,
            period_secs: 20,
        })
        .crashes(CrashSpec {
            rate: 0.02,
            mean_down_epochs: 2.0,
        })
        .dcrd(DcrdConfig::churn_hardened())
        .audit(true)
        .duration_secs(60)
}

fn storm() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(64)
        .degree(6)
        .topics(12)
        .failure_probability(0.10)
        .bursty_failures(3.0)
        .loss_rate(0.05)
        .gray_links(GraySpec {
            fraction: 0.15,
            extra_loss: 0.2,
            delay_factor: 2.0,
        })
        .crashes(CrashSpec {
            rate: 0.02,
            mean_down_epochs: 2.0,
        })
        .transmissions(2)
        .dcrd(DcrdConfig::chaos_hardened())
        .audit(true)
        .duration_secs(40)
}

fn overload() -> ScenarioBuilder {
    const SECS: u64 = 60;
    ScenarioBuilder::new()
        .geo_tiered(4, 16)
        .topics(32)
        .failure_probability(0.0)
        .loss_rate(0.0)
        .zipf_popularity(1.2, 0.9)
        .flash_crowd(BurstConfig {
            at: SimDuration::from_secs(SECS / 4),
            len: SimDuration::from_secs(SECS / 2),
            multiplier: 4,
        })
        .service_time(SimDuration::from_millis(5))
        .bounded_queues(6, ShedPolicy::LeastSlack)
        .dcrd(hostile_config())
        .audit(true)
        .duration_secs(SECS)
}
