//! One simulation, measured from outside: the same assembly as
//! `dcrd_experiments::runner::run_once` (whose pieces are public but whose
//! body is not), with an `Instant` around each call into a layer and the
//! strategy wrapped in [`Timed`].

use std::time::Instant;

use dcrd_core::DcrdStrategy;
use dcrd_experiments::runner::{
    build_broker_churn, build_chaos, build_topology, build_workload, confine_to_churn,
};
use dcrd_experiments::scenario::{ControlPlane, Scenario};
use dcrd_metrics::RunMetrics;
use dcrd_net::failure::{
    BurstFailureModel, FailureModel, LinkFailureModel, LinkOutageModel, NodeFailureModel,
};
use dcrd_net::gossip::GossipConfig;
use dcrd_net::loss::LossModel;
use dcrd_pubsub::runtime::{DeliveryLog, Dissemination, OverlayRuntime, RuntimeConfig};
use dcrd_pubsub::strategy::RunParams;
use dcrd_pubsub::{AuditConfig, Trace};
use dcrd_sim::rng::derive_seed_indexed;

use crate::alloc::allocs;
use crate::timed::{Observed, Timed};

/// How exact counters pool over the instances of a pass.
#[derive(Clone, Copy)]
enum Pool {
    Sum,
    Max,
}

impl Pool {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Pool::Sum => a.wrapping_add(b),
            Pool::Max => a.max(b),
        }
    }
}

macro_rules! exact_counters {
    ($( $field:ident => $name:literal, $pool:ident; )*) => {
        /// Counters that must repeat exactly for a fixed seed, whichever
        /// pass produced them. Field order is report order.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Exact {
            $( pub $field: u64, )*
        }

        impl Exact {
            /// Folds another instance of the same pass into this one.
            pub fn pool(&mut self, other: &Exact) {
                $( self.$field = Pool::$pool.apply(self.$field, other.$field); )*
            }

            /// `(metric name, value)` for every counter.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![ $( ($name, self.$field), )* ]
            }
        }
    };
}

exact_counters! {
    rumors_sent => "net.gossip.rumors_sent", Sum;
    anti_entropy_rounds => "net.gossip.anti_entropy_rounds", Sum;
    gossip_deltas_applied => "net.gossip.deltas_applied", Sum;
    stale_reconciliations => "net.gossip.stale_reconciliations", Sum;
    subscriptions => "pubsub.workload.subscriptions", Sum;
    setup_allocs => "core.setup_allocs", Sum;
    table_pairs => "core.table_pairs", Sum;
    table_rounds => "core.table_rounds", Sum;
    tables_unconverged => "core.tables_unconverged", Sum;
    incremental_repairs => "core.incremental_repairs", Sum;
    global_rebuilds => "core.global_rebuilds", Sum;
    table_version => "core.table_version", Max;
    inflight_states_end => "core.inflight_states_end", Sum;
    events => "runtime.events", Sum;
    hops => "runtime.hops", Sum;
    loop_allocs => "runtime.loop_allocs", Sum;
    peak_queue_len => "runtime.peak_queue_len", Max;
    clamped_events => "runtime.clamped_events", Sum;
    sends_blocked => "runtime.sends_blocked", Sum;
    sends_lost => "runtime.sends_lost", Sum;
    acks_delivered => "runtime.acks_delivered", Sum;
    duplicate_deliveries => "runtime.duplicate_deliveries", Sum;
    suppressed => "runtime.suppressed", Sum;
    gave_up_pairs => "runtime.gave_up_pairs", Sum;
    undelivered_pairs => "runtime.undelivered_pairs", Sum;
    sheds => "runtime.sheds", Sum;
    doomed_sheds => "runtime.doomed_sheds", Sum;
    max_queue_depth => "runtime.max_queue_depth", Max;
    audit_violations => "audit.violations", Sum;
    trace_events => "trace.events", Sum;
    pairs => "metrics.pairs", Sum;
    messages => "metrics.messages", Sum;
    delivered_pairs => "metrics.delivered_pairs", Sum;
    on_time_pairs => "metrics.on_time_pairs", Sum;
    fingerprint => "metrics.outcome_fingerprint", Sum;
}

/// Host nanoseconds of each phase of one instance. `wall` is the outer
/// span; the phases are its children and `run` contains `setup`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseNs {
    pub wall: u64,
    pub topology_gen: u64,
    pub workload_gen: u64,
    pub run: u64,
    pub setup: u64,
    pub from_log: u64,
}

impl PhaseNs {
    pub fn add(&mut self, o: &PhaseNs) {
        self.wall += o.wall;
        self.topology_gen += o.topology_gen;
        self.workload_gen += o.workload_gen;
        self.run += o.run;
        self.setup += o.setup;
        self.from_log += o.from_log;
    }
}

/// One phase span of one instance: offsets are nanoseconds from the
/// measurement's origin; `parent` names another span of the same instance.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the caller wants kept from a run beyond timings and counters.
#[derive(Clone, Copy, Default)]
pub struct Keep {
    /// Per-pair simulated delays and lateness ratios (first pass only: the
    /// fingerprint covers them on later passes).
    pub samples: bool,
    /// The captured `Trace` and the link-delay mix, for the traced pass's
    /// audit-replay and hold-model measurements.
    pub layers: bool,
}

/// Everything measured on one instance.
pub struct InstanceRun {
    pub phases: PhaseNs,
    pub exact: Exact,
    pub observed: Observed,
    /// Correctness gates this run failed (empty = clean).
    pub gate_failures: Vec<String>,
    /// Publish→deliver simulated delay of every delivered pair, µs.
    pub delays_us: Vec<u64>,
    /// delay ÷ deadline of every delivered pair.
    pub lateness: Vec<f64>,
    pub trace: Option<Trace>,
    pub audit_config: Option<AuditConfig>,
    /// One-way delay of every overlay link, µs.
    pub link_delays_us: Vec<u64>,
    /// The phase spans behind `phases`, for the trace file.
    pub spans: Vec<Span>,
}

/// The runtime configuration `runner::run_once` would assemble for this
/// scenario and repetition.
fn runtime_config(scenario: &Scenario, rep: u32, capture_trace: bool) -> RuntimeConfig {
    RuntimeConfig {
        duration: scenario.duration,
        params: RunParams {
            m: scenario.m,
            ack_timeout_factor: scenario.ack_timeout_factor,
            ..RunParams::default()
        },
        seed: derive_seed_indexed(scenario.seed, "runtime", u64::from(rep)),
        monitoring: scenario.monitoring,
        ack_transit: scenario.ack_transit,
        processing_time: scenario.service_time,
        queue_limit: scenario.queue_limit,
        shed_policy: scenario.shed_policy,
        dissemination: match scenario.control_plane {
            ControlPlane::Oracle => Dissemination::Oracle,
            ControlPlane::Gossip { loss } => Dissemination::Gossip(GossipConfig {
                loss,
                seed: derive_seed_indexed(scenario.seed, "gossip", u64::from(rep)),
                ..GossipConfig::default()
            }),
            ControlPlane::None => Dissemination::None,
        },
        audit: scenario.audit.then(|| {
            let cfg = AuditConfig::for_overlay(scenario.nodes, 64);
            if scenario.audit_sequences {
                cfg.with_sequence_check()
            } else {
                cfg
            }
        }),
        capture_trace,
        ..RuntimeConfig::paper(scenario.duration, 0)
    }
}

fn failure_model(scenario: &Scenario, rep: u32) -> LinkOutageModel {
    let seed = derive_seed_indexed(scenario.seed, "failures", u64::from(rep));
    match scenario.burst_mean_epochs {
        None => LinkOutageModel::Epoch(LinkFailureModel::new(scenario.pf, seed)),
        Some(mean) => LinkOutageModel::Burst(BurstFailureModel::new(scenario.pf, mean, seed)),
    }
}

/// Runs `f` as a child span of the instance's `workload` span, recording
/// its offsets from `origin`; returns `f`'s result and its nanoseconds.
fn spanned<T>(
    spans: &mut Vec<Span>,
    origin: Instant,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let span = Span {
        name,
        parent: Some("workload"),
        start_ns: start.duration_since(origin).as_nanos() as u64,
        end_ns: end.duration_since(origin).as_nanos() as u64,
    };
    spans.push(span);
    (out, span.end_ns - span.start_ns)
}

/// Runs repetition `rep` of `scenario` under DCRD. Span offsets count from
/// `origin`.
pub fn run_instance<const TRACE: bool>(
    scenario: &Scenario,
    rep: u32,
    capture_trace: bool,
    keep: Keep,
    origin: Instant,
) -> InstanceRun {
    let mut spans = Vec::with_capacity(6);
    let mut phases = PhaseNs::default();
    let wall_start = Instant::now();

    let (topo, ns) = spanned(&mut spans, origin, "net.topology_gen", || {
        build_topology(scenario, rep)
    });
    phases.topology_gen = ns;
    let ((workload, broker_churn), ns) = spanned(&mut spans, origin, "pubsub.workload_gen", || {
        let workload = build_workload(scenario, &topo, rep);
        match build_broker_churn(scenario, &workload, rep) {
            Some(churn) => (confine_to_churn(&workload, &churn), Some(churn)),
            None => (workload, None),
        }
    });
    phases.workload_gen = ns;

    let nodes = (scenario.pn > 0.0).then(|| {
        NodeFailureModel::new(
            scenario.pn,
            derive_seed_indexed(scenario.seed, "node-failures", u64::from(rep)),
        )
    });
    let mut chaos = build_chaos(scenario, rep);
    if let Some(churn) = broker_churn {
        chaos = chaos.with_churn(churn);
    }
    let failure = FailureModel::new(failure_model(scenario, rep), nodes).with_chaos(chaos);
    let config = runtime_config(scenario, rep, capture_trace);
    let audit_config = config.audit;
    let runtime = OverlayRuntime::new(
        &topo,
        &workload,
        failure,
        LossModel::new(scenario.pl),
        config,
    );
    let mut strategy: Timed<DcrdStrategy, TRACE> = Timed::new(DcrdStrategy::new(scenario.dcrd));

    let (mut log, ns) = spanned(&mut spans, origin, "runtime.run", || {
        runtime.run(&mut strategy)
    });
    phases.run = ns;
    let allocs_after_run = allocs();
    let (metrics, ns) = spanned(&mut spans, origin, "metrics.from_log", || {
        RunMetrics::from_log(&log)
    });
    phases.from_log = ns;
    let wall_end = Instant::now();
    phases.wall = wall_end.duration_since(wall_start).as_nanos() as u64;

    // Everything below is the benchmark's own bookkeeping, outside `wall`.
    let observed = strategy.observed().clone();
    phases.setup = observed.setup_ns;
    if let Some(start) = observed.setup_start {
        let start_ns = start.duration_since(origin).as_nanos() as u64;
        spans.push(Span {
            name: "core.setup",
            parent: Some("runtime.run"),
            start_ns,
            end_ns: start_ns + observed.setup_ns,
        });
    }
    spans.push(Span {
        name: "workload",
        parent: None,
        start_ns: wall_start.duration_since(origin).as_nanos() as u64,
        end_ns: wall_end.duration_since(origin).as_nanos() as u64,
    });
    let dcrd = strategy.inner();

    let mut exact = Exact {
        rumors_sent: log.rumors_sent,
        anti_entropy_rounds: log.anti_entropy_rounds,
        gossip_deltas_applied: log.gossip_deltas_applied,
        stale_reconciliations: log.stale_reconciliations,
        subscriptions: workload.num_subscriptions() as u64,
        setup_allocs: observed.setup_allocs,
        incremental_repairs: dcrd.incremental_repairs(),
        global_rebuilds: dcrd.global_rebuilds(),
        table_version: dcrd.table_version(),
        inflight_states_end: dcrd.inflight_states() as u64,
        events: log.events_processed,
        hops: log.data_sends,
        loop_allocs: allocs_after_run - observed.allocs_after_setup,
        peak_queue_len: log.peak_queue_len as u64,
        clamped_events: log.clamped_events,
        sends_blocked: log.sends_blocked,
        sends_lost: log.sends_lost,
        acks_delivered: log.acks_delivered,
        duplicate_deliveries: log.duplicate_deliveries,
        suppressed: log.suppressed,
        sheds: log.sheds,
        doomed_sheds: log.doomed_sheds,
        max_queue_depth: log.max_queue_depth as u64,
        audit_violations: log.audit.as_ref().map_or(0, |a| a.total_violations),
        trace_events: log.trace.as_ref().map_or(0, |t| t.len() as u64),
        pairs: metrics.pairs(),
        messages: log.messages_published,
        ..Exact::default()
    };
    for topic in workload.topics() {
        for sub in &topic.subscriptions {
            if let Some(tables) = dcrd.tables_for(topic.topic, topic.publisher, sub.subscriber) {
                exact.table_pairs += 1;
                exact.table_rounds += u64::from(tables.rounds_used());
                exact.tables_unconverged += u64::from(!tables.converged());
            }
        }
    }

    let mut delays_us = Vec::new();
    let mut lateness = Vec::new();
    if keep.samples {
        delays_us.reserve(log.num_expectations());
        lateness.reserve(log.num_expectations());
    }
    // FNV-1a over every pair's fate, in the log's (deterministic) order.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((packet, node), exp) in log.expectations() {
        mix(packet.raw());
        mix(node.index() as u64);
        mix(exp.delivered.map_or(u64::MAX, |at| at.as_micros()));
        mix(u64::from(exp.gave_up) | u64::from(exp.shed_doomed) << 1);
        match exp.delivered {
            Some(at) => {
                exact.delivered_pairs += 1;
                exact.on_time_pairs += u64::from(exp.on_time());
                if keep.samples {
                    delays_us.push(at.saturating_since(exp.published).as_micros());
                    lateness.extend(exp.lateness_ratio());
                }
            }
            None => exact.undelivered_pairs += 1,
        }
        exact.gave_up_pairs += u64::from(exp.gave_up);
    }
    exact.fingerprint = hash;

    let gate_failures = gate_failures(&log, &exact);
    let (trace, link_delays_us) = if keep.layers {
        (
            log.trace.take(),
            topo.edge_ids().map(|e| topo.delay(e).as_micros()).collect(),
        )
    } else {
        (None, Vec::new())
    };

    InstanceRun {
        phases,
        exact,
        observed,
        gate_failures,
        delays_us,
        lateness,
        trace,
        audit_config,
        link_delays_us,
        spans,
    }
}

/// The outright-failure conditions: any of these makes the run's numbers
/// meaningless, whatever they read.
fn gate_failures(log: &DeliveryLog, exact: &Exact) -> Vec<String> {
    let must_be_zero = [
        (u64::from(log.truncated), "run truncated at max_events"),
        (log.runtime_errors, "runtime errors"),
        (log.invalid_sends, "invalid sends"),
        (log.invalid_delivers, "invalid delivers"),
        (log.clamped_events, "events scheduled into the past"),
        (exact.audit_violations, "audit violations"),
        (exact.tables_unconverged, "unconverged tables"),
        (u64::from(exact.pairs == 0), "run without any expected pair"),
    ];
    must_be_zero
        .iter()
        .filter(|(count, _)| *count > 0)
        .map(|(count, what)| format!("{count} {what}"))
        .collect()
}
