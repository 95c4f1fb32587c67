//! The one table of metrics: `--list`, the run's output, the report and
//! the `BENCHMARK.json` consistency test all read it, so code and JSON
//! cannot drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric's value comes from, which decides how the report treats
/// run-to-run differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: noisy, compared by median against the bound.
    Host,
    /// Simulated outcome or exact counter: must repeat exactly for a seed.
    Exact,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen.
    pub bound: Option<f64>,
    pub kind: Kind,
    /// Definition, and what it moves / is moved by.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        kind,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        kind,
        note,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// What a user of the simulator sees: host cost of a pass and the paper's
/// simulated outcomes. Measured with tracing off.
pub const END_TO_END: [Metric; 9] = [
    e2e("wall_us_per_pair", "us", Lower, 0.25, Host,
        "median over passes of (generation + runtime.run() + RunMetrics::from_log) / expected (message, subscriber) pairs: host cost per unit of simulated work"),
    e2e("setup_s", "s", Lower, 0.25, Host,
        "median over passes of net.topology_gen_s + pubsub.workload_gen_s + core.setup_s, summed over the pass; moved by table construction"),
    e2e("events_per_s", "events/s", Higher, 0.25, Host,
        "median over passes of events processed / (runtime.run() wall - core.setup_s): the steady-state event loop only"),
    e2e("allocs_per_hop", "count", Lower, 0.05, Exact,
        "allocations inside the event loop / data sends"),
    e2e("delivery_ratio", "ratio", Higher, 0.10, Exact,
        "delivered (message, subscriber) pairs / expected pairs"),
    e2e("qos_delivery_ratio", "ratio", Higher, 0.15, Exact,
        "pairs delivered within their deadline / expected pairs (the paper's headline)"),
    e2e("packets_per_subscriber", "count", Lower, 0.20, Exact,
        "data sends / expected pairs (the paper's traffic metric)"),
    e2e("delay_p50_ms", "ms", Lower, 0.20, Exact,
        "median simulated publish->deliver delay over delivered pairs"),
    e2e("delay_p99_ms", "ms", Lower, 0.25, Exact,
        "99th percentile of the same (every workload has >1e4 samples per pass)"),
];

/// Single layers, measured from outside by timing calls into public
/// functions. Times are medians over traced passes; counts are exact.
pub const PER_LAYER: [Metric; 72] = [
    // net
    layer("net.topology_gen_s", "s", Lower, Host, "runner::build_topology; part of setup_s"),
    layer("net.gossip.rumors_sent", "count", Lower, Exact, "gossip pushes; control-plane traffic on churn"),
    layer("net.gossip.anti_entropy_rounds", "count", Lower, Exact, "digest exchanges"),
    layer("net.gossip.deltas_applied", "count", Higher, Exact, "membership deltas that converged and reached routing"),
    layer("net.gossip.stale_reconciliations", "count", Lower, Exact, "entries transferred by anti-entropy"),
    // pubsub.workload
    layer("pubsub.workload_gen_s", "s", Lower, Host, "runner::build_workload (+ churn confinement); part of setup_s"),
    layer("pubsub.workload.subscriptions", "count", Lower, Exact, "subscriptions generated = fixed points to solve"),
    // core, setup
    layer("core.setup_s", "s", Lower, Host, "RoutingStrategy::setup: initial table construction; moves setup_s, wall_us_per_pair on build-256"),
    layer("core.setup_allocs", "count", Lower, Exact, "allocations inside setup"),
    layer("core.table_pairs", "count", Lower, Exact, "(topic, publisher, subscriber) tables built"),
    layer("core.table_rounds", "count", Lower, Exact, "sum of SubscriberTables::rounds_used(): Jacobi rounds"),
    layer("core.tables_unconverged", "count", Lower, Exact, "tables that hit the round cap (correctness gate: must be 0)"),
    layer("core.setup_ns_per_pair", "ns", Lower, Host, "core.setup_s / core.table_pairs"),
    // core, router callbacks
    layer("core.on_publish_s", "s", Lower, Host, "time inside on_publish"),
    layer("core.on_publish_calls", "count", Lower, Exact, "on_publish calls"),
    layer("core.on_packet_s", "s", Lower, Host, "time inside on_packet; moves events_per_s on steady-64"),
    layer("core.on_packet_calls", "count", Lower, Exact, "on_packet calls"),
    layer("core.on_ack_s", "s", Lower, Host, "time inside on_ack; moves events_per_s on steady-64"),
    layer("core.on_ack_calls", "count", Lower, Exact, "on_ack calls"),
    layer("core.on_timer_s", "s", Lower, Host, "time inside on_timer; moves events_per_s on storm-64"),
    layer("core.on_timer_calls", "count", Lower, Exact, "on_timer calls (every send arms one; most find their ACK already in)"),
    layer("core.on_tick_s", "s", Lower, Host, "time inside on_tick (recovery sweep)"),
    layer("core.on_tick_calls", "count", Lower, Exact, "on_tick calls"),
    layer("core.on_restart_s", "s", Lower, Host, "time inside on_restart (journal replay)"),
    layer("core.on_restart_calls", "count", Lower, Exact, "on_restart calls"),
    layer("core.repair_s", "s", Lower, Host, "time inside on_membership + on_gossip + on_monitor; moves wall_us_per_pair on churn-32"),
    layer("core.repair_calls", "count", Lower, Exact, "those calls; 0 wherever membership is static"),
    layer("core.actions", "count", Lower, Exact, "actions pushed by all callbacks"),
    layer("core.callback_p99_ns", "ns", Lower, Host, "upper edge of the log2 bucket holding the 99th percentile callback"),
    layer("core.slow_path_share", "ratio", Lower, Exact, "sends that were blocked or lost (so their ACK timer acted) / data sends"),
    layer("core.incremental_repairs", "count", Lower, Exact, "DcrdStrategy::incremental_repairs()"),
    layer("core.global_rebuilds", "count", Lower, Exact, "DcrdStrategy::global_rebuilds(): from-scratch rebuilds after setup"),
    layer("core.table_version", "count", Lower, Exact, "highest table version stamped"),
    layer("core.inflight_states_end", "count", Lower, Exact, "per-broker packet states left at run end"),
    // pubsub.runtime
    layer("runtime.run_s", "s", Lower, Host, "OverlayRuntime::run"),
    layer("runtime.loop_s", "s", Lower, Host, "runtime.run_s - core.setup_s: the event loop"),
    layer("runtime.self_s", "s", Lower, Host, "runtime.loop_s - all core callback time: queue, dispatch, draws, ledger, audit, trace"),
    layer("runtime.events", "count", Lower, Exact, "events processed"),
    layer("runtime.hops", "count", Lower, Exact, "data sends"),
    layer("runtime.loop_ns_per_event", "ns", Lower, Host, "runtime.loop_s / runtime.events"),
    layer("runtime.loop_ns_per_hop", "ns", Lower, Host, "runtime.loop_s / runtime.hops"),
    layer("runtime.loop_allocs", "count", Lower, Exact, "allocations inside the event loop; moves allocs_per_hop"),
    layer("runtime.peak_queue_len", "count", Lower, Exact, "largest event-queue length of any instance"),
    layer("runtime.clamped_events", "count", Lower, Exact, "events scheduled into the past (gate: must be 0)"),
    layer("runtime.sends_blocked", "count", Lower, Exact, "sends onto a failed link"),
    layer("runtime.sends_lost", "count", Lower, Exact, "sends dropped by random loss"),
    layer("runtime.acks_delivered", "count", Higher, Exact, "hop-by-hop ACKs delivered"),
    layer("runtime.ack_ratio", "ratio", Higher, Exact, "acks / sends: useful / attempted transmissions"),
    layer("runtime.duplicate_deliveries", "count", Lower, Exact, "second deliveries of a pair"),
    layer("runtime.suppressed", "count", Lower, Exact, "duplicates absorbed by dedup windows"),
    layer("runtime.gave_up_pairs", "count", Lower, Exact, "pairs the router explicitly abandoned"),
    layer("runtime.undelivered_pairs", "count", Lower, Exact, "expected pairs never delivered"),
    layer("runtime.sheds", "count", Lower, Exact, "packets shed by bounded queues; non-zero only on overload-64"),
    layer("runtime.doomed_sheds", "count", Lower, Exact, "sheds of already-unsatisfiable traffic"),
    layer("runtime.max_queue_depth", "count", Lower, Exact, "deepest broker service queue"),
    // sim
    layer("sim.hold_ns_per_event", "ns", Lower, Host, "hold model on a standalone EventQueue at the run's peak length and delay mix"),
    layer("sim.hold_share", "ratio", Lower, Host, "sim.hold_ns_per_event x events / runtime.loop_s: the queue's share of the loop"),
    // pubsub.audit / pubsub.trace
    layer("audit.replay_s", "s", Lower, Host, "fresh InvariantAuditor over the captured Trace (storm-64 only)"),
    layer("audit.events", "count", Lower, Exact, "events replayed"),
    layer("audit.replay_ns_per_event", "ns", Lower, Host, "audit.replay_s / audit.events"),
    layer("audit.violations", "count", Lower, Exact, "violations the in-run auditor found (gate: must be 0)"),
    layer("trace.events", "count", Lower, Exact, "events captured in the Trace"),
    layer("trace.digest_s", "s", Lower, Host, "Trace::digest over the captured events"),
    // metrics
    layer("metrics.from_log_s", "s", Lower, Host, "RunMetrics::from_log"),
    layer("metrics.pairs", "count", Lower, Exact, "expected (message, subscriber) pairs"),
    layer("metrics.lateness_p99", "ratio", Lower, Exact, "99th percentile of delay / deadline over delivered pairs (Fig. 7's axis)"),
    // host
    layer("host.pass_wall_s", "s", Lower, Host, "generation + runtime.run() + RunMetrics::from_log summed over one traced pass"),
    layer("host.peak_rss_mb", "MiB", Lower, Host, "VmHWM of the traced process (it also holds the benchmark's samples and spans); moved by auditor maps, Trace capture, tables"),
    layer("host.cpu_share", "ratio", Higher, Host, "process CPU time / wall time over the kept passes; below 0.9 the host starved the run"),
    layer("host.discarded_passes", "count", Lower, Host, "passes dropped from the medians because their cpu share was below 0.9"),
    layer("host.passes", "count", Higher, Host, "traced passes the medians are taken over"),
    layer("host.trace_overhead_pct", "%", Lower, Host, "traced vs untraced median pass wall, interleaved in the same process"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
            }
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for c in crate::timed::Callback::ALL {
            assert!(find(c.seconds_metric()).is_some());
            assert!(find(c.calls_metric()).is_some());
        }
    }
}
